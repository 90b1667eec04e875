"""Command-line front end for building and checking designs.

Subcommands: construct (build a design of an admissible order, certified
once in memory, and write its certificate), verify (check a certificate
file), gdd (build a group divisible design and verify it once, before
printing or writing it), catalog (print the shipped base blocks and
target graphs), selftest (run the internal cross-checks).  construct's
certify and gdd's verify_gdd are the construction pipeline's own
checks; besides them only ingredient files are verified, on load.

Exit status: 0 success or pass, 1 verification failure, 2 usage error or
missing ingredient.
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import sys
from pathlib import Path
from typing import Callable, Sequence

from .assemble import ConstructionError, construct_design
from .blocks import (
    BaseBlock,
    DevelopmentError,
    catalog,
    develop,
    difference_transversal_check,
    k4444_decomposition,
)
from .certify import (
    Certificate,
    CertificateParseError,
    CertMode,
    certify,
    certify_file,
    edge_table_errors,
)
from .gdd import (
    NODE_BUDGET,
    Gdd,
    GddError,
    GddType,
    IngredientStore,
    exact_cover_search,
    gdd_24_t,
    read_gdd_file,
    verify_gdd,
    write_gdd_file,
)
from .targets import (
    DEFINITIONS,
    TargetId,
    format_edge_list,
    k4_count,
    line_k44,
    matches_definition,
    shrikhande,
    srg_parameters,
    target_graph,
)


def _node_budget(text: str) -> int:
    try:
        budget = int(text)
    except ValueError:
        budget = 0
    if budget < 1:
        raise argparse.ArgumentTypeError(f"want an integer >= 1, got {text!r}")
    return budget


@functools.cache  # built on the first main call, not at import
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="design-forge",
        description="Build and verify edge decompositions of complete graphs "
        "into the Shrikhande graph or the line graph of K(4,4).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a design and write its certificate")
    p.add_argument("--graph", required=True, choices=[t.value for t in TargetId])
    p.add_argument("--order", required=True, type=int)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--ingredients", type=Path, default=None,
                   help="directory of ingredient GDD files (default: the packaged store)")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="certify a certificate file")
    p.add_argument("path", type=Path)
    p.add_argument("--raw", action="store_true",
                   help="also check the target's edge table against its definition")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gdd", help="build and verify a 4-GDD")
    p.add_argument("--type", required=True, dest="gdd_type", metavar="TYPE",
                   help="group type, e.g. 24^5 or 3^5")
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--ingredients", type=Path, default=None)
    p.add_argument("--budget", type=_node_budget, default=NODE_BUDGET,
                   help="node budget for the exact-cover search, the 24^t route's "
                   f"fallback included (default {NODE_BUDGET}; README gives what it costs); "
                   "exit 2 if it runs out")
    p.set_defaults(func=_cmd_gdd)

    p = sub.add_parser("catalog", help="print the shipped base blocks and target graphs")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("selftest", help="run the internal cross-checks")
    p.set_defaults(func=_cmd_selftest)

    return parser


def _store(args: argparse.Namespace) -> IngredientStore | None:
    if args.ingredients is not None:
        return IngredientStore(args.ingredients)
    return None  # construct/gdd fall back to the packaged store


def _print_report(report) -> None:
    print(report.summary())
    for msg in report.label_errors[:20]:
        print(f"  label: {msg}")
    for (u, v), count in report.pair_errors[:20]:
        print(f"  pair ({u},{v}) covered {count} times, want 1")
    for msg in report.part_errors[:20]:
        print(f"  part: {msg}")
    shown = min(len(report.label_errors), 20) + min(len(report.pair_errors), 20)
    total = len(report.label_errors) + report.pair_error_count + len(report.part_errors)
    if total > shown + min(len(report.part_errors), 20):
        print(f"  ... {total} problems in total")


def _is_stdout(path: Path) -> bool:
    """Whether path is this process's stdout (/dev/stdout, say), where a
    status line printed after the certificate or GDD file would trail it,
    so that `construct --out /dev/stdout | verify /dev/stdin` would fail
    to parse."""
    try:
        return os.path.samestat(os.stat(path), os.fstat(1))
    except OSError:  # stdout closed
        return False


def _cmd_construct(args: argparse.Namespace) -> int:
    # construct_design counts the design's slices, its one certification,
    # and only then makes them again and writes them to --out; a design that
    # fails raises ConstructionError (exit 1) before the file is opened.  The
    # design is never held whole nor read back, so --out may be a pipe or
    # /dev/null; the golden digests and verify runs in the tests pin it.
    construct_design(TargetId(args.graph), args.order, _store(args), out=args.out)
    status = sys.stderr if _is_stdout(args.out) else sys.stdout
    print(f"{args.out}: {args.graph} order {args.order}, "
          f"PASS ({args.order * (args.order - 1) // 96} blocks, all pairs covered exactly once)",
          file=status)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    # certify_file streams a file or pipe as construct writes it, holding the
    # pair counts and one piece; any other file it reads and certifies whole
    try:
        target, mode, report = certify_file(args.path)
    except CertificateParseError as exc:
        print(f"{args.path}: parse error: {exc}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:
        print(f"{args.path}: error: {exc}", file=sys.stderr)
        return 2
    if args.raw and mode is not CertMode.COMPLETE:
        print("error: --raw applies to complete-mode certificates only", file=sys.stderr)
        return 2
    if args.raw:
        report.part_errors += edge_table_errors(target)
    _print_report(report)
    return 0 if report.passed else 1


def _cmd_gdd(args: argparse.Namespace) -> int:
    gdd_type = GddType.parse(args.gdd_type)
    design = None
    if gdd_type.block_count(4) is None:
        reason = "cross pairs not a multiple of 6"
    elif gdd_type.group_count() < 4:
        reason = "fewer than 4 groups"
    elif {g for g, _ in gdd_type.parts} == {24}:
        design = gdd_24_t(gdd_type.group_count(), _store(args), node_budget=args.budget)
    else:
        design = exact_cover_search(gdd_type, 4, node_budget=args.budget)
        reason = "search tree exhausted"
    if design is None:
        print(f"no 4-GDD of type {gdd_type} exists ({reason})", file=sys.stderr)
        return 1
    # the one check of the design handed out: nothing is written unless it passes
    report = verify_gdd(design)
    if not report.passed:
        print(f"error: 4-GDD of type {design.gdd_type} failed verification: {report.summary()}",
              file=sys.stderr)
        return 1
    status, named = sys.stdout, ""
    if args.out is not None:
        write_gdd_file(design, args.out)
        status = sys.stderr if _is_stdout(args.out) else sys.stdout
        named = f"{args.out}: "
    print(f"{named}4-GDD of type {design.gdd_type}, {len(design.blocks)} blocks, verified",
          file=status)
    if design.provenance:
        print(f"  via {design.provenance}", file=status)
    return 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    print("base blocks (target order omega labels):")
    for (target, n), block in sorted(catalog().items(), key=lambda kv: (kv[0][0].value, kv[0][1])):
        labels = " ".join(str(x) for x in block.labels)
        print(f"  {target.value} {n} {block.omega} {labels}")
    for target in TargetId:
        print(f"\n{target.value} edge list:")
        sys.stdout.write(format_edge_list(target_graph(target).graph))
    return 0


def _mutations(block: BaseBlock, count: int, rng: random.Random) -> list[BaseBlock]:
    out = []
    n = block.ring.order
    for _ in range(count):
        labels = list(block.labels)
        pos = rng.randrange(16)
        labels[pos] = (labels[pos] + rng.randrange(1, n)) % n
        out.append(BaseBlock(tuple(labels), block.target, block.ring, block.omega))
    return out


def _develop_certifies(block: BaseBlock) -> bool:
    try:
        design = develop(block)
    except DevelopmentError:
        return False
    return certify(design).passed


def _gdd_verifies(build: Callable[..., Gdd], *args) -> bool:
    try:
        return verify_gdd(build(*args)).passed
    except GddError:  # a file that fails to load, or a missing ingredient
        return False


def _cmd_selftest(args: argparse.Namespace) -> int:
    failures = 0

    def check(name: str, ok: bool) -> None:
        nonlocal failures
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        failures += 0 if ok else 1

    for target in (shrikhande(), line_k44()):
        check(f"{target.id.value} is srg(16,6,2,2)",
              srg_parameters(target.graph) == (16, 6, 2, 2))
        check(f"{target.id.value} edge table is {DEFINITIONS[target.id][0]}",
              matches_definition(target.id))
    check("the two targets are non-isomorphic",
          k4_count(shrikhande().graph) != k4_count(line_k44().graph))

    for target in TargetId:
        pieces = Certificate(target, 16, CertMode.FOUR_PARTITE, k4444_decomposition(target))
        check(f"{target.value}: the two K_{{4,4,4,4}} pieces certify in 4partite mode",
              certify(pieces).passed)

    rng = random.Random(20260816)
    for (target, n), block in sorted(catalog().items(), key=lambda kv: (kv[0][0].value, kv[0][1])):
        check(f"{target.value} {n}: develops to a certified design",
              difference_transversal_check(block) and _develop_certifies(block))
        agree = all(
            difference_transversal_check(m) == _develop_certifies(m)
            for m in _mutations(block, 20, rng)
        )
        check(f"{target.value} {n}: transversal criterion agrees with develop+certify "
              f"on 20 mutations", agree)

    store = IngredientStore.default()
    for path in sorted(store.directory.glob("*.txt")):
        check(f"ingredient {path.name} loads and verifies", _gdd_verifies(read_gdd_file, path))
    for t in (4, 5):
        check(f"4-GDD of type 24^{t} verifies", _gdd_verifies(gdd_24_t, t, store))

    print(f"{failures} failures" if failures else "all checks passed")
    return 1 if failures else 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConstructionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        # non-admissible orders, malformed types, missing ingredients, spent
        # search budgets, bad paths
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
