#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of design-forge.

Run from the repository root:

    python3 bench/run.py --workload construct-all --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

Every operation is one `design-forge` command, run as
`design_forge.cli.main(argv)` in this process with stdout and stderr
captured.  Load is a closed loop: one client, one operation at a time, no
threads.  `gc.collect()` runs untimed before each operation, as each real
CLI call starts a fresh process with nothing to collect.  Set-up that every
CLI call pays (interpreter start, imports, catalog and target graphs) is
measured apart, as `setup_s`, in fresh interpreters.

Workloads (inputs come from --seed; the program sees only the files):

* construct-all: a cycle is 12 `construct` commands, both targets x
  {97, 193, 289 (catalog), 385 (TD(4,24)), 481 (stored 6^5), 481 with an
  empty ingredient directory (searched 3^5)}, in a seeded order.
* verify-mixed: a cycle is a valid phase, `verify` of the 10 certificates
  `construct` makes for both targets x 97..481 (built untimed in set-up),
  then a reject phase: for each target the 481 certificate with one label
  changed, one block dropped (count adjusted), one label out of range, cut
  inside its middle block; plus the hostile header `design shrikhande
  1000000001 complete` / `blocks 0`.  Positions are seeded.
* verify-raw: a cycle is `verify --raw` of both targets x 97, 193, 289.

Checks, on every operation: each construct certificate must match its
SHA-256 pin (PINS), valid verifies must exit 0 and corrupt inputs must exit
1 or 2.  An operation fails when an exception escapes `main`, the exit code
is wrong or the digest differs; the run goes on.  `failed` counts them all.
`correct` is false when some operation gave a wrong answer, and the run
then exits 1.  Every failure is a wrong answer but one: the hostile header
is known to escape as numpy's MemoryError today (Op.known_escape), so
verify-mixed fails that one operation per cycle without being incorrect.
Any other exception, and any exception from any other operation, is wrong.

With --trace 0 the last stdout line carries the gated end-to-end metrics:
setup_s (fresh-interpreter set-up in reference seconds, see setup_seconds),
cycle_s_p50 and cycle_s_tail (the median cycle and
the highest percentile with ten cycles beyond it, in reference seconds, see
the measurement section; a verify-mixed cycle is its valid plus its reject
phase) and peak_mib (tracemalloc peak of the workload's largest operation,
in its own untimed pass).  The lines above it give the same figures under
per-workload names (construct_s_p50, raw_s_tail, verify_peak_mib, ...), each
verify-mixed phase (verify_s_p50, reject_s_p50, ...), wall-clock medians
(*_wall_s_p50, setup_wall_s) and ops_failed_frac.  `--workload all` runs the
three in turn and reports all of these by their per-workload names.  With
--trace 1 (one workload at a time),
untraced and traced cycles alternate; the traced ones give per-layer
figures per cycle (see spans.py and per_layer) and the pair gives the
tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from spans import MODULES, Tracer

ROOT = Path.cwd()
WORK = ROOT / ".bench_work"
TARGETS = ("shrikhande", "lk44")
ROUTES = ((97, "catalog"), (193, "catalog"), (289, "catalog"),
          (385, "td"), (481, "stored"), (481, "searched"))
HOSTILE = "design shrikhande 1000000001 complete\nblocks 0\n"

# SHA-256 of the certificate `construct` writes, by "<target> <order> <route>".
PINS = {
    "shrikhande 97 catalog":
        "95b799eb4325e34e4a7fb85464d93d148272ff4f7e2dafcc5a12751583011584",
    "shrikhande 193 catalog":
        "e9c0294d55301c1249618ee3c200f96942d64d9b1c53fb7d01620068edd748f2",
    "shrikhande 289 catalog":
        "1412c5e85c1a95a4cbaa998cc7d91f1b7c2068022e02c5498d9394a590af9f10",
    "shrikhande 385 td":
        "816f4c1c4ecb96a3f34d6b2b660da39d0a6b258cfd3af341accaa7910610a950",
    "shrikhande 481 stored":
        "e0dfb05a74cf1543350e79f8c688f24dc5db93ad818aa73fa2b3167045cc22d3",
    "shrikhande 481 searched":
        "976a1a3469ebf7394a661e9ee507183e92a13ca3be2853a0a4b0f6d75980ef17",
    "lk44 97 catalog":
        "00e99e79e2e94a8fce070a8d0d2334a13ae0cc8bc22d550d698ff8bd302cee58",
    "lk44 193 catalog":
        "d3d6afe38d208ce3c1b3518cd7b14d449f3116f172761565aac926e506b740d5",
    "lk44 289 catalog":
        "7923dad1a8b2458e17a0a969c7df33bbe5e36f4e7c3a4bd5005330b78adf7558",
    "lk44 385 td":
        "7b1e721ffda99cdce27589924223ac3467bfded5738625a19d23f3ff14a6e730",
    "lk44 481 stored":
        "6ed4ad35e56036c1ad3d49d43d1fbeb0c30abb0e088de59012c7873789ec1b53",
    "lk44 481 searched":
        "fe648103a843e48e391c7a8b90592e552b4a8df6e27245a37d9a4dce80cd3daa",
}

SETUP_CHILD = (
    "import sys; sys.path.insert(0, 'src')\n"
    "from design_forge import cli\n"
    "from design_forge.blocks import catalog\n"
    "from design_forge.targets import TargetId, target_graph\n"
    "catalog(); [target_graph(t) for t in TargetId]\n"
    "print('ready', flush=True)\n"
)
# fixed fresh-interpreter work that setup_s is scaled by; see setup_seconds
START_PROBE_CHILD = "import numpy\nprint('ready', flush=True)\n"
REF_START_S = 0.16
SETUP_PAIRS = 15


@dataclass
class Op:
    name: str
    argv: list[str]
    expect: tuple[int, ...]
    out: Path | None = None  # construct's certificate, checked against PINS[name]
    # an exception known to escape main today: a failure, but not a wrong answer
    known_escape: type[BaseException] | None = None


@dataclass
class Workload:
    phases: dict[str, list[Op]]  # a cycle runs each phase once, in this order
    peak_op: Op                  # a largest operation, for peak_mib


# per-workload names: the cycle figures are <prefix>_s_p50 and <prefix>_s_tail
PREFIX = {"construct-all": "construct", "verify-mixed": "mixed", "verify-raw": "raw"}
PEAK = {"construct-all": "construct_peak_mib", "verify-mixed": "verify_peak_mib",
        "verify-raw": "raw_peak_mib"}


class Runner:
    """Runs operations through cli.main and checks each one."""

    def __init__(self, pins: dict[str, str]):
        from design_forge import cli
        self.cli = cli
        self.pins = pins
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reported: set[str] = set()

    def run(self, op: Op, probe: bool = True) -> tuple[float, float]:
        """Run and check `op`; returns its (wall, reference) seconds."""
        if op.out is not None:
            op.out.unlink(missing_ok=True)  # a stale certificate must not pass
        gc.collect()
        before = speed_probe() if probe else REF_PROBE_S
        sink = io.StringIO()
        self.attempted += 1
        code = None
        problem = None
        known = False
        with redirect_stdout(sink), redirect_stderr(sink):
            t0 = perf_counter()
            try:
                code = self.cli.main(op.argv)
            except Exception as exc:  # one bad operation must not end the run
                problem = f"{type(exc).__name__} escaped: {exc}"
                known = op.known_escape is not None and isinstance(exc, op.known_escape)
            dt = perf_counter() - t0
        wrong = problem is not None and not known
        if problem is None and code not in op.expect:
            problem, wrong = f"exit {code}, want one of {op.expect}", True
        if problem is None and op.out is not None:
            digest = op.out.is_file() and hashlib.sha256(op.out.read_bytes()).hexdigest()
            if not digest:
                problem, wrong = "no certificate written", True
            elif digest != self.pins.get(op.name):
                problem, wrong = f"certificate SHA-256 {digest} does not match its pin", True
        if problem is not None:
            self.failed += 1
            self.wrong += wrong
            if op.name not in self.reported:
                self.reported.add(op.name)
                print(f"FAILED {op.name}: {problem}", file=sys.stderr)
        after = speed_probe() if probe else REF_PROBE_S
        return dt, dt * 2 * REF_PROBE_S / (before + after)


def _construct_ops(work: Path, routes=ROUTES) -> list[Op]:
    empty = work / "no-ingredients"
    empty.mkdir(exist_ok=True)
    ops = []
    for target in TARGETS:
        for n, route in routes:
            out = work / f"{target}-{n}-{route}.cert"
            argv = ["construct", "--graph", target, "--order", str(n), "--out", str(out)]
            if route == "searched":
                argv += ["--ingredients", str(empty)]
            ops.append(Op(f"{target} {n} {route}", argv, (0,), out))
    return ops


def _certificates(runner: Runner, work: Path, orders) -> dict[tuple[str, int], Path]:
    """Construct (untimed) and pin-check the certificates the verify workloads read."""
    ops = _construct_ops(work, [(n, r) for n, r in ROUTES if n in orders and r != "searched"])
    for op in ops:
        runner.run(op, probe=False)
    if runner.failed:
        raise SystemExit("set-up failed: a certificate did not build or match its pin")
    certs = {}
    for op in ops:
        target, n, _ = op.name.split()
        certs[(target, int(n))] = op.out
    return certs


def _corruptions(text: str, n: int, rng: random.Random) -> dict[str, str]:
    """Four rejectable variants of a valid certificate, at seeded positions."""
    lines = text.splitlines(keepends=True)
    head, body = lines[:2], lines[2:]

    def with_block(i: int, labels: list[str]) -> str:
        return "".join(head + body[:i] + [" ".join(labels) + "\n"] + body[i + 1:])

    i, j = rng.randrange(len(body)), rng.randrange(16)
    labels = body[i].split()
    labels[j] = str((int(labels[j]) + rng.randrange(1, n)) % n)
    changed = with_block(i, labels)

    i = rng.randrange(len(body))
    dropped = "".join([head[0], f"blocks {len(body) - 1}\n"] + body[:i] + body[i + 1:])

    i, j = rng.randrange(len(body)), rng.randrange(16)
    labels = body[i].split()
    labels[j] = str(n + rng.randrange(n))
    out_of_range = with_block(i, labels)

    # verify stops at the cut, so cutting a seeded block would move a cycle's
    # work from seed to seed by up to a quarter; cut the middle block instead,
    # at a seeded point
    i = len(body) // 2
    start = sum(map(len, head + body[:i]))
    truncated = text[:start + rng.randrange(1, len(body[i]) - 1)]
    return {"label-changed": changed, "block-dropped": dropped,
            "label-out-of-range": out_of_range, "truncated": truncated}


def build_workload(name: str, runner: Runner, work: Path, rng: random.Random) -> Workload:
    if name == "construct-all":
        ops = _construct_ops(work)
        peak = [op for op in ops if op.name.endswith("481 stored")]
        return Workload({"construct": ops}, rng.choice(peak))
    if name == "verify-mixed":
        certs = _certificates(runner, work, (97, 193, 289, 385, 481))
        valid = [Op(f"verify {t} {n}", ["verify", str(p)], (0,)) for (t, n), p in certs.items()]
        reject = []
        for target in TARGETS:
            text = certs[(target, 481)].read_text(encoding="utf-8")
            for kind, bad in _corruptions(text, 481, rng).items():
                path = work / f"{target}-481-{kind}.cert"
                path.write_text(bad, encoding="utf-8")
                reject.append(Op(f"verify {target} 481 {kind}", ["verify", str(path)], (1, 2)))
        hostile = work / "hostile-header.cert"
        hostile.write_text(HOSTILE, encoding="utf-8")
        reject.append(Op("verify hostile header", ["verify", str(hostile)], (1, 2),
                         known_escape=MemoryError))
        peak = [op for op in valid if op.name.endswith(" 481")]
        return Workload({"verify": valid, "reject": reject}, rng.choice(peak))
    if name == "verify-raw":
        certs = _certificates(runner, work, (97, 193, 289))
        ops = [Op(f"verify --raw {t} {n}", ["verify", "--raw", str(p)], (0,))
               for (t, n), p in certs.items()]
        peak = [op for op in ops if op.name.endswith(" 289")]
        return Workload({"raw": ops}, rng.choice(peak))
    raise ValueError(f"unknown workload {name!r}")


# --- measurement -------------------------------------------------------------
#
# On a shared 2-vCPU Xeon VM the speed of the same code was seen to swing by
# up to 2x within seconds, in wall and CPU time alike.  So every timed
# operation is bracketed by a speed probe, a fixed mix of the work the
# package does (integer loops, tuples, text format and parse, a numpy
# scatter-add), and its time is also reported in reference seconds: wall
# seconds x REF_PROBE_S / (mean probe time around it).  The probe is
# benchmark code, so a change to the package moves reference seconds just as
# it moves wall seconds, while swings of the machine's speed largely cancel.
# On that VM, over five seeds of construct-all, this cut the range of the
# median cycle from 18% (wall) to under 2% (reference).

REF_PROBE_S = 0.003
_PROBE_COUNTS = np.zeros(1 << 14, dtype=np.int64)
_PROBE_INDEX = (np.arange(1 << 16) * 7919) % (1 << 14)


def speed_probe() -> float:
    """Seconds taken by a fixed piece of work, about REF_PROBE_S."""
    t0 = perf_counter()
    acc = 0
    for i in range(10000):
        acc += (i * i + 3) % 97
    rows = [tuple((i * 31 + j) % 481 for j in range(16)) for i in range(240)]
    text = "\n".join(" ".join(map(str, row)) for row in rows)
    if [tuple(int(t) for t in line.split()) for line in text.splitlines()] != rows:
        raise AssertionError("speed probe miscomputed")
    np.add.at(_PROBE_COUNTS, _PROBE_INDEX, 1)
    return perf_counter() - t0


def _start(code: str) -> float:
    """Wall seconds from starting a fresh interpreter on `code` until it
    prints its ready line."""
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                          stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        dt = perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise SystemExit(f"set-up probe failed: {code.splitlines()[-2]!r} did not run")
    return dt


def setup_seconds(pairs: int = SETUP_PAIRS) -> tuple[float, float]:
    """(reference, wall) median seconds from starting a fresh interpreter
    until the CLI module is imported, the catalog loaded and the target
    graphs built.

    Each set-up start is paired with a start of a fixed probe, a fresh
    interpreter that only imports numpy, and the reference figure is the
    median set-up/probe ratio times REF_START_S.  The in-process speed probe
    does not track interpreter starts, which load shared libraries and start
    numpy's BLAS threads on both cores; the paired start does.  On the
    2-vCPU VM of bench/baseline.json, over ten runs, this cut the quartile
    spread of the median from about 20% (wall) to about 3%."""
    _start(SETUP_CHILD)  # warms the bytecode and file caches, untimed
    _start(START_PROBE_CHILD)
    ratios, walls = [], []
    for _ in range(pairs):
        setup = _start(SETUP_CHILD)
        ratios.append(setup / _start(START_PROBE_CHILD))
        walls.append(setup)
    return statistics.median(ratios) * REF_START_S, statistics.median(walls)


def peak_mib(runner: Runner, op: Op) -> float:
    """tracemalloc peak of one run of `op`, in MiB.  The two targets' peaks
    differ by under 0.1%, so each run measures one, chosen by the seed."""
    gc.collect()
    tracemalloc.start()
    try:
        runner.run(op, probe=False)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def run_cycle(runner: Runner, workload: Workload, rng: random.Random) -> dict[str, tuple]:
    """One cycle; per phase, (wall seconds, reference seconds)."""
    times = {}
    for phase, ops in workload.phases.items():
        order = list(ops)
        rng.shuffle(order)
        pairs = [runner.run(op) for op in order]
        times[phase] = (sum(w for w, _ in pairs), sum(r for _, r in pairs))
    return times


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, beyond): the highest percentile with at least ten
    samples above it, or the maximum when there are ten or fewer samples."""
    s = sorted(samples)
    rank = len(s) - 10 if len(s) > 10 else len(s)
    return s[rank - 1], 100.0 * rank / len(s), len(s) - rank


def measure(runner, workload, rng, seconds, tracer=None):
    """Run cycles for `seconds`, at least one (two with a tracer).  With a
    tracer, cycles alternate untraced/traced.  Returns the per-phase
    (wall, reference) samples of the untraced cycles and the cycle totals
    of the traced ones."""
    run_cycle(runner, workload, random.Random(rng.random()))  # warm-up, untimed
    untraced = {phase: [] for phase in workload.phases}
    traced = []
    least = 1 if tracer is None else 2
    deadline = perf_counter() + seconds
    cycles = 0
    while cycles < least or perf_counter() < deadline:
        on = tracer is not None and cycles % 2 == 1
        if on:
            tracer.install()
        try:
            times = run_cycle(runner, workload, rng)
        finally:
            if on:
                tracer.remove()
        if on:
            traced.append(tuple(map(sum, zip(*times.values()))))
        else:
            for phase, pair in times.items():
                untraced[phase].append(pair)
        cycles += 1
    return untraced, traced


def _line(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name:<28} {value:12.6f} {unit:<12} {note}".rstrip())


def _cycles(samples: dict[str, list], which: int) -> list[float]:
    """Cycle totals from per-phase samples; which = 0 wall, 1 reference."""
    return [sum(pair[which] for pair in pairs) for pairs in zip(*samples.values())]


def end_to_end(name, runner, samples, peak, setup):
    """Print the workload's figures; return (gated metrics, figures by
    per-workload name).  Times are reference seconds unless named _wall."""

    def cycle_rows(prefix, part, gated):
        ref, wall = _cycles(part, 1), _cycles(part, 0)
        value, pct, beyond = tail(ref)
        return [
            (f"{prefix}_s_p50", "cycle_s_p50" if gated else None, statistics.median(ref), "s",
             f"{len(ref)} cycles"),
            (f"{prefix}_s_tail", "cycle_s_tail" if gated else None, value, "s",
             f"p{pct:.1f} of {len(ref)} cycles, {beyond} beyond"),
            (f"{prefix}_wall_s_p50", None, statistics.median(wall), "s", "wall clock"),
        ]

    rows = [  # (per-workload name, gated name or None, value, unit, note)
        ("setup_s", "setup_s", setup[0], "s",
         f"median of {SETUP_PAIRS} fresh interpreters, scaled by paired probe starts"),
        ("setup_wall_s", None, setup[1], "s", "wall clock"),
        (PEAK[name], "peak_mib", peak, "MiB", "tracemalloc, untimed pass"),
        *cycle_rows(PREFIX[name], samples, True),
    ]
    if len(samples) > 1:
        for phase, pairs in samples.items():
            rows += cycle_rows(phase, {phase: pairs}, False)
    rows.append(("ops_failed_frac", None, runner.failed / runner.attempted, "ratio",
                 f"{runner.failed} of {runner.attempted} operations"))
    print(f"# {name}")
    for shown, key, v, unit, note in rows:
        _line(shown, v, unit, f"{note} [{key}]" if key and key != shown else note)
    gated = {key: {"value": v, "unit": unit} for _, key, v, unit, _ in rows if key}
    named = {shown: {"value": v, "unit": unit} for shown, _, v, unit, _ in rows}
    return gated, named


def per_layer(tracer, untraced, traced) -> dict[str, dict]:
    """Per-layer figures per traced cycle, from the tracer's spans.

    `<module>.<function>_s` is the inclusive time of that function's spans,
    `*_self_s` leaves out child spans, and `<module>.self_s` is all self time
    in the module.  Counts are per traced cycle too.

    bench.self_accounted_frac, the module self times over the traced cycle
    time, is a consistency check of the span bookkeeping, not a coverage
    result: cli.main wraps each whole operation, so time in no other span is
    cli self time and the share is near 1 by construction.  Coverage below
    the CLI shows in bench.below_cli_frac, the share of traced cycle time
    that is self time of a module other than cli.
    """
    per = len(traced)
    t, c = tracer.total, tracer.calls
    untraced_p50 = statistics.median(_cycles(untraced, 1))
    traced_p50 = statistics.median(r for _, r in traced)
    figures = {
        "algebra.ring_calls": (sum(v for k, v in tracer.counts.items()
                                   if k.startswith("algebra.Ring.")), "calls/cycle"),
        "algebra.coset_partition_s": (t("algebra.unit_group_coset_partition"), "s/cycle"),
        "blocks.develop_s": (t("blocks.develop"), "s/cycle"),
        "blocks.develop_calls": (c("blocks.develop"), "calls/cycle"),
        "blocks.transversal_s": (t("blocks.difference_transversal_check"), "s/cycle"),
        "gdd.gdd_24_t_self_s": (tracer.self_time("gdd.gdd_24_t"), "s/cycle"),
        "gdd.verify_gdd_s": (t("gdd.verify_gdd"), "s/cycle"),
        "gdd.verify_gdd_calls": (c("gdd.verify_gdd"), "calls/cycle"),
        "gdd.inflate_self_s": (tracer.self_time("gdd.inflate"), "s/cycle"),
        "gdd.mols_td_s": (tracer.self_time(
            "gdd.mols_for_order", "gdd.mols_prime_power", "gdd.mols_binary_field",
            "gdd.kronecker_mols", "gdd.td_from_mols", "gdd.td_for_weight"), "s/cycle"),
        "gdd.store_find_s": (t("gdd.IngredientStore.find"), "s/cycle"),
        "gdd.search_s": (t("gdd.exact_cover_search"), "s/cycle"),
        "assemble.inflate_block_s": (t("assemble.inflate_block_to_k4444"), "s/cycle"),
        "assemble.overlay_s": (t("assemble.overlay_group"), "s/cycle"),
        "certify.certify_s": (t("certify.certify"), "s/cycle"),
        "certify.certify_calls": (c("certify.certify"), "calls/cycle"),
        "certify.parse_s": (t("certify.parse_certificate"), "s/cycle"),
        "certify.format_s": (t("certify.format_certificate"), "s/cycle"),
        "certify.file_io_s": (tracer.self_time(
            "certify.read_certificate", "certify.write_certificate"), "s/cycle"),
        "certify.raw_self_s": (tracer.self_time("certify.certify_raw_edges"), "s/cycle"),
        "certify.pair_errors": (tracer.counts["certify.pair_errors"], "count/cycle"),
        "certify.cert_bytes": (tracer.counts["certify.cert_bytes"], "B/cycle"),
        "targets.iso_s": (t("targets.is_isomorphic"), "s/cycle"),
        "targets.iso_calls": (c("targets.is_isomorphic"), "calls/cycle"),
        "targets.graph_from_edges_s": (t("targets.graph_from_edges"), "s/cycle"),
    }
    figures = {k: (v / per, unit) for k, (v, unit) in figures.items()}
    selfs = {f"{m}.self_s": (tracer.module_self(m) / per, "s/cycle") for m in MODULES}
    figures.update(selfs)
    spanned = sum(v for v, _ in selfs.values())
    traced_wall = statistics.mean(w for w, _ in traced)
    figures.update({  # cycle times in reference seconds; spans are wall seconds
        "bench.untraced_cycle_s_p50": (untraced_p50, "s"),
        "bench.traced_cycle_s_p50": (traced_p50, "s"),
        "bench.trace_overhead_frac": (traced_p50 / untraced_p50 - 1, "ratio"),
        "bench.self_accounted_frac": (spanned / traced_wall, "ratio"),
        "bench.below_cli_frac": ((spanned - selfs["cli.self_s"][0]) / traced_wall, "ratio"),
    })
    print("# per layer, per traced cycle")
    for key, (v, unit) in figures.items():
        _line(key, v, unit)
    print(f"# heaviest spans by self time, per traced cycle ({per} traced cycles)")
    print("\n".join(tracer.tree_lines(per)))
    return {key: {"value": v, "unit": unit} for key, (v, unit) in figures.items()}


# --- entry point -------------------------------------------------------------


def _import_package() -> None:
    """Import design_forge from ./src of the checkout, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "design_forge" / "__init__.py").is_file():
        raise SystemExit(f"no design_forge package under {src}; run from the repository root")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import design_forge
    if Path(design_forge.__file__).resolve().parent != (src / "design_forge").resolve():
        raise SystemExit(f"design_forge imported from {design_forge.__file__}, not {src}")


def run_workload(name, seed, seconds, trace, pins=PINS, setup=None):
    """Run one workload.  Returns (correct, attempted, failed, metrics,
    figures): the contract's metrics and every figure printed, by name."""
    os.environ.pop("DESIGN_FORGE_INGREDIENTS", None)  # use the packaged store
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        rng = random.Random(f"{name}/{seed}")
        runner, untimed = Runner(pins), Runner(pins)
        workload = build_workload(name, untimed, work, rng)
        if trace:
            tracer = Tracer()
            untraced, traced = measure(runner, workload, rng, seconds, tracer)
            metrics = figures = per_layer(tracer, untraced, traced)
        else:
            if setup is None:
                setup = setup_seconds()
            peak = peak_mib(untimed, workload.peak_op)
            samples, _ = measure(runner, workload, rng, seconds)
            metrics, figures = end_to_end(name, runner, samples, peak, setup)
        wrong = runner.wrong + untimed.wrong + untimed.failed
        return wrong == 0, runner.attempted, runner.failed, metrics, figures
    finally:
        shutil.rmtree(work, ignore_errors=True)


WORKLOADS = ("construct-all", "verify-mixed", "verify-raw")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.trace and args.workload == "all":
        parser.error("--trace 1 runs one workload at a time")
    _import_package()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    setup = None if len(names) == 1 else setup_seconds()
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        correct, attempted, failed, metrics, figures = run_workload(
            name, args.seed, args.seconds, args.trace, setup=setup)
        result["correct"] &= correct
        result["attempted"] += attempted
        result["failed"] += failed
        if len(names) == 1:
            result["metrics"] = metrics
        else:  # all workloads: every figure under its per-workload name
            figures[f"{name}.ops_failed_frac"] = figures.pop("ops_failed_frac")
            result["metrics"].update(figures)
    if len(names) > 1 and not args.trace:
        result["metrics"]["ops_failed_frac"] = {
            "value": result["failed"] / result["attempted"], "unit": "ratio"}
        _line("ops_failed_frac", result["failed"] / result["attempted"], "ratio",
              f"{result['failed']} of {result['attempted']} operations, all workloads")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
