from __future__ import annotations

import argparse
import importlib
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from design_forge import assemble, cli
from design_forge import gdd as gdd_mod
from design_forge.blocks import k4444_decomposition
from design_forge.certify import Certificate, CertMode, write_certificate
from design_forge.cli import main
from design_forge.targets import TargetId


def test_construct_and_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "d97.cert"
    assert main(["construct", "--graph", "shrikhande", "--order", "97", "--out", str(out)]) == 0
    assert out.exists()
    assert main(["verify", str(out)]) == 0
    captured = capsys.readouterr()
    assert "PASS" in captured.out


def test_construct_to_devnull_exits_0(capsys):
    assert main(["construct", "--graph", "lk44", "--order", "97", "--out", os.devnull]) == 0
    assert "PASS (97 blocks" in capsys.readouterr().out


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_construct_to_dev_stdout_pipes_into_verify_of_dev_stdin(tmp_path):
    # the status line goes to stderr where --out is stdout, or the pipe
    # would carry it after the last block; verify spools the pipe and streams it
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    cmd = [sys.executable, "-m", "design_forge"]
    construct = subprocess.Popen(
        [*cmd, "construct", "--graph", "lk44", "--order", "97", "--out", "/dev/stdout"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        verify = subprocess.run([*cmd, "verify", "/dev/stdin"], stdin=construct.stdout,
                                capture_output=True, text=True, env=env, timeout=120)
    finally:
        construct.stdout.close()
        err = construct.communicate(timeout=120)[1].decode()
    assert construct.returncode == 0
    assert err == "/dev/stdout: lk44 order 97, PASS (97 blocks, all pairs covered exactly once)\n"
    assert (verify.returncode, verify.stdout, verify.stderr) == (
        0, "PASS (97 blocks, all pairs covered exactly once)\n", "")


def test_construct_of_a_corrupted_assembly_exits_1_and_writes_nothing(
    tmp_path, capsys, monkeypatch
):
    design_slices = assemble._design_slices

    def one_label_moved(*args):
        slices = design_slices(*args)

        def moved():
            made = slices()
            first = next(made).copy()
            first[0, 0] = (first[0, 0] + 1) % 385
            yield first
            yield from made
        return moved

    monkeypatch.setattr(assemble, "_design_slices", one_label_moved)
    out = tmp_path / "d385.cert"
    assert main(["construct", "--graph", "shrikhande", "--order", "385", "--out", str(out)]) == 1
    assert "failed certification" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("order", [1, 97, 385])
def test_construct_certifies_once_and_reads_no_certificate(tmp_path, capsys, monkeypatch, order):
    # the one certification is the count pass over the design's slices;
    # certify itself runs only where that fails
    certify_mod = importlib.import_module("design_forge.certify")
    calls: Counter[str] = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("certify_slices", "certify", "read_certificate", "parse_certificate"):
        wrapper = counted(name, getattr(certify_mod, name))
        monkeypatch.setattr(certify_mod, name, wrapper)
        if hasattr(cli, name):
            monkeypatch.setattr(cli, name, wrapper)
    out = tmp_path / "d.cert"
    assert main(["construct", "--graph", "shrikhande", "--order", str(order), "--out", str(out)]) == 0
    capsys.readouterr()
    assert calls == {"certify_slices": 1}


def test_verify_raw_mode(tmp_path):
    out = tmp_path / "d97.cert"
    assert main(["construct", "--graph", "lk44", "--order", "97", "--out", str(out)]) == 0
    assert main(["verify", str(out), "--raw"]) == 0


def _hand_edited_d97(tmp_path: Path) -> Path:
    out = tmp_path / "d97.cert"
    main(["construct", "--graph", "shrikhande", "--order", "97", "--out", str(out)])
    lines = out.read_text(encoding="utf-8").splitlines()
    first_block = lines[2].split()
    first_block[0] = "63"
    lines[2] = " ".join(first_block)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out


def test_verify_flags_a_hand_edited_label(tmp_path, capsys):
    out = _hand_edited_d97(tmp_path)
    assert main(["verify", str(out)]) == 1
    captured = capsys.readouterr()
    assert "pair (" in captured.out


def test_verify_raw_flags_a_hand_edited_label(tmp_path, capsys):
    out = _hand_edited_d97(tmp_path)
    assert main(["verify", str(out), "--raw"]) == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.out and "pair (" in captured.out


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    captured = capsys.readouterr()
    assert "FAIL" not in captured.out
    assert captured.out.endswith("all checks passed\n")


def test_selftest_fails_on_an_ingredient_file_that_does_not_load(tmp_path, monkeypatch, capsys):
    shipped = gdd_mod.IngredientStore.default().directory
    for path in shipped.glob("*.txt"):
        (tmp_path / path.name).write_bytes(path.read_bytes())
    (tmp_path / "bad.txt").write_text("not an ingredient\n", encoding="utf-8")
    monkeypatch.setattr(gdd_mod.IngredientStore, "default",
                        staticmethod(lambda: gdd_mod.IngredientStore(tmp_path)))
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "FAIL ingredient bad.txt loads and verifies\n" in out
    assert out.count("FAIL") == 1
    assert out.endswith("1 failures\n")


def test_construct_inadmissible_order_exits_2(capsys):
    assert main(["construct", "--graph", "shrikhande", "--order", "98", "--out", "x"]) == 2
    captured = capsys.readouterr()
    assert "mod 96" in captured.err


def test_verify_missing_file_exits_2(tmp_path, capsys):
    path = tmp_path / "nope.cert"
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {str(path)!r}\n"


def test_verify_malformed_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.cert"
    bad.write_text("layout shrikhande 97 complete\n", encoding="utf-8")
    assert main(["verify", str(bad)]) == 1
    captured = capsys.readouterr()
    assert "parse error" in captured.err


_ROW = " ".join(map(str, range(16)))


@pytest.mark.parametrize(("text", "out", "err"), [
    ("design lk44 0 complete\nblocks 0\n",
     "FAIL (0 blocks, expected 0), 1 label errors\n  label: order 0 is not positive\n", ""),
    (f"design lk44 17 4partite\nblocks 2\n{_ROW}\n{_ROW}\n",
     "FAIL (2 blocks, expected 2), 1 label errors\n"
     "  label: 4partite mode requires order 16, got 17\n", ""),
    ("design lk44 97 complete\n", "", "line 1: file ends before the blocks line"),
    ("design lk44 97 complete\nblocks -1\n", "", "line 2: block count must be nonnegative"),
    ("design foo 97 complete\nblocks 0\n", "", "line 1: unknown target 'foo'"),
], ids=["order 0", "4partite order 17", "no blocks line", "negative block count",
        "unknown target"])
def test_verify_of_a_header_it_cannot_certify_exits_1_and_says_why(
    tmp_path, capsys, text, out, err
):
    path = tmp_path / "bad.cert"
    path.write_text(text, encoding="utf-8")
    assert main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == out
    assert captured.err == (f"{path}: parse error: {err}\n" if err else "")


def test_verify_of_a_file_that_is_not_utf8_exits_2_naming_the_byte(tmp_path, capsys):
    bad = tmp_path / "ff.cert"
    bad.write_bytes(b"design shr\xffkhande 97 complete\nblocks 0\n")
    assert main(["verify", str(bad)]) == 2
    assert capsys.readouterr().err == (
        f"{bad}: error: 'utf-8' codec can't decode byte 0xff in position 10: invalid start byte\n")


def test_unknown_flag_exits_2(capsys):
    assert main(["construct", "--graphs", "shrikhande"]) == 2
    capsys.readouterr()


def test_no_subcommand_exits_2(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_gdd_subcommand_writes_a_verified_file(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert main(["gdd", "--type", "3^5", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "15 blocks" in captured.out
    assert out.exists()


@pytest.mark.parametrize("asked", ["24^2 24^3", "24^5"])
def test_gdd_prints_the_type_of_the_file_it_wrote(tmp_path, capsys, asked):
    # 24^2 24^3 is the type 24^5 written another way; the design handed out
    # says 24^5, and so do its file's header and the message
    out = tmp_path / "g.txt"
    assert main(["gdd", "--type", asked, "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header == "gdd 4 24^5"
    printed = capsys.readouterr().out.splitlines()[0]
    assert printed == f"{out}: 4-GDD of type {header.split(maxsplit=2)[2]}, 960 blocks, verified"


@pytest.mark.parametrize("gdd_type, reason", [
    ("3^3", "cross pairs not a multiple of 6"),  # 27 cross pairs
    ("3^6", "cross pairs not a multiple of 6"),  # 135 cross pairs
    ("2^3", "fewer than 4 groups"),
    ("2^6", "search tree exhausted"),  # 60 cross pairs, yet no 10 blocks cover them
    ("24^3", "fewer than 4 groups"),  # said before the 24^t route is taken
    ("3^14", "cross pairs not a multiple of 6"),  # said before the search's 40-point guard
])
def test_gdd_that_does_not_exist_says_why(gdd_type, reason, capsys):
    assert main(["gdd", "--type", gdd_type]) == 1
    assert capsys.readouterr().err == f"no 4-GDD of type {gdd_type} exists ({reason})\n"


@pytest.mark.parametrize("order", [577, 673, 1057, 1441])  # t = 6, 7, 11, 15
def test_construct_without_an_ingredient_exits_2_at_once(tmp_path, capsys, order):
    t = (order - 1) // 96
    out = tmp_path / "d.cert"
    assert main(["construct", "--graph", "lk44", "--order", str(order), "--out", str(out)]) == 2
    assert f"no ingredient 4-GDD of type 6^{t} or 3^{t}" in capsys.readouterr().err
    assert not out.exists()


def test_construct_769_runs_its_3_8_search_out_of_the_default_budget(tmp_path, capsys):
    out = tmp_path / "d.cert"
    assert main(["construct", "--graph", "lk44", "--order", "769", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: search budget exhausted after 10001 nodes\n"
    assert not out.exists()


def test_gdd_24_4_via_cli(tmp_path, capsys):
    assert main(["gdd", "--type", "24^4"]) == 0
    captured = capsys.readouterr()
    assert "576 blocks" in captured.out


@pytest.mark.parametrize(("gdd_type", "store", "route"), [
    ("24^4", "packaged", "td(4,24) from kronecker mols(8) x mols(3)"),
    ("24^5", "packaged", "inflate stored 4-gdd 6^5 by weight 4"),
    ("24^5", "empty", "inflate regenerated 4-gdd 3^5 by weight 8"),
    ("3^5", "packaged", "exact cover search (seed 0)"),
])
def test_gdd_prints_the_route_it_took(tmp_path, capsys, gdd_type, store, route):
    argv = ["gdd", "--type", gdd_type]
    if store == "empty":
        argv += ["--ingredients", str(tmp_path)]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"  via {route}"


def test_gdd_24_u_with_a_huge_exponent_exits_2_in_little_memory(capsys):
    tracemalloc.start()
    try:
        code = main(["gdd", "--type", "24^10000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "no ingredient" in capsys.readouterr().err
    assert peak < 2**20


def test_verify_of_a_hostile_header_exits_1_in_little_memory(tmp_path, capsys):
    path = tmp_path / "hostile.cert"
    path.write_text("design shrikhande 1000000001 complete\nblocks 0\n", encoding="utf-8")
    for argv in (["verify", str(path)], ["verify", "--raw", str(path)]):
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert "FAIL (0 blocks, expected 10416666677083333)" in capsys.readouterr().out
        assert peak < 2**20


def test_verify_of_one_block_repeated_to_fill_k1153_lists_few_pairs_in_little_memory(
    tmp_path, capsys
):
    # 1153 * 1152 / 96 = 13,836 copies: the count is right, so every pair
    # counts, and all 664,128 pairs are wrong (48 covered 255 times)
    path = tmp_path / "k1153.cert"
    row = " ".join(map(str, range(16))) + "\n"
    path.write_text("design lk44 1153 complete\nblocks 13836\n" + row * 13836, encoding="utf-8")
    tracemalloc.start()
    try:
        code = main(["verify", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("FAIL (13836 blocks, expected 13836), 664128 pairs covered != once\n")
    assert out.count("  pair (") == 20
    assert out.endswith("  ... 664128 problems in total\n")
    assert peak < 6 * 2**20


def test_catalog_lists_all_base_blocks(capsys):
    assert main(["catalog"]) == 0
    captured = capsys.readouterr()
    assert captured.out.count("shrikhande") >= 4
    assert captured.out.count("lk44") >= 4
    assert "edge list" in captured.out


def test_construct_is_deterministic(tmp_path):
    a = tmp_path / "a.cert"
    b = tmp_path / "b.cert"
    main(["construct", "--graph", "lk44", "--order", "97", "--out", str(a)])
    main(["construct", "--graph", "lk44", "--order", "97", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_ingredients_flag_overrides_the_store(tmp_path, capsys, monkeypatch):
    # an empty directory forces the regeneration route
    empty = tmp_path / "empty"
    empty.mkdir()
    out = tmp_path / "g.txt"
    assert main(["gdd", "--type", "24^5", "--ingredients", str(empty), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "3^5" in captured.out


def test_gdd_budget_reaches_the_24_t_search_fallback(tmp_path, monkeypatch, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    search = gdd_mod.exact_cover_search
    budgets = []

    def spy(gdd_type, k, node_budget=gdd_mod.NODE_BUDGET, seed=0):
        budgets.append(node_budget)
        # searched with at most 1000 nodes either way, so a lost budget fails fast
        return search(gdd_type, k, min(node_budget, 1000), seed)

    monkeypatch.setattr(gdd_mod, "exact_cover_search", spy)
    argv = ["gdd", "--type", "24^8", "--budget", "1000", "--ingredients", str(empty)]
    assert main(argv) == 2
    assert budgets == [1000]
    assert "search budget exhausted after 1001 nodes" in capsys.readouterr().err


def test_gdd_24_t_says_its_search_ran_out_of_budget(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["gdd", "--type", "24^8", "--budget", "1000", "--ingredients", str(empty)]) == 2
    err = capsys.readouterr().err
    assert err == "error: search budget exhausted after 1001 nodes\n"


def test_verify_a_label_too_large_for_int32_exits_1(tmp_path, capsys):
    out = tmp_path / "d97.cert"
    main(["construct", "--graph", "lk44", "--order", "97", "--out", str(out)])
    lines = out.read_text(encoding="utf-8").splitlines()
    lines[4] = "99999999999999999999999 " + lines[4].split(" ", 1)[1]
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["verify", str(out)]) == 1
    captured = capsys.readouterr()
    assert "parse error: line 5:" in captured.err


def test_verify_raw_of_a_4partite_certificate_exits_2(tmp_path, capsys):
    path = tmp_path / "k4444.cert"
    write_certificate(Certificate(TargetId.SHRIKHANDE, 16, CertMode.FOUR_PARTITE,
                                  k4444_decomposition(TargetId.SHRIKHANDE)), path)
    assert main(["verify", str(path)]) == 0
    assert main(["verify", "--raw", str(path)]) == 2
    assert "complete-mode certificates only" in capsys.readouterr().err


def test_gdd_type_with_a_superscript_exponent_exits_2(capsys):
    assert main(["gdd", "--type", "3^\u00b2"]) == 2
    assert "bad type token '3^\u00b2', want g^u" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["-1", "0", "ten"])
def test_gdd_budget_below_one_is_a_usage_error(budget, capsys):
    assert main(["gdd", "--type", "6^5", "--budget", budget]) == 2
    err = capsys.readouterr().err
    assert f"argument --budget: want an integer >= 1, got '{budget}'" in err
    assert "exhausted" not in err


def test_main_builds_its_parser_once(monkeypatch):
    builds = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        builds.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._build_parser.cache_clear()
    try:
        assert main(["catalog"]) == 0
        assert main(["catalog"]) == 0
    finally:
        cli._build_parser.cache_clear()
    assert builds.count("design-forge") == 1


def test_a_usage_error_reaches_stderr_on_every_call(capsys):
    for _ in range(2):
        assert main(["verify"]) == 2
        assert "the following arguments are required: path" in capsys.readouterr().err


_MA_MODULES_ADDED = """
import sys
import design_forge.cli

def ma():
    return {m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma.")}

before = ma()
code = design_forge.cli.main(sys.argv[1:])
print(code, sorted(ma() - before))
"""


@pytest.mark.parametrize("argv", [["construct", "--graph", "lk44", "--order", "97"], ["selftest"]])
def test_construct_and_selftest_import_no_numpy_ma(tmp_path, argv):
    # numpy 1.x imports numpy.ma with numpy itself, so only modules added
    # after the package's own import count
    if argv[0] == "construct":
        argv = [*argv, "--out", str(tmp_path / "d97.cert")]
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", _MA_MODULES_ADDED, *argv], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.splitlines()[-1] == "0 []"
