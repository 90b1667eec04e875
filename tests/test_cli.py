from __future__ import annotations

import tracemalloc
from pathlib import Path

from design_forge.cli import main


def test_construct_and_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "d97.cert"
    assert main(["construct", "--graph", "shrikhande", "--order", "97", "--out", str(out)]) == 0
    assert out.exists()
    assert main(["verify", str(out)]) == 0
    captured = capsys.readouterr()
    assert "PASS" in captured.out


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


def test_construct_inadmissible_order_exits_2(capsys):
    assert main(["construct", "--graph", "shrikhande", "--order", "98", "--out", "x"]) == 2
    captured = capsys.readouterr()
    assert "mod 96" in captured.err


def test_verify_missing_file_exits_2(tmp_path):
    assert main(["verify", str(tmp_path / "nope.cert")]) == 2


def test_verify_malformed_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.cert"
    bad.write_text("layout shrikhande 97 complete\n", encoding="utf-8")
    assert main(["verify", str(bad)]) == 1
    captured = capsys.readouterr()
    assert "parse error" in captured.err


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


def test_gdd_24_4_via_cli(tmp_path, capsys):
    assert main(["gdd", "--type", "24^4"]) == 0
    captured = capsys.readouterr()
    assert "576 blocks" in captured.out


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


def test_env_var_sets_the_store(tmp_path, monkeypatch, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    monkeypatch.setenv("DESIGN_FORGE_INGREDIENTS", str(empty))
    assert main(["gdd", "--type", "24^5"]) == 0
    captured = capsys.readouterr()
    assert "3^5" in captured.out


def test_verify_a_label_too_large_for_int32_exits_1(tmp_path, capsys):
    out = tmp_path / "d97.cert"
    main(["construct", "--graph", "lk44", "--order", "97", "--out", str(out)])
    lines = out.read_text(encoding="utf-8").splitlines()
    lines[4] = "99999999999999999999999 " + lines[4].split(" ", 1)[1]
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["verify", str(out)]) == 1
    captured = capsys.readouterr()
    assert "parse error: line 5:" in captured.err
