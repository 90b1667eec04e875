"""Golden SHA-256 digests of the certificates `construct` writes and of
the GDD files `gdd --out` writes.

Construction is deterministic, so every output is pinned byte for byte: a
refactor of any layer between the base blocks (or the MOLS and ingredient
GDDs) and the written file must leave these digests unchanged.  Each
pinned certificate must also pass `verify`: `construct` certifies its
design in memory and does not read back the file it writes.
"""

from __future__ import annotations

import gc
import hashlib
import os
import shutil
import tracemalloc

import pytest

from design_forge.cli import main
from design_forge.gdd import GddType, IngredientStore

GOLDEN = {
    ("shrikhande", 1, "stored"):
        "90783f884a2c400222f192f7ca64bb830df785b0080ff7f123b589ba6f1e851f",
    ("shrikhande", 97, "stored"):
        "95b799eb4325e34e4a7fb85464d93d148272ff4f7e2dafcc5a12751583011584",
    ("shrikhande", 193, "stored"):
        "e9c0294d55301c1249618ee3c200f96942d64d9b1c53fb7d01620068edd748f2",
    ("shrikhande", 289, "stored"):
        "1412c5e85c1a95a4cbaa998cc7d91f1b7c2068022e02c5498d9394a590af9f10",
    ("shrikhande", 385, "stored"):
        "816f4c1c4ecb96a3f34d6b2b660da39d0a6b258cfd3af341accaa7910610a950",
    ("shrikhande", 481, "stored"):
        "e0dfb05a74cf1543350e79f8c688f24dc5db93ad818aa73fa2b3167045cc22d3",
    ("shrikhande", 481, "empty"):
        "976a1a3469ebf7394a661e9ee507183e92a13ca3be2853a0a4b0f6d75980ef17",
    ("lk44", 1, "stored"):
        "f6d72884eba5dbc76ef347e808eed45152b94ce675d446f9422fe0307c740ae7",
    ("lk44", 97, "stored"):
        "00e99e79e2e94a8fce070a8d0d2334a13ae0cc8bc22d550d698ff8bd302cee58",
    ("lk44", 193, "stored"):
        "d3d6afe38d208ce3c1b3518cd7b14d449f3116f172761565aac926e506b740d5",
    ("lk44", 289, "stored"):
        "7923dad1a8b2458e17a0a969c7df33bbe5e36f4e7c3a4bd5005330b78adf7558",
    ("lk44", 385, "stored"):
        "7b1e721ffda99cdce27589924223ac3467bfded5738625a19d23f3ff14a6e730",
    ("lk44", 481, "stored"):
        "6ed4ad35e56036c1ad3d49d43d1fbeb0c30abb0e088de59012c7873789ec1b53",
    ("lk44", 481, "empty"):
        "fe648103a843e48e391c7a8b90592e552b4a8df6e27245a37d9a4dce80cd3daa",
}


@pytest.mark.parametrize(("graph", "order", "store"), sorted(GOLDEN))
def test_construct_certificate_digest(tmp_path, capsys, graph, order, store):
    out = tmp_path / "design.cert"
    argv = ["construct", "--graph", graph, "--order", str(order), "--out", str(out)]
    if store == "empty":
        empty = tmp_path / "empty"
        empty.mkdir()
        argv += ["--ingredients", str(empty)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[(graph, order, store)]
    assert main(["verify", str(out)]) == 0
    capsys.readouterr()


def test_an_undecodable_txt_in_the_store_is_skipped(tmp_path, capsys):
    # junk.txt sorts before the ingredient, so the store reads it first
    store = tmp_path / "store"
    store.mkdir()
    (store / "junk.txt").write_bytes(b"\xff\xfe\x00 not text\n")
    shutil.copyfile(IngredientStore.default().directory / "gdd4_6pow5.txt",
                    store / "stored_6pow5.txt")
    out = tmp_path / "design.cert"
    argv = ["construct", "--graph", "shrikhande", "--order", "481", "--out", str(out),
            "--ingredients", str(store)]
    assert main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[("shrikhande", 481, "stored")]


def test_a_directory_named_txt_in_the_store_is_skipped(tmp_path, capsys):
    # sub.txt sorts before the ingredient, so the store meets it first
    store = tmp_path / "store"
    (store / "sub.txt").mkdir(parents=True)
    shutil.copyfile(IngredientStore.default().directory / "gdd4_6pow5.txt", store / "z.txt")
    out = tmp_path / "design.cert"
    argv = ["construct", "--graph", "lk44", "--order", "481", "--out", str(out),
            "--ingredients", str(store)]
    assert main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[("lk44", 481, "stored")]


GDD_GOLDEN = {
    ("24^4", "stored"):
        "81b4924cc890f6e7ccaa57dc0680221efbe2a16937369114a3aa5607e388b3aa",
    ("24^5", "stored"):
        "c67ce5d3e54f8e32e9b2bfb6c9230f835963b5b8cb17511e64e024656c40793e",
    ("24^5", "empty"):
        "8d5c217f6310a70065a4b39880e876cd1acf5e9555c57b6d57f423c7e24b228a",
    ("3^5", "stored"):
        "f67feca5cd4d4be0218728f78fc43794aea03d0612fa271273ab775aa602aa31",
}


@pytest.mark.parametrize(("gdd_type", "store"), sorted(GDD_GOLDEN))
def test_gdd_file_digest(tmp_path, capsys, gdd_type, store):
    out = tmp_path / "design.gdd"
    argv = ["gdd", "--type", gdd_type, "--out", str(out)]
    if store == "empty":
        empty = tmp_path / "empty"
        empty.mkdir()
        argv += ["--ingredients", str(empty)]
    assert main(argv) == 0
    assert "verified" in capsys.readouterr().out
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GDD_GOLDEN[(gdd_type, store)]


# --- orders past 481, from 6^t ingredients written into a store -------------
#
# Each 6^t is the cyclic development over Z_6t of its base blocks: point x
# is relabelled 6 * (x mod t) + x div t, so group i (the residue i mod t)
# is the i-th range of 6, and each block is sorted.

BASE_BLOCKS_6T = {
    7: [(0, 1, 3, 19), (0, 4, 10, 15), (0, 8, 17, 30)],
    9: [(0, 4, 20, 26), (0, 1, 3, 14), (0, 8, 23, 33), (0, 5, 17, 24)],
    19: [(0, 2, 5, 53), (0, 9, 29, 73), (0, 4, 12, 84), (0, 24, 52, 79), (0, 13, 46, 69),
         (0, 6, 16, 37), (0, 1, 15, 89), (0, 17, 39, 82), (0, 7, 18, 54)],
}

LARGE_GOLDEN = {
    ("lk44", 673): "5cd469726e4e5e5a15aa9d3db7f0b67d952fa5612a287221adf0968e10541bdc",
    ("shrikhande", 673): "541322a862039a8dab82247a51c8e69d2936869f29bf0bec3daafc4d168b0ba6",
    ("lk44", 865): "29cf942e495e8322251b010f2a11190f688e0e30600d00e5e7c12b676ca1001d",
    ("shrikhande", 865): "dfd4cb1f91cedd483d290f2f05e7092dca8fcdd0494fb660ab86b80c6d66fa7a",
    ("lk44", 1825): "4280189b95d937d71c189aa331e21d8601480a9da014e1fdb1bc943fc6135796",
    ("shrikhande", 1825): "27d19f6a7c174fe1828b1e7a3c72660f90fb66ab8f8aae2c7700f353e4e3bdaa",
}


def _cyclic_6t_store(directory, t):
    """A store holding the one 6^t file developed from BASE_BLOCKS_6T[t]."""
    m = 6 * t
    lines = [f"gdd 4 6^{t}"]
    lines += ["group " + " ".join(map(str, range(6 * i, 6 * i + 6))) for i in range(t)]
    for base in BASE_BLOCKS_6T[t]:
        for d in range(m):
            points = sorted(6 * ((x + d) % m % t) + (x + d) % m // t for x in base)
            lines.append("block " + " ".join(map(str, points)))
    directory.mkdir()
    (directory / f"gdd4_6pow{t}.txt").write_text("\n".join(lines) + "\n")
    return directory


@pytest.mark.parametrize(("graph", "order"), sorted(LARGE_GOLDEN))
def test_construct_past_481_from_a_stored_6_t(tmp_path, capsys, graph, order):
    store = _cyclic_6t_store(tmp_path / "store", (order - 1) // 96)
    out = tmp_path / "design.cert"
    argv = ["construct", "--graph", graph, "--order", str(order), "--out", str(out),
            "--ingredients", str(store)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == LARGE_GOLDEN[(graph, order)]
    # verify streams the file: its uint8 counts, the spare included, and one
    # piece, never the file's bytes (2.3 MB at 1825) or its block array
    gc.collect()
    tracemalloc.start()
    try:
        assert main(["verify", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < order * (order - 1) // 2 + 1 + 2**20


def test_construct_1825_peaks_below_its_counts_and_blocks_plus_1_mib(tmp_path, capsys):
    # the design (34,675 rows, 2.1 MiB) is never held: the uint8 counts of
    # its 1,664,400 pairs and the 16,416 blocks of the 24^19 are, with
    # slices and tables far below 1 MiB beside them (4.1 MiB before)
    store = _cyclic_6t_store(tmp_path / "store", 19)
    argv = ["construct", "--graph", "lk44", "--order", "1825", "--out", os.devnull,
            "--ingredients", str(store)]
    gc.collect()
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    counts = 1825 * 1824 // 2
    blocks = GddType.of(24, 19).block_count(4) * 4 * 4  # int32
    assert peak < counts + blocks + 2**20
