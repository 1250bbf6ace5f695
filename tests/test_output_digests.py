"""Perturbed bytes and mined itemsets stay the same from one commit to the next.

The other perturbation tests compare the bulk sampler with the scalar paths
of the same code, so a change to both at once passes them. This test pins
SHA-256 digests of what the CLI writes for one fixed census table and seed:
the perturbed table and ``metadata.json`` of every mechanism, and the
``itemsets.csv`` of plain, det-gd and ran-gd mining, plus the mechanism label
each ``summary.json`` states. A second input holds the same kind of records
as a user would: binned attributes as raw integers, over more than one
``BLOCK_ROWS`` block; its plain ``itemsets.csv`` and its det-gd and ran-gd
perturbed tables and metadata are pinned too. A change that alters any of
these bytes must say so and update the digests.

The input table is built by integer arithmetic, not by numpy's ``Generator``,
whose streams numpy does not promise to keep. ``--mask-p`` is given, since
the derived retention probability goes through ``pow``. MASK and cut-and-paste
``itemsets.csv`` are left out: their supports go through ``pow`` and a LAPACK
solve, whose last bits may differ between platforms and builds. The
gamma-diagonal supports take only IEEE-exact arithmetic.
"""

import csv
import hashlib
import json

from privmine import builtin_schema
from privmine.cli import main
from privmine.schema import BLOCK_ROWS

N_RECORDS = 3000
N_RAW_RECORDS = 5000  # more than BLOCK_ROWS: two blocks for ingest and for the writer
SEED = str(2**32 + 11)  # a seed of two 32-bit words
PERTURB = ("--gamma", "19", "--alpha-frac", "0.3", "--mask-p", "0.9", "--seed", SEED)

DIGESTS = {
    "plain/itemsets.csv": "7d6891c2ce9707fd356f3255f33cd7275b3a9ff3048b8956ac2c7a7725897619",
    "det-gd/perturbed.csv": "e41c2e543a86bf2475ec01dd34d36da0b5a830a81f4605d7ace29395b759b765",
    "det-gd/metadata.json": "7b897a141f0db1634bc17b2a08c5acfd917cf002e717302217c27abd4a6086e2",
    "det-gd/mined/itemsets.csv": "96c9173d6dec86c7ce70ab733bcc70fae1a5332c91f60e9eea07a474fd4a5481",
    "ran-gd/perturbed.csv": "de6e5e75d2ac512934c82ad52bcf85491623598713392f1915bad09a7a269678",
    "ran-gd/metadata.json": "57c0df993f960e93e3b48562e47d63f6d4ee9305f925b3fe285bd73c6a1ca46f",
    "ran-gd/mined/itemsets.csv": "4672eace3198b93c315bdaf8dd248866fb1b392db4e1f47b4fb6002483cba735",
    "mask/perturbed_bits.csv": "95129e083cffeb339e21ca94b56792d86b1562b4ae4e4f2faa6a052ecd97470a",
    "mask/metadata.json": "85ee5d9062c1a50d6d8ecd2d844843e84167e82f0a3400c797b347ab17445dee",
    "cut-paste/perturbed_bits.csv": "ce48dd89dfee45a4890d11c212b6d706ad3f2a416e9e0da10cb12b351620542c",
    "cut-paste/metadata.json": "4fb3101102394ad2a390adb0e5033a6dd9937393606fd1036a2a48fb562e9cdc",
}
RAW_DIGESTS = {
    "plain/itemsets.csv": "c7c8fb5d27b5dedf210ea071d74110274a67def1db7825346459665869040061",
    "det-gd/perturbed.csv": "f6d64bed510abf7b047893e9a0dad9667f13409c8e62edf4a021a1f1479ebcc4",
    "det-gd/metadata.json": "e737fce16403bcb176d43ddf4b438c22ffe40a5f4e50c91320a17cf49c0cfa00",
    "ran-gd/perturbed.csv": "d050c8e0c48b6660cb7f65b8c9779cef509f239563d3476956678576f888b4a9",
    "ran-gd/metadata.json": "3167524f87c69903771aa676e87ebbc90c113c38d34643e63c9019f394f24baf",
}
LABELS = {
    "det-gd": "gamma-diagonal(gamma=19)",
    "ran-gd": "gamma-diagonal(gamma=19)",
    "mask": "mask(p=0.9)",
    "cut-paste": "cut-paste(K=3, rho=0.494)",
}


def _lcg(state: int) -> int:
    return (state * 6364136223846793005 + 1442695040888963407) % 2**64


def _census_codes(n: int) -> list:
    """Category codes of n census records from a 64-bit LCG: a third of the
    records are one of three prototypes, the rest draw each attribute from
    the generator's high bits."""
    attributes = builtin_schema("census").attributes
    prototypes = [(0, 0, 1, 0, 1, 0), (1, 1, 1, 0, 1, 0), (0, 0, 1, 4, 0, 0)]
    state, rows = 12345, []
    for _ in range(n):
        codes = []
        for attribute in attributes:
            state = _lcg(state)
            codes.append((state >> 33) % attribute.size)
        if state >> 62 == 0:
            codes = prototypes[(state >> 40) % 3]
        rows.append(codes)
    return rows


def _census_rows():
    """Category labels of N_RECORDS census records."""
    attributes = builtin_schema("census").attributes
    rows = [[a.categories[c] for a, c in zip(attributes, codes)]
            for codes in _census_codes(N_RECORDS)]
    return [a.name for a in attributes], rows


def _raw_census_rows():
    """N_RAW_RECORDS census records with each binned attribute as an integer
    inside the record's (lo, hi] bin; the open bin is as wide as the last
    closed one. The integers come from a second LCG."""
    attributes = builtin_schema("census").attributes
    state, rows = 67890, []
    for codes in _census_codes(N_RAW_RECORDS):
        row = []
        for a, c in zip(attributes, codes):
            if a.bin_edges is None:
                row.append(a.categories[c])
                continue
            edges = [int(e) for e in a.bin_edges]
            edges.append(2 * edges[-1] - edges[-2])
            state = _lcg(state)
            row.append(edges[c] + 1 + (state >> 33) % (edges[c + 1] - edges[c]))
        rows.append(row)
    return [a.name for a in attributes], rows


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run(*argv) -> None:
    assert main([str(arg) for arg in argv]) == 0, argv


def _write_table(path, header, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    return path


def _outputs(tmp_path) -> tuple[dict, dict]:
    """The digests and labels that DIGESTS and LABELS pin, written under ``tmp_path``."""
    plain = _write_table(tmp_path / "plain.csv", *_census_rows())
    _run("mine", "--schema", "census", "--input", plain, "--sup-min", "0.02",
         "--out", tmp_path / "plain")
    digests = {"plain/itemsets.csv": _digest(tmp_path / "plain" / "itemsets.csv")}
    labels = {}
    for mechanism in ("det-gd", "ran-gd", "mask", "cut-paste"):
        out = tmp_path / mechanism
        _run("perturb", "--schema", "census", "--input", plain, "--mechanism", mechanism,
             *PERTURB, "--out", out)
        table = next(out.glob("perturbed*.csv"))
        _run("mine", "--schema", "census", "--input", table, "--metadata",
             out / "metadata.json", "--sup-min", "0.02", "--out", out / "mined")
        names = [table, out / "metadata.json"]
        if mechanism.endswith("gd"):
            names.append(out / "mined" / "itemsets.csv")
        digests.update({str(p.relative_to(tmp_path)): _digest(p) for p in names})
        labels[mechanism] = json.loads((out / "mined" / "summary.json").read_text())["mechanism"]
    return digests, labels


def test_cli_outputs_match_their_pinned_digests(tmp_path):
    digests, labels = _outputs(tmp_path)
    assert labels == LABELS
    assert digests == DIGESTS


def test_raw_number_input_outputs_match_their_pinned_digests(tmp_path):
    assert N_RAW_RECORDS > BLOCK_ROWS
    plain = _write_table(tmp_path / "raw.csv", *_raw_census_rows())
    _run("mine", "--schema", "census", "--input", plain, "--sup-min", "0.02",
         "--out", tmp_path / "plain")
    names = [tmp_path / "plain" / "itemsets.csv"]
    for mechanism in ("det-gd", "ran-gd"):
        out = tmp_path / mechanism
        _run("perturb", "--schema", "census", "--input", plain, "--mechanism", mechanism,
             *PERTURB, "--out", out)
        names += [out / "perturbed.csv", out / "metadata.json"]
    assert {str(p.relative_to(tmp_path)): _digest(p) for p in names} == RAW_DIGESTS
