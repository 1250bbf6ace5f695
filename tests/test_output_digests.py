"""Perturbed bytes and mined itemsets stay the same from one commit to the next.

The other perturbation tests compare the bulk sampler with the scalar paths
of the same code, so a change to both at once passes them. This test pins
SHA-256 digests of what the CLI writes for one fixed census table and seed:
the perturbed table and ``metadata.json`` of every mechanism, and the
``itemsets.csv`` of plain, det-gd and ran-gd mining, plus the mechanism label
each ``summary.json`` states. A change that alters any of these bytes must
say so and update the digests.

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

N_RECORDS = 3000
SEED = str(2**32 + 11)  # a seed of two 32-bit words
PERTURB = ("--gamma", "19", "--alpha-frac", "0.3", "--mask-p", "0.9", "--seed", SEED)

DIGESTS = {
    "plain/itemsets.csv": "7d6891c2ce9707fd356f3255f33cd7275b3a9ff3048b8956ac2c7a7725897619",
    "det-gd/perturbed.csv": "72454c5e711a4bc375f0231076e320893bd80b323569381750964aea6edf2a66",
    "det-gd/metadata.json": "7b897a141f0db1634bc17b2a08c5acfd917cf002e717302217c27abd4a6086e2",
    "det-gd/mined/itemsets.csv": "3e08ed6dcf6888a71f8d077527195fa0fd8626c75be732f1f948bf001a147432",
    "ran-gd/perturbed.csv": "5b51eddef7cdffa4565cdecf2c881a33ace0e6745e551e583c49ebe851b1accf",
    "ran-gd/metadata.json": "57c0df993f960e93e3b48562e47d63f6d4ee9305f925b3fe285bd73c6a1ca46f",
    "ran-gd/mined/itemsets.csv": "988afe33e1f070b97a6486d6333984eab93a4c8ccc3f92e1c763b3436ed216d3",
    "mask/perturbed_bits.csv": "8f1652d62ba14532a45211eaebca726447c8475815e3a7e3ceb29f250305ad2e",
    "mask/metadata.json": "85ee5d9062c1a50d6d8ecd2d844843e84167e82f0a3400c797b347ab17445dee",
    "cut-paste/perturbed_bits.csv": "068ef215bc2ffdf55d2099bfbbbe6ba55287482ac32ed42f06866f6815a4f002",
    "cut-paste/metadata.json": "4fb3101102394ad2a390adb0e5033a6dd9937393606fd1036a2a48fb562e9cdc",
}
LABELS = {
    "det-gd": "gamma-diagonal(gamma=19)",
    "ran-gd": "gamma-diagonal(gamma=19)",
    "mask": "mask(p=0.9)",
    "cut-paste": "cut-paste(K=3, rho=0.494)",
}


def _census_rows():
    """Category labels of N_RECORDS census records from a 64-bit LCG: a third
    of the records are one of three prototypes, the rest draw each attribute
    from the generator's high bits."""
    attributes = builtin_schema("census").attributes
    prototypes = [(0, 0, 1, 0, 1, 0), (1, 1, 1, 0, 1, 0), (0, 0, 1, 4, 0, 0)]
    state, rows = 12345, []
    for _ in range(N_RECORDS):
        codes = []
        for attribute in attributes:
            state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
            codes.append((state >> 33) % attribute.size)
        if state >> 62 == 0:
            codes = prototypes[(state >> 40) % 3]
        rows.append([a.categories[c] for a, c in zip(attributes, codes)])
    return [a.name for a in attributes], rows


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run(*argv) -> None:
    assert main([str(arg) for arg in argv]) == 0, argv


def _outputs(tmp_path) -> tuple[dict, dict]:
    """The digests and labels that DIGESTS and LABELS pin, written under ``tmp_path``."""
    header, rows = _census_rows()
    plain = tmp_path / "plain.csv"
    with open(plain, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
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
