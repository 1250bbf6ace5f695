"""CLI exit codes under edge arguments and small malformed files.

Drives ``privmine.cli.main`` in process over every subcommand. Each example
starts from a valid command line, sets up to two of its numeric flags to an
edge value, may drop one flag, and points the file arguments at tiny
generated schema, CSV, metadata and mining-result files, some of them
malformed. Whatever the input, the CLI ends with one of its documented exit
codes (0 success, 1 validation, 2 I/O, 3 numerical), never with a traceback,
and a validation failure leaves ``--out`` absent.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from helpers import PROPERTIES
from privmine import builtin_schema, load_schema, schema_fingerprint
from privmine.cli import main

EDGES = ("0", "-1", "nan", "inf", "1e308", str(2 ** 64 + 3))
LIST_EDGES = EDGES + (",", "1,1", "0,0.0", "abc")
# JSON files of the wrong shape, and values of the wrong type for a number key
# (1.5 only for an integer key)
NOT_OBJECTS = ("[1]", "[]", "null", '"x"', "3")
WRONG_TYPES = ("19", True, None, [1], 1.5)

# five colours times three size bins: a domain of 15 cells, boolean width 8
SCHEMA = """\
name: tiny
attributes:
  - name: colour
    categories: [red, green, blue, black, other]
    default: other
  - name: size
    bins: [0, 10, {edge}]
    open_upper: true
reference_distribution:
  marginals:
    colour: [1, 2, 1, 1, 3]
    size: [1, {edge}, 1]
"""
CSV_BODIES = {
    "labels": "colour,size\nred,(0-10]\ngreen,>20\nother,(10-20]\nred,(0-10]\n",
    "empty": "",
    "header-only": "colour,size\n",
    "one-record": "colour,size\nred,5\n",
    "bad-cells": "colour,size\nred,abc\n,12\npink,-3\ngreen,1e308\nred,-1\n",
    "quotes": 'colour,size\n"red",4\n"gre""en",5\n"other","11"\n"red, green",3\n',
    "crlf": "colour,size\r\ngreen,(0-10]\r\nred,25\r\nother,15\r\n",
}
BITS_BODIES = {
    "bits": "h\n1,0,0,0,0,0,1,0\n0,1,0,0,0,1,0,0\n0,0,0,0,1,0,0,1\n1,0,0,0,0,0,1,1\n",
    "header-only": "c1,c2,c3,c4,c5,s1,s2,s3\n",
    "bad-cells": "h\n1,0,2,0,0,0,1,0\n",
    "crlf": "h\r\n1, 0, 0, 0, 0, 0, 1, 0\r\n",
}
MECHANISMS = ("det-gd", "ran-gd", "mask", "cut-paste")
MECHANISM_FLAGS = ("--gamma", "--rho1", "--rho2", "--alpha-frac", "--mask-p", "--cp-k",
                   "--cp-rho")
DATA_FLAGS = ("--n-records", "--data-seed")
# the flags each subcommand may see at an edge value
NUMERIC = {
    "privacy": ("--rho1", "--rho2", "--gamma", "--alpha-frac", "--domain-size"),
    "perturb": DATA_FLAGS + MECHANISM_FLAGS + ("--seed",),
    "mine": ("--sup-min",),
    "evaluate": (),
    "compare": DATA_FLAGS + MECHANISM_FLAGS + ("--sup-min", "--seeds", "--alpha-sweep"),
}


def write(path: Path, text: str) -> str:
    path.write_text(text, newline="")
    return str(path)


def table(draw, path: Path, bodies: dict) -> str:
    """One of ``bodies``, the first (well-formed) one half of the time, written to ``path``."""
    kind = draw(st.one_of(st.just(next(iter(bodies))), st.sampled_from(sorted(bodies))))
    return write(path, bodies[kind])


@st.composite
def schema_arg(draw, tmp: Path) -> str:
    kind = draw(st.sampled_from(["tiny"] * 5 + ["census", "edge", "broken", "missing"]))
    if kind == "census":
        return kind
    if kind == "missing":
        return str(tmp / "missing.yaml")
    edge = draw(st.sampled_from(EDGES)) if kind == "edge" else "20"
    text = "attributes: [name: a\n" if kind == "broken" else SCHEMA.format(edge=edge)
    return write(tmp / "schema.yaml", text)


@st.composite
def data_flags(draw, tmp: Path) -> dict:
    if draw(st.booleans()):
        return {"--synthetic": draw(st.sampled_from(["uniform", "reference"])),
                "--n-records": "40"}
    return {"--input": table(draw, tmp / "data.csv", CSV_BODIES)}


@st.composite
def ingest_flags(draw) -> dict:
    flags = {}
    if draw(st.integers(0, 3)) == 0:
        flags["--on-error"] = "abort"
    if draw(st.integers(0, 3)) == 0:
        flags["--clamp"] = True
    if draw(st.integers(0, 5)) == 0:
        flags["--column-map"] = draw(st.sampled_from(["size=1,colour=0", "colour", "x=9"]))
    return flags


@st.composite
def metadata_file(draw, tmp: Path, schema: str, mechanism: str) -> str:
    if draw(st.integers(0, 7)) == 0:
        return write(tmp / "metadata.json", draw(st.sampled_from(NOT_OBJECTS)))
    meta = {"mechanism": mechanism, "gamma": 19.0, "alpha": 0.001, "mask_p": 0.9, "cp_k": 1,
            "cp_rho": 0.3}
    for key in draw(st.lists(st.sampled_from(sorted(meta.keys() - {"mechanism"})), max_size=2,
                             unique=True)):
        meta[key] = draw(st.sampled_from([0, -1, float("nan"), float("inf"), 1e308, 2 ** 64 + 3,
                                          *WRONG_TYPES]))
    try:
        loaded = builtin_schema(schema) if schema == "census" else load_schema(
            Path(schema).read_text())
        meta["schema_fingerprint"] = schema_fingerprint(loaded)
    except (OSError, ValueError):
        meta["schema_fingerprint"] = "none"
    return write(tmp / "metadata.json", json.dumps(meta))


@st.composite
def result_dir(draw, tmp: Path, name: str) -> str:
    path = tmp / name
    path.mkdir()
    summary = {"sup_min": draw(st.sampled_from([0.1, 0.1, float("inf"), -1, *WRONG_TYPES])),
               "mechanism": name}
    write(path / "summary.json", json.dumps(summary) if draw(st.integers(0, 7))
          else draw(st.sampled_from(NOT_OBJECTS)))
    rows = draw(st.lists(st.sampled_from([
        "colour=red,1,0.4", "colour=red;size=(0-10],2,0.2", "size=>20;colour=green,2,nan",
        "colour=pink,1,0.5", '"colour=red",1,"0.3"', "colour=green,1,inf",
    ]), max_size=3, unique=True))
    if draw(st.integers(0, 7)) == 0:
        rows.append(draw(st.sampled_from(["colour=red,x,0.5", "colour=red", "size=5,1,0.2"])))
    write(path / "itemsets.csv", "itemset,length,support\r\n" + "".join(r + "\n" for r in rows))
    return str(path)


@st.composite
def argv_for(draw, tmp: Path) -> list[str]:
    command = draw(st.sampled_from(sorted(NUMERIC)))
    out = {"--out": str(tmp / "out")}
    if command == "privacy":
        flags = {"--rho1": "0.05", "--rho2": "0.5"}
        if draw(st.booleans()):
            flags["--domain-size"] = "9"
    elif command == "perturb":
        flags = {"--schema": draw(schema_arg(tmp)), **draw(data_flags(tmp)),
                 **draw(ingest_flags()), "--mechanism": draw(st.sampled_from(MECHANISMS)),
                 "--gamma": "19", "--cp-k": "2", "--seed": "7", **out}
    elif command == "mine":
        schema = draw(schema_arg(tmp))
        flags = {"--schema": schema, "--sup-min": "0.1", **draw(ingest_flags()), **out}
        mechanism = draw(st.sampled_from(MECHANISMS + ("quantum", "plain")))
        if mechanism != "plain":
            flags["--metadata"] = draw(metadata_file(tmp, schema, mechanism))
        # mostly the table kind the mechanism writes, sometimes the other one
        bits = (mechanism in ("mask", "cut-paste")) != (draw(st.integers(0, 3)) == 0)
        flags["--input"] = (table(draw, tmp / "bits.csv", BITS_BODIES) if bits
                            else table(draw, tmp / "data.csv", CSV_BODIES))
    elif command == "evaluate":
        flags = {"--schema": draw(schema_arg(tmp)), "--found": draw(result_dir(tmp, "found")),
                 "--truth": draw(result_dir(tmp, "truth")), **out}
    else:
        mechanisms = st.lists(st.sampled_from(MECHANISMS), min_size=1, max_size=3, unique=True)
        flags = {"--schema": draw(schema_arg(tmp)), **draw(data_flags(tmp)),
                 **draw(ingest_flags()), "--mechanisms": ",".join(draw(mechanisms)),
                 "--gamma": "19", "--cp-k": "2", "--sup-min": "0.1", "--seeds": "1,2", **out}
        if draw(st.booleans()):
            flags["--alpha-sweep"] = "0,0.5,0.25"
    if "--gamma" in flags and draw(st.integers(0, 3)) == 0:
        del flags["--gamma"]
        flags.update({"--rho1": "0.05", "--rho2": "0.5"})
    edge_flags = st.lists(st.sampled_from(NUMERIC[command]), max_size=2, unique=True)
    for flag in draw(edge_flags) if NUMERIC[command] else ():
        flags[flag] = draw(st.sampled_from(LIST_EDGES if flag in ("--seeds", "--alpha-sweep")
                                           else EDGES))
    if draw(st.integers(0, 7)) == 0:
        del flags[draw(st.sampled_from(sorted(flags)))]
    return [command] + [t for flag, value in flags.items()
                        for t in ([flag] if value is True else [flag, value])]


@PROPERTIES
@given(st.data())
def test_cli_exit_codes_on_edge_arguments(data):
    with tempfile.TemporaryDirectory() as scratch:
        tmp = Path(scratch)
        argv = data.draw(argv_for(tmp))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2, 3), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue(), argv
        if code == 1:
            assert not (tmp / "out").exists(), argv
