"""Schema construction, discretization, encoding, ingestion, synthesis."""

import json
import logging
import math
import re

import numpy as np
import pytest
import yaml
from hypothesis import assume, given
from hypothesis import strategies as st

from helpers import PROPERTIES, gof_chisq, make_schema
from oracles.csv_row_oracle import discretize as row_discretize
from privmine import (
    Attribute,
    Dataset,
    Schema,
    builtin_distribution,
    builtin_schema,
    decode_indices,
    discretize,
    encode,
    encode_rows,
    generate_synthetic,
    ingest_csv,
    load_schema,
    read_boolean_csv,
    schema_fingerprint,
    write_boolean_csv,
    write_csv,
)
from privmine import schema as schema_module
from privmine.schema import BooleanDataset

CHI2_999_DF19 = 43.820196  # tests/oracles/critical_values_oracle.py


# ---------------------------------------------------------------------------
# schema shapes
# ---------------------------------------------------------------------------

def test_census_schema_shape(census_schema):
    assert census_schema.sizes == (4, 5, 5, 5, 2, 2)
    assert census_schema.domain_size == 2000
    assert census_schema.boolean_width == 23
    assert census_schema.radix_prefix == (1, 4, 20, 100, 500, 1000, 2000)


def test_health_schema_shape(health_schema):
    assert health_schema.sizes == (5, 5, 5, 3, 2, 2, 5)
    assert health_schema.domain_size == 7500
    assert health_schema.n_attributes == 7


def test_single_binary_attribute():
    sch = make_schema(2)
    assert sch.domain_size == 2
    assert sch.radix_prefix == (1, 2)


def test_radix_prefix_strictly_increasing(census_schema, health_schema):
    for sch in (census_schema, health_schema, make_schema(2, 3, 7)):
        prefix = sch.radix_prefix
        assert all(a < b for a, b in zip(prefix, prefix[1:]))
        assert prefix[-1] == int(np.prod(sch.sizes))


def test_attribute_validation():
    with pytest.raises(ValueError):
        Attribute(name="a", categories=("x",))
    with pytest.raises(ValueError):
        Attribute(name="a", categories=("x", "x"))
    with pytest.raises(ValueError):
        Attribute(name="a", categories=("x", "y"), bin_edges=(3.0, 1.0))
    with pytest.raises(ValueError):
        Attribute(name="a", categories=("x", "y"), default_category="z")
    with pytest.raises(ValueError):
        Attribute(name="a", categories=("x", "y", "z"), bin_edges=(0.0, 1.0))



@pytest.mark.parametrize("label", [" a", "a ", "\ta", "a\n", "", "  "])
def test_attribute_rejects_labels_ingest_cannot_read_back(label):
    # ingest strips fields and reads an empty field as missing, so such a
    # label would be written and then never matched
    with pytest.raises(ValueError, match="whitespace"):
        Attribute(name="a", categories=(label, "b"))
    with pytest.raises(ValueError, match="whitespace"):
        Attribute(name=label, categories=("x", "y"))
    quoted = json.dumps(label)  # a YAML double-quoted scalar
    with pytest.raises(ValueError, match="whitespace"):
        load_schema(f"attributes:\n  - name: a\n    categories: [{quoted}, b]\n")
    with pytest.raises(ValueError, match="whitespace|without a name"):
        load_schema(f"attributes:\n  - name: {quoted}\n    categories: [x, y]\n")


def test_attribute_rejects_itemset_separators():
    # itemsets.csv writes name=label items joined by ';' and splits each on
    # its first '=': with a default category, label 'p;a=z' on b read back
    # as the itemset {a=z, b=q}
    with pytest.raises(ValueError, match="';'"):
        Attribute(name="b", categories=("p;a=z", "q"), default_category="q")
    for name in ("a;b", "a=b"):
        with pytest.raises(ValueError, match="';' or '='"):
            Attribute(name=name, categories=("x", "y"))
    assert Attribute(name="a", categories=("<=50K", ">50K")).index_of("<=50K") == 0


def test_attribute_keeps_inner_whitespace():
    attr = Attribute(name="health status", categories=("Very Good", "no, thanks"))
    assert attr.index_of("Very Good") == 0

def test_schema_validation():
    a = Attribute(name="a", categories=("x", "y"))
    with pytest.raises(ValueError):
        Schema(name="s", attributes=(a, a))
    with pytest.raises(ValueError):
        Schema(name="s", attributes=())


def test_load_schema_errors():
    with pytest.raises(ValueError):
        load_schema("attributes:\n  - categories: [x, y]\n")  # unnamed
    with pytest.raises(ValueError):
        load_schema("attributes:\n  - name: a\n")  # neither categories nor bins
    with pytest.raises(ValueError):
        load_schema("just a scalar")


@pytest.mark.parametrize("config, message", [
    ("attributes: 5\n", "'attributes' must be a list, got 5"),
    ("attributes: {a: [x, y]}\n", "'attributes' must be a list"),
    ("attributes: [x]\n", "attribute 'x' is not a mapping"),
    ("attributes:\n  - [a, x, y]\n", "attribute ['a', 'x', 'y'] is not a mapping"),
    ("attributes:\n  - name: 5\n    categories: [x, y]\n", "attribute name 5 is not a string"),
    ("attributes:\n  - name: a\n    categories: xy\n", "attribute 'a': 'categories' must be a list"),
    ("attributes:\n  - name: a\n    categories: {x: 1}\n", "attribute 'a': 'categories' must be"),
    ("attributes:\n  - name: a\n    bins: 5\n", "attribute 'a': 'bins' must be a list, got 5"),
    ("attributes:\n  - name: a\n    bins: [0, [1], 2]\n", "attribute 'a': bins must be numbers"),
    ("attributes:\n  - name: a\n    bins: [0, one, 2]\n", "attribute 'a': bins must be numbers"),
])
def test_load_schema_rejects_malformed_shapes(config, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        load_schema(config)


@pytest.mark.parametrize("name", ["census", "health"])
def test_yaml_loaders_agree_on_bundled_configs(name, monkeypatch):
    fast = builtin_schema(name), builtin_distribution(name)
    monkeypatch.setattr(schema_module, "_YAML_LOADER", yaml.SafeLoader)
    pure = builtin_schema(name), builtin_distribution(name)
    assert fast[0] == pure[0]
    assert np.array_equal(fast[1], pure[1])


def test_malformed_yaml_is_value_error():
    with pytest.raises(ValueError, match="malformed YAML config"):
        load_schema("attributes:\n  - name: a\n    categories: [x, y\n")


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------

def test_discretize_census_age(census_schema):
    age = census_schema.attributes[0]
    assert discretize(40, age) == 1
    assert discretize(35, age) == 0  # interior boundary falls in the lower bin
    assert discretize(76, age) == 3
    with pytest.raises(ValueError):
        discretize(15, age)  # lower edge is open
    assert discretize(15, age, clamp=True) == 0


def test_discretize_open_upper_bin(census_schema):
    hours = census_schema.attributes[2]
    assert discretize(81, hours) == 4
    assert discretize(80, hours) == 3
    assert discretize(10_000, hours) == 4


def test_discretize_closed_upper_requires_clamp():
    attr = Attribute(name="v", categories=("lo", "hi"), bin_edges=(0.0, 1.0, 2.0))
    assert discretize(1.5, attr) == 1
    with pytest.raises(ValueError):
        discretize(3.0, attr)
    assert discretize(3.0, attr, clamp=True) == 1
    with pytest.raises(ValueError):
        discretize(float("nan"), attr)


def _bin_or_message(fn, value, attr, clamp):
    try:
        return fn(value, attr, clamp=clamp)
    except ValueError as exc:
        return str(exc)


@PROPERTIES
@given(edges=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=6,
                      unique=True).map(sorted),
       open_upper=st.booleans(), clamp=st.booleans(), extra=st.floats())
def test_discretize_matches_row_oracle(edges, open_upper, clamp, extra):
    # the bin or the error message, at every edge and one ulp either side of it
    n_bins = len(edges) - 1 + open_upper
    assume(n_bins >= 2)
    attr = Attribute(name="v", categories=tuple(f"b{i}" for i in range(n_bins)),
                     bin_edges=tuple(edges), open_upper=open_upper)
    values = [math.inf, -math.inf, math.nan, extra]
    for e in edges:
        values += [math.nextafter(e, -math.inf), e, math.nextafter(e, math.inf)]
    for value in values:
        assert (_bin_or_message(discretize, value, attr, clamp)
                == _bin_or_message(row_discretize, value, attr, clamp)), value


# ---------------------------------------------------------------------------
# encode / decode
# ---------------------------------------------------------------------------

def test_encode_examples():
    assert encode((0, 0), make_schema(4, 5)) == 0
    assert encode((3, 4), make_schema(4, 5)) == 19
    assert encode((1, 0), make_schema(2, 2)) == 1


def test_decode_examples():
    assert decode_indices(np.array([0, 19]), make_schema(4, 5)).tolist() == [[0, 0], [3, 4]]


def test_encode_decode_bijection():
    for sch in (make_schema(2, 2), make_schema(4, 5), make_schema(2, 3, 7),
                builtin_schema("census")):
        indices = np.arange(sch.domain_size)
        codes = decode_indices(indices, sch)
        assert np.array_equal(encode_rows(codes, sch), indices)
        # scalar path agrees on a sample
        for i in range(0, sch.domain_size, max(1, sch.domain_size // 50)):
            assert encode(codes[i], sch) == i


def test_encode_validates_record():
    sch = make_schema(2, 3)
    with pytest.raises(ValueError):
        encode((0, 3), sch)
    with pytest.raises(ValueError):
        encode((0,), sch)


def test_encode_rows_subset_matches_subschema():
    sch = make_schema(3, 4, 2, 5)
    rng = np.random.default_rng(5)
    codes = np.column_stack([rng.integers(0, s, 200) for s in sch.sizes])
    sub = (1, 3)
    flat = encode_rows(codes, sch, attrs=sub)
    subsch = make_schema(4, 5)
    assert np.array_equal(flat, encode_rows(codes[:, list(sub)], subsch))


def test_schema_fingerprint_stability(census_schema):
    assert schema_fingerprint(census_schema) == schema_fingerprint(builtin_schema("census"))
    assert schema_fingerprint(census_schema) != schema_fingerprint(make_schema(4, 5, 5, 5, 2, 2))


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

ADULT_COLUMN_MAP = {
    "age": 0, "fnlwgt": 2, "hours-per-week": 12, "race": 8, "sex": 9,
    "native-country": 13,
}

# hand-discretized codes for tests/data/adult_sample.csv (rows 6 and 9 drop:
# row 6 has a missing race, row 9 has age 14 below the first bin)
ADULT_EXPECTED = [
    (1, 0, 1, 0, 1, 0),
    (1, 0, 0, 0, 1, 0),
    (1, 2, 1, 0, 1, 0),
    (0, 3, 1, 4, 0, 1),   # Cuba -> Other
    (1, 1, 4, 1, 1, 1),   # hours 81 -> >80, India -> Other
    (0, 0, 1, 0, 1, 0),   # '?' only in unmapped columns
    (3, 0, 4, 0, 0, 0),
]


def test_ingest_adult_sample(census_schema, data_dir, caplog):
    path = str(data_dir / "adult_sample.csv")
    with caplog.at_level(logging.WARNING, logger="privmine.schema"):
        ds = ingest_csv(path, census_schema, column_map=ADULT_COLUMN_MAP)
    assert [tuple(r) for r in ds.codes] == ADULT_EXPECTED
    assert [r.getMessage() for r in caplog.records] == [
        f"{path}: skipped 2 rows with missing or unparseable values"]


def test_ingest_adult_clamp_keeps_minor(census_schema, data_dir):
    ds = ingest_csv(str(data_dir / "adult_sample.csv"), census_schema,
                    column_map=ADULT_COLUMN_MAP, clamp=True)
    assert ds.n_records == 8
    assert tuple(ds.codes[-1]) == (0, 1, 0, 0, 1, 0)  # age clamped to first bin


def test_ingest_abort_on_missing(census_schema, data_dir):
    with pytest.raises(ValueError, match="row 6"):
        ingest_csv(str(data_dir / "adult_sample.csv"), census_schema,
                   column_map=ADULT_COLUMN_MAP, on_error="abort")


def test_ingest_rejects_bad_policy(census_schema, data_dir):
    with pytest.raises(ValueError):
        ingest_csv(str(data_dir / "adult_sample.csv"), census_schema,
                   column_map=ADULT_COLUMN_MAP, on_error="explode")


def test_ingest_empty_file(tmp_path, census_schema):
    path = tmp_path / "empty.csv"
    path.write_text("")
    ds = ingest_csv(str(path), census_schema)
    assert ds.n_records == 0


def test_ingest_catch_all_category(tmp_path):
    sch = make_schema(2)
    path = tmp_path / "data.csv"
    path.write_text("a0\nc1\nsomething-else\n")
    with pytest.raises(ValueError):
        ingest_csv(str(path), sch, on_error="abort")
    sch2 = Schema(name="s", attributes=(
        Attribute(name="a0", categories=("c0", "c1"), default_category="c0"),))
    ds = ingest_csv(str(path), sch2)
    assert [tuple(r) for r in ds.codes] == [(1,), (0,)]


def test_ingest_missing_column_map_entry(tmp_path, census_schema):
    path = tmp_path / "data.csv"
    path.write_text("1,2\n")
    with pytest.raises(ValueError, match="column_map missing"):
        ingest_csv(str(path), census_schema, column_map={"age": 0})


def test_csv_roundtrip(tmp_path, census_schema):
    data = generate_synthetic(census_schema, 500, "uniform", seed=3)
    path = tmp_path / "data.csv"
    write_csv(data, str(path))
    back = ingest_csv(str(path), census_schema)
    assert np.array_equal(back.codes, data.codes)


def test_boolean_csv_roundtrip(tmp_path, census_schema):
    rng = np.random.default_rng(0)
    bits = rng.random((50, census_schema.boolean_width)) < 0.4
    data = BooleanDataset(census_schema, bits)
    path = tmp_path / "bits.csv"
    write_boolean_csv(data, str(path))
    back = read_boolean_csv(str(path), census_schema)
    assert np.array_equal(back.bits, bits)


# ---------------------------------------------------------------------------
# datasets and synthesis
# ---------------------------------------------------------------------------

def test_dataset_validates_codes():
    sch = make_schema(2, 3)
    with pytest.raises(ValueError):
        Dataset(sch, np.array([[0, 3]]))
    with pytest.raises(ValueError):
        Dataset(sch, np.array([0, 1]))


def test_synthetic_uniform_counts():
    sch = make_schema(4)
    ds = generate_synthetic(sch, 1000, "uniform", seed=11)
    counts = np.bincount(ds.codes[:, 0], minlength=4)
    sigma = np.sqrt(1000 * 0.25 * 0.75)
    assert np.all(np.abs(counts - 250) < 4 * sigma)


def test_synthetic_deterministic():
    sch = make_schema(3, 3)
    a = generate_synthetic(sch, 200, "uniform", seed=5)
    b = generate_synthetic(sch, 200, "uniform", seed=5)
    c = generate_synthetic(sch, 200, "uniform", seed=6)
    assert np.array_equal(a.codes, b.codes)
    assert not np.array_equal(a.codes, c.codes)


def test_synthetic_point_mass():
    sch = make_schema(2, 3)
    joint = np.zeros(6)
    joint[4] = 1.0  # record (0, 2)
    ds = generate_synthetic(sch, 50, joint, seed=0)
    assert np.array_equal(ds.codes, np.tile([0, 2], (50, 1)))


def test_synthetic_joint_chisquare():
    sch = make_schema(4, 5)
    rng = np.random.default_rng(42)
    joint = rng.random(20) + 0.05
    joint /= joint.sum()
    ds = generate_synthetic(sch, 20_000, joint, seed=1)
    counts = np.bincount(encode_rows(ds.codes, sch), minlength=20)
    assert gof_chisq(counts, 20_000 * joint) < CHI2_999_DF19


def test_synthetic_rejects_bad_weights():
    sch = make_schema(2, 3)
    with pytest.raises(ValueError):
        generate_synthetic(sch, 10, [[1.0, 0.0], [0.0, 0.0, 0.0]], seed=0)
    with pytest.raises(ValueError):
        generate_synthetic(sch, 10, np.zeros(6), seed=0)
    with pytest.raises(ValueError):
        generate_synthetic(sch, 10, "gaussian", seed=0)


def test_reference_distribution(census_schema):
    joint = builtin_distribution("census")
    assert joint.shape == (2000,)
    assert np.all(joint >= 0)
    assert abs(joint.sum() - 1.0) < 1e-12
