"""Categorical schemas, discretization, record encoding, and dataset I/O.

A schema is an ordered list of categorical attributes. Records are stored as
integer category codes and mapped to a flat index space by mixed-radix
encoding, with attribute 0 as the least significant digit. Attribute order is
significant: it fixes the radix order of the encoding.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import logging
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np
import yaml

logger = logging.getLogger(__name__)

_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)  # libyaml when built with it


def _parse_yaml(config_text: str):
    try:
        return yaml.load(config_text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ValueError(f"malformed YAML config: {exc}") from None


# A record is one category index per attribute, in schema order.
Record = tuple[int, ...]

MISSING_TOKENS = frozenset({"", "?", "NA", "N/A"})


@dataclass(frozen=True)
class Attribute:
    """One categorical attribute: labels plus optional numeric binning.

    ``bin_edges`` holds interval boundaries for discretizing raw numbers.
    Intervals are lower-open/upper-closed, ``(lo, hi]``; if ``open_upper`` is
    set, a final unbounded category ``> last_edge`` follows the closed bins.
    ``default_category`` is a catch-all label for nominal values not listed
    in ``categories``. Names and labels are non-empty and unpadded, as
    ingest strips fields and reads an empty one as missing. Itemset labels are
    ``name=label`` items joined by ``;``: no ``;`` in either, no ``=`` in names.
    """

    name: str
    categories: tuple[str, ...]
    bin_edges: tuple[float, ...] | None = None
    open_upper: bool = False
    default_category: str | None = None

    def __post_init__(self) -> None:
        if not self.name or self.name != self.name.strip() or set(self.name) & set(";="):
            raise ValueError(f"attribute name {self.name!r} is empty, has surrounding "
                             "whitespace or contains ';' or '='")
        bad = [c for c in self.categories if not c or c != c.strip() or ";" in c]
        if bad:
            raise ValueError(f"attribute {self.name!r}: labels {bad!r} are empty, "
                             "have surrounding whitespace or contain ';'")
        if len(self.categories) < 2:
            raise ValueError(f"attribute {self.name!r}: needs at least 2 categories")
        if len(set(self.categories)) != len(self.categories):
            raise ValueError(f"attribute {self.name!r}: duplicate category labels")
        if self.bin_edges is not None:
            edges = self.bin_edges
            if len(edges) < 2 or any(a >= b for a, b in zip(edges, edges[1:])):
                raise ValueError(f"attribute {self.name!r}: bin edges must be strictly increasing")
            n_bins = len(edges) - 1 + (1 if self.open_upper else 0)
            if n_bins != len(self.categories):
                raise ValueError(
                    f"attribute {self.name!r}: {n_bins} bins but {len(self.categories)} categories"
                )
        if self.default_category is not None and self.default_category not in self.categories:
            raise ValueError(f"attribute {self.name!r}: default category not among categories")

    @property
    def size(self) -> int:
        return len(self.categories)

    @cached_property
    def _reads_numbers(self) -> bool:
        """Binned, with no label that parses as a number: every text that
        parses as one is a raw value to discretize."""
        if self.bin_edges is None:
            return False
        for label in self.categories:
            with contextlib.suppress(ValueError):
                float(label)
                return False
        return True

    def index_of(self, label: str) -> int:
        try:
            return self.categories.index(label)
        except ValueError:
            if self.default_category is not None:
                return self.categories.index(self.default_category)
            raise ValueError(f"attribute {self.name!r}: unknown category {label!r}") from None


@dataclass(frozen=True)
class Schema:
    """Ordered attribute list defining the mixed-radix record index space."""

    name: str
    attributes: tuple[Attribute, ...]

    def __post_init__(self) -> None:
        if not self.attributes:
            raise ValueError("schema needs at least one attribute")
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate attribute names in schema {self.name!r}")

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        return tuple(a.size for a in self.attributes)

    @cached_property
    def radix_prefix(self) -> tuple[int, ...]:
        """n_j = product of the first j attribute sizes, j = 0..M (n_0 = 1)."""
        prefix = [1]
        for s in self.sizes:
            prefix.append(prefix[-1] * s)
        return tuple(prefix)

    @property
    def n_attributes(self) -> int:
        return len(self.attributes)

    @property
    def domain_size(self) -> int:
        return self.radix_prefix[-1]

    @cached_property
    def boolean_width(self) -> int:
        """Total width of the one-bit-per-category boolean expansion."""
        return sum(self.sizes)

    @cached_property
    def boolean_offsets(self) -> tuple[int, ...]:
        """Start position of each attribute's block in the boolean expansion."""
        offs = [0]
        for s in self.sizes[:-1]:
            offs.append(offs[-1] + s)
        return tuple(offs)

    @cached_property
    def item_labels(self) -> tuple[str, ...]:
        """``name=label`` of each bit of the boolean expansion, in its order:
        the text of an item in bit-table headers and itemset labels."""
        return tuple(f"{a.name}={c}" for a in self.attributes for c in a.categories)

    def validate_record(self, values: Sequence[int]) -> Record:
        if len(values) != self.n_attributes:
            raise ValueError(f"record has {len(values)} values, schema expects {self.n_attributes}")
        for j, (v, s) in enumerate(zip(values, self.sizes)):
            if not 0 <= int(v) < s:
                raise ValueError(f"attribute {self.attributes[j].name!r}: index {v} out of range [0,{s})")
        return tuple(int(v) for v in values)


@dataclass(frozen=True)
class Dataset:
    """A set of categorical records stored as an (N, M) code matrix."""

    schema: Schema
    codes: np.ndarray

    def __post_init__(self) -> None:
        codes = np.ascontiguousarray(self.codes, dtype=np.int32)
        if codes.ndim != 2 or codes.shape[1] != self.schema.n_attributes:
            raise ValueError(f"codes must be (N, {self.schema.n_attributes}), got {codes.shape}")
        sizes = np.asarray(self.schema.sizes)
        if codes.size and ((codes < 0) | (codes >= sizes)).any():
            raise ValueError("dataset contains out-of-range category codes")
        object.__setattr__(self, "codes", codes)

    @property
    def n_records(self) -> int:
        return self.codes.shape[0]

    def record(self, i: int) -> Record:
        return tuple(int(v) for v in self.codes[i])


@dataclass(frozen=True)
class BooleanDataset:
    """Bit-vector records over a schema's boolean expansion (perturbed domain).

    Rows are arbitrary points of the boolean cube: perturbation mechanisms
    operating on the expansion may emit vectors that decode to no valid
    categorical record.
    """

    schema: Schema
    bits: np.ndarray

    def __post_init__(self) -> None:
        bits = np.ascontiguousarray(self.bits, dtype=bool)
        if bits.ndim != 2 or bits.shape[1] != self.schema.boolean_width:
            raise ValueError(f"bits must be (N, {self.schema.boolean_width}), got {bits.shape}")
        object.__setattr__(self, "bits", bits)

    @property
    def n_records(self) -> int:
        return self.bits.shape[0]


# ---------------------------------------------------------------------------
# schema configuration
# ---------------------------------------------------------------------------

def _bin_labels(edges: Sequence[float], open_upper: bool) -> tuple[str, ...]:
    labels = [f"({lo:g}-{hi:g}]" for lo, hi in zip(edges, edges[1:])]
    if open_upper:
        labels.append(f">{edges[-1]:g}")
    return tuple(labels)


def load_schema(config_text: str) -> Schema:
    """Parse a YAML schema config into a validated Schema.

    Each attribute entry carries a ``name`` and either ``categories`` (labels,
    with optional ``default`` catch-all) or ``bins`` (numeric edges, with an
    optional boolean ``open_upper`` adding a final unbounded category), no other key.
    """
    doc = _parse_yaml(config_text)
    if not isinstance(doc, dict) or "attributes" not in doc:
        raise ValueError("schema config must be a mapping with an 'attributes' list")
    if not isinstance(doc["attributes"], list):
        raise ValueError(f"schema config: 'attributes' must be a list, got {doc['attributes']!r}")
    attributes = []
    for entry in doc["attributes"]:
        if not isinstance(entry, dict):
            raise ValueError(f"schema config: attribute {entry!r} is not a mapping "
                             "with a name and categories or bins")
        name = entry.get("name")
        if not name:
            raise ValueError("schema config: attribute without a name")
        if not isinstance(name, str):
            raise ValueError(f"schema config: attribute name {name!r} is not a string")
        has_cats = "categories" in entry
        has_bins = "bins" in entry
        if has_cats == has_bins:
            raise ValueError(f"attribute {name!r}: exactly one of 'categories'/'bins' required")
        key = "bins" if has_bins else "categories"
        takes = ("name", "bins", "open_upper") if has_bins else ("name", "categories", "default")
        if unknown := [k for k in entry if k not in takes]:
            raise ValueError(f"attribute {name!r}: unknown key {unknown[0]!r}; an attribute "
                             f"with {key!r} takes {', '.join(takes)}")
        if not isinstance(entry[key], list):
            raise ValueError(f"attribute {name!r}: {key!r} must be a list, got {entry[key]!r}")
        if has_bins:
            try:
                edges = tuple(float(e) for e in entry["bins"])
            except (TypeError, ValueError):
                raise ValueError(f"attribute {name!r}: bins must be numbers, "
                                 f"got {entry['bins']!r}") from None
            open_upper = entry.get("open_upper", False)
            if not isinstance(open_upper, bool):
                raise ValueError(f"attribute {name!r}: 'open_upper' must be true or false, "
                                 f"got {open_upper!r}")
            attributes.append(
                Attribute(name=name, categories=_bin_labels(edges, open_upper),
                          bin_edges=edges, open_upper=open_upper)
            )
        else:
            attributes.append(
                Attribute(name=name, categories=tuple(str(c) for c in entry["categories"]),
                          default_category=entry.get("default"))
            )
    return Schema(name=str(doc.get("name", "unnamed")), attributes=tuple(attributes))


def builtin_schema(name: str) -> Schema:
    """Load one of the packaged schema configs (e.g. 'census', 'health')."""
    return load_schema(_builtin_config_text(name))


def _builtin_config_text(name: str) -> str:
    from importlib import resources

    ref = resources.files(__package__) / "schemas" / f"{name}.yaml"
    try:
        return ref.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ValueError(f"no builtin schema named {name!r}") from None


def schema_fingerprint(schema: Schema) -> str:
    """Stable hash of the schema structure, for provenance metadata."""
    import hashlib

    parts = [schema.name]
    for a in schema.attributes:
        parts.append(a.name)
        parts.extend(a.categories)
        parts.append(str(a.bin_edges))
    return hashlib.sha256("\x1f".join(parts).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# discretization and encoding
# ---------------------------------------------------------------------------

def discretize(raw_value: float, attribute: Attribute, clamp: bool = False) -> int:
    """Map a raw number to its (lo, hi] bin index.

    Values at an interior boundary fall in the lower interval. Out-of-range
    values raise unless ``clamp`` is set, in which case they map to the
    nearest end bin. ``_discretize_many`` applies the rule; this words its error.
    """
    if attribute.bin_edges is None:
        raise ValueError(f"attribute {attribute.name!r} has no discretization rules")
    [idx] = _discretize_many(np.array([raw_value], dtype=np.float64), attribute, clamp)
    if idx >= 0:
        return int(idx)
    if not np.isfinite(raw_value):
        raise ValueError(f"attribute {attribute.name!r}: non-finite value {raw_value!r}")
    side = "below first" if raw_value <= attribute.bin_edges[0] else "above last"
    raise ValueError(f"attribute {attribute.name!r}: value {raw_value:g} {side} bin")


def encode(record: Sequence[int], schema: Schema) -> int:
    """Mixed-radix index of a record: sum of v_j * n_{j-1}."""
    values = schema.validate_record(record)
    prefix = schema.radix_prefix
    return sum(v * prefix[j] for j, v in enumerate(values))


def encode_rows(codes: np.ndarray, schema: Schema, attrs: Sequence[int] | None = None) -> np.ndarray:
    """Vectorized mixed-radix encoding of code rows, optionally restricted to
    an attribute subset (the subset's own radix order)."""
    if attrs is None:
        attrs = range(schema.n_attributes)
    attrs = list(attrs)
    weights = np.empty(len(attrs), dtype=np.int64)
    w = 1
    for t, j in enumerate(attrs):
        weights[t] = w
        w *= schema.sizes[j]
    return codes[:, attrs].astype(np.int64) @ weights


def decode_indices(indices: np.ndarray, schema: Schema) -> np.ndarray:
    """Vectorized decode of flat indices into an (N, M) code matrix."""
    out = np.empty((len(indices), schema.n_attributes), dtype=np.int32)
    rem = np.asarray(indices, dtype=np.int64).copy()
    for j, s in enumerate(schema.sizes):
        out[:, j] = rem % s
        rem //= s
    return out


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------

BLOCK_ROWS = 4096  # rows held in memory at once while reading or writing a CSV


class BitTableError(ValueError):
    """A label-table read found a bit table: a header of the schema's item labels."""


@contextlib.contextmanager
def _csv_errors(path: str):
    """Re-raise ``csv.Error`` (a field past ``csv.field_size_limit()``, say)
    as a ValueError naming the file."""
    try:
        yield
    except csv.Error as exc:
        raise ValueError(f"{path}: {exc}") from None


def ingest_csv(
    path: str,
    schema: Schema,
    column_map: Mapping[str, int | str] | None = None,
    on_error: str = "skip",
    clamp: bool = False,
) -> Dataset:
    """Read a CSV file into a Dataset, discretizing numeric attributes.

    Args:
        path: UTF-8 CSV file path (a leading byte-order mark is skipped).
            Fields are stripped of surrounding whitespace.
        schema: target schema.
        column_map: attribute name -> column (header name or 0-based index).
            Defaults to matching header names, or schema order when the file
            has no header. The first row is a header when it holds every
            attribute name (no ``column_map``), or when ``column_map`` names
            any column by header name; a map of indices only reads the first
            row as data.
        on_error: 'skip' drops rows with missing or unparseable values and
            logs the count as a warning; 'abort' raises on the first bad row.
        clamp: clamp out-of-range numeric values to the end bins.

    Binned attributes accept either raw numbers or exact bin labels, so
    datasets written by this package re-ingest cleanly. Rows are read in
    blocks of ``BLOCK_ROWS`` lines, and each distinct line is parsed once: a
    block of which at most half the lines are new parses only those, so a
    label table (at most one distinct line per domain cell) parses a few
    thousand lines in all. Other blocks are parsed whole. New lines with no
    ``"`` each have their own line end cut and are split at their commas in
    one step, so each column is a strided slice of one flat list of fields;
    they go to ``csv.reader`` only where its rows could differ from that
    split (see ``_rows``). Columns are then converted one at a time: a binned
    column of numbers only converts in one step, by ``float``'s rules; any
    other column goes one distinct text at a time. From the first block
    holding a ``"`` on, rows come from ``csv.reader``, so quoted commas and
    line breaks read as before. A first row of the schema's item labels (a
    bit table) raises ``BitTableError``.
    """
    if on_error not in ("skip", "abort"):
        raise ValueError(f"on_error must be 'skip' or 'abort', got {on_error!r}")
    attrs = schema.attributes
    with open(path, newline="", encoding="utf-8-sig") as fh, _csv_errors(path):
        first = next(csv.reader(fh), None)
        if first is None:
            return Dataset(schema, np.empty((0, schema.n_attributes), dtype=np.int32))
        if [f.strip() for f in first] == list(schema.item_labels):
            raise BitTableError(f"{path} is a bit table, not a label table: its first row "
                                f"is the item labels of schema {schema.name!r}")
        has_header, cols = _resolve_columns(first, schema, column_map)
        blocks = _blocks(fh)
        if not has_header:
            blocks = itertools.chain([(None, [first])], blocks)
        tables: list[dict] = [{None: -1} for _ in attrs]  # None: the row is too short
        memo: dict[str, int] = {}  # distinct raw line -> its row in known
        known = np.empty((0, len(attrs)), dtype=np.int32)
        flagged_known = np.empty(0, dtype=bool)  # per known row: see _flagged
        out, skipped = bytearray(), 0  # kept rows' codes, grown in place
        row_no = 2 if has_header else 1
        for lines, block in blocks:
            if block is None:
                new = set(lines).difference(memo)
                if 2 * len(new) > len(lines):  # mostly new lines: not worth a memo entry
                    block = _rows(lines)
            if block is None:  # parse only the lines not seen before
                if new:
                    memo.update(zip(new, itertools.count(len(memo))))
                    new_rows = _rows(new)
                    new_codes = _block_codes(new_rows, cols, attrs, tables, clamp)
                    known = np.concatenate([known, new_codes])
                    flagged_known = np.concatenate([flagged_known,
                                                    _flagged(new_rows, new_codes)])
                inv = np.fromiter(map(memo.__getitem__, lines), np.intp, len(lines))
                codes, flagged = known[inv], flagged_known[inv]
            else:
                codes = _block_codes(block, cols, attrs, tables, clamp)
                flagged = _flagged(block, codes)
            if flagged.any():
                if on_error == "abort":  # the row's first bad field in schema order raises
                    i = int(flagged.argmax())
                    row = next(csv.reader([lines[i]])) if block is None else block[i]
                    try:
                        [_parse_field(_field(row, c), a, clamp) for c, a in zip(cols, attrs)]
                    except ValueError as exc:
                        raise ValueError(f"{path} row {row_no + i}: {exc}") from None
                skipped += int(flagged.sum())
            out += codes[(codes >= 0).all(axis=1)].tobytes()
            row_no += len(codes)
    if skipped:
        logger.warning("%s: skipped %d rows with missing or unparseable values", path, skipped)
    codes = np.frombuffer(out, dtype=np.int32).reshape(-1, schema.n_attributes)
    return Dataset(schema, codes)


def _blocks(lines):
    """The rest of a file in blocks of up to ``BLOCK_ROWS`` rows: ``(lines,
    None)`` while no line holds a ``"``, each line then being one row, and
    ``(None, rows)`` parsed by ``csv.reader`` from the first such block on."""
    while block := list(itertools.islice(lines, BLOCK_ROWS)):
        if '"' in "".join(block):
            rows = csv.reader(itertools.chain(block, lines))
            while block := list(itertools.islice(rows, BLOCK_ROWS)):
                yield None, block
            return
        yield block, None


class _Split:
    """Rows of ``width`` fields each, held back to back in one flat list:
    row i is ``fields[i * width:(i + 1) * width]`` and column c is
    ``fields[c::width]``."""

    def __init__(self, fields: list[str], width: int):
        self.fields, self.width = fields, width

    def __len__(self) -> int:
        return len(self.fields) // self.width

    def __getitem__(self, i: int) -> list[str]:
        return self.fields[i * self.width:(i + 1) * self.width]


def _rows(lines):
    """The rows of quote-free lines, as ``csv.reader`` reads them. Each line's
    own end (``\\n``, ``\\r\\n``, ``\\r`` or none) is cut, and the cut lines are
    joined at commas and split in one step, into a ``_Split``, unless the
    split could differ from the reader's rows; then the reader parses them."""
    cut = list(map(str.rstrip, lines, itertools.repeat("\r\n")))
    text = ",".join(cut)
    commas = set(map(str.count, cut, itertools.repeat(",")))
    if (len(commas) == 1  # else rows of unequal width
            and "" not in cut  # a blank line's row is [], not ['']
            and "\0" not in text  # Python 3.10's reader raises on a NUL
            and max(map(len, cut)) <= csv.field_size_limit()):  # it raises on a longer field
        return _Split(text.split(","), commas.pop() + 1)
    return list(csv.reader(lines))


def _flagged(rows, codes) -> np.ndarray:
    """Rows with a bad field that are not blank: those skipped or aborted on."""
    flagged = ~(codes >= 0).all(axis=1)
    for i in np.flatnonzero(flagged):
        flagged[i] = any(f.strip() for f in rows[i])
    return flagged


def _resolve_columns(first, schema, column_map) -> tuple[bool, list[int]]:
    """Header presence and each attribute's column index, in schema order."""
    stripped = [f.strip() for f in first]
    if column_map is None:
        header = all(a.name in stripped for a in schema.attributes)
        column_map = {a.name: a.name if header else j for j, a in enumerate(schema.attributes)}
    missing = [a.name for a in schema.attributes if a.name not in column_map]
    if missing:
        raise ValueError(f"column_map missing attributes: {missing}")
    has_header = any(isinstance(c, str) for c in column_map.values())  # a header name
    cols = []
    for a in schema.attributes:
        col = column_map[a.name]
        if has_header and isinstance(col, str):
            if col not in stripped:
                raise ValueError(f"column {col!r} not found in header")
            col = stripped.index(col)
        cols.append(int(col))
    return has_header, cols


def _field(row: list[str], col: int) -> str | None:
    """The row's field at a column index, or None when the row is too short."""
    return row[col] if -len(row) <= col < len(row) else None


def _block_codes(block, cols, attrs, tables, clamp) -> np.ndarray:
    """(len(block), M) codes of a block of rows, -1 where a field is bad."""
    if isinstance(block, _Split):
        columns = [block.fields[c::block.width] for c in range(block.width)]
    elif len(set(map(len, block))) == 1:
        columns = list(zip(*block))
    else:  # ragged rows
        columns = None
    if columns is None:
        fields = [[_field(row, c) for row in block] for c in cols]
    else:
        width = len(columns)
        fields = [columns[c] if -width <= c < width else (None,) * len(block) for c in cols]
    return np.column_stack([_column_codes(*args, clamp) for args in zip(fields, attrs, tables)])


def _column_codes(col, attribute: Attribute, table: dict, clamp: bool) -> np.ndarray:
    """One column's codes, -1 where ``_parse_field`` raises. A binned column
    whose every text is a number (or None, a short row's) converts in one
    step, as ``float`` parses. Any other column goes text by text: ``table``
    keeps each distinct text's code for the whole file, except raw numbers,
    which can be as many as the rows: they are discretized per block."""
    if attribute._reads_numbers:
        try:
            values = np.array(col, dtype=np.float64)
        except ValueError:  # a label, a missing token, a typo: text by text
            pass
        else:
            return _discretize_many(values, attribute, clamp).astype(np.int32)
    numbers: dict[str, float] = {}
    for raw in set(col).difference(table):
        text = raw.strip()
        if attribute.bin_edges is not None and text not in attribute.categories:
            try:
                numbers[raw] = float(text)  # no missing token parses as a number
                continue
            except ValueError:
                pass
        try:
            table[raw] = _parse_field(raw, attribute, clamp)
        except ValueError:
            table[raw] = -1
    if numbers:
        codes = _discretize_many(np.fromiter(numbers.values(), np.float64, len(numbers)),
                                 attribute, clamp)
        table = {**table, **dict(zip(numbers, codes.tolist()))}
    return np.fromiter(map(table.__getitem__, col), np.int32, len(col))


def _discretize_many(values: np.ndarray, attribute: Attribute, clamp: bool) -> np.ndarray:
    """``discretize`` over many values at once, -1 where it raises."""
    idx = np.searchsorted(np.asarray(attribute.bin_edges, dtype=np.float64), values) - 1
    last = attribute.size - 1
    if attribute.open_upper or clamp:
        np.minimum(idx, last, out=idx)
    if clamp:
        np.maximum(idx, 0, out=idx)
    idx[~np.isfinite(values) | (idx < 0) | (idx > last)] = -1
    return idx


def _parse_field(field_text: str | None, attribute: Attribute, clamp: bool) -> int:
    if field_text is None:
        raise ValueError(f"attribute {attribute.name!r}: row too short")
    text = field_text.strip()
    # exact label match first, so bin labels and literal '?' categories win
    if text in attribute.categories:
        return attribute.categories.index(text)
    if text in MISSING_TOKENS:
        raise ValueError(f"attribute {attribute.name!r}: missing value")
    if attribute.bin_edges is not None:
        try:
            number = float(text)
        except ValueError:
            raise ValueError(f"attribute {attribute.name!r}: cannot parse {text!r}") from None
        return discretize(number, attribute, clamp=clamp)
    return attribute.index_of(text)


def write_csv(dataset: Dataset, path: str) -> None:
    """Write a dataset as a header + category-label CSV, in UTF-8.

    Rows are written in blocks of ``BLOCK_ROWS``, and each distinct row is
    rendered once, the reader's rule mirrored: a block of which at most half
    the rows are new renders only those, through the same ``csv.writer``, and
    writes the kept lines in row order; so a perturbed label table (at most
    one distinct row per domain cell) renders a few thousand lines in all.
    A block of mostly new rows is written row by row and not kept.
    """
    attrs = dataset.schema.attributes
    labels = [np.asarray(a.categories, dtype=object) for a in attrs]
    codes = dataset.codes
    key = np.dtype((np.void, codes.itemsize * codes.shape[1]))  # a code row as one bytes key

    def label_rows(block):
        return zip(*(lab[block[:, j]].tolist() for j, lab in enumerate(labels)))

    memo: dict[bytes, str] = {}  # distinct code row -> its CSV line
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([a.name for a in attrs])
        for lo in range(0, dataset.n_records, BLOCK_ROWS):
            block = codes[lo:lo + BLOCK_ROWS]
            keys = block.view(key).ravel().tolist()
            new = set(keys)
            new.difference_update(memo)
            if 2 * len(new) > len(keys):  # mostly new rows: not worth a memo entry
                writer.writerows(label_rows(block))
                continue
            if new:
                new = list(new)  # one order for the codes and their lines
                new_codes = np.frombuffer(b"".join(new), codes.dtype).reshape(len(new), -1)
                memo.update(zip(new, _csv_lines(label_rows(new_codes))))
            fh.write("".join(map(memo.__getitem__, keys)))


def _csv_lines(rows) -> list[str]:
    """Each row's line as ``csv.writer`` writes it, cut at the character
    counts ``writerow`` returns."""
    buf = io.StringIO(newline="")
    ends = list(itertools.accumulate(map(csv.writer(buf).writerow, rows)))
    text = buf.getvalue()
    return [text[start:end] for start, end in zip([0, *ends], ends)]


def write_boolean_csv(data: BooleanDataset, path: str) -> None:
    """Write a boolean-cube dataset as a UTF-8 0/1 CSV, one column per category
    bit, under a header of the schema's item labels."""
    # one row of text is 2 * width bytes: a digit, then ',' or the final '\n'
    line = np.full(2 * data.schema.boolean_width, ord(","), dtype=np.uint8)
    line[-1] = ord("\n")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(data.schema.item_labels)
        for lo in range(0, data.n_records, BLOCK_ROWS):
            bits = data.bits[lo:lo + BLOCK_ROWS]
            text = np.tile(line, (len(bits), 1))
            text[:, 0::2] = bits.view(np.uint8) + ord("0")
            fh.write(text.tobytes().decode("ascii"))


def read_boolean_csv(path: str, schema: Schema) -> BooleanDataset:
    """Read a UTF-8 0/1 CSV as written by ``write_boolean_csv``, skipping a leading BOM.
    A header that is not the schema's item labels (cells stripped), or a row
    that is not one 0 or 1 cell per category bit, raises a ValueError naming the file.
    The bits grow one buffer, as ``ingest_csv``'s codes do, a chunk of the
    file at a time: ``BLOCK_ROWS`` rows in that layout at once, or a chunk
    in any other (spaces around cells, CRLF line ends), read on to the end
    of its last line, row by row."""
    width = schema.boolean_width
    line = 2 * width  # characters per row: digits, commas, '\n'
    out = bytearray()  # the bits read so far, one byte per bit, grown in place
    with open(path, newline="", encoding="utf-8-sig") as fh, _csv_errors(path):
        reader = csv.reader(fh)
        if [c.strip() for c in next(reader, [])] != list(schema.item_labels):
            raise ValueError(f"{path}: the header is not the item labels of schema "
                             f"{schema.name!r}")
        row_no = reader.line_num + 1
        while chunk := fh.read(BLOCK_ROWS * line):
            text = np.frombuffer(chunk.encode(), dtype=np.uint8)
            if text.size % line == 0:
                text = text.reshape(-1, line)
                cells = text[:, 0::2]
                if ((text[:, 1:-1:2] == ord(",")).all() and (text[:, -1] == ord("\n")).all()
                        and ((cells == ord("0")) | (cells == ord("1"))).all()):
                    out += (cells == ord("1")).tobytes()
                    row_no += len(text)
                    continue
            # any other layout: spaces around cells and CRLF line ends still parse,
            # the chunk read on to the end of the line it stops in
            rows = (chunk + fh.readline()).splitlines()
            for i, row_text in enumerate(rows, start=row_no):
                row = [c.strip() for c in row_text.split(",")]
                if len(row) != width or not set(row) <= {"0", "1"}:
                    raise ValueError(f"{path} row {i}: expected {width} cells of 0 or 1, "
                                     f"got {row_text!r}")
                out += bytes(c == "1" for c in row)
            row_no += len(rows)
    return BooleanDataset(schema, np.frombuffer(out, dtype=bool).reshape(-1, width))


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

def generate_synthetic(schema: Schema, n: int, distribution, seed: int) -> Dataset:
    """Draw n i.i.d. records from a specified distribution.

    ``distribution`` is one of:
      - the string 'uniform';
      - a joint weight vector over the full domain (length domain_size).
    Deterministic given seed.
    """
    rng = np.random.default_rng(seed)
    if isinstance(distribution, str):
        if distribution != "uniform":
            raise ValueError(f"unknown distribution spec {distribution!r}")
        codes = np.column_stack([rng.integers(0, s, size=n) for s in schema.sizes])
        return Dataset(schema, codes)

    joint = np.asarray(distribution, dtype=float)
    if joint.shape != (schema.domain_size,):
        raise ValueError(f"joint distribution must have length {schema.domain_size}")
    joint = _normalized(joint, "joint distribution")
    idx = rng.choice(schema.domain_size, size=n, p=joint)
    return Dataset(schema, decode_indices(idx, schema))


def _normalized(weights: np.ndarray, what: str) -> np.ndarray:
    if (weights < 0).any():
        raise ValueError(f"{what}: negative weights")
    total = weights.sum()
    if not total > 0:
        raise ValueError(f"{what}: weights sum to zero")
    return weights / total


def load_reference_distribution(config_text: str, schema: Schema) -> np.ndarray:
    """Build the joint distribution declared in a schema config.

    The config's ``reference_distribution`` section mixes an independent
    background (product of per-attribute marginals, weight ``background``)
    with point-mass modes (full category assignments). The result is a fixed,
    deterministic joint over the schema's domain, suitable as a stand-in when
    the original survey data is unavailable.
    """
    doc = _parse_yaml(config_text)
    section = (doc or {}).get("reference_distribution")
    if section is None:
        raise ValueError("config has no reference_distribution section")
    marginals = []
    for a in schema.attributes:
        w = section.get("marginals", {}).get(a.name)
        if w is None:
            raise ValueError(f"reference_distribution: no marginal for attribute {a.name!r}")
        marginals.append(_normalized(np.asarray(w, dtype=float), f"marginal {a.name!r}"))
        if len(marginals[-1]) != a.size:
            raise ValueError(f"marginal {a.name!r}: wrong length")

    background = float(section.get("background", 1.0))
    joint = marginals[0]
    for w in marginals[1:]:
        # mixed-radix order: attribute 0 is least significant
        joint = (joint[None, :] * w[:, None]).ravel()
    joint = background * joint

    for mode in section.get("modes", []):
        weight = float(mode["weight"])
        values = [schema.attributes[j].index_of(str(mode["values"][schema.attributes[j].name]))
                  for j in range(schema.n_attributes)]
        joint[encode(values, schema)] += weight
    return _normalized(joint, "reference distribution")


def builtin_distribution(name: str) -> np.ndarray:
    """Reference joint distribution packaged with a builtin schema."""
    return load_reference_distribution(_builtin_config_text(name), builtin_schema(name))
