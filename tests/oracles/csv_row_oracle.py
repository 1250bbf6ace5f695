"""Row-at-a-time CSV ingest: the reference for privmine's columnar ingest.

This is the per-row loop `privmine.schema.ingest_csv` ran before it parsed
whole columns in blocks, kept here so the differential tests in
`tests/test_csv_io.py` can require equal codes, equal skipped counts and
equal abort messages. It does not import privmine: the schema argument only
needs `attributes` (each with `name`, `categories`, `bin_edges`,
`open_upper` and `default_category`) and `n_attributes`.
"""

import bisect
import csv
import math

MISSING_TOKENS = frozenset({"", "?", "NA", "N/A"})


def discretize(raw_value, attribute, clamp=False):
    """(lo, hi] bin of a raw number; out-of-range values raise unless clamped."""
    edges = attribute.bin_edges
    if not math.isfinite(raw_value):
        raise ValueError(f"attribute {attribute.name!r}: non-finite value {raw_value!r}")
    if raw_value <= edges[0]:
        if clamp:
            return 0
        raise ValueError(f"attribute {attribute.name!r}: value {raw_value:g} below first bin")
    idx = bisect.bisect_left(edges, raw_value) - 1
    if idx >= len(edges) - 1:
        if attribute.open_upper:
            return len(edges) - 1
        if clamp:
            return len(edges) - 2
        raise ValueError(f"attribute {attribute.name!r}: value {raw_value:g} above last bin")
    return idx


def parse_field(field_text, attribute, clamp):
    text = field_text.strip()
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
    if attribute.default_category is not None:
        return attribute.categories.index(attribute.default_category)
    raise ValueError(f"attribute {attribute.name!r}: unknown category {text!r}")


def ingest(path, schema, column_map=None, on_error="skip", clamp=False):
    """Return (codes as a list of tuples, skipped row count); raise on the
    first bad row when on_error is 'abort'."""
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        first = next(rows, None)
        if first is None:
            return [], 0
        attrs = schema.attributes
        if column_map is None:
            stripped = [f.strip() for f in first]
            has_header = all(a.name in stripped for a in attrs)
            if has_header:
                col_idx = {a.name: stripped.index(a.name) for a in attrs}
            else:
                col_idx = {a.name: j for j, a in enumerate(attrs)}
        else:
            has_header = any(isinstance(c, str) for c in column_map.values())
            if has_header:
                stripped = [f.strip() for f in first]
                col_idx = {name: stripped.index(col) if isinstance(col, str) else int(col)
                           for name, col in column_map.items()}
            else:
                col_idx = {name: int(col) for name, col in column_map.items()}
        data_rows = list(rows) if has_header else [first, *rows]

    out, skipped = [], 0
    for row_no, row in enumerate(data_rows, start=2 if has_header else 1):
        if not row or all(not f.strip() for f in row):
            continue
        try:
            parsed = []
            for a in attrs:
                col = col_idx[a.name]
                if col >= len(row):
                    raise ValueError(f"attribute {a.name!r}: row too short")
                parsed.append(parse_field(row[col], a, clamp))
        except ValueError as exc:
            if on_error == "abort":
                raise ValueError(f"{path} row {row_no}: {exc}") from None
            skipped += 1
            continue
        out.append(tuple(parsed))
    return out, skipped

