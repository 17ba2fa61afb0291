"""Transaction-table ingestion and the price normalization pipeline.

Scanner-style transaction data arrives as delimiter-separated text with one
row per transaction: good, market, quarter, price, quantity. Prices are
only comparable across goods after dividing by the group mean price, so the
pipeline groups rows at a chosen granularity, normalizes prices by the
per-group mean, and pools the normalized samples. The spread statistics of
the groups (one standard deviation each) feed the shifted lognormal fit.

The path is columnar. Transaction tables and samples go through one CSV
reader: it checks the header against the accepted ones, parses the body in
one pass of numpy's C text reader into a record array with a field per
header column, and builds the result on views of those fields, whose
constructor validates them. Each id passes through a per-read table of the
ids seen so far, so a loaded table holds one ``str`` object per distinct
id, not one per row; the table goes with the read, so no id outlives the
tables that hold it. Only when the parse or the build fails does the reader
re-read the file record by record, under one row check driven by the
header's columns, to name the first bad row.
Grouping sorts the rows once by integer group codes, so each group is a
contiguous slice of the columns of one result, which the spread statistics
and the writer read in place. Per-group sums are taken by size bucket: the
groups of one size are gathered into one ``(groups, size)`` array and
summed along its rows. numpy sums a contiguous row by the same pairwise
summation as a contiguous slice of that length, so every sum keeps the
bits of the per-group loop, with a few numpy calls per distinct group size
instead of per group. Means and spreads are taken on columns scaled per
group by a power of two, which puts the group's largest entry in
``[0.5, 1)``, and scaled back with ``np.ldexp``: no sum can overflow, and
a product that would lose bits as a subnormal number keeps them. Scaling
by a power of two is exact and commutes with rounding while results stay
normal, so wherever every plain and scaled product and partial sum is a
normal number (prices and quantities each spanning less than about 150
decades in a group), each mean and spread has the bits of the plain
per-group formula.

The writer formats one block of at most ``_WRITE_ROWS`` rows of one group
at a time from that slice's ``tolist()``, so beside the text it returns
only one block's row strings and floats exist at once. Blocks change which
Python objects exist, not what is formatted, so the text keeps its bytes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptyInput, MalformedRow, ModelError
from .samples import Sample, unit_scaled

__all__ = [
    "NormalizedGroups", "TransactionTable", "group_std_devs", "load_sample",
    "load_transactions", "normalize_prices", "write_normalized_samples", "write_sample",
]

HEADER = ("good_id", "market_id", "quarter", "price", "quantity")
_ID_COLUMNS = HEADER[:3]
SAMPLE_HEADERS = (("value",), ("value", "weight"))
#: Grouping levels; the i-th keys on the first i + 1 id columns.
GROUPINGS = ("good", "good+market", "good+market+quarter")

#: Most rows ``write_normalized_samples`` formats at a time.
_WRITE_ROWS = 1 << 14


@dataclass(frozen=True, eq=False)
class TransactionTable:
    """Columnar transaction records.

    Ids are nonempty strings; prices and quantities are strictly positive.
    """

    good_id: np.ndarray
    market_id: np.ndarray
    quarter: np.ndarray
    price: np.ndarray
    quantity: np.ndarray

    def __post_init__(self):
        good = np.asarray(self.good_id, dtype=object)
        market = np.asarray(self.market_id, dtype=object)
        quarter = np.asarray(self.quarter, dtype=object)
        price = np.asarray(self.price, dtype=float)
        quantity = np.asarray(self.quantity, dtype=float)
        n = good.size
        for name, col in (("market_id", market), ("quarter", quarter),
                          ("price", price), ("quantity", quantity)):
            if col.ndim != 1 or col.size != n:
                raise ValueError(f"{name} must match good_id in length")
        for col in (good, market, quarter):
            if not all(issubclass(kind, str) for kind in set(map(type, col))) or np.any(col == ""):
                raise ValueError("ids must be nonempty strings")
        if not np.all(np.isfinite(price)) or np.any(price <= 0.0):
            raise ValueError("prices must be finite and positive")
        if not np.all(np.isfinite(quantity)) or np.any(quantity <= 0.0):
            raise ValueError("quantities must be finite and positive")
        object.__setattr__(self, "good_id", good)
        object.__setattr__(self, "market_id", market)
        object.__setattr__(self, "quarter", quarter)
        object.__setattr__(self, "price", price)
        object.__setattr__(self, "quantity", quantity)

    @property
    def size(self) -> int:
        return int(self.good_id.size)


@dataclass(frozen=True, eq=False)
class NormalizedGroups:
    """Normalized prices of every group, in columns.

    Group ``i`` has key ``keys[i]`` and mean price ``mu0[i]``; its rows are
    ``values[bounds[i]:bounds[i + 1]]`` (prices ``p / mu0``) and the same
    slice of ``weights`` (quantities). Under the default quantity-weighted
    ``mu0`` each group's quantity-weighted mean of the values is 1 by
    construction; with an unweighted ``mu0`` it need not be, which is why
    the identity is asserted by the pipeline rather than by this type.
    """

    keys: tuple[tuple[str, ...], ...]
    mu0: np.ndarray
    bounds: np.ndarray
    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        keys = tuple(self.keys)
        mu0 = np.asarray(self.mu0, dtype=float)
        bounds = np.asarray(self.bounds)
        values = np.asarray(self.values, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if mu0.shape != (len(keys),) or bounds.shape != (len(keys) + 1,):
            raise ValueError("keys and mu0 must hold one entry per group, bounds one more")
        if values.ndim != 1 or weights.shape != values.shape:
            raise ValueError("values and weights must be 1-D arrays of one length")
        if (bounds.dtype.kind not in "iu" or bounds[0] != 0 or bounds[-1] != values.size
                or np.any(bounds[1:] <= bounds[:-1])):
            raise ValueError("bounds must be integers rising strictly from 0 to the row count")
        for name, column in (("mu0", mu0), ("values", values), ("weights", weights)):
            if not np.all((0.0 < column) & (column < math.inf)):
                raise ValueError(f"{name} must be positive and finite")
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "mu0", mu0)
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return len(self.keys)


def _open_text(source):
    """Context manager of a seekable text stream for a path or an open stream.

    The reader seeks back to name a bad row, so a stream that cannot seek
    is read into memory first; a seekable stream is used as is, left open.
    """
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8", newline="")
    if not source.seekable():
        return io.StringIO(source.read(), newline="")
    return contextlib.nullcontext(source)


def _records(stream):
    """Nonblank CSV records of ``stream`` with their 1-based record numbers.

    Blank records are skipped but counted. Lines come from ``readline`` so
    that the stream stays positioned right after the last record read.
    """
    reader = csv.reader(iter(stream.readline, ""))
    return ((number, row) for number, row in enumerate(reader, start=1) if row)


def _parse_number(text: str) -> float | None:
    """``float(text)`` under the grammar of numpy's text reader, or None.

    numpy strips Unicode whitespace and then accepts only ASCII without
    digit-group underscores, so ``1_0`` and non-ASCII digits, which
    ``float`` takes, are not numbers here.
    """
    text = text.strip()
    if not text.isascii() or "_" in text:
        return None
    try:
        return float(text)
    except ValueError:
        return None


def _check_row(header: tuple[str, ...], row_number: int, row: list[str]) -> None:
    """Raise MalformedRow if a record breaks a rule of the ``header`` format.

    Ids must be nonempty, ``value`` a finite number and every other number
    (price, quantity, weight) a positive finite one. Columns are checked in
    order, so the reason names the first bad field.
    """
    if len(row) != len(header):
        raise MalformedRow(row_number, f"expected {len(header)} fields, got {len(row)}")
    for name, text in zip(header, row):
        if name in _ID_COLUMNS:
            if not text:
                raise MalformedRow(row_number, f"{name} must be nonempty")
            continue
        number = _parse_number(text)
        if number is None:
            raise MalformedRow(row_number, f"{name} {text!r} is not a number")
        if name == "value":
            if not -math.inf < number < math.inf:
                raise MalformedRow(row_number, f"value must be finite, got {text}")
        elif not 0.0 < number < math.inf:
            raise MalformedRow(row_number, f"{name} must be positive and finite, got {text}")


class _SharedIds(dict):
    """The ids read so far, each keyed by itself.

    Looking a field up returns the first ``str`` equal to it, so every
    occurrence of an id is one object.
    """

    def __missing__(self, text: str) -> str:
        self[text] = text
        return text


def _read_csv(source, kind: str, headers, build):
    """``build`` the records of ``source`` under one of the accepted ``headers``.

    The first nonblank record must equal one of ``headers``; the body is
    parsed in one pass of numpy's C text reader into a record array with a
    field per column (ids as ``object``, numbers as ``float``). The reader
    hands each id field, unquoted, to a converter that looks it up in one
    ``_SharedIds`` per read. numpy's reader and ``build``'s validation both
    raise ValueError. The records are then re-read from the header and
    ``_check_row`` raises MalformedRow at the first bad one; if none is bad,
    numpy's error stands.
    """
    with _open_text(source) as stream:
        start = stream.tell()
        row_number, header = next(_records(stream), (0, None))
        if header is None:
            raise EmptyInput(f"{kind} stream holds no rows")
        header = tuple(header)
        if header not in headers:
            raise MalformedRow(
                row_number, "header must be " + " or ".join(repr(",".join(h)) for h in headers)
            )
        dtype = np.dtype([(name, object if name in _ID_COLUMNS else float) for name in header])
        shared = _SharedIds().__getitem__
        converters = {i: shared for i, name in enumerate(header) if name in _ID_COLUMNS}
        try:
            with warnings.catch_warnings():
                # a body of blank lines is an empty table, not a warning
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                data = np.loadtxt(
                    stream, dtype=dtype, delimiter=",", quotechar='"', comments=None, ndmin=1,
                    converters=converters,
                )
            return build(data)
        except ValueError as error:
            failure = error
        stream.seek(start)
        records = _records(stream)
        next(records)  # the header, already accepted
        for row_number, row in records:
            _check_row(header, row_number, row)
        raise failure


def load_transactions(source) -> TransactionTable:
    """Parse a transaction table from a path or text stream.

    The input is CSV: fields may be quoted with ``"`` (a doubled ``""``
    inside quotes is a literal quote), blank lines are skipped, and there
    is no comment character, so a ``#`` is data. The first nonblank record
    must name the five columns exactly. The body is parsed in one pass of
    numpy's C text reader, so numbers follow its grammar: surrounding
    Unicode whitespace (U+001C..U+001F included) is allowed, digit-group
    underscores (``1_0``) and non-ASCII digits are not. Diagnostics report
    the CSV record number (header = row 1, blank lines counted), which is
    the physical line number unless a quoted field spans lines. The reader
    and its row rules are shared with ``load_sample``.

    Raises
    ------
    EmptyInput
        If the stream holds no rows at all.
    MalformedRow
        On a wrong header, a wrong field count, an empty id, or a price or
        quantity that is not a positive finite number.
    ValueError
        From numpy, in a stream that ends lines only at LF (the default of
        ``io.StringIO``), on a line with an unquoted CR inside it. Paths
        are opened so that every CR ends a line.
    """
    return _read_csv(
        source, "transaction", (HEADER,),
        lambda data: TransactionTable(*(data[name] for name in HEADER)),
    )


def _group_codes(column: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Sorted distinct ids of ``column`` and each row's index into them.

    Hashing the ids and sorting only the distinct ones is about three times
    faster than ``np.unique`` on a fixed-width ``str`` view, and exact for
    every string (that view drops trailing NUL characters).
    """
    ids = column.tolist()
    names = sorted(set(ids))
    rank = {name: i for i, name in enumerate(names)}
    return names, np.fromiter(map(rank.__getitem__, ids), dtype=np.intp, count=len(ids))


def normalize_prices(
    table: TransactionTable, grouping: str = "good", weighted: bool = True
) -> NormalizedGroups:
    """Normalize prices by the per-group mean price.

    ``mu0`` is the quantity-weighted mean price of the group by default;
    ``weighted=False`` switches to the unweighted mean for comparison, since
    the convention is a modeling choice. Groups come back sorted by key,
    each keeping its rows in table order. A single-transaction group
    normalizes to 1 exactly under the unweighted convention; under the
    weighted one its value is ``p / ((p * q) / q)``, whose three roundings
    keep it within ``1.5 * eps`` of 1 but not always at 1. The sums behind
    ``mu0`` and the weighted mean of normalized prices are taken on prices
    and quantities scaled per group by a power of two (see the module
    notes), so none overflows.

    Raises
    ------
    EmptyInput
        If the table has no rows.
    ValueError
        If ``grouping`` is not one of ``GROUPINGS``.
    ModelError
        If a group's mean price underflows to 0 (its scaled products all
        underflow), its normalized prices underflow to 0 or overflow, or
        its quantity-weighted mean under the weighted convention is not
        finite or misses 1 by more than 1e-12. The first such group in key
        order is named, and within it the first of these checks that fails,
        in that order.
    """
    if table.size == 0:
        raise EmptyInput("cannot normalize an empty table")
    if grouping not in GROUPINGS:
        raise ValueError(f"grouping must be one of {GROUPINGS}, got {grouping!r}")
    depth = GROUPINGS.index(grouping) + 1
    columns = (table.good_id, table.market_id, table.quarter)[:depth]
    names, codes = zip(*map(_group_codes, columns))
    # stable, so each group keeps its rows in table order; last key is primary
    order = np.lexsort(codes[::-1])
    codes = [code[order] for code in codes]
    starts = np.flatnonzero(np.any([c[1:] != c[:-1] for c in codes], axis=0)) + 1
    bounds = np.concatenate(([0], starts, [table.size]))
    keys = list(zip(*(
        [column_names[i] for i in code[bounds[:-1]].tolist()]
        for column_names, code in zip(names, codes)
    )))
    prices = table.price[order]
    quantities = table.quantity[order]
    sizes = np.diff(bounds)
    # division is monotone: a group's values run from low / mu0 to high / mu0
    lows = np.minimum.reduceat(prices, bounds[:-1])
    highs = np.maximum.reduceat(prices, bounds[:-1])
    scaled, exponents = unit_scaled(prices, bounds)
    # quotients out of range are refused below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if weighted:
            scaled_quantities, _ = unit_scaled(quantities, bounds)
            totals = _group_sums(scaled_quantities, bounds)
            mu0 = np.ldexp(_group_sums(scaled * scaled_quantities, bounds) / totals, exponents)
        else:
            mu0 = np.ldexp(_group_sums(scaled, bounds) / sizes, exponents)
        values = prices / np.repeat(mu0, sizes)
        underflows = lows / mu0 == 0.0
        overflows = ~(highs / mu0 < math.inf)
        failing = underflows | overflows
        if weighted:
            means = _group_sums(values * scaled_quantities, bounds) / totals
            failing |= ~(np.abs(means - 1.0) <= 1e-12)  # NaN fails too
    if failing.any():
        i = int(np.argmax(failing))  # the first failing group in key order
        if mu0[i] == 0.0:
            # its scaled products underflowed; a quotient by 0.0 would misstate it
            reason = "mean price underflows to 0"
        elif underflows[i]:
            reason = f"normalized price {float(lows[i])!r} / {float(mu0[i])!r} underflows to 0"
        elif overflows[i]:
            reason = f"normalized price {float(highs[i])!r} / {float(mu0[i])!r} overflows"
        else:
            reason = f"weighted mean of normalized prices is {float(means[i])!r}, not 1"
        raise ModelError(f"group {keys[i]}: {reason}")
    return NormalizedGroups(keys, mu0, bounds, values, quantities)


def _group_sums(x: np.ndarray, bounds) -> np.ndarray:
    """``x[lo:hi].sum()`` for each group between consecutive ``bounds``, bit for bit.

    Groups of one size are gathered into a ``(groups, size)`` array and
    summed along its rows. numpy sums each contiguous row by the pairwise
    summation it applies to a contiguous slice, so every sum keeps the
    bits of the per-slice one, a bucket of one group included. Distinct
    sizes number at most about ``sqrt(2 * len(x))``, and so do the numpy
    calls.
    """
    sizes = np.diff(bounds)
    by_size = np.argsort(sizes, kind="stable")
    cuts = [0, *(np.flatnonzero(np.diff(sizes[by_size])) + 1).tolist(), sizes.size]
    starts = np.asarray(bounds[:-1])
    sums = np.empty(sizes.size)
    for a, b in zip(cuts[:-1], cuts[1:]):
        bucket = by_size[a:b]
        sums[bucket] = x[starts[bucket, None] + np.arange(sizes[bucket[0]])].sum(axis=1)
    return sums


def group_std_devs(groups: NormalizedGroups) -> tuple[Sample, int]:
    """One spread statistic per group, pooled for the lognormal fit.

    Each group with at least two transactions contributes its
    quantity-weighted population standard deviation of normalized prices;
    smaller groups carry no spread information and are skipped. The sums
    are taken on values and weights scaled per group by a power of two
    (see the module notes): every term is then at most 1 and every weight
    total at least 0.5, so each spread is finite and at most half the
    group's largest value. Returns the pooled unit-weight sample and the
    skipped-group count.
    """
    bounds, values, weights = groups.bounds, groups.values, groups.weights
    sizes = np.diff(bounds)
    spread = sizes >= 2
    if not spread.any():
        return Sample(values=np.empty(0)), len(groups)
    scaled, exponents = unit_scaled(values, bounds)
    scaled_weights, _ = unit_scaled(weights, bounds)
    totals = _group_sums(scaled_weights, bounds)
    means = _group_sums(scaled * scaled_weights, bounds) / totals
    squares = scaled_weights * (scaled - np.repeat(means, sizes)) ** 2
    stds = np.ldexp(np.sqrt(_group_sums(squares, bounds) / totals), exponents)
    return Sample(values=stds[spread]), len(groups) - int(spread.sum())


def write_normalized_samples(groups: NormalizedGroups) -> str:
    """Render normalized groups as ``group_key,value,weight`` rows.

    Key components are joined with ``|`` into a single field, quoted as
    the ``csv`` module quotes it. Rows are formatted a block of at most
    ``_WRITE_ROWS`` rows of one group at a time (see the module notes).
    """
    label_buffer = io.StringIO()
    label_writer = csv.writer(label_buffer, lineterminator="\n")
    parts = ["group_key,value,weight\n"]
    bounds = groups.bounds.tolist()
    for key, lo, hi in zip(groups.keys, bounds[:-1], bounds[1:]):
        label_buffer.seek(0)
        label_buffer.truncate()
        label_writer.writerow(("|".join(key), ""))
        label = label_buffer.getvalue()[:-2]  # drop the empty field's ",\n"
        for start in range(lo, hi, _WRITE_ROWS):
            block = slice(start, min(start + _WRITE_ROWS, hi))
            rows = zip(groups.values[block].tolist(), groups.weights[block].tolist())
            parts.append("".join([f"{label},{value!r},{weight!r}\n" for value, weight in rows]))
    return "".join(parts)


def _build_sample(data) -> Sample:
    """The sample of a parsed ``value`` or ``value,weight`` body."""
    if data.size == 0:
        raise EmptyInput("sample stream holds a header but no data")
    return Sample(
        values=data["value"],
        weights=data["weight"] if "weight" in data.dtype.names else None,
    )


def load_sample(source) -> Sample:
    """Parse a weighted or unweighted sample from a path or text stream.

    The header must be ``value`` or ``value,weight``. The reader is that of
    ``load_transactions``: the same CSV rules, number grammar, row numbers
    and numpy ValueError on an unquoted CR inside a line.

    Raises
    ------
    EmptyInput
        If the stream holds no rows, or a header but no data.
    MalformedRow
        On a wrong header, a wrong field count, a field that is not a
        number, a value that is not finite, or a weight that is not a
        positive finite number.
    """
    return _read_csv(source, "sample", SAMPLE_HEADERS, _build_sample)


def write_sample(sample: Sample) -> str:
    """Render a sample as ``value,weight`` rows."""
    rows = zip(sample.values.tolist(), sample.weights.tolist())
    return "value,weight\n" + "".join(f"{value!r},{weight!r}\n" for value, weight in rows)
