"""Transaction-table ingestion and the price normalization pipeline.

Scanner-style transaction data arrives as delimiter-separated text with one
row per transaction: good, market, quarter, price, quantity. Prices are
only comparable across goods after dividing by the group mean price, so the
pipeline groups rows at a chosen granularity, normalizes prices by the
per-group mean, and pools the normalized samples. The spread statistics of
the groups (one standard deviation each) feed the shifted lognormal fit.

The path is columnar. Transaction tables and samples go through one CSV
reader: it checks the header against the accepted ones, parses the body in
one pass of numpy's C text reader into a column per header field, and
builds the result, whose constructor validates the columns. Only when the
parse or the build fails does it re-read the file record by record, under
one row check driven by the header's columns, to name the first bad row.
Grouping sorts the rows once by integer group codes and works on
contiguous slices.
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
from .samples import Sample

HEADER = ("good_id", "market_id", "quarter", "price", "quantity")
_ID_COLUMNS = HEADER[:3]
SAMPLE_HEADERS = (("value",), ("value", "weight"))
GROUPINGS = ("good", "good+market", "good+market+quarter")

#: How many leading id columns each grouping level keys on.
_GROUP_DEPTH = {"good": 1, "good+market": 2, "good+market+quarter": 3}


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class NormalizedSample:
    """Normalized prices of one group: values ``p / mu0``, weights = quantity.

    Under the default quantity-weighted ``mu0`` the quantity-weighted mean
    of the values is 1 by construction; with an unweighted ``mu0`` it need
    not be, which is why the identity is asserted by the pipeline rather
    than by this type.
    """

    key: tuple[str, ...]
    mu0: float
    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a nonempty 1-D array")
        if weights.shape != values.shape:
            raise ValueError("weights must match values in shape")
        if self.mu0 <= 0.0:
            raise ValueError("mu0 must be positive")
        if (values <= 0.0).any() or (weights <= 0.0).any():
            raise ValueError("values and weights must be positive")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "key", tuple(self.key))

    @property
    def size(self) -> int:
        return int(self.values.size)

    def weighted_mean(self) -> float:
        return float((self.values * self.weights).sum() / self.weights.sum())

    def std(self) -> float:
        """Quantity-weighted population standard deviation of the values."""
        mean = self.weighted_mean()
        var = float((self.weights * (self.values - mean) ** 2).sum() / self.weights.sum())
        return math.sqrt(var)


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


def _read_csv(source, kind: str, headers, build):
    """``build`` the records of ``source`` under one of the accepted ``headers``.

    The first nonblank record must equal one of ``headers``; the body is
    parsed in one pass of numpy's C text reader into a record array with a
    field per column (ids as ``object``, numbers as ``float``). numpy's
    reader and ``build``'s validation both raise ValueError. The records
    are then re-read from the header and ``_check_row`` raises MalformedRow
    at the first bad one; if none is bad, numpy's error stands.
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
        try:
            with warnings.catch_warnings():
                # a body of blank lines is an empty table, not a warning
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                data = np.loadtxt(
                    stream, dtype=dtype, delimiter=",", quotechar='"', comments=None, ndmin=1
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
        lambda data: TransactionTable(*(np.ascontiguousarray(data[name]) for name in HEADER)),
    )


def serialize_transactions(table: TransactionTable) -> str:
    """Render a table back to delimiter-separated text.

    Floats are written in shortest round-trip form, so serializing and
    reloading reproduces the table exactly.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(HEADER)
    for i in range(table.size):
        writer.writerow([
            table.good_id[i], table.market_id[i], table.quarter[i],
            repr(float(table.price[i])), repr(float(table.quantity[i])),
        ])
    return buffer.getvalue()


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
) -> list[NormalizedSample]:
    """Normalize prices by the per-group mean price.

    ``mu0`` is the quantity-weighted mean price of the group by default;
    ``weighted=False`` switches to the unweighted mean for comparison, since
    the convention is a modeling choice. Groups are returned sorted by key,
    each keeping its rows in table order. A single-transaction group
    normalizes to the value 1 exactly under the weighted convention. A
    group whose plain sums overflow (or whose products all underflow) is
    averaged after dividing its prices and quantities by their largest
    values; every other group keeps the plain sums' bits.

    Raises
    ------
    EmptyInput
        If the table has no rows.
    ValueError
        If ``grouping`` is not one of ``GROUPINGS``.
    ModelError
        If a group's normalized prices underflow to 0, or its
        quantity-weighted mean under the weighted convention misses 1 by
        more than 1e-12.
    """
    if table.size == 0:
        raise EmptyInput("cannot normalize an empty table")
    if grouping not in _GROUP_DEPTH:
        raise ValueError(f"grouping must be one of {GROUPINGS}, got {grouping!r}")
    columns = (table.good_id, table.market_id, table.quarter)[:_GROUP_DEPTH[grouping]]
    names, codes = zip(*map(_group_codes, columns))
    # stable, so each group keeps its rows in table order; last key is primary
    order = np.lexsort(codes[::-1])
    codes = [code[order] for code in codes]
    starts = np.flatnonzero(np.any([c[1:] != c[:-1] for c in codes], axis=0)) + 1
    bounds = [0, *starts.tolist(), table.size]
    keys = zip(*(
        [column_names[i] for i in code[bounds[:-1]].tolist()]
        for column_names, code in zip(names, codes)
    ))
    prices = table.price[order]
    quantities = table.quantity[order]
    # division is monotone, so a group's smallest normalized price is low / mu0
    lows = np.minimum.reduceat(prices, bounds[:-1]).tolist()
    out = []
    with np.errstate(over="ignore"):
        # each group's sums see its rows in table order, as a per-group copy would
        spent = prices * quantities
        for key, lo, hi, low in zip(keys, bounds[:-1], bounds[1:], lows):
            p, q = prices[lo:hi], quantities[lo:hi]
            mu0 = float(spent[lo:hi].sum() / q.sum() if weighted else p.mean())
            if not 0.0 < mu0 < math.inf:
                mu0 = _rescaled_mean_price(p, q, weighted)
            if low / mu0 == 0.0:
                raise ModelError(
                    f"group {key}: normalized price {low!r} / {mu0!r} underflows to 0"
                )
            group = NormalizedSample(key=key, mu0=mu0, values=p / mu0, weights=q)
            if weighted and abs(group.weighted_mean() - 1.0) > 1e-12:
                raise ModelError(
                    f"group {key}: weighted mean of normalized prices is "
                    f"{group.weighted_mean()!r}, not 1"
                )
            out.append(group)
    return out


def _rescaled_mean_price(prices: np.ndarray, quantities: np.ndarray, weighted: bool) -> float:
    """Mean price of a group whose plain sums overflow or underflow.

    Dividing by the largest price and quantity first keeps every product
    and sum in range; the quantity scale cancels in the weighted mean.
    """
    top = prices.max()
    scaled = prices / top
    if weighted:
        scaled_quantities = quantities / quantities.max()
        mean = np.sum(scaled * scaled_quantities) / np.sum(scaled_quantities)
    else:
        mean = np.mean(scaled)
    return float(mean * top)


def group_std_devs(samples) -> tuple[Sample, int]:
    """One spread statistic per group, pooled for the lognormal fit.

    Each group with at least two transactions contributes its
    quantity-weighted population standard deviation of normalized prices;
    smaller groups carry no spread information and are skipped. Returns the
    pooled unit-weight sample and the skipped-group count.
    """
    stds = []
    skipped = 0
    for group in samples:
        if group.size < 2:
            skipped += 1
            continue
        stds.append(group.std())
    return Sample(values=np.array(stds, dtype=float)), skipped


def write_normalized_samples(samples) -> str:
    """Render normalized groups as ``group_key,value,weight`` rows.

    Key components are joined with ``|`` into a single field, quoted as
    the ``csv`` module quotes it.
    """
    label_buffer = io.StringIO()
    label_writer = csv.writer(label_buffer, lineterminator="\n")
    parts = ["group_key,value,weight\n"]
    for group in samples:
        label_buffer.seek(0)
        label_buffer.truncate()
        label_writer.writerow(("|".join(group.key), ""))
        label = label_buffer.getvalue()[:-2]  # drop the empty field's ",\n"
        parts += [
            f"{label},{value!r},{weight!r}\n"
            for value, weight in zip(group.values.tolist(), group.weights.tolist())
        ]
    return "".join(parts)


def _build_sample(data) -> Sample:
    """The sample of a parsed ``value`` or ``value,weight`` body."""
    if data.size == 0:
        raise EmptyInput("sample stream holds a header but no data")
    return Sample(
        values=np.ascontiguousarray(data["value"]),
        weights=np.ascontiguousarray(data["weight"]) if "weight" in data.dtype.names else None,
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
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("value", "weight"))
    for value, weight in zip(sample.values, sample.weights):
        writer.writerow([repr(float(value)), repr(float(weight))])
    return buffer.getvalue()
