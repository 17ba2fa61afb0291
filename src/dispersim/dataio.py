"""Transaction-table ingestion and the price normalization pipeline.

Scanner-style transaction data arrives as delimiter-separated text with one
row per transaction: good, market, quarter, price, quantity. Prices are
only comparable across goods after dividing by the group mean price, so the
pipeline groups rows at a chosen granularity, normalizes prices by the
per-group mean, and pools the normalized samples. The spread statistics of
the groups (one standard deviation each) feed the shifted lognormal fit.

The path is columnar. The readers parse each file in one pass of numpy's C
text reader and validate it with array masks; only when a check fails do
they re-read the file record by record to name the first bad row. Grouping
sorts the rows once by integer group codes and works on contiguous slices.
"""

from __future__ import annotations

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
    """Pair (stream, needs_close) for a path or an open text stream.

    The readers seek back to report a bad row, so a stream that cannot
    seek is read into memory first.
    """
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8", newline=""), True
    if not source.seekable():
        return io.StringIO(source.read(), newline=""), True
    return source, False


def _records(stream):
    """Nonblank CSV records of ``stream`` with their 1-based record numbers.

    Blank records are skipped but counted. Lines come from ``readline`` so
    that the stream stays positioned right after the last record read.
    """
    reader = csv.reader(iter(stream.readline, ""))
    return ((number, row) for number, row in enumerate(reader, start=1) if row)


def _read_columns(stream, start, dtype: np.dtype, build, check):
    """``build`` the rest of ``stream``, parsed in one pass of numpy's C reader.

    numpy's reader and ``build``'s validation both raise ValueError. The
    records are then re-read from ``start`` (the header's position) and
    ``check(row_number, row)`` raises MalformedRow at the first bad one;
    if none is bad, numpy's error stands.
    """
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
        check(row_number, row)
    raise failure


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


def _check_transaction(row_number: int, row: list[str]) -> None:
    """Raise MalformedRow if a transaction record breaks a rule of the format."""
    if len(row) != len(HEADER):
        raise MalformedRow(row_number, f"expected {len(HEADER)} fields, got {len(row)}")
    for name, value in zip(HEADER[:3], row):
        if not value:
            raise MalformedRow(row_number, f"{name} must be nonempty")
    for name, text in zip(HEADER[3:], row[3:]):
        number = _parse_number(text)
        if number is None:
            raise MalformedRow(row_number, f"{name} {text!r} is not a number")
        if not 0.0 < number < math.inf:
            raise MalformedRow(row_number, f"{name} must be positive, got {text}")


_TRANSACTION_DTYPE = np.dtype(
    [(name, object) for name in HEADER[:3]] + [(name, float) for name in HEADER[3:]]
)


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
    the physical line number unless a quoted field spans lines.

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
    stream, needs_close = _open_text(source)
    try:
        start = stream.tell()
        row_number, header = next(_records(stream), (0, None))
        if header is None:
            raise EmptyInput("transaction stream holds no rows")
        if tuple(header) != HEADER:
            raise MalformedRow(row_number, f"header must be {','.join(HEADER)}")
        return _read_columns(
            stream, start, _TRANSACTION_DTYPE,
            lambda data: TransactionTable(*(np.ascontiguousarray(data[name]) for name in HEADER)),
            _check_transaction,
        )
    finally:
        if needs_close:
            stream.close()


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


def _check_sample(n_fields: int):
    """Record check for a sample with ``n_fields`` columns."""

    def check(row_number: int, row: list[str]) -> None:
        if len(row) != n_fields:
            raise MalformedRow(row_number, f"expected {n_fields} fields, got {len(row)}")
        numbers = [_parse_number(text) for text in row]
        if None in numbers:
            raise MalformedRow(row_number, f"row {row!r} is not numeric")
        value, weight = numbers if n_fields == 2 else (numbers[0], 1.0)
        # nan fails every comparison, so this also rejects nan
        if not (-math.inf < value < math.inf and 0.0 < weight < math.inf):
            raise MalformedRow(
                row_number, f"value must be finite and weight positive, got {row!r}"
            )
    return check


def load_sample(source) -> Sample:
    """Parse a weighted or unweighted sample from a path or text stream.

    The header must be ``value`` or ``value,weight``; each data row carries
    the corresponding number of fields. The CSV rules, the number grammar,
    the reported row numbers and numpy's ValueError on an unquoted CR
    inside a line are those of ``load_transactions``.

    Raises
    ------
    EmptyInput
        If the stream holds no rows, or a header but no data.
    MalformedRow
        On a wrong header, an unparsable row, a value that is not finite,
        or a weight that is not a positive finite number.
    """
    stream, needs_close = _open_text(source)
    try:
        start = stream.tell()
        row_number, header = next(_records(stream), (0, None))
        if header is None:
            raise EmptyInput("sample stream holds no rows")
        if tuple(header) not in SAMPLE_HEADERS:
            raise MalformedRow(row_number, "header must be 'value' or 'value,weight'")

        def build(data):
            if data.size == 0:
                raise EmptyInput("sample stream holds a header but no data")
            return Sample(
                values=np.ascontiguousarray(data["value"]),
                weights=np.ascontiguousarray(data["weight"]) if len(header) == 2 else None,
            )

        return _read_columns(
            stream, start, np.dtype([(name, float) for name in header]),
            build, _check_sample(len(header)),
        )
    finally:
        if needs_close:
            stream.close()


def write_sample(sample: Sample) -> str:
    """Render a sample as ``value,weight`` rows."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("value", "weight"))
    for value, weight in zip(sample.values, sample.weights):
        writer.writerow([repr(float(value)), repr(float(weight))])
    return buffer.getvalue()
