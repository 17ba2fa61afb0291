"""Transaction-table ingestion and the price normalization pipeline.

Scanner-style transaction data arrives as delimiter-separated text with one
row per transaction: good, market, quarter, price, quantity. Prices are
only comparable across goods after dividing by the group mean price, so the
pipeline groups rows at a chosen granularity, normalizes prices by the
per-group mean, and pools the normalized samples. The spread statistics of
the groups (one standard deviation each) feed the shifted lognormal fit.
"""

from __future__ import annotations

import csv
import io
import math
from collections import defaultdict
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
        if any(not isinstance(v, str) or not v for col in (good, market, quarter) for v in col):
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
        if np.any(values <= 0.0) or np.any(weights <= 0.0):
            raise ValueError("values and weights must be positive")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "key", tuple(self.key))

    @property
    def size(self) -> int:
        return int(self.values.size)

    def weighted_mean(self) -> float:
        return float(np.sum(self.values * self.weights) / np.sum(self.weights))

    def std(self) -> float:
        """Quantity-weighted population standard deviation of the values."""
        mean = self.weighted_mean()
        var = float(np.sum(self.weights * (self.values - mean) ** 2) / np.sum(self.weights))
        return float(np.sqrt(var))


def _open_text(source):
    """Pair (stream, needs_close) for a path or an open text stream."""
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8", newline=""), True
    return source, False


def load_transactions(source) -> TransactionTable:
    """Parse a transaction table from a path or text stream.

    The first row must name the five columns exactly. Physical row numbers
    (header = row 1) are preserved in diagnostics. Blank lines are skipped.

    Raises
    ------
    EmptyInput
        If the stream holds no rows at all.
    MalformedRow
        On a wrong header, a wrong field count, an empty id, or a price or
        quantity that is not a positive finite number.
    """
    stream, needs_close = _open_text(source)
    try:
        reader = csv.reader(stream)
        header = None
        goods, markets, quarters, prices, quantities = [], [], [], [], []
        for row_number, row in enumerate(reader, start=1):
            if not row:
                continue
            if header is None:
                if tuple(row) != HEADER:
                    raise MalformedRow(
                        row_number, f"header must be {','.join(HEADER)}"
                    )
                header = tuple(row)
                continue
            if len(row) != len(HEADER):
                raise MalformedRow(
                    row_number, f"expected {len(HEADER)} fields, got {len(row)}"
                )
            good, market, quarter, price_text, quantity_text = row
            for name, value in (("good_id", good), ("market_id", market),
                                ("quarter", quarter)):
                if not value:
                    raise MalformedRow(row_number, f"{name} must be nonempty")
            try:
                price = float(price_text)
            except ValueError:
                raise MalformedRow(row_number, f"price {price_text!r} is not a number")
            if not np.isfinite(price) or price <= 0.0:
                raise MalformedRow(row_number, f"price must be positive, got {price_text}")
            try:
                quantity = float(quantity_text)
            except ValueError:
                raise MalformedRow(
                    row_number, f"quantity {quantity_text!r} is not a number"
                )
            if not np.isfinite(quantity) or quantity <= 0.0:
                raise MalformedRow(
                    row_number, f"quantity must be positive, got {quantity_text}"
                )
            goods.append(good)
            markets.append(market)
            quarters.append(quarter)
            prices.append(price)
            quantities.append(quantity)
        if header is None:
            raise EmptyInput("transaction stream holds no rows")
        return TransactionTable(
            good_id=np.array(goods, dtype=object),
            market_id=np.array(markets, dtype=object),
            quarter=np.array(quarters, dtype=object),
            price=np.array(prices, dtype=float),
            quantity=np.array(quantities, dtype=float),
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


def group_keys(table: TransactionTable, grouping: str) -> list[tuple[str, ...]]:
    """Per-row group key tuples at the requested granularity."""
    if grouping not in _GROUP_DEPTH:
        raise ValueError(f"grouping must be one of {GROUPINGS}, got {grouping!r}")
    depth = _GROUP_DEPTH[grouping]
    columns = (table.good_id, table.market_id, table.quarter)[:depth]
    return [tuple(col[i] for col in columns) for i in range(table.size)]


def normalize_prices(
    table: TransactionTable, grouping: str = "good", weighted: bool = True
) -> list[NormalizedSample]:
    """Normalize prices by the per-group mean price.

    ``mu0`` is the quantity-weighted mean price of the group by default;
    ``weighted=False`` switches to the unweighted mean for comparison, since
    the convention is a modeling choice. Groups are returned sorted by key.
    A single-transaction group normalizes to the value 1 exactly under the
    weighted convention.

    Raises
    ------
    EmptyInput
        If the table has no rows.
    ModelError
        If a group's quantity-weighted mean under the weighted convention
        misses 1 by more than 1e-12.
    """
    if table.size == 0:
        raise EmptyInput("cannot normalize an empty table")
    keys = group_keys(table, grouping)
    members: dict[tuple[str, ...], list[int]] = defaultdict(list)
    for i, key in enumerate(keys):
        members[key].append(i)
    out = []
    for key in sorted(members):
        idx = np.array(members[key], dtype=int)
        prices = table.price[idx]
        quantities = table.quantity[idx]
        if weighted:
            mu0 = float(np.sum(prices * quantities) / np.sum(quantities))
        else:
            mu0 = float(np.mean(prices))
        group = NormalizedSample(
            key=key, mu0=mu0, values=prices / mu0, weights=quantities
        )
        if weighted and abs(group.weighted_mean() - 1.0) > 1e-12:
            raise ModelError(
                f"group {key}: weighted mean of normalized prices is "
                f"{group.weighted_mean()!r}, not 1"
            )
        out.append(group)
    return out


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

    Key components are joined with ``|`` into a single field.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("group_key", "value", "weight"))
    for group in samples:
        label = "|".join(group.key)
        for value, weight in zip(group.values, group.weights):
            writer.writerow([label, repr(float(value)), repr(float(weight))])
    return buffer.getvalue()


def load_sample(source) -> Sample:
    """Parse a weighted or unweighted sample from a path or text stream.

    The header must be ``value`` or ``value,weight``; each data row carries
    the corresponding number of fields.

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
        reader = csv.reader(stream)
        n_fields = 0
        values, weights = [], []
        inf = math.inf
        for row_number, row in enumerate(reader, start=1):
            if not row:
                continue
            if not n_fields:
                if tuple(row) not in SAMPLE_HEADERS:
                    raise MalformedRow(
                        row_number, "header must be 'value' or 'value,weight'"
                    )
                n_fields = len(row)
                continue
            if len(row) != n_fields:
                raise MalformedRow(
                    row_number, f"expected {n_fields} fields, got {len(row)}"
                )
            try:
                value = float(row[0])
                weight = float(row[1]) if n_fields == 2 else 1.0
            except ValueError:
                raise MalformedRow(row_number, f"row {row!r} is not numeric")
            # nan fails every comparison, so this also rejects nan
            if not (-inf < value < inf and 0.0 < weight < inf):
                raise MalformedRow(
                    row_number, f"value must be finite and weight positive, got {row!r}"
                )
            values.append(value)
            if n_fields == 2:
                weights.append(weight)
        if not n_fields:
            raise EmptyInput("sample stream holds no rows")
        if not values:
            raise EmptyInput("sample stream holds a header but no data")
        return Sample(
            values=np.array(values, dtype=float),
            weights=np.array(weights, dtype=float) if weights else None,
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
