"""Differential tests of the columnar readers and grouping against per-row code.

The reference functions below are the per-row ``csv.reader`` readers and the
dict-based grouping that ``dataio`` used before its columnar rewrite, kept
verbatim apart from their names. On generated CSV text the columnar code
must return the same arrays, keys and bit-equal ``mu0``, or raise the same
exception class at the same row. The inputs on which the two depart on
purpose (numpy's number grammar) are pinned in ``DEPARTURES``. The
size-bucketed group sums behind ``normalize_prices`` and ``group_std_devs``
are checked bit for bit against per-slice sums and ``reference_std``, the
per-group weighted standard deviation formula kept verbatim.
"""

from __future__ import annotations

import csv
import io
import math
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dispersim.dataio import (
    GROUPINGS,
    HEADER,
    SAMPLE_HEADERS,
    NormalizedGroups,
    TransactionTable,
    _group_sums,
    group_std_devs,
    load_sample,
    load_transactions,
    normalize_prices,
    write_normalized_samples,
    write_sample,
)
from dispersim.errors import EmptyInput, InputError, MalformedRow, ModelError
from dispersim.samples import Sample

_GROUP_DEPTH = {"good": 1, "good+market": 2, "good+market+quarter": 3}


def reference_load_transactions(stream) -> TransactionTable:
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


def reference_load_sample(stream) -> Sample:
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


def reference_weighted_mean(values, weights) -> float:
    return float((values * weights).sum() / weights.sum())


def reference_std(values, weights) -> float:
    """Quantity-weighted population standard deviation of the values."""
    mean = reference_weighted_mean(values, weights)
    var = float((weights * (values - mean) ** 2).sum() / weights.sum())
    return math.sqrt(var)


def _reference_group(key, mu0, values, weights):
    """``(key, mu0, values, weights)`` under the checks of the per-group type."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("values must be a nonempty 1-D array")
    if weights.shape != values.shape:
        raise ValueError("weights must match values in shape")
    if mu0 <= 0.0:
        raise ValueError("mu0 must be positive")
    if (values <= 0.0).any() or (weights <= 0.0).any():
        raise ValueError("values and weights must be positive")
    return tuple(key), mu0, values, weights


def reference_normalize_prices(table, grouping="good", weighted=True):
    depth = _GROUP_DEPTH[grouping]
    columns = (table.good_id, table.market_id, table.quarter)[:depth]
    keys = [tuple(col[i] for col in columns) for i in range(table.size)]
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
        group = _reference_group(key, mu0, prices / mu0, quantities)
        if weighted and abs(reference_weighted_mean(*group[2:]) - 1.0) > 1e-12:
            raise ModelError(
                f"group {key}: weighted mean of normalized prices is "
                f"{reference_weighted_mean(*group[2:])!r}, not 1"
            )
        out.append(group)
    return out


def reference_write_normalized_samples(groups) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("group_key", "value", "weight"))
    for key, _, values, weights in groups:
        label = "|".join(key)
        for value, weight in zip(values, weights):
            writer.writerow([label, repr(float(value)), repr(float(weight))])
    return buffer.getvalue()


def reference_write_sample(sample: Sample) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("value", "weight"))
    for value, weight in zip(sample.values, sample.weights):
        writer.writerow([repr(float(value)), repr(float(weight))])
    return buffer.getvalue()


# --- generated CSV text ----------------------------------------------------

#: Id characters: letters plus the ones CSV quoting and a comment-aware
#: reader would trip on, and spaces that neither reader may strip.
_ids = st.text(alphabet='ab ,"#', max_size=3)
_numbers = st.one_of(
    st.floats(min_value=1e-3, max_value=1e3).map(repr),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from([
        "1", "2.5", " 3", "4 ", "\t5", "1e3", "+6", ".5", "7.", "-1", "0", "-0",
        "nan", "inf", "-inf", "Infinity", "cheap", "", " ", "1e", "1 2", "0x10",
    ]),
)


def _field(draw, text: str) -> str:
    if any(c in text for c in ',"\r\n') or draw(st.booleans()):
        return '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def _csv_text(draw, header, row_fields):
    """CSV text: a header, rows of drawn fields, blank lines, LF or CRLF ends."""
    records = [draw(header)]
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 5)) == 0:
            records.append("")
            continue
        fields = draw(row_fields)
        if draw(st.integers(0, 9)) == 0:  # a wrong field count
            fields = draw(st.sampled_from([fields[:-1], fields + ["1"]]))
        records.append(",".join(_field(draw, f) for f in fields))
    if draw(st.integers(0, 9)) == 0:
        records.insert(0, "")
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in records]
    text = "".join(r + e for r, e in zip(records, ends))
    return text if draw(st.integers(0, 9)) else text.rstrip("\r\n")


_transaction_headers = st.sampled_from([
    ",".join(HEADER), ",".join(HEADER), ",".join(HEADER),
    '"good_id",market_id,quarter,price,quantity',
    "good_id,market_id,quarter,price", "price,quantity",
])
_transaction_rows = st.lists(_ids, min_size=3, max_size=3).flatmap(
    lambda ids: st.lists(_numbers, min_size=2, max_size=2).map(lambda n: ids + n)
)
_valid_numbers = st.floats(min_value=1e-3, max_value=1e3).map(repr)
_valid_rows = st.tuples(
    st.sampled_from(["milk", "rice", "a,b", 'say "hi"', "#1", " x "]),
    st.sampled_from(["n", "s"]),
    st.sampled_from(["2011Q1", "2011Q2"]),
    _valid_numbers,
    st.sampled_from(["1", "2", "3.5", "10"]),
).map(list)

#: Inputs on which the columnar readers depart from the reference on
#: purpose: numpy's number grammar takes no digit-group underscores and no
#: non-ASCII digits, and strips the information separators U+001C..U+001F
#: that ``float`` refuses. Each maps to the columnar reader's outcome.
DEPARTURES = {
    f"{','.join(HEADER)}\nmilk,n,q,1_0,2\n": (MalformedRow, 2),
    f"{','.join(HEADER)}\nmilk,n,q,1.5,2\nmilk,n,q,١,2\n": (MalformedRow, 3),
    f"{','.join(HEADER)}\nmilk,n,q,\x1c1.5,2\n": ("ok", 1),
    "value,weight\n1.0,2\n2.0,3_0\n": (MalformedRow, 3),
    "value\n\x1f4.5\n": ("ok", 1),
}


def _outcome(reader, text: str, newline: str | None = ""):
    """``("ok", result)`` or ``(exception class, row)``."""
    try:
        return "ok", reader(io.StringIO(text, newline=newline))
    except (InputError, csv.Error, ValueError) as error:
        return type(error), getattr(error, "row", None)


def _assert_same_tables(new: TransactionTable, ref: TransactionTable) -> None:
    for name in HEADER[:3]:
        assert getattr(new, name).tolist() == getattr(ref, name).tolist()
    np.testing.assert_array_equal(new.price, ref.price)
    np.testing.assert_array_equal(new.quantity, ref.quantity)


def _exactly_in_range(table: TransactionTable, grouping: str, weighted: bool) -> bool:
    """Whether every group's exact mean price is at least ``2**-1000`` and its
    exact normalized prices lie within a factor ``2**1000`` of 1.

    Rational arithmetic on the floats' exact values: such a group has a
    normal ``mu0`` and normalized prices far from both ends of the float
    range, so ``normalize_prices`` has no reason to refuse it.
    """
    depth, bound = _GROUP_DEPTH[grouping], Fraction(2) ** 1000
    groups: dict[tuple[str, ...], list[tuple[Fraction, Fraction]]] = defaultdict(list)
    for *key, price, quantity in zip(table.good_id, table.market_id, table.quarter,
                                     table.price.tolist(), table.quantity.tolist()):
        groups[tuple(key[:depth])].append(
            (Fraction(price), Fraction(quantity) if weighted else Fraction(1)))
    for rows in groups.values():
        mu0 = sum(p * q for p, q in rows) / sum(q for _, q in rows)
        if mu0 < 1 / bound or not all(1 / bound <= p / mu0 <= bound for p, _ in rows):
            return False
    return True


def _assert_contract(table: TransactionTable, grouping: str, weighted: bool) -> None:
    """The documented outcome of ``normalize_prices``: a positive finite
    ``mu0`` and, under the weighted convention, a quantity-weighted mean of
    each group's normalized prices within 1e-12 of 1, taken on quantities
    scaled as it scales them. It refuses only a table with a group out of
    ``_exactly_in_range``."""
    try:
        groups = normalize_prices(table, grouping, weighted)
    except ModelError:
        assert not _exactly_in_range(table, grouping, weighted)
        return
    assert np.all((0.0 < groups.mu0) & (groups.mu0 < math.inf))
    if not weighted:
        return
    for lo, hi in zip(groups.bounds[:-1], groups.bounds[1:]):
        weights = groups.weights[lo:hi]
        weights = np.ldexp(weights, -np.frexp(weights.max())[1])
        assert abs(reference_weighted_mean(groups.values[lo:hi], weights) - 1.0) <= 1e-12


def _normalized_or_refused(normalize, table, grouping, weighted):
    try:
        return normalize(table, grouping, weighted)
    except ModelError:
        return ModelError


def _assert_same_groups(table: TransactionTable) -> None:
    for grouping in GROUPINGS:
        for weighted in (True, False):
            # Where every step of the plain and of the scaled formula stays a
            # normal float, or is exact, the two agree bit for bit. A step
            # that overflows or rounds into the subnormal range raises here;
            # the plain formula is then no reference (a subnormal product
            # keeps only some of its bits), and the documented contract is
            # checked instead.
            try:
                with np.errstate(all="raise"):
                    ref = _normalized_or_refused(
                        reference_normalize_prices, table, grouping, weighted)
                    new = _normalized_or_refused(normalize_prices, table, grouping, weighted)
            except FloatingPointError:
                _assert_contract(table, grouping, weighted)
                continue
            if ref is ModelError or new is ModelError:
                assert ref is new
                continue
            keys, mu0, values, weights = zip(*ref)
            assert new.keys == keys
            assert new.mu0.tolist() == list(mu0)
            np.testing.assert_array_equal(new.bounds, np.cumsum([0, *map(len, values)]))
            np.testing.assert_array_equal(new.values, np.concatenate(values))
            np.testing.assert_array_equal(new.weights, np.concatenate(weights))


def _columns(groups) -> NormalizedGroups:
    """The columnar record of ``(key, mu0, values, weights)`` groups."""
    keys, mu0, values, weights = zip(*groups) if groups else ((), (), (), ())
    return NormalizedGroups(
        keys, np.array(mu0, dtype=float), np.cumsum([0, *map(len, values)]),
        np.concatenate([np.empty(0), *values]), np.concatenate([np.empty(0), *weights]),
    )


def _check_departure(text: str, new) -> bool:
    if text not in DEPARTURES:
        return False
    kind, row = DEPARTURES[text]
    if kind == "ok":
        assert new[0] == "ok" and new[1].size == row
    else:
        assert new == (kind, row)
    return True


@settings(max_examples=300)
@given(text=st.one_of(
    _csv_text(_transaction_headers, _transaction_rows),
    _csv_text(st.just(",".join(HEADER)), _valid_rows),
))
@example(text="")
@example(text="\n\n")
@example(text=f"{','.join(HEADER)}\n")
@example(text=f"{','.join(HEADER)}\r\n\r\nmilk,n,q,1.5,2\r\n\r\n")
@example(text=f'{",".join(HEADER)}\n"a\nb",n,q,1.5,2\nmilk,,q,1,1\n')
@example(text=f'{",".join(HEADER)}\n"a""b",n,#q,1.5,2\n" b ",n,q,1.5,2\n')
@example(text=f"{','.join(HEADER)}\nmilk,n,q,1,2\rmilk,n,q,1,2\n")
@example(text=f"{','.join(HEADER)}\nmilk,n,q,1,2\rmilk,n,q,1,2\r")
@example(text=f'{",".join(HEADER)}\nmilk,n,q,1,2\n"milk,n,q,1,2\n')
@example(text=f"{','.join(HEADER)}\nmilk,n,q,1e200,1e200\nmilk,s,q,2e200,1e200\n")
@example(text=f"{','.join(HEADER)}\na,n,q,3e-320,0.3\n")
@example(text=f"{','.join(HEADER)}\na,n,q,1e-310,0.7\na,s,q,3e-310,0.9\n")
@example(text=next(iter(DEPARTURES)))
@example(text=list(DEPARTURES)[1])
@example(text=list(DEPARTURES)[2])
def test_load_transactions_and_grouping_match_the_per_row_reference(text):
    new = _outcome(load_transactions, text)
    if _check_departure(text, new):
        return
    ref = _outcome(reference_load_transactions, text)
    assert new[0] == ref[0]
    if new[0] != "ok":
        assert new == ref
        return
    _assert_same_tables(new[1], ref[1])
    if new[1].size:
        _assert_same_groups(new[1])


_sample_rows = st.lists(_numbers, min_size=1, max_size=3)


@settings(max_examples=300)
@given(text=st.one_of(
    _csv_text(st.sampled_from(["value", "value,weight", '"value",weight', "price"]),
              _sample_rows),
    _csv_text(st.just("value,weight"), st.lists(_valid_numbers, min_size=2, max_size=2)),
))
@example(text="")
@example(text="value\n\n")
@example(text="value,weight\r\n1.5,2\r\n\r\n2.5,1")
@example(text="value\n1.0,2.0\n")
@example(text=list(DEPARTURES)[3])
@example(text=list(DEPARTURES)[4])
def test_load_sample_matches_the_per_row_reference(text):
    new = _outcome(load_sample, text)
    if _check_departure(text, new):
        return
    ref = _outcome(reference_load_sample, text)
    assert new[0] == ref[0]
    if new[0] != "ok":
        assert new == ref
        return
    np.testing.assert_array_equal(new[1].values, ref[1].values)
    np.testing.assert_array_equal(new[1].weights, ref[1].weights)


@pytest.mark.parametrize("newline", [None, "\n"])
@pytest.mark.parametrize("text", [
    f"{','.join(HEADER)}\r\nmilk,n,q,1.5,2\r\n",
    f"{','.join(HEADER)}\nmilk,n,q,1,2\rmilk,n,q,1,2\n",
    f'{",".join(HEADER)}\n"a\r\nb",n,q,1.5,2\nmilk,n,q,-1,2\n',
])
def test_readers_follow_the_stream_newline_mode_like_the_reference(text, newline):
    new = _outcome(load_transactions, text, newline)
    ref = _outcome(reference_load_transactions, text, newline)
    assert new[0] == ref[0]
    if new[0] == "ok":
        _assert_same_tables(new[1], ref[1])
    else:
        assert new == ref


def test_readers_accept_a_stream_that_cannot_seek():
    text = f"{','.join(HEADER)}\nmilk,n,q,1.5,2\nmilk,n,q,oops,2\n"

    class OneWay(io.StringIO):
        def seekable(self):
            return False

    with pytest.raises(MalformedRow) as exc:
        load_transactions(OneWay(text))
    assert exc.value.row == 3
    sample = load_sample(OneWay("value\n1.5\n2.5\n"))
    np.testing.assert_array_equal(sample.values, [1.5, 2.5])


def test_readers_on_paths_match_the_reference(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(f'{",".join(HEADER)}\r\n"a,b",n,q,1.5,2\r\n\r\nmilk,"n ",q,0.25,3\r\n'.encode())
    new = load_transactions(path)
    with open(path, encoding="utf-8", newline="") as stream:
        ref = reference_load_transactions(stream)
    _assert_same_tables(new, ref)
    path.write_text("value\n1.5\n\n-x\n", encoding="utf-8")
    with pytest.raises(MalformedRow) as exc:
        load_sample(path)
    assert exc.value.row == 4


def test_a_doubled_bare_cr_in_a_stream_split_only_at_lf_is_refused():
    # Departure: the reference reads "1.5\r\r" as the record 1.5, numpy's
    # reader refuses a line with an unquoted CR inside it. Streams opened
    # with newline="" (as the readers open paths) end a line at every CR.
    text = "value\n1.5\r\r\n2.5\n"
    assert _outcome(reference_load_sample, text, "\n")[0] == "ok"
    assert _outcome(load_sample, text, "\n") == (ValueError, None)
    np.testing.assert_array_equal(
        _outcome(load_sample, text, "")[1].values, [1.5, 2.5]
    )


def test_ids_differing_only_in_trailing_nul_are_distinct_groups():
    table = TransactionTable(
        np.array(["a", "a\x00", "a"], dtype=object), np.array(["m"] * 3, dtype=object),
        np.array(["q"] * 3, dtype=object), np.array([1.0, 2.0, 3.0]), np.ones(3),
    )
    new = normalize_prices(table)
    ref = reference_normalize_prices(table)
    assert list(new.keys) == [key for key, *_ in ref] == [("a",), ("a\x00",)]
    assert new.mu0.tolist() == [mu0 for _, mu0, *_ in ref] == [2.0, 2.0]


_positive = st.floats(min_value=5e-324, max_value=1.7e308)


@given(groups=st.lists(
    st.tuples(
        st.lists(st.text(alphabet='ab ,"#|\r\n\t', max_size=3), max_size=3),
        st.lists(st.tuples(_positive, _positive), min_size=1, max_size=4),
    ),
    max_size=4,
))
@example(groups=[((), [(1.0, 1.0)])])
@example(groups=[(("",), [(1.0, 1.0)]), (('a"b', "c,d"), [(0.5, 2.0)])])
def test_write_normalized_samples_matches_the_csv_writer_byte_for_byte(groups):
    ref = [
        _reference_group(key, 1.0, [v for v, _ in rows], [w for _, w in rows])
        for key, rows in groups
    ]
    assert write_normalized_samples(_columns(ref)) == reference_write_normalized_samples(ref)


_finite = st.floats(allow_nan=False, allow_infinity=False)


@given(rows=st.lists(st.tuples(_finite, _positive), max_size=30), weighted=st.booleans())
@example(rows=[(0.30000000000000004, 1.0), (5e-324, 3.0), (-2.5e-310, 0.125),
               (-0.0, 2.5e-320), (1.7976931348623157e308, 7.0)], weighted=True)
def test_write_sample_bytes_match_the_per_row_writer(rows, weighted):
    values = np.array([v for v, _ in rows], dtype=float)
    weights = np.array([w for _, w in rows], dtype=float) if weighted else None
    sample = Sample(values, weights)
    assert write_sample(sample) == reference_write_sample(sample)


# --- size-bucketed group sums ---------------------------------------------

#: Group sizes in table order: sizes 1-300 with repeats, sizes around and
#: past numpy's 128-element pairwise-summation block, many groups of one
#: size, and one group per size.
_group_sizes = st.one_of(
    st.lists(st.integers(1, 300), min_size=1, max_size=60),
    st.lists(st.sampled_from([1, 2, 7, 8, 9, 127, 128, 129, 255, 256, 257, 1000, 1025, 4000]),
             min_size=1, max_size=12),
    st.tuples(st.integers(1, 300), st.integers(2, 3000)).map(lambda t: [t[0]] * t[1]),
    st.integers(1, 300).flatmap(lambda m: st.permutations(range(1, m + 1))),
)


@settings(max_examples=200)
@given(sizes=_group_sizes, seed=st.integers(0, 2**32 - 1))
@example(sizes=[3, 1, 3, 1000, 3, 1025, 1], seed=0)
def test_group_sums_are_the_per_slice_sums_bit_for_bit(sizes, seed):
    rng = np.random.default_rng(seed)
    bounds = [0, *np.cumsum(sizes).tolist()]
    # mixed signs over 17 decades, so that any other summation order shows
    x = rng.standard_normal(bounds[-1]) * np.exp(rng.uniform(-20.0, 20.0, bounds[-1]))
    per_slice = [x[lo:hi].sum() for lo, hi in zip(bounds[:-1], bounds[1:])]
    np.testing.assert_array_equal(_group_sums(x, bounds), per_slice)


@settings(max_examples=100)
@given(sizes=_group_sizes, seed=st.integers(0, 2**32 - 1), integer_weights=st.booleans())
@example(sizes=[1, 2, 1, 1, 129, 1], seed=0, integer_weights=True)
@example(sizes=[1, 2, 1, 1, 129, 1], seed=0, integer_weights=False)
@example(sizes=[1, 1], seed=0, integer_weights=True)
def test_group_std_devs_are_the_per_group_std_bit_for_bit(sizes, seed, integer_weights):
    rng = np.random.default_rng(seed)
    groups = [
        _reference_group(
            (str(i),), 1.0, rng.lognormal(0.0, 0.5, n),
            rng.integers(1, 11, n).astype(float) if integer_weights else rng.uniform(0.1, 10.0, n),
        )
        for i, n in enumerate(sizes)
    ]
    pooled, skipped = group_std_devs(_columns(groups))
    assert skipped == sum(n < 2 for n in sizes)
    expected = [reference_std(v, w) for _, _, v, w in groups if v.size >= 2]
    np.testing.assert_array_equal(pooled.values, expected)
    np.testing.assert_array_equal(pooled.weights, np.ones(len(sizes) - skipped))
