"""Tests for transaction ingestion and the price-normalization pipeline."""

from __future__ import annotations

import csv
import io
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import dispersim.dataio as dataio
from dispersim.dataio import (
    GROUPINGS,
    NormalizedGroups,
    TransactionTable,
    group_std_devs,
    load_sample,
    load_transactions,
    normalize_prices,
    write_normalized_samples,
    write_sample,
)
from dispersim.errors import EmptyInput, MalformedRow, ModelError
from dispersim.estimate import fit_shifted_lognormal
from dispersim.samples import Sample

HEADER_LINE = "good_id,market_id,quarter,price,quantity"


def _table(text: str) -> TransactionTable:
    return load_transactions(io.StringIO(text))


def _weighted_means(groups: NormalizedGroups) -> np.ndarray:
    lo, hi = groups.bounds[:-1], groups.bounds[1:]
    return np.array([
        (groups.values[a:b] * groups.weights[a:b]).sum() / groups.weights[a:b].sum()
        for a, b in zip(lo, hi)
    ])


def test_load_parses_fields():
    table = _table(f"{HEADER_LINE}\nmilk,north,2011Q1,1.25,3\n")
    assert table.size == 1
    assert table.good_id[0] == "milk"
    assert table.market_id[0] == "north"
    assert table.quarter[0] == "2011Q1"
    assert table.price[0] == 1.25
    assert table.quantity[0] == 3.0


def test_a_loaded_table_holds_one_str_object_per_distinct_id():
    # quoted ids, an embedded comma, a quoted CR and LF, and ids with
    # Unicode whitespace all go through the reader's shared-id table
    ids = [("milk-1", "north", "2011Q1"), ('say "hi"', "a,b", "x\r\ny"),
           ("\u2003 rice\u2003", "\x1cwest\x1c", " 2011Q2 ")]
    text = io.StringIO(newline="")
    writer = csv.writer(text, lineterminator="\n")
    writer.writerows([dataio.HEADER, *([*ids[k % 3], 1.0 + k, k % 4 + 1] for k in range(12))])
    table = load_transactions(io.StringIO(text.getvalue(), newline=""))
    for n, name in enumerate(("good_id", "market_id", "quarter")):
        column = getattr(table, name)
        assert column.tolist() == [ids[k % 3][n] for k in range(12)]
        assert len({id(i) for i in column}) == len(set(column.tolist())) == 3


def test_load_skips_blank_lines_but_keeps_physical_row_numbers():
    text = f"{HEADER_LINE}\n\nmilk,north,2011Q1,1.25,3\n\nmilk,north,2011Q1,-1,2\n"
    with pytest.raises(MalformedRow) as exc:
        _table(text)
    assert exc.value.row == 5
    assert "positive" in exc.value.reason


def test_load_rejects_wrong_header():
    with pytest.raises(MalformedRow) as exc:
        _table("price,quantity\n1.0,2\n")
    assert exc.value.row == 1


def test_load_rejects_wrong_field_count():
    with pytest.raises(MalformedRow) as exc:
        _table(f"{HEADER_LINE}\nmilk,north,2011Q1,1.25\n")
    assert exc.value.row == 2
    assert "fields" in exc.value.reason


def test_load_rejects_empty_id():
    with pytest.raises(MalformedRow) as exc:
        _table(f"{HEADER_LINE}\nmilk,,2011Q1,1.25,3\n")
    assert "market_id" in exc.value.reason


def test_load_rejects_nonnumeric_price_and_quantity():
    with pytest.raises(MalformedRow) as exc:
        _table(f"{HEADER_LINE}\nmilk,north,2011Q1,cheap,3\n")
    assert "cheap" in exc.value.reason
    with pytest.raises(MalformedRow):
        _table(f"{HEADER_LINE}\nmilk,north,2011Q1,1.25,many\n")


def test_load_rejects_nonpositive_numbers():
    with pytest.raises(MalformedRow):
        _table(f"{HEADER_LINE}\nmilk,north,2011Q1,0,3\n")
    with pytest.raises(MalformedRow):
        _table(f"{HEADER_LINE}\nmilk,north,2011Q1,1.25,0\n")
    with pytest.raises(MalformedRow):
        _table(f"{HEADER_LINE}\nmilk,north,2011Q1,inf,3\n")


def test_load_empty_stream_and_header_only():
    with pytest.raises(EmptyInput):
        _table("")
    table = _table(f"{HEADER_LINE}\n")
    assert table.size == 0


def test_malformed_row_exposes_row_and_reason():
    err = MalformedRow(4, "boom")
    assert err.row == 4
    assert err.reason == "boom"
    assert "row 4" in str(err)


def test_table_validation():
    with pytest.raises(ValueError):
        TransactionTable(
            np.array(["a"], dtype=object), np.array(["m"], dtype=object),
            np.array(["q"], dtype=object), np.array([-1.0]), np.array([1.0]),
        )
    with pytest.raises(ValueError):
        TransactionTable(
            np.array(["a"], dtype=object), np.array([""], dtype=object),
            np.array(["q"], dtype=object), np.array([1.0]), np.array([1.0]),
        )
    with pytest.raises(ValueError):
        TransactionTable(
            np.array(["a", "b"], dtype=object), np.array(["m"], dtype=object),
            np.array(["q"], dtype=object), np.array([1.0]), np.array([1.0]),
        )


def test_group_keys_at_each_granularity():
    table = _table(
        f"{HEADER_LINE}\n"
        "milk,north,2011Q1,1.0,1\n"
        "milk,south,2011Q2,2.0,1\n"
    )

    def keys(grouping):
        return list(normalize_prices(table, grouping).keys)

    assert keys("good") == [("milk",)]
    assert keys("good+market") == [("milk", "north"), ("milk", "south")]
    assert keys("good+market+quarter") == [
        ("milk", "north", "2011Q1"),
        ("milk", "south", "2011Q2"),
    ]
    np.testing.assert_array_equal(normalize_prices(table, "good").bounds, [0, 2])
    with pytest.raises(ValueError):
        normalize_prices(table, "shop")
    assert set(GROUPINGS) == {"good", "good+market", "good+market+quarter"}


def test_normalize_equal_quantities():
    table = _table(
        f"{HEADER_LINE}\n"
        "milk,north,2011Q1,1.0,1\n"
        "milk,south,2011Q1,3.0,1\n"
    )
    groups = normalize_prices(table)
    assert len(groups) == 1
    assert groups.mu0.tolist() == [2.0]
    np.testing.assert_array_equal(groups.values, [0.5, 1.5])
    np.testing.assert_array_equal(groups.weights, [1.0, 1.0])


def test_normalize_weights_by_quantity():
    table = _table(
        f"{HEADER_LINE}\n"
        "milk,north,2011Q1,1.0,3\n"
        "milk,south,2011Q1,3.0,1\n"
    )
    groups = normalize_prices(table)
    assert groups.mu0[0] == pytest.approx(1.5)
    np.testing.assert_allclose(groups.values, [2.0 / 3.0, 2.0])
    assert _weighted_means(groups)[0] == pytest.approx(1.0, abs=1e-12)


def test_normalize_unweighted_switch():
    table = _table(
        f"{HEADER_LINE}\n"
        "milk,north,2011Q1,1.0,3\n"
        "milk,south,2011Q1,3.0,1\n"
    )
    groups = normalize_prices(table, weighted=False)
    assert groups.mu0[0] == pytest.approx(2.0)
    np.testing.assert_allclose(groups.values, [0.5, 1.5])
    # under the unweighted convention the quantity-weighted mean drifts off 1
    assert _weighted_means(groups)[0] != pytest.approx(1.0, abs=1e-6)


def test_single_transaction_group_normalizes_to_one():
    table = _table(f"{HEADER_LINE}\nmilk,north,2011Q1,17.3,2\n")
    groups = normalize_prices(table)
    assert groups.values[0] == 1.0


def test_single_transaction_groups_normalize_to_within_two_eps_of_one():
    # (p * q) / q rounds, so a singleton's p / mu0 is 1 only up to a few ulp
    rng = np.random.default_rng(20)
    n = 20_000
    prices = rng.uniform(0.01, 100.0, n)
    table = TransactionTable(
        np.array([f"g{i}" for i in range(n)], dtype=object),
        np.full(n, "m", dtype=object), np.full(n, "q", dtype=object),
        prices, rng.integers(1, 11, n).astype(float),
    )
    values = normalize_prices(table).values
    assert np.all(np.abs(values - 1.0) <= 2.0 * np.finfo(float).eps)
    assert np.any(values != 1.0)
    assert np.all(normalize_prices(table, weighted=False).values == 1.0)


def test_normalized_weighted_means_are_one_for_every_group():
    rng = np.random.default_rng(4)
    rows = [HEADER_LINE]
    for g in range(5):
        for i in range(50):
            rows.append(
                f"good{g},m{i % 3},2011Q{i % 4 + 1},"
                f"{rng.uniform(0.5, 3.0)},{rng.integers(1, 9)}"
            )
    groups = normalize_prices(_table("\n".join(rows) + "\n"))
    assert len(groups) == 5
    assert np.all(np.abs(_weighted_means(groups) - 1.0) <= 1e-12)


def _skew_mean_check(monkeypatch, change):
    """Pass the group sums that the weighted-mean check reads through ``change``.

    A weighted ``normalize_prices`` takes three group sums; the check's is the last.
    """
    real, calls = dataio._group_sums, itertools.count(1)

    def patched(x, bounds):
        sums = real(x, bounds)
        return change(sums) if next(calls) % 3 == 0 else sums

    monkeypatch.setattr(dataio, "_group_sums", patched)


def test_normalize_refuses_a_group_whose_weighted_mean_misses_one(monkeypatch):
    # subnormal quantities (23 and 26 units of 2**-1074) keep every bit once
    # scaled, so the weighted mean is that of the exact products
    milk = "milk,n,2011Q1,3.0,1.14e-322\nmilk,s,2011Q1,1.6,1.3e-322\n"
    table = _table(f"{HEADER_LINE}\nrice,n,2011Q1,1.0,1\n{milk}")
    assert normalize_prices(table).mu0.tolist() == [(3.0 * 23 + 1.6 * 26) / 49, 1.0]
    assert normalize_prices(table, weighted=False).mu0.tolist() == [2.3, 1.0]

    # no finite group misses the check now, so its sums are doubled
    _skew_mean_check(monkeypatch, lambda sums: 2.0 * sums)
    message = r"^group \('milk',\): weighted mean of normalized prices is 2\.0\d*, not 1$"
    with pytest.raises(ModelError, match=message):
        normalize_prices(table)
    # the first failing group in key order is refused, not the first in the table
    apple = "apple,n,2011Q1,1e-300,1\napple,s,2011Q1,1e300,1\n"
    with pytest.raises(ModelError, match=r"^group \('apple',\): .* underflows to 0$"):
        normalize_prices(_table(f"{HEADER_LINE}\n{milk}{apple}"))
    zebra = apple.replace("apple", "zebra")
    with pytest.raises(ModelError, match=message):
        normalize_prices(_table(f"{HEADER_LINE}\n{zebra}{milk}"))
    # within a group, the underflow check comes before the mean check
    with pytest.raises(ModelError, match="underflows to 0"):
        normalize_prices(_table(f"{HEADER_LINE}\n{zebra}"))


def test_normalize_refuses_a_group_whose_normalized_prices_overflow():
    # the weighted mean is about 1e-300, which puts 1e10 / mu0 near 1e310
    overflow = r"^group \('milk',\): normalized price 10000000000\.0 / 1\.0\d*e-300 overflows$"
    with pytest.raises(ModelError, match=overflow):
        normalize_prices(_table(f"{HEADER_LINE}\nmilk,a,q,1e-300,1e300\nmilk,b,q,1e10,1e-300\n"))
    # every scaled product underflows, so mu0 is 0; the exact mean is
    # about 5e-109, which puts 1e300 / mu0 near 2e408 anyway
    rows = "milk,a,q,1e-300,1e308\nmilk,b,q,1e-300,1e308\nmilk,c,q,1e300,1e-100\n"
    message = r"^group \('milk',\): mean price underflows to 0$"
    with pytest.raises(ModelError, match=message):
        normalize_prices(_table(f"{HEADER_LINE}\n{rows}"))
    # the unweighted mean is about 3.3e299, so the smallest price underflows instead
    with pytest.raises(ModelError, match=r"^group \('milk',\): .* underflows to 0$"):
        normalize_prices(_table(f"{HEADER_LINE}\n{rows}"), weighted=False)

    # the first failing group in key order is refused, whichever check fails
    apple = "apple,n,q,1e-300,1\napple,s,q,1e300,1\n"
    with pytest.raises(ModelError, match=r"^group \('apple',\): .* underflows to 0$"):
        normalize_prices(_table(f"{HEADER_LINE}\n{rows}{apple}"))
    # a group of subnormal quantities passes, whether it sorts before or after the failing group
    rice = "rice,n,q,3.0,1.14e-322\nrice,s,q,1.6,1.3e-322\n"
    with pytest.raises(ModelError, match=message):
        normalize_prices(_table(f"{HEADER_LINE}\n{rice}{rows}"))
    salt = message.replace("milk", "salt")
    with pytest.raises(ModelError, match=salt):
        normalize_prices(_table(f"{HEADER_LINE}\n{rows.replace('milk', 'salt')}{rice}"))


def test_normalize_rescales_a_group_whose_sums_overflow():
    table = _table(
        f"{HEADER_LINE}\n"
        "milk,n,2011Q1,1e200,1e200\n"
        "milk,s,2011Q1,2e200,1e200\n"
    )
    groups = normalize_prices(table)
    assert groups.mu0[0] == pytest.approx(1.5e200, rel=1e-15)
    np.testing.assert_allclose(groups.values, [2.0 / 3.0, 4.0 / 3.0], rtol=1e-15)
    assert _weighted_means(groups)[0] == pytest.approx(1.0, abs=1e-12)
    plain = normalize_prices(table, weighted=False)
    assert plain.mu0[0] == pytest.approx(1.5e200, rel=1e-15)
    # products that underflow to zero take the same route
    tiny = normalize_prices(_table(f"{HEADER_LINE}\nmilk,n,q,1e-200,1e-200\n"))
    assert tiny.mu0.tolist() == [1e-200]
    assert tiny.values.tolist() == [1.0]


def test_normalize_keeps_groups_whose_plain_products_are_subnormal():
    # each plain p * q keeps only some of its bits, and the plain formula's
    # weighted mean misses 1 by 1.6e-4 on the single row
    one = normalize_prices(_table(f"{HEADER_LINE}\na,n,q,3e-320,0.3\n"))
    assert (one.mu0.tolist(), one.values.tolist()) == ([3e-320], [1.0])
    pair = normalize_prices(_table(f"{HEADER_LINE}\na,n,q,1e-310,0.7\na,s,q,3e-310,0.9\n"))
    assert pair.mu0[0] == pytest.approx(2.125e-310, rel=1e-13)
    assert _weighted_means(pair)[0] == pytest.approx(1.0, abs=1e-12)


def test_normalize_rescales_the_mean_check_of_a_group_whose_quantities_overflow():
    # the quantity total is inf, so the plain weighted mean is inf / inf = nan
    table = _table(
        f"{HEADER_LINE}\n"
        "milk,a,q,1,1e308\n"
        "milk,b,q,2,1e308\n"
        "rice,a,q,1,2\n"
        "rice,b,q,3,1\n"
    )
    reference = normalize_prices(_table(f"{HEADER_LINE}\nrice,a,q,1,2\nrice,b,q,3,1\n"))
    for weighted in (True, False):
        groups = normalize_prices(table, weighted=weighted)
        assert groups.mu0[0] == 1.5
        np.testing.assert_allclose(groups.values[:2], [2.0 / 3.0, 4.0 / 3.0], rtol=1e-15)
        pooled, skipped = group_std_devs(groups)
        assert skipped == 0
        assert pooled.values[0] == pytest.approx(1.0 / 3.0, rel=1e-15)
    # the other group keeps its bits
    weighted = normalize_prices(table)
    assert weighted.values[2:].tobytes() == reference.values.tobytes()
    assert group_std_devs(weighted)[0].values[1:].tobytes() == \
        group_std_devs(reference)[0].values.tobytes()


def test_normalize_refuses_a_group_whose_weighted_mean_is_not_finite(monkeypatch):
    # a NaN mean must not pass the 1e-12 check
    _skew_mean_check(monkeypatch, lambda sums: np.full_like(sums, np.nan))
    table = _table(f"{HEADER_LINE}\nmilk,a,q,1,1e308\nmilk,b,q,2,1e308\n")
    with pytest.raises(ModelError, match=r"group \('milk',\): weighted mean .* is nan, not 1"):
        normalize_prices(table)


def test_normalize_keeps_the_bits_of_subnormal_products():
    # the plain products are subnormal and keep only a few bits, which put
    # the plain weighted mean of normalized prices at 1.000011132941258
    rows = "bread,a,q,1e-160,1e-160\nbread,b,q,2e-160,1e-160\nbread,c,q,3e-160,2e-160\n"
    table = _table(f"{HEADER_LINE}\n{rows}")
    groups = normalize_prices(table)
    price, quantity = (list(map(Fraction, column)) for column in (table.price, table.quantity))
    mean = sum(p * q for p, q in zip(price, quantity)) / sum(quantity)
    assert groups.mu0[0] == pytest.approx(float(mean), rel=1e-15)
    # the spread is that of the exact sums over the normalized prices
    values = list(map(Fraction, groups.values))
    mean = sum(v * q for v, q in zip(values, quantity)) / sum(quantity)
    square = sum(q * (v - mean) ** 2 for v, q in zip(values, quantity)) / sum(quantity)
    assert math.sqrt(square) == 0.3685138655950444
    assert group_std_devs(groups)[0].values.tolist() == [0.3685138655950444]


@pytest.mark.parametrize("weighted", [True, False])
def test_normalize_refuses_a_group_whose_normalized_prices_underflow(weighted):
    # mu0 is about 5e299, so 1e-300 / mu0 is 0 in float64
    table = _table(
        f"{HEADER_LINE}\n"
        "rice,n,2011Q1,1.0,1\n"
        "milk,n,2011Q1,1e-300,1\n"
        "milk,s,2011Q1,1e300,1\n"
    )
    with pytest.raises(ModelError, match="milk.*underflows to 0"):
        normalize_prices(table, weighted=weighted)


def test_groups_come_back_sorted_by_key():
    table = _table(
        f"{HEADER_LINE}\n"
        "zebra,north,2011Q1,1.0,1\n"
        "apple,north,2011Q1,1.0,1\n"
        "mango,north,2011Q1,1.0,1\n"
    )
    keys = normalize_prices(table).keys
    assert keys == (("apple",), ("mango",), ("zebra",))


def test_normalize_empty_table_raises():
    with pytest.raises(EmptyInput):
        normalize_prices(_table(f"{HEADER_LINE}\n"))


def test_renormalizing_already_normalized_prices_is_identity():
    table = _table(
        f"{HEADER_LINE}\n"
        "milk,north,2011Q1,1.0,3\n"
        "milk,south,2011Q1,3.0,1\n"
        "rice,north,2011Q1,0.4,2\n"
        "rice,south,2011Q1,0.8,5\n"
    )
    first = normalize_prices(table)
    rebuilt = TransactionTable(
        good_id=np.repeat([key[0] for key in first.keys], np.diff(first.bounds)).astype(object),
        market_id=np.array(["m"] * 4, dtype=object),
        quarter=np.array(["q"] * 4, dtype=object),
        price=first.values,
        quantity=first.weights,
    )
    second = normalize_prices(rebuilt)
    assert second.keys == first.keys
    np.testing.assert_array_equal(second.bounds, first.bounds)
    np.testing.assert_allclose(second.mu0, 1.0, atol=1e-12)
    np.testing.assert_allclose(second.values, first.values, rtol=1e-12)


@pytest.mark.parametrize("keys, mu0, bounds, values, weights, message", [
    # shapes
    ([("a",)], [1.0, 2.0], [0, 1], [1.0], [1.0], "one entry per group"),
    ([("a",)], [1.0], [0, 1, 2], [1.0, 1.0], [1.0, 1.0], "one entry per group"),
    ([("a",)], [1.0], [0, 2], [1.0, 2.0], [1.0], "of one length"),
    ([("a",)], [1.0], [0, 1], [[1.0]], [[1.0]], "of one length"),
    # bounds
    ([("a",)], [1.0], [1, 2], [1.0, 2.0], [1.0, 1.0], "rising strictly from 0"),
    ([("a",)], [1.0], [0, 1], [1.0, 2.0], [1.0, 1.0], "to the row count"),
    ([("a",), ("b",)], [1.0, 1.0], [0, 0, 1], [1.0], [1.0], "rising strictly"),
    ([("a",), ("b",)], [1.0, 1.0], [0, 2, 1], [1.0], [1.0], "rising strictly"),
    ([("a",)], [1.0], [0.0, 1.0], [1.0], [1.0], "rising strictly"),
    ([], [], [], [], [], "one entry per group"),
    # signs and finiteness
    ([("a",)], [0.0], [0, 1], [1.0], [1.0], "mu0 must be positive and finite"),
    ([("a",)], [np.inf], [0, 1], [1.0], [1.0], "mu0 must be positive and finite"),
    ([("a",)], [1.0], [0, 1], [-1.0], [1.0], "values must be positive and finite"),
    ([("a",)], [1.0], [0, 1], [np.inf], [1.0], "values must be positive and finite"),
    ([("a",)], [1.0], [0, 1], [np.nan], [1.0], "values must be positive and finite"),
    ([("a",)], [1.0], [0, 1], [1.0], [0.0], "weights must be positive and finite"),
    ([("a",)], [1.0], [0, 1], [1.0], [np.inf], "weights must be positive and finite"),
])
def test_normalized_groups_validation(keys, mu0, bounds, values, weights, message):
    with pytest.raises(ValueError, match=message):
        NormalizedGroups(keys, mu0, bounds, values, weights)


def test_normalized_groups_hold_one_record_of_every_group():
    groups = NormalizedGroups(
        [("a",), ("b", "c")], [2.0, 4.0], [0, 2, 3], [0.5, 1.5, 1.0], [1.0, 3.0, 2.0]
    )
    assert len(groups) == 2
    assert groups.keys == (("a",), ("b", "c"))
    assert len(NormalizedGroups([], [], [0], [], [])) == 0


def test_group_std_devs_pools_and_skips_singletons():
    groups = NormalizedGroups(
        [("a",), ("b",), ("c",)], [1.0] * 3, [0, 2, 3, 5], [0.5, 1.5, 1.0, 0.9, 1.1], [1.0] * 5
    )
    pooled, skipped = group_std_devs(groups)
    assert skipped == 1
    np.testing.assert_allclose(pooled.values, [0.5, 0.1])
    assert pooled.size == 2
    # weighted mean 0.75; weighted second moment (3*0.0625 + 1*0.5625)/4
    heavy, _ = group_std_devs(NormalizedGroups([("a",)], [2.0], [0, 2], [0.5, 1.5], [3.0, 1.0]))
    assert heavy.values[0] == pytest.approx(np.sqrt(3.0) / 4.0, rel=1e-12)


def test_group_std_devs_take_spreads_whose_plain_sums_overflow():
    # in groups a and d the plain weight totals overflow, in group b of
    # values 1 and 1e200 the plain squared deviation
    groups = NormalizedGroups(
        [("a",), ("b",), ("c",), ("d",), ("e",)], [1.0] * 5, [0, 2, 4, 5, 7, 9],
        [0.5, 1.5, 1.0, 1e200, 1.0, 0.9, 1.1, 0.5, 0.1],
        [1e308, 1e308, 1.0, 1.0, 1e308, 1.0, 1.0, 1e308, 1e308],
    )
    pooled, skipped = group_std_devs(groups)
    assert skipped == 1
    assert pooled.values[0] == 0.5
    assert pooled.values[1] == pytest.approx(0.5e200, rel=1e-15)
    assert pooled.values[3] == pytest.approx(0.2, rel=1e-15)
    plain, _ = group_std_devs(NormalizedGroups([("d",)], [1.0], [0, 2], [0.9, 1.1], [1.0, 1.0]))
    assert pooled.values[2:3].tobytes() == plain.values.tobytes()


def test_group_std_devs_of_nothing_is_an_empty_sample():
    pooled, skipped = group_std_devs(NormalizedGroups([], [], [0], [], []))
    assert skipped == 0
    assert pooled.size == 0
    singletons = NormalizedGroups([("a",), ("b",)], [1.0] * 2, [0, 1, 2], [1.0] * 2, [1.0] * 2)
    pooled, skipped = group_std_devs(singletons)
    assert (pooled.size, skipped) == (0, 2)


def test_write_normalized_samples_format():
    groups = NormalizedGroups(
        [("milk", "north"), ("rice", "n")], [2.0, 1.0], [0, 2, 3], [0.5, 1.5, 1.0], [1.0, 2.0, 4.0]
    )
    text = write_normalized_samples(groups)
    lines = text.strip().split("\n")
    assert lines[0] == "group_key,value,weight"
    assert lines[1] == "milk|north,0.5,1.0"
    assert lines[2] == "milk|north,1.5,2.0"
    assert lines[3] == "rice|n,1.0,4.0"


def test_sample_round_trip_through_text():
    sample = Sample(np.array([1.5, 0.25, 3.0]), np.array([1.0, 2.0, 0.5]))
    again = load_sample(io.StringIO(write_sample(sample)))
    np.testing.assert_array_equal(again.values, sample.values)
    np.testing.assert_array_equal(again.weights, sample.weights)


def test_load_sample_value_only_header_gets_unit_weights():
    sample = load_sample(io.StringIO("value\n1.5\n2.5\n"))
    np.testing.assert_array_equal(sample.values, [1.5, 2.5])
    np.testing.assert_array_equal(sample.weights, [1.0, 1.0])


def test_load_sample_error_cases():
    with pytest.raises(MalformedRow):
        load_sample(io.StringIO("price\n1.0\n"))
    with pytest.raises(MalformedRow) as exc:
        load_sample(io.StringIO("value\n1.0\nnope\n"))
    assert exc.value.row == 3
    with pytest.raises(MalformedRow):
        load_sample(io.StringIO("value\n1.0,2.0\n"))
    for text, row in [
        ("value\n1.0\nnan\n", 3),
        ("value\n1.0\n\n-inf\n", 4),
        ("value,weight\ninf,1.0\n", 2),
        ("value,weight\n1.0,1.0\n2.0,0\n", 3),
        ("value,weight\n1.0,-2.0\n", 2),
        ("value,weight\n1.0,nan\n", 2),
        ("value,weight\n1.0,inf\n", 2),
    ]:
        with pytest.raises(MalformedRow) as exc:
            load_sample(io.StringIO(text))
        assert exc.value.row == row, text
    with pytest.raises(EmptyInput):
        load_sample(io.StringIO(""))
    with pytest.raises(EmptyInput):
        load_sample(io.StringIO("value\n"))


_TRANSACTION_HEADER_REASON = "header must be 'good_id,market_id,quarter,price,quantity'"


@pytest.mark.parametrize("load, text, row, reason", [
    # a bad header
    (load_transactions, "price,quantity\n1.0,2\n", 1, _TRANSACTION_HEADER_REASON),
    (load_transactions, "\ngood_id,market_id,quarter,price\n", 2, _TRANSACTION_HEADER_REASON),
    (load_sample, "price\n1.0\n", 1, "header must be 'value' or 'value,weight'"),
    (load_sample, "weight,value\n1.0,1.0\n", 1, "header must be 'value' or 'value,weight'"),
    # a wrong field count
    (load_transactions, f"{HEADER_LINE}\nmilk,n,q,1.5\n", 2, "expected 5 fields, got 4"),
    (load_transactions, f"{HEADER_LINE}\nmilk,n,q,1.5,2,3\n", 2, "expected 5 fields, got 6"),
    (load_sample, "value\n1.0\n1.0,2.0\n", 3, "expected 1 fields, got 2"),
    (load_sample, "value,weight\n1.0\n", 2, "expected 2 fields, got 1"),
    # an empty id
    (load_transactions, f"{HEADER_LINE}\n,n,q,1.5,2\n", 2, "good_id must be nonempty"),
    (load_transactions, f"{HEADER_LINE}\nmilk,\"\",q,1.5,2\n", 2, "market_id must be nonempty"),
    (load_transactions, f"{HEADER_LINE}\nmilk,n,,1.5,2\n", 2, "quarter must be nonempty"),
    # a field that is not a number under numpy's grammar
    (load_transactions, f"{HEADER_LINE}\nmilk,n,q,cheap,2\n", 2, "price 'cheap' is not a number"),
    (load_transactions, f"{HEADER_LINE}\nmilk,n,q,1_0,2\n", 2, "price '1_0' is not a number"),
    (load_transactions, f"{HEADER_LINE}\nmilk,n,q,1.5,\u0661\n", 2,
     "quantity '\u0661' is not a number"),
    (load_sample, "value\n1.0\nnope\n", 3, "value 'nope' is not a number"),
    (load_sample, "value\n1_0\n", 2, "value '1_0' is not a number"),
    (load_sample, "value,weight\n1.0,2\n2.0,\u0663\n", 3, "weight '\u0663' is not a number"),
    (load_sample, "value,weight\n1.0,\n", 2, "weight '' is not a number"),
    # a nonpositive price, quantity or weight
    (load_transactions, f"{HEADER_LINE}\nmilk,n,q,0,2\n", 2,
     "price must be positive and finite, got 0"),
    (load_transactions, f"{HEADER_LINE}\nmilk,n,q,1.5,-2\n", 2,
     "quantity must be positive and finite, got -2"),
    (load_sample, "value,weight\n1.0,1.0\n\n2.0,0\n", 4,
     "weight must be positive and finite, got 0"),
    (load_sample, "value,weight\n1.0,-2.0\n", 2, "weight must be positive and finite, got -2.0"),
    # a number that is not finite
    (load_transactions, f"{HEADER_LINE}\nmilk,n,q,inf,2\n", 2,
     "price must be positive and finite, got inf"),
    (load_transactions, f"{HEADER_LINE}\nmilk,n,q,1.5,nan\n", 2,
     "quantity must be positive and finite, got nan"),
    (load_sample, "value\n1.0\nnan\n", 3, "value must be finite, got nan"),
    (load_sample, "value,weight\n-inf,1\n", 2, "value must be finite, got -inf"),
    (load_sample, "value,weight\n1.0,inf\n", 2, "weight must be positive and finite, got inf"),
])
def test_every_reader_refusal_names_its_row_and_reason(load, text, row, reason):
    with pytest.raises(MalformedRow) as exc:
        load(io.StringIO(text, newline=""))
    assert (exc.value.row, exc.value.reason) == (row, reason)


@pytest.mark.parametrize("load, text, message", [
    (load_transactions, "", "transaction stream holds no rows"),
    (load_transactions, "\n\r\n", "transaction stream holds no rows"),
    (load_sample, "", "sample stream holds no rows"),
    (load_sample, "value,weight\n", "sample stream holds a header but no data"),
    (load_sample, "value\n\n\n", "sample stream holds a header but no data"),
])
def test_readers_refuse_empty_input(load, text, message):
    with pytest.raises(EmptyInput, match=message):
        load(io.StringIO(text, newline=""))


def test_pipeline_recovers_the_spread_law_of_synthetic_groups():
    """End-to-end check on data built from a known group-spread law.

    Group spreads are drawn from a shifted lognormal, each group's
    transactions from a two-sided exponential with that spread around a
    common mean, normalized group by group; the pooled per-group standard
    deviations are refit and must recover all three spread-law parameters
    within 5 percent. The seed is pinned: the shift is resolved at roughly
    three standard errors even with twenty thousand groups.
    """
    rng = np.random.default_rng(7)
    n_groups, per_group, chunk = 20_000, 2_000, 2_000
    sigma_g = 0.00245 + 0.041 * np.exp(0.245 * rng.standard_normal(n_groups))
    values = np.empty((n_groups, per_group))
    mu0 = np.empty(n_groups)
    for start in range(0, n_groups, chunk):
        sig = sigma_g[start:start + chunk]
        draws = values[start:start + chunk]
        draws[:] = rng.laplace(1.0, sig[:, None] / np.sqrt(2.0), (sig.size, per_group))
        bad = draws <= 0.0
        while np.any(bad):
            i, _ = np.nonzero(bad)
            draws[bad] = rng.laplace(1.0, sig[i] / np.sqrt(2.0))
            bad = draws <= 0.0
        mu0[start:start + chunk] = draws.mean(axis=1)
        draws /= mu0[start:start + chunk, None]
    groups = NormalizedGroups(
        keys=[(f"g{i}",) for i in range(n_groups)],
        mu0=mu0,
        bounds=np.arange(0, values.size + 1, per_group),
        values=values.reshape(-1),
        weights=np.ones(values.size),
    )
    pooled, skipped = group_std_devs(groups)
    assert skipped == 0
    assert pooled.size == n_groups
    fit = fit_shifted_lognormal(pooled)
    assert abs(fit.params.shift - 0.00245) / 0.00245 < 0.05
    assert abs(fit.params.gamma - 0.041) / 0.041 < 0.05
    assert abs(fit.params.omega - 0.245) / 0.245 < 0.05
