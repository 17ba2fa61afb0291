"""Tests for transaction ingestion and the price-normalization pipeline."""

from __future__ import annotations

import io

import numpy as np
import pytest

from dispersim.dataio import (
    GROUPINGS,
    NormalizedSample,
    TransactionTable,
    group_std_devs,
    load_sample,
    load_transactions,
    normalize_prices,
    serialize_transactions,
    write_normalized_samples,
    write_sample,
)
from dispersim.errors import EmptyInput, MalformedRow, ModelError
from dispersim.estimate import fit_shifted_lognormal
from dispersim.samples import Sample

HEADER_LINE = "good_id,market_id,quarter,price,quantity"


def _table(text: str) -> TransactionTable:
    return load_transactions(io.StringIO(text))


def test_load_parses_fields():
    table = _table(f"{HEADER_LINE}\nmilk,north,2011Q1,1.25,3\n")
    assert table.size == 1
    assert table.good_id[0] == "milk"
    assert table.market_id[0] == "north"
    assert table.quarter[0] == "2011Q1"
    assert table.price[0] == 1.25
    assert table.quantity[0] == 3.0


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


def test_serialize_round_trips_exactly():
    text = (
        f"{HEADER_LINE}\n"
        "milk,north,2011Q1,1.1000000000000001,3.0\n"
        "milk,south,2011Q2,0.1,7.5\n"
    )
    table = _table(text)
    again = _table(serialize_transactions(table))
    np.testing.assert_array_equal(again.price, table.price)
    np.testing.assert_array_equal(again.quantity, table.quantity)
    assert list(again.good_id) == list(table.good_id)
    assert serialize_transactions(again) == serialize_transactions(table)


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
        return [g.key for g in normalize_prices(table, grouping)]

    assert keys("good") == [("milk",)]
    assert keys("good+market") == [("milk", "north"), ("milk", "south")]
    assert keys("good+market+quarter") == [
        ("milk", "north", "2011Q1"),
        ("milk", "south", "2011Q2"),
    ]
    assert [g.size for g in normalize_prices(table, "good")] == [2]
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
    assert groups[0].mu0 == 2.0
    np.testing.assert_array_equal(groups[0].values, [0.5, 1.5])
    np.testing.assert_array_equal(groups[0].weights, [1.0, 1.0])


def test_normalize_weights_by_quantity():
    table = _table(
        f"{HEADER_LINE}\n"
        "milk,north,2011Q1,1.0,3\n"
        "milk,south,2011Q1,3.0,1\n"
    )
    groups = normalize_prices(table)
    assert groups[0].mu0 == pytest.approx(1.5)
    np.testing.assert_allclose(groups[0].values, [2.0 / 3.0, 2.0])
    assert groups[0].weighted_mean() == pytest.approx(1.0, abs=1e-12)


def test_normalize_unweighted_switch():
    table = _table(
        f"{HEADER_LINE}\n"
        "milk,north,2011Q1,1.0,3\n"
        "milk,south,2011Q1,3.0,1\n"
    )
    groups = normalize_prices(table, weighted=False)
    assert groups[0].mu0 == pytest.approx(2.0)
    np.testing.assert_allclose(groups[0].values, [0.5, 1.5])
    # under the unweighted convention the quantity-weighted mean drifts off 1
    assert groups[0].weighted_mean() != pytest.approx(1.0, abs=1e-6)


def test_single_transaction_group_normalizes_to_one():
    table = _table(f"{HEADER_LINE}\nmilk,north,2011Q1,17.3,2\n")
    groups = normalize_prices(table)
    assert groups[0].values[0] == 1.0


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
    for group in groups:
        assert abs(group.weighted_mean() - 1.0) <= 1e-12


def test_normalize_refuses_a_group_whose_weighted_mean_misses_one(monkeypatch):
    table = _table(f"{HEADER_LINE}\nmilk,north,2011Q1,1.0,3\n")
    monkeypatch.setattr(NormalizedSample, "weighted_mean", lambda self: 1.0 + 1e-9)
    with pytest.raises(ModelError, match="milk"):
        normalize_prices(table)
    normalize_prices(table, weighted=False)


def test_normalize_rescales_a_group_whose_sums_overflow():
    table = _table(
        f"{HEADER_LINE}\n"
        "milk,n,2011Q1,1e200,1e200\n"
        "milk,s,2011Q1,2e200,1e200\n"
    )
    (group,) = normalize_prices(table)
    assert group.mu0 == pytest.approx(1.5e200, rel=1e-15)
    np.testing.assert_allclose(group.values, [2.0 / 3.0, 4.0 / 3.0], rtol=1e-15)
    assert group.weighted_mean() == pytest.approx(1.0, abs=1e-12)
    (plain,) = normalize_prices(table, weighted=False)
    assert plain.mu0 == pytest.approx(1.5e200, rel=1e-15)
    # products that underflow to zero take the same route
    (tiny,) = normalize_prices(_table(f"{HEADER_LINE}\nmilk,n,q,1e-200,1e-200\n"))
    assert tiny.mu0 == 1e-200
    assert tiny.values[0] == 1.0


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
    keys = [g.key for g in normalize_prices(table)]
    assert keys == [("apple",), ("mango",), ("zebra",)]


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
        good_id=np.concatenate([[g.key[0]] * g.size for g in first]),
        market_id=np.array(["m"] * 4, dtype=object),
        quarter=np.array(["q"] * 4, dtype=object),
        price=np.concatenate([g.values for g in first]),
        quantity=np.concatenate([g.weights for g in first]),
    )
    second = normalize_prices(rebuilt)
    for before, after in zip(first, second):
        assert after.mu0 == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(after.values, before.values, rtol=1e-12)


def test_normalized_sample_validation():
    with pytest.raises(ValueError):
        NormalizedSample(("a",), 1.0, np.array([]), np.array([]))
    with pytest.raises(ValueError):
        NormalizedSample(("a",), 0.0, np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        NormalizedSample(("a",), 1.0, np.array([-1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        NormalizedSample(("a",), 1.0, np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        NormalizedSample(("a",), 1.0, np.array([1.0, 2.0]), np.array([1.0]))


def test_normalized_sample_statistics():
    group = NormalizedSample(
        ("a",), 2.0, np.array([0.5, 1.5]), np.array([1.0, 1.0])
    )
    assert group.weighted_mean() == 1.0
    assert group.std() == pytest.approx(0.5)
    heavy = NormalizedSample(
        ("a",), 2.0, np.array([0.5, 1.5]), np.array([3.0, 1.0])
    )
    # weighted mean 0.75; weighted second moment (3*0.0625 + 1*0.5625)/4
    assert heavy.weighted_mean() == pytest.approx(0.75)
    assert heavy.std() == pytest.approx(np.sqrt(3.0) / 4.0, rel=1e-12)


def test_group_std_devs_pools_and_skips_singletons():
    groups = [
        NormalizedSample(("a",), 1.0, np.array([0.5, 1.5]), np.array([1.0, 1.0])),
        NormalizedSample(("b",), 1.0, np.array([1.0]), np.array([1.0])),
        NormalizedSample(("c",), 1.0, np.array([0.9, 1.1]), np.array([1.0, 1.0])),
    ]
    pooled, skipped = group_std_devs(groups)
    assert skipped == 1
    np.testing.assert_allclose(pooled.values, [0.5, 0.1])
    assert pooled.size == 2


def test_group_std_devs_of_nothing_is_an_empty_sample():
    pooled, skipped = group_std_devs([])
    assert skipped == 0
    assert pooled.size == 0


def test_write_normalized_samples_format():
    groups = [
        NormalizedSample(
            ("milk", "north"), 2.0, np.array([0.5, 1.5]), np.array([1.0, 2.0])
        )
    ]
    text = write_normalized_samples(groups)
    lines = text.strip().split("\n")
    assert lines[0] == "group_key,value,weight"
    assert lines[1] == "milk|north,0.5,1.0"
    assert lines[2] == "milk|north,1.5,2.0"


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
    n_groups, per_group = 20_000, 2_000
    sigma_g = 0.00245 + 0.041 * np.exp(0.245 * rng.standard_normal(n_groups))

    def groups():
        chunk = 2_000
        for start in range(0, n_groups, chunk):
            sig = sigma_g[start:start + chunk]
            draws = rng.laplace(1.0, sig[:, None] / np.sqrt(2.0), (sig.size, per_group))
            bad = draws <= 0.0
            while np.any(bad):
                i, _ = np.nonzero(bad)
                draws[bad] = rng.laplace(1.0, sig[i] / np.sqrt(2.0))
                bad = draws <= 0.0
            means = draws.mean(axis=1)
            values = draws / means[:, None]
            for j in range(sig.size):
                yield NormalizedSample(
                    key=(f"g{start + j}",),
                    mu0=float(means[j]),
                    values=values[j],
                    weights=np.ones(per_group),
                )

    pooled, skipped = group_std_devs(groups())
    assert skipped == 0
    assert pooled.size == n_groups
    fit = fit_shifted_lognormal(pooled)
    assert abs(fit.params.shift - 0.00245) / 0.00245 < 0.05
    assert abs(fit.params.gamma - 0.041) / 0.041 < 0.05
    assert abs(fit.params.omega - 0.245) / 0.245 < 0.05
