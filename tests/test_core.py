import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modelselect.core import (
    DecisionTrace,
    EstimateTable,
    Pick,
    StrategyParams,
    Supermodel,
    TrueTable,
    argmax_tradeoff,
    argmax_tradeoff_rows,
    tradeoff,
)


class TestTradeoff:
    def test_basic_arithmetic(self):
        assert tradeoff(0.8, 0.002, 100) == pytest.approx(0.6)

    def test_zero_lambda_reduces_to_quality(self):
        assert tradeoff(0.5, 0.01, 0) == 0.5

    def test_cancellation(self):
        assert tradeoff(0.7, 0.7, 1) == pytest.approx(0.0)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            tradeoff(0.5, 1.0, -0.1)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            tradeoff(float("nan"), 1.0, 0.5)


class TestArgmaxTradeoff:
    def test_tie_broken_by_cheaper_cost(self):
        cands = [(0, 0.5, 1.0), (1, 1.0, 2.0)]
        assert argmax_tradeoff(cands, 0.5, Pick.MIN_COST) == 0

    def test_tie_broken_by_expensive_cost(self):
        cands = [(0, 0.5, 1.0), (1, 1.0, 2.0)]
        assert argmax_tradeoff(cands, 0.5, Pick.MAX_COST) == 1

    def test_singleton(self):
        assert argmax_tradeoff([(0, 0.9, 1.0)], 7, Pick.MIN_COST) == 0

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="no candidates"):
            argmax_tradeoff([], 1.0, Pick.MIN_COST)

    def test_residual_tie_lowest_id(self):
        cands = [(3, 0.5, 1.0), (1, 0.5, 1.0), (2, 0.5, 1.0)]
        assert argmax_tradeoff(cands, 0.0, Pick.MIN_COST) == 1
        assert argmax_tradeoff(cands, 0.0, Pick.MAX_COST) == 1


class TestArgmaxTradeoffRows:
    @pytest.mark.parametrize("columns", [0, 4])
    def test_zero_rows_give_an_empty_choice(self, columns):
        empty = np.empty((0, columns))
        for pick in Pick:
            got = argmax_tradeoff_rows(empty, empty, np.empty((0, columns), dtype=bool), pick)
            assert got.shape == (0,) and got.dtype == np.intp


# Coarse grids keep score gaps far from the tie tolerance, so the invariance
# statements are exact rather than epsilon-fragile.
coarse = st.integers(min_value=0, max_value=200).map(lambda v: v / 100.0)
candidate_lists = st.lists(
    st.tuples(coarse, coarse), min_size=1, max_size=6
).map(lambda rows: [(i, q, c) for i, (q, c) in enumerate(rows)])


class TestArgmaxProperties:
    @given(candidate_lists, coarse, st.sampled_from([2.0, 5.0, 0.5]))
    @settings(max_examples=200)
    def test_cost_scale_invariance(self, cands, lam, alpha):
        scaled = [(i, q, c * alpha) for (i, q, c) in cands]
        for pick in Pick:
            assert argmax_tradeoff(cands, lam, pick) == argmax_tradeoff(
                scaled, lam / alpha, pick
            )

    @given(candidate_lists, coarse, coarse)
    @settings(max_examples=200)
    def test_quality_shift_invariance(self, cands, lam, shift):
        shifted = [(i, q + shift, c) for (i, q, c) in cands]
        for pick in Pick:
            assert argmax_tradeoff(cands, lam, pick) == argmax_tradeoff(shifted, lam, pick)

    @given(candidate_lists, coarse)
    @settings(max_examples=200)
    def test_min_and_max_picks_tie_on_tau(self, cands, lam):
        lo = argmax_tradeoff(cands, lam, Pick.MIN_COST)
        hi = argmax_tradeoff(cands, lam, Pick.MAX_COST)
        tau = {i: q - lam * c for (i, q, c) in cands}
        assert tau[lo] == pytest.approx(tau[hi], abs=1e-9)


class TestTypes:
    def test_supermodel_distinct_members(self):
        with pytest.raises(ValueError):
            Supermodel((1, 1))

    def test_supermodel_mask_roundtrip(self):
        sm = Supermodel((0, 2, 3))
        assert Supermodel.from_mask(sm.mask()).member_set == sm.member_set

    def test_strategy_params_validation(self):
        with pytest.raises(ValueError):
            StrategyParams(lambdas=(-1.0,), gamma=0.5)
        with pytest.raises(ValueError):
            StrategyParams(lambdas=(1.0,), gamma=1.5)

    def test_trace_answer_must_be_executed(self):
        with pytest.raises(ValueError):
            DecisionTrace(0, (0, 1), 2, 1.0, 0.5)

    def test_table_shapes_checked(self):
        with pytest.raises(ValueError):
            EstimateTable.build(np.zeros((2, 3)), np.zeros((2, 2)))

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"quality_mean": np.zeros((2, 3, 3))}, "step axis must have length n_models \\+ 1"),
            ({"cost_mean": np.ones((2, 4, 2))}, "cost_mean shape disagrees with quality_mean"),
            ({"query_ids": np.arange(3)}, "query_ids length disagrees with estimates"),
            ({"true_quality": np.zeros((2, 2))}, "true_quality must be \\(n_queries, n_models\\)"),
            ({"true_cost": np.ones((3, 3))}, "true_cost must be \\(n_queries, n_models\\)"),
        ],
        ids=["steps", "cost_mean", "query_ids", "true_quality", "true_cost"],
    )
    def test_estimate_table_shape_errors_name_the_array(self, change, message):
        arrays = {
            "query_ids": np.arange(2), "quality_mean": np.zeros((2, 4, 3)), "cost_mean": np.ones((2, 4, 3)),
            "true_quality": np.zeros((2, 3)), "true_cost": np.ones((2, 3)),
        }
        EstimateTable(**arrays)
        with pytest.raises(ValueError, match=message):
            EstimateTable(**{**arrays, **change})

    @pytest.mark.parametrize("name", ["quality_std", "cost_std"])
    def test_estimate_table_holds_means_only(self, name):
        # the per-entry std arrays are gone: the uncertainty the strategies
        # read is the per-(model, step) sigma of cascading.estimate_sigma
        assert name not in {f.name for f in dataclasses.fields(EstimateTable)}
        with pytest.raises(TypeError):
            EstimateTable.build(np.zeros((2, 2)), np.ones((2, 2)), **{name: np.zeros((2, 2))})

    def test_table_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            EstimateTable.build(np.zeros((2, 2)), -np.ones((2, 2)))

    def test_table_negative_true_cost_rejected(self):
        # a true cost is what a computed model is charged, so a negative one
        # would lower every realized cost it enters
        with pytest.raises(ValueError, match="true costs must be >= 0"):
            EstimateTable.build(np.zeros((2, 2)), np.ones((2, 2)), true_cost=[[1.0, -1.0], [1.0, 1.0]])
        t = EstimateTable.build(np.zeros((2, 2)), np.ones((2, 2)), true_cost=np.zeros((2, 2)))
        assert t.computed_cost.min() == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["quality_mean", "cost_mean", "true_quality", "true_cost"])
    def test_estimate_table_rejects_non_finite(self, field, bad):
        arrays = {name: np.full((2, 3), 0.5) for name in ("quality_mean", "cost_mean", "true_quality", "true_cost")}
        arrays[field][1, 2] = bad
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            EstimateTable.build(**arrays)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["quality", "cost"])
    def test_true_table_rejects_non_finite(self, field, bad):
        arrays = {"quality": np.full((2, 2), 0.5), "cost": np.ones((2, 2))}
        arrays[field][0, 1] = bad
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            TrueTable(query_ids=np.arange(2), **arrays)

    def test_negative_query_ids_rejected(self):
        # a negative id cannot seed a query's random stream; it used to be
        # accepted here and fail only inside each strategy's sweep
        ids = -np.arange(1, 4)
        with pytest.raises(ValueError, match="query_ids must be >= 0"):
            EstimateTable.build(np.full((3, 2), 0.5), np.ones((3, 2)), query_ids=ids)
        with pytest.raises(ValueError, match="query_ids must be >= 0"):
            TrueTable(query_ids=ids, quality=np.full((3, 2), 0.5), cost=np.ones((3, 2)))
        assert list(EstimateTable.build(np.ones((2, 2)), np.ones((2, 2)), query_ids=[0, 2**63 - 1]).query_ids) == [
            0, 2**63 - 1]

    def test_build_broadcasts_steps(self):
        t = EstimateTable.build(np.ones((4, 3)) * 0.5, np.ones((4, 3)))
        assert t.quality_mean.shape == (4, 4, 3)
        assert np.all(t.quality_mean == 0.5)

    def test_subset_preserves_ids(self):
        t = EstimateTable.build(np.ones((5, 2)), np.ones((5, 2)))
        sub = t.subset([4, 1])
        assert list(sub.query_ids) == [4, 1]

    def test_reorder_models(self):
        qm = np.array([[0.1, 0.2, 0.3]])
        t = EstimateTable.build(qm, np.ones((1, 3)), true_quality=qm, true_cost=np.ones((1, 3)))
        r = t.reorder_models([2, 0, 1])
        assert list(r.quality_mean[0, 0]) == [0.3, 0.1, 0.2]
        assert list(r.true_quality[0]) == [0.3, 0.1, 0.2]

    @pytest.mark.parametrize("kind", [EstimateTable, TrueTable])
    def test_subset_and_reorder_carry_every_field(self, kind):
        # driven by the dataclass fields, so a field added later must be
        # carried by both methods: per-query fields are 1-D, and every other
        # field has the model axis last
        rng = np.random.default_rng(4)
        n, k = 6, 3
        if kind is EstimateTable:
            table = EstimateTable(
                query_ids=rng.permutation(50)[:n], quality_mean=rng.uniform(0, 1, (n, k + 1, k)),
                cost_mean=rng.uniform(0, 1, (n, k + 1, k)), true_quality=rng.uniform(0, 1, (n, k)),
                true_cost=rng.uniform(0, 1, (n, k)),
            )
        else:
            table = TrueTable(
                query_ids=rng.permutation(50)[:n], quality=rng.uniform(0, 1, (n, k)),
                cost=rng.uniform(0, 1, (n, k)), split_labels=np.array(["train", "val", "test"] * 2),
            )
        rows, perm = np.array([4, 0, 5]), [2, 0, 1]
        sub, reordered = table.subset(rows), table.reorder_models(perm)
        for field in dataclasses.fields(kind):
            arr = getattr(table, field.name)
            assert arr is not None, field.name
            np.testing.assert_array_equal(getattr(sub, field.name), arr[rows], err_msg=field.name)
            moved = arr if arr.ndim == 1 else arr[..., perm]
            np.testing.assert_array_equal(getattr(reordered, field.name), moved, err_msg=field.name)
