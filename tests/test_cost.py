"""Tests for cost models, catalog, and cardinality estimation."""

import math

import pytest

from repro.core.hypergraph import Hyperedge, Hypergraph
from repro.core.plans import Plan
from repro.cost.cardinality import (
    SetCardinalityEstimator,
    inner_join_cardinality,
    operator_cardinality,
)
from repro.cost.catalog import Catalog, catalog_from_cardinalities
from repro.cost.models import (
    MODELS,
    CoutModel,
    HashJoinModel,
    MinOfModel,
    NestedLoopModel,
    SortMergeModel,
)


def plan_stub(cost, card):
    return Plan(
        nodes=0b1, left=None, right=None, operator=None, edges=(),
        cardinality=card, cost=cost,
    )


class TestCostModels:
    def test_cout(self):
        model = CoutModel()
        assert model.leaf_cost(100.0) == 0.0
        assert model.join_cost(
            "join", plan_stub(5, 10), plan_stub(7, 20), 42.0
        ) == pytest.approx(5 + 7 + 42)

    def test_nested_loop(self):
        model = NestedLoopModel()
        assert model.join_cost(
            "join", plan_stub(0, 10), plan_stub(0, 20), 5.0
        ) == pytest.approx(200.0)

    def test_hash_join_asymmetric(self):
        model = HashJoinModel(build_factor=2.0)
        small_build = model.join_cost("join", plan_stub(0, 10), plan_stub(0, 1000), 5.0)
        big_build = model.join_cost("join", plan_stub(0, 1000), plan_stub(0, 10), 5.0)
        assert small_build < big_build

    def test_hash_join_validates_factor(self):
        with pytest.raises(ValueError):
            HashJoinModel(build_factor=0.0)

    def test_sort_merge_nlogn(self):
        model = SortMergeModel()
        cost = model.join_cost("join", plan_stub(0, 8), plan_stub(0, 1), 0.0)
        assert cost == pytest.approx(8 * math.log2(8) + 1)

    def test_min_of_model(self):
        model = MinOfModel()
        left, right = plan_stub(0, 10), plan_stub(0, 20)
        component_costs = [
            m.join_cost("join", left, right, 5.0) for m in model.models
        ]
        assert model.join_cost("join", left, right, 5.0) == min(component_costs)

    def test_min_of_requires_components(self):
        with pytest.raises(ValueError):
            MinOfModel(models=[])

    def test_registry(self):
        assert set(MODELS) == {"C_out", "C_nlj", "C_hj", "C_smj"}


class TestCatalog:
    def test_add_and_lookup(self):
        catalog = Catalog()
        catalog.add("orders", 1500.0, {"o_custkey": 100.0})
        assert "orders" in catalog
        assert catalog.get("orders").cardinality == 1500.0
        assert catalog.get("orders").distinct("o_custkey") == 100.0
        # missing statistics default to the cardinality
        assert catalog.get("orders").distinct("o_comment") == 1500.0

    def test_duplicate_rejected(self):
        catalog = Catalog()
        catalog.add("r", 1.0)
        with pytest.raises(ValueError):
            catalog.add("r", 2.0)

    def test_invalid_cardinality(self):
        with pytest.raises(ValueError):
            Catalog().add("r", 0.0)

    def test_index_order(self):
        catalog = catalog_from_cardinalities([10, 20, 30])
        assert catalog.names == ["R0", "R1", "R2"]
        assert catalog.index_of("R1") == 1
        assert catalog.cardinalities == [10.0, 20.0, 30.0]
        with pytest.raises(KeyError):
            catalog.index_of("nope")
        with pytest.raises(KeyError):
            catalog.get("nope")

    def test_equijoin_selectivity(self):
        catalog = Catalog()
        catalog.add("r", 100.0, {"a": 50.0})
        catalog.add("s", 200.0, {"b": 20.0})
        assert catalog.equijoin_selectivity("r", "a", "s", "b") == pytest.approx(
            1.0 / 50.0
        )


class TestOperatorCardinality:
    def test_inner(self):
        assert inner_join_cardinality(10, 20, 0.1) == pytest.approx(20.0)
        assert operator_cardinality("join", 10, 20, 0.1) == pytest.approx(20.0)

    def test_left_outer_keeps_left(self):
        assert operator_cardinality("left_outer", 100, 10, 0.0001) == 100.0

    def test_full_outer_keeps_both(self):
        estimate = operator_cardinality("full_outer", 100, 50, 0.0001)
        assert estimate >= 100.0 and estimate >= 50.0

    def test_semi_bounded_by_left(self):
        assert operator_cardinality("semi", 100, 1000, 0.5) == 100.0
        assert operator_cardinality("semi", 100, 10, 0.01) == pytest.approx(10.0)

    def test_anti_complements_semi(self):
        semi = operator_cardinality("semi", 100, 10, 0.01)
        anti = operator_cardinality("anti", 100, 10, 0.01)
        assert semi + anti == pytest.approx(100.0)

    def test_nest_one_row_per_left(self):
        assert operator_cardinality("nest", 42, 1000, 0.5) == 42.0

    def test_dependent_variants_match_base(self):
        assert operator_cardinality("dsemi", 100, 10, 0.01) == (
            operator_cardinality("semi", 100, 10, 0.01)
        )

    def test_one_row_clamp(self):
        assert operator_cardinality("anti", 10, 1000, 0.9) == 1.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            operator_cardinality("teleport", 1, 1, 1)


class TestSetCardinalityEstimator:
    def test_memoized_set_function(self, triangle_graph):
        estimator = SetCardinalityEstimator(triangle_graph, [10.0, 20.0, 30.0])
        full = estimator.cardinality(0b111)
        # all three edges applied
        assert full == pytest.approx(10 * 20 * 30 * 0.1 * 0.2 * 0.3)
        assert estimator.cardinality(0b111) == full  # cached path

    def test_validates_input(self, triangle_graph):
        with pytest.raises(ValueError):
            SetCardinalityEstimator(triangle_graph, [1.0])
        estimator = SetCardinalityEstimator(triangle_graph, [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            estimator.cardinality(0)
