"""Tests for the unified Optimizer facade: config, QuerySpec, results,
auto dispatch wiring, and backward compatibility of the legacy wrappers."""

import json

import pytest

from repro import (
    CapabilityError,
    DisconnectedGraphError,
    Hyperedge,
    Hypergraph,
    JoinSpec,
    Optimizer,
    OptimizerConfig,
    QuerySpec,
    optimize,
)
from repro.algebra import optimize_operator_tree
from repro.core import bitset
from repro.cost.models import HashJoinModel
from repro.workloads import generators
from repro.workloads.nonreorderable import (
    cycle_outerjoin_tree,
    star_antijoin_tree,
)

HYPERGRAPH_FIXTURES = {
    "chain": generators.chain(6, seed=1),
    "cycle": generators.cycle(6, seed=2),
    "star": generators.star(5, seed=3),
}

TREE_FIXTURES = {
    "star-antijoin": star_antijoin_tree(5, 2, seed=7),
    "cycle-outerjoin": cycle_outerjoin_tree(6, 2, seed=7),
}


class TestLegacyParity:
    """Acceptance criterion: the facade returns the same plan cost as
    the legacy entry points for every algorithm on the fixtures."""

    @pytest.mark.parametrize("shape", sorted(HYPERGRAPH_FIXTURES))
    @pytest.mark.parametrize(
        "algorithm",
        ["dphyp", "dphyp-recursive", "dpccp", "dpsize", "dpsub",
         "topdown", "greedy"],
    )
    def test_hypergraph_costs_match(self, shape, algorithm):
        query = HYPERGRAPH_FIXTURES[shape]
        legacy = optimize(query.graph, query.cardinalities, algorithm)
        unified = Optimizer(
            OptimizerConfig(algorithm=algorithm)
        ).optimize(query.graph, query.cardinalities)
        assert unified.cost == legacy.cost
        assert unified.algorithm == algorithm
        assert unified.stats.ccp_emitted == legacy.stats.ccp_emitted

    @pytest.mark.parametrize("name", sorted(TREE_FIXTURES))
    @pytest.mark.parametrize("algorithm", ["dphyp", "dpsize", "topdown"])
    def test_operator_tree_costs_match(self, name, algorithm):
        tree = TREE_FIXTURES[name]
        legacy = optimize_operator_tree(tree, algorithm=algorithm)
        unified = Optimizer(
            OptimizerConfig(algorithm=algorithm)
        ).optimize(tree)
        assert unified.cost == legacy.cost
        assert unified.compiled is not None
        assert unified.mode == "hyperedges"

    def test_tes_filter_mode_matches(self):
        tree = TREE_FIXTURES["star-antijoin"]
        legacy = optimize_operator_tree(tree, mode="tes-filter")
        unified = Optimizer(
            OptimizerConfig(algorithm="dphyp", mode="tes-filter")
        ).optimize(tree)
        assert unified.cost == legacy.cost
        assert unified.mode == "tes-filter"

    def test_auto_matches_dphyp_optimum(self):
        query = HYPERGRAPH_FIXTURES["cycle"]
        exact = optimize(query.graph, query.cardinalities, "dphyp")
        auto = Optimizer().optimize(query.graph, query.cardinalities)
        assert auto.cost == exact.cost
        assert auto.requested_algorithm == "auto"
        assert auto.algorithm != "auto"


class TestConfig:
    def test_kwargs_shorthand(self):
        opt = Optimizer(algorithm="dpsize")
        assert opt.config.algorithm == "dpsize"

    def test_config_plus_overrides(self):
        base = OptimizerConfig(algorithm="dphyp", default_cardinality=9.0)
        opt = Optimizer(base, algorithm="greedy")
        assert opt.config.algorithm == "greedy"
        assert opt.config.default_cardinality == 9.0

    def test_unknown_algorithm_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            OptimizerConfig(algorithm="magic")

    def test_invalid_mode_and_policy(self):
        with pytest.raises(ValueError, match="mode"):
            OptimizerConfig(mode="bogus")
        with pytest.raises(ValueError, match="on_disconnected"):
            OptimizerConfig(on_disconnected="explode")

    def test_cost_model_flows_through(self):
        query = HYPERGRAPH_FIXTURES["chain"]
        cout = Optimizer(algorithm="dphyp").optimize(query)
        hashj = Optimizer(
            algorithm="dphyp", cost_model=HashJoinModel()
        ).optimize(query)
        assert cout.cost != hashj.cost


class TestQuerySpec:
    def spec(self):
        return QuerySpec(
            relations=[("a", 100.0), ("b", 500.0), ("c", 40.0)],
            joins=[
                ("a", "b", 0.01),
                JoinSpec.of("b", "c", selectivity=0.1,
                            predicate="b.x = c.x"),
            ],
        )

    def test_roundtrip(self):
        spec = self.spec()
        graph, cards = spec.to_hypergraph()
        assert graph.node_names == ["a", "b", "c"]
        assert cards == [100.0, 500.0, 40.0]
        back = QuerySpec.from_hypergraph(graph, cards)
        assert back.relation_names == spec.relation_names
        assert back.cardinalities == spec.cardinalities
        assert [(j.left, j.right, j.selectivity) for j in back.joins] == [
            (j.left, j.right, j.selectivity) for j in spec.joins
        ]
        assert back.joins[1].predicate == "b.x = c.x"
        # and the round-tripped spec compiles to the same problem
        graph2, cards2 = back.to_hypergraph()
        assert cards2 == cards
        assert len(graph2.edges) == len(graph.edges)

    def test_matches_handbuilt_hypergraph(self):
        spec = self.spec()
        graph, cards = spec.to_hypergraph()
        via_spec = Optimizer(algorithm="dphyp").optimize(spec)
        via_graph = Optimizer(algorithm="dphyp").optimize(graph, cards)
        assert via_spec.cost == via_graph.cost
        assert via_spec.relation_names == ["a", "b", "c"]

    def test_complex_join_groups(self):
        spec = QuerySpec(
            relations={"r1": 10, "r2": 20, "r3": 30, "r4": 40},
            joins=[
                ("r1", "r2", 0.1),
                ("r3", "r4", 0.1),
                {"left": ["r1", "r2"], "right": ["r3", "r4"],
                 "selectivity": 0.01},
            ],
        )
        graph, _cards = spec.to_hypergraph()
        assert not graph.is_simple
        result = Optimizer().optimize(spec)
        # DPhyp is auto's enumerator for hypergraphs too
        assert result.algorithm == "dphyp"

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one relation"):
            QuerySpec(relations={})
        with pytest.raises(ValueError, match="unique"):
            QuerySpec(relations=[("a", 1.0), ("a", 2.0)])
        with pytest.raises(ValueError, match="unknown relation"):
            QuerySpec(relations={"a": 1.0, "b": 1.0},
                      joins=[("a", "zzz")]).to_hypergraph()
        with pytest.raises(ValueError, match="join spec"):
            JoinSpec.parse(42)

    def test_spec_rejects_extra_arguments(self):
        with pytest.raises(ValueError, match="carries its own"):
            Optimizer().optimize(self.spec(), cardinalities=[1.0, 2.0, 3.0])


class TestOptimizeMany:
    def test_preserves_input_order(self):
        queries = [
            generators.chain(4, seed=4),
            generators.star(3, seed=5),
            generators.cycle(5, seed=6),
        ]
        opt = Optimizer(algorithm="dphyp")
        results = opt.optimize_many(queries)
        assert len(results) == len(queries)
        for query, result in zip(queries, results):
            assert result.cost == opt.optimize(query).cost
            assert result.graph is query.graph

    def test_accepts_mixed_representations(self):
        spec = QuerySpec(relations={"a": 10, "b": 10}, joins=[("a", "b")])
        batch = [generators.chain(3), spec, TREE_FIXTURES["star-antijoin"]]
        results = Optimizer().optimize_many(batch)
        assert [r.plan is not None for r in results] == [True, True, True]
        assert results[2].compiled is not None

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError, match="cannot optimize"):
            Optimizer().optimize(42)


class TestResult:
    def test_to_dict_schema_and_json(self):
        query = HYPERGRAPH_FIXTURES["chain"]
        result = Optimizer().optimize(query)
        document = result.to_dict()
        for key in ("algorithm", "requested_algorithm", "mode",
                    "relation_names", "plannable", "cost", "cardinality",
                    "plan", "stats"):
            assert key in document, key
        assert document["plannable"] is True
        assert document["requested_algorithm"] == "auto"
        assert document["stats"]["ccp_emitted"] > 0
        node = document["plan"]
        while "operator" in node:
            assert set(node) == {"operator", "predicates", "cardinality",
                                 "cost", "left", "right"}
            node = node["left"]
        assert set(node) == {"relation", "cardinality"}
        json.dumps(document)  # must be JSON-serializable end to end

    def test_explain_needs_no_manual_names(self):
        spec = QuerySpec(
            relations={"customer": 1000, "orders": 100},
            joins=[JoinSpec.of("customer", "orders", 0.01,
                               predicate="c.id = o.cust_id")],
        )
        result = Optimizer().optimize(spec)
        text = result.explain()
        assert "scan customer" in text
        assert "scan orders" in text
        # satellite fix: plain-hypergraph payloads render as predicates
        assert "c.id = o.cust_id" in text
        assert "c.id = o.cust_id" in result.explain_dot()

    def test_tree_to_dict_renders_predicates_like_explain(self):
        result = Optimizer().optimize(TREE_FIXTURES["star-antijoin"])
        document = result.to_dict()
        json.dumps(document)

        def predicates(node, found):
            if "operator" in node:
                found.extend(node["predicates"])
                predicates(node["left"], found)
                predicates(node["right"], found)
            return found

        rendered = predicates(document["plan"], [])
        assert rendered, "tree plan should carry predicate annotations"
        for text in rendered:
            assert "EdgeInfo(" not in text  # structured, not a dataclass repr
            assert text in result.explain()

    def test_tree_result_carries_names(self):
        result = Optimizer().optimize(TREE_FIXTURES["star-antijoin"])
        names = result.relation_names
        assert names and all(isinstance(n, str) for n in names)
        assert result.explain()  # no names argument needed

    def test_unplannable_result_raises_with_message(self):
        graph = Hypergraph(n_nodes=2)
        result = optimize(graph, [1.0, 1.0])  # legacy: plan=None
        for attribute in ("cost", "cardinality"):
            with pytest.raises(ValueError, match="no cross-product-free"):
                getattr(result, attribute)
        with pytest.raises(ValueError, match="no cross-product-free"):
            result.explain()
        document = result.to_dict()
        assert document["plannable"] is False
        assert document["cost"] is None
        json.dumps(document)


class TestDisconnectedPolicy:
    def graph(self):
        graph = Hypergraph(n_nodes=3)
        graph.add_simple_edge(0, 1, selectivity=0.5)
        return graph  # node 2 is stranded

    def test_default_raises(self):
        with pytest.raises(DisconnectedGraphError, match="2 connected"):
            Optimizer().optimize(self.graph(), [4.0, 2.0, 3.0])

    def test_connect_policy(self):
        result = Optimizer(on_disconnected="connect").optimize(
            self.graph(), [4.0, 2.0, 3.0]
        )
        # cross product with selectivity 1: 4 * 2 * 0.5 * 3
        assert result.cardinality == pytest.approx(12.0)

    def test_plan_none_policy_matches_legacy(self):
        result = Optimizer(on_disconnected="plan-none").optimize(
            self.graph(), [4.0, 2.0, 3.0]
        )
        assert result.plan is None
        legacy = optimize(self.graph(), [4.0, 2.0, 3.0])
        assert legacy.plan is None


class TestCapabilityGate:
    def complex_graph(self):
        graph = Hypergraph(n_nodes=3)
        graph.add_simple_edge(0, 1)
        graph.add_edge(Hyperedge(left=bitset.set_of(0, 1),
                                 right=bitset.set_of(2)))
        return graph

    def test_dpccp_rejected_before_enumeration(self):
        with pytest.raises(CapabilityError, match="simple graphs"):
            Optimizer(algorithm="dpccp").optimize(self.complex_graph())

    def test_legacy_wrapper_gets_the_same_friendly_error(self):
        with pytest.raises(CapabilityError, match="complex hyperedges"):
            optimize(self.complex_graph(), [1.0, 1.0, 1.0], "dpccp")

    def test_auto_avoids_dpccp_here(self):
        result = Optimizer().optimize(self.complex_graph())
        assert result.algorithm == "dphyp"
