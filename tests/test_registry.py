"""Tests for the capability-aware algorithm registry and auto dispatch."""

import pytest

from repro import (
    AlgorithmInfo,
    CapabilityError,
    Hyperedge,
    Hypergraph,
    algorithm_names,
    get_algorithm,
    register_algorithm,
    unregister_algorithm,
)
from repro.api import ALGORITHMS
from repro.core import bitset
from repro.registry import (
    EXACT_MAX_RELATIONS,
    check_capabilities,
    select_auto,
)
from repro.workloads import generators


def complex_graph(n: int = 4) -> Hypergraph:
    """A connected graph with one complex (non-binary) hyperedge."""
    graph = Hypergraph(n_nodes=n)
    for i in range(n - 1):
        graph.add_simple_edge(i, i + 1, selectivity=0.1)
    graph.add_edge(Hyperedge(
        left=bitset.set_of(0, 1), right=bitset.set_of(n - 1),
        selectivity=0.5,
    ))
    return graph


class TestAlgorithmInfo:
    def test_validates_name(self):
        with pytest.raises(ValueError, match="non-empty string"):
            AlgorithmInfo(name="", solver=lambda *a: None)

    def test_auto_is_reserved(self):
        with pytest.raises(ValueError, match="reserved"):
            AlgorithmInfo(name="auto", solver=lambda *a: None)

    def test_solver_must_be_callable(self):
        with pytest.raises(ValueError, match="callable"):
            AlgorithmInfo(name="x", solver="not-a-function")

    def test_bounds(self):
        with pytest.raises(ValueError, match="auto_priority"):
            AlgorithmInfo(name="x", solver=lambda *a: None, auto_priority=-1)


class TestRegistration:
    def test_builtins_registered(self):
        names = algorithm_names()
        for expected in ("dphyp", "dphyp-recursive", "dpccp", "dpsize",
                         "dpsub", "topdown", "greedy"):
            assert expected in names

    def test_duplicate_rejected_without_replace(self):
        with pytest.raises(ValueError, match="already registered"):
            register_algorithm(AlgorithmInfo(
                name="dphyp", solver=lambda *a: None))

    def test_register_replace_and_unregister(self):
        marker = lambda *a: None  # noqa: E731
        original = get_algorithm("greedy")
        try:
            register_algorithm(AlgorithmInfo(name="greedy", solver=marker,
                                             exact=False), replace=True)
            assert get_algorithm("greedy").solver is marker
        finally:
            register_algorithm(original, replace=True)
        register_algorithm(AlgorithmInfo(name="tmp-solver",
                                         solver=marker))
        assert "tmp-solver" in algorithm_names()
        unregister_algorithm("tmp-solver")
        assert "tmp-solver" not in algorithm_names()

    def test_requires_algorithm_info(self):
        with pytest.raises(TypeError):
            register_algorithm(lambda *a: None)

    def test_unknown_lookup_message(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            get_algorithm("magic")


class TestLegacyAlgorithmsView:
    def test_mapping_protocol(self):
        assert "dphyp" in ALGORITHMS
        assert set(algorithm_names()) == set(ALGORITHMS)
        assert len(ALGORITHMS) == len(algorithm_names())
        assert callable(ALGORITHMS["dphyp"])

    def test_view_is_live(self):
        marker = lambda *a: None  # noqa: E731
        register_algorithm(AlgorithmInfo(name="live-view-probe",
                                         solver=marker))
        try:
            assert ALGORITHMS["live-view-probe"] is marker
        finally:
            unregister_algorithm("live-view-probe")
        assert "live-view-probe" not in ALGORITHMS


class TestCapabilities:
    def test_dpccp_rejects_complex_edges_at_dispatch(self):
        graph = complex_graph()
        info = get_algorithm("dpccp")
        with pytest.raises(CapabilityError) as excinfo:
            check_capabilities(info, graph)
        # the friendly error names the offending edges
        assert "complex hyperedges" in str(excinfo.value)
        assert "{R0, R1}" in str(excinfo.value)

    def test_dpccp_accepts_simple_graphs(self):
        check_capabilities(get_algorithm("dpccp"), generators.chain(4).graph)

    def test_tree_capability_flag(self):
        info = AlgorithmInfo(name="x", solver=lambda *a: None,
                             supports_operator_trees=False)
        graph = generators.chain(3).graph
        check_capabilities(info, graph, from_tree=False)
        with pytest.raises(CapabilityError, match="operator-tree"):
            check_capabilities(info, graph, from_tree=True)


class TestAutoDispatch:
    def pick(self, graph):
        return select_auto(graph).name

    def test_small_simple_shapes_get_kernel(self):
        # dpccp stays registered as a baseline but is never auto-picked
        assert self.pick(generators.chain(5).graph) == "dphyp"
        assert self.pick(generators.star(6).graph) == "dphyp"
        assert self.pick(generators.cycle(8).graph) == "dphyp"
        assert get_algorithm("dpccp").auto_priority == 0

    def test_midsize_simple_gets_kernel(self):
        assert self.pick(generators.cycle(12).graph) == "dphyp"
        assert self.pick(generators.chain(14).graph) == "dphyp"

    def test_complex_edges_get_kernel(self):
        for n in (3, 5, 8, 10):
            graph = complex_graph(n)
            assert self.pick(graph) == "dphyp"

    def test_oversized_gets_greedy(self):
        assert self.pick(generators.chain(15).graph) == "greedy"
        assert self.pick(generators.chain(30).graph) == "greedy"
        assert self.pick(complex_graph(20)) == "greedy"

    def test_never_exact_above_threshold_nor_dpccp_on_complex(self):
        # acceptance criterion, sweep over shapes and sizes
        for n in range(3, 25):
            for graph in (generators.chain(n).graph, complex_graph(n)):
                info = select_auto(graph)
                if n > EXACT_MAX_RELATIONS:
                    assert not info.exact, (n, info.name)
                if not graph.is_simple:
                    assert info.name != "dpccp", n
                    assert info.supports_hypergraphs, n

    def test_cut_sits_at_the_constant(self):
        assert EXACT_MAX_RELATIONS == 14
        for graph in (generators.chain(14).graph, generators.cycle(14).graph,
                      complex_graph(14)):
            assert select_auto(graph).name == "dphyp"
            assert select_auto(graph, from_tree=True).name == "dphyp"
        for graph in (generators.chain(15).graph, generators.cycle(15).graph,
                      complex_graph(15)):
            assert select_auto(graph).name == "greedy"
            assert select_auto(graph, from_tree=True).name == "greedy"

    def test_registered_heuristic_can_win_the_fallback(self):
        register_algorithm(AlgorithmInfo(
            name="fancy-heuristic", solver=lambda *a: None,
            exact=False, auto_priority=5,
        ))
        try:
            assert self.pick(generators.chain(20).graph) == "fancy-heuristic"
        finally:
            unregister_algorithm("fancy-heuristic")
        assert self.pick(generators.chain(20).graph) == "greedy"
