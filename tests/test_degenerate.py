"""Degenerate-input audit: every solver on a zero-relation hypergraph.

:class:`~repro.core.hypergraph.Hypergraph` refuses to *construct* a
zero-node graph, but solvers are written against the narrower duck
interface (``n_nodes``, ``all_nodes``, edge queries) and can meet the
degenerate shape through wrappers or future graph sources.  The
contract audited here: every solver returns ``None`` ("no plan") —
``solve_greedy`` used to crash with ``IndexError`` on the empty
fragment list instead.
"""

import pytest

from repro.core.dpccp import solve_dpccp
from repro.core.kernel import solve_dphyp
from repro.core.dphyp_recursive import solve_dphyp_recursive
from repro.core.dpsize import solve_dpsize
from repro.core.dpsub import solve_dpsub
from repro.core.greedy import solve_greedy
from repro.core.hypergraph import Hypergraph
from repro.core.plans import JoinPlanBuilder
from repro.core.stats import SearchStats
from repro.core.topdown import solve_topdown

ALL_SOLVERS = {
    "dphyp": solve_dphyp,
    "dphyp-recursive": solve_dphyp_recursive,
    "dpccp": solve_dpccp,
    "dpsize": solve_dpsize,
    "dpsub": solve_dpsub,
    "topdown": solve_topdown,
    "greedy": solve_greedy,
}


def zero_relation_graph() -> Hypergraph:
    """A zero-node hypergraph, bypassing the constructor guard.

    The public constructor rejects ``n_nodes=0`` by design; shrinking a
    valid instance reproduces what a buggy caller or wrapper could hand
    a solver.
    """
    graph = Hypergraph(n_nodes=1)
    graph.n_nodes = 0
    assert graph.all_nodes == 0
    return graph


class TestZeroRelationInput:
    @pytest.mark.parametrize("name", sorted(ALL_SOLVERS))
    def test_returns_none_instead_of_crashing(self, name):
        graph = zero_relation_graph()
        stats = SearchStats()
        builder = JoinPlanBuilder(graph, [], stats=stats)
        plan = ALL_SOLVERS[name](graph, builder, stats)
        assert plan is None
        assert stats.ccp_emitted == 0

    def test_greedy_regression_empty_fragments(self):
        """The original bug: ``fragments[0]`` on an empty list."""
        graph = zero_relation_graph()
        assert solve_greedy(graph, JoinPlanBuilder(graph, [])) is None

    def test_constructor_still_rejects_zero_nodes(self):
        """The guard itself stays: only duck-typed inputs get this far."""
        with pytest.raises(ValueError):
            Hypergraph(n_nodes=0)
