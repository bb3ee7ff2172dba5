"""Ablation: DPhyp design choices.

Four knobs measured here:

1. **Neighborhood subsumption minimization** (the ``E↓`` step of
   Sec. 2.3).  Correctness never depends on it — representatives still
   stand for full hypernodes and the DP-table check rejects invalid
   growth — so it is purely a work-saving device.  Measured effect on
   hyperedge-dense random graphs: a few percent fewer neighborhood
   computations / subset probes; the paper's workloads (one hyperedge
   family over a simple skeleton) barely exercise it.

2. **Cost model** — C_out vs. asymmetric hash-join costing: the same
   enumeration, different plan pricing; quantifies that enumeration,
   not costing, dominates optimization time.

3. **Neighborhood memoization** — the per-subgraph
   ``simple_neighborhood`` cache of
   :class:`repro.core.neighborhood.NeighborhoodIndex`; again purely
   work-saving, never correctness-bearing.

4. **Iterative vs. recursive traversal** — the explicit-stack hot path
   against the seed-faithful recursion preserved in
   :mod:`repro.core.dphyp_recursive`.
"""

import pytest

from repro.core.kernel import DPhyp
from repro.core.dphyp_recursive import DPhypRecursive
from repro.core.plans import JoinPlanBuilder
from repro.cost.models import CoutModel, HashJoinModel, MinOfModel
from repro.workloads import star
from repro.workloads.hyper import star_hypergraph
from repro.workloads.random_queries import random_hypergraph_query


def run_dphyp(graph, cardinalities, minimize, cost_model=None,
              memoize=True, solver_class=DPhyp):
    builder = JoinPlanBuilder(graph, cardinalities, cost_model=cost_model)
    solver = solver_class(
        graph,
        builder,
        minimize_neighborhoods=minimize,
        memoize_neighborhoods=memoize,
    )
    plan = solver.run()
    assert plan is not None
    return solver


@pytest.mark.parametrize("minimize", [True, False],
                         ids=["minimized", "unminimized"])
def test_subsumption_on_dense_hypergraph(benchmark, minimize):
    query = random_hypergraph_query(
        10, seed=3, n_hyperedges=8, max_hypernode=4, n_islands=3
    )
    solver = benchmark(
        run_dphyp, query.graph, query.cardinalities, minimize
    )
    assert solver.stats.ccp_emitted > 0


@pytest.mark.parametrize("minimize", [True, False],
                         ids=["minimized", "unminimized"])
def test_subsumption_on_star_hypergraph(benchmark, minimize):
    query = star_hypergraph(8, 1, seed=3)
    benchmark(run_dphyp, query.graph, query.cardinalities, minimize)


@pytest.mark.parametrize(
    "model",
    [CoutModel(), HashJoinModel(), MinOfModel()],
    ids=["cout", "hashjoin", "min-of"],
)
def test_cost_model_overhead(benchmark, model):
    query = star_hypergraph(8, 0, seed=3)
    benchmark(run_dphyp, query.graph, query.cardinalities, True, model)


@pytest.mark.parametrize("memoize", [True, False],
                         ids=["memoized", "unmemoized"])
def test_neighborhood_memoization(benchmark, memoize):
    """Knob 3: the per-subgraph simple_neighborhood cache."""
    query = star(9, seed=3)
    solver = benchmark(
        run_dphyp, query.graph, query.cardinalities, True, None, memoize
    )
    if memoize:
        assert solver.stats.neighborhood_cache_hits > 0
    else:
        assert solver.stats.neighborhood_cache_hits == 0


@pytest.mark.parametrize(
    "solver_class",
    [DPhyp, DPhypRecursive],
    ids=["iterative", "recursive"],
)
def test_traversal_strategy(benchmark, solver_class):
    """Knob 4: explicit-stack hot path vs. the seed recursion.

    Both run with memoization on; what differs is the seed's traversal
    and its full-edge-list connectivity scans (see
    :mod:`repro.core.dphyp_recursive` — the configuration that
    ``bench_regression.py`` tracks over time).
    """
    query = star(9, seed=3)
    solver = benchmark(
        run_dphyp, query.graph, query.cardinalities, True, None, True,
        solver_class,
    )
    assert solver.stats.ccp_emitted == 9 * 2 ** 8
