"""A plan's cost is a pure function of (query, statistics, config).

Property-based (hypothesis): for generated queries — simple graphs and
hypergraphs, each with an isomorphic relabeling in the same batch — the
cost ``algorithm="auto"`` returns must be identical, bit for bit,
whichever way the plan was produced:

* serial, thread-pool and ``executor="process"`` ``optimize_many``;
* a cold cache and the warm cache that follows it;
* before and after a :class:`~repro.cache.store.PlanStore` restart;
* the plan-serving daemon (pipelined :meth:`~repro.serving.client.
  PlanClient.optimize_many`) and a two-shard
  :class:`~repro.serving.shard.ShardRouter` fleet.

The daemons live for the whole module, so later examples also run
against caches that earlier examples filled.

Only costs are compared: when the root cardinality absorbs the
intermediate costs, different join trees can tie bit for bit, and the
tree a cache hit serves is the one its first requester computed.
"""

import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.optimizer import Optimizer, OptimizerConfig, QuerySpec
from repro.serving import BackgroundServer, PlanClient, ShardRouter
from repro.workloads import generators
from repro.workloads.random_queries import (
    random_hypergraph_query,
    random_simple_query,
)
from repro.workloads.repeated import relabeled

COMMON = dict(
    deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=8
)

SHAPES = (generators.chain, generators.cycle, generators.star)


@st.composite
def queries(draw):
    n = draw(st.integers(min_value=3, max_value=9))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    kind = draw(st.sampled_from(("shape", "simple", "hyper")))
    if kind == "shape":
        return draw(st.sampled_from(SHAPES))(n, seed=seed)
    if kind == "simple":
        return random_simple_query(n, seed, extra_edge_probability=0.3)
    return random_hypergraph_query(
        n, seed, n_hyperedges=2, n_islands=2, flex_probability=0.3
    )


@st.composite
def batches(draw):
    """Two to three generated queries, each followed by a relabeling."""
    batch = []
    for query in draw(st.lists(queries(), min_size=2, max_size=3)):
        batch.append(query)
        batch.append(relabeled(query, seed=draw(st.integers(0, 99))))
    return batch


def costs(results):
    return [result.cost for result in results]


def specs(batch):
    return [
        QuerySpec.from_hypergraph(query.graph, query.cardinalities)
        for query in batch
    ]


def served_costs(answers):
    assert all(answer["ok"] and answer["plannable"] for answer in answers)
    return [answer["cost"] for answer in answers]


@pytest.fixture(scope="module")
def daemon():
    with BackgroundServer(OptimizerConfig(cache="on")) as server:
        yield server


@pytest.fixture(scope="module")
def fleet():
    with BackgroundServer(OptimizerConfig(cache="on")) as first, \
            BackgroundServer(OptimizerConfig(cache="on")) as second:
        yield [first.address, second.address]


@settings(**COMMON)
@given(batch=batches())
def test_cost_is_identical_across_executors_cache_and_restart(batch):
    serial = Optimizer(OptimizerConfig(cache="on"))
    expected = costs(serial.optimize_many(batch))
    # a relabeling costs what its original costs
    assert expected[0::2] == expected[1::2]

    warm = serial.optimize_many(batch)
    assert all(
        r.stats.extra["plan_cache"]["event"] == "hit" for r in warm
    )
    assert costs(warm) == expected

    thread = Optimizer(OptimizerConfig(cache="on"))
    assert costs(thread.optimize_many(batch, parallel=2)) == expected

    process = Optimizer(OptimizerConfig(cache="on"))
    assert costs(
        process.optimize_many(batch, executor="process", parallel=2)
    ) == expected

    uncached = Optimizer(OptimizerConfig(cache="off"))
    assert costs(uncached.optimize_many(batch)) == expected

    with tempfile.TemporaryDirectory() as directory:
        config = OptimizerConfig(
            cache="on", cache_path=os.path.join(directory, "plans.sqlite")
        )
        assert costs(Optimizer(config).optimize_many(batch)) == expected
        restarted = Optimizer(config)
        served = restarted.optimize_many(batch)
        assert all(
            r.stats.extra["plan_cache"]["event"] == "hit" for r in served
        )
        assert costs(served) == expected


@settings(**COMMON)
@given(batch=batches())
def test_cost_is_identical_through_the_daemon_and_shards(
    batch, daemon, fleet
):
    expected = costs(Optimizer(OptimizerConfig(cache="on")).optimize_many(
        batch
    ))
    wire = specs(batch)
    with PlanClient(daemon.address) as client:
        assert served_costs(client.optimize_many(wire)) == expected
        assert served_costs(client.optimize_many(wire)) == expected
    with ShardRouter(fleet) as router:
        assert served_costs(router.optimize_many(wire)) == expected
        assert served_costs(router.optimize_many(wire)) == expected
