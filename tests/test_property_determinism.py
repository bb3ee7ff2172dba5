"""A plan is a pure function of (query, statistics, config).

Property-based (hypothesis): for generated queries — simple graphs and
hypergraphs, each with an isomorphic relabeling in the same batch — the
plan ``algorithm="auto"`` returns must not depend on how it was
produced.  With a plan cache attached, every miss enumerates the
query's canonical problem and is served by replaying the canonical
recipe, exactly like a hit, so the oriented join tree (leaves named by
relation) and its cost are identical, bit for bit, across:

* serial, thread-pool and ``executor="process"`` ``optimize_many``;
* a cold cache (each query alone in a fresh optimizer), the warm cache
  that follows a batch, and the batch in reverse order, where the other
  labeling creates each entry;
* before and after a :class:`~repro.cache.store.PlanStore` restart.

The plan-serving daemon (pipelined :meth:`~repro.serving.client.
PlanClient.optimize_many`) and a two-shard
:class:`~repro.serving.shard.ShardRouter` fleet answer with a cost but
no tree, so there the wire costs are compared, and so is the canonical
recipe each daemon stored against the one an in-process optimizer
stores for the same key.  The daemons live for the whole module, so
later examples also run against caches that earlier examples filled.
Besides the drawn batches (3–9 relations, all exact), an explicit
chain-16 / cycle-18 batch covers the greedy route above the cut.

``cache="off"`` is compared on cost only: an uncached run enumerates
the caller's own labeling, and where equal-cost trees tie, the one the
enumerator keeps follows that labeling's node numbering.
"""

import os
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings
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


def trees(results):
    """Oriented join trees, leaves named by relation."""
    return [result.plan.render(result.relation_names) for result in results]


def plans(results):
    return costs(results), trees(results)


def canonical_recipes(batch):
    """Cache key -> recipe, each query computed alone on a cold cache."""
    recipes = {}
    for query in batch:
        optimizer = Optimizer(OptimizerConfig(cache="on"))
        optimizer.optimize_many([query])
        ((key, entry),) = optimizer.plan_cache.snapshot_entries()
        # whichever labeling computes it, a key stores one recipe
        assert recipes.setdefault(key, entry.recipe) == entry.recipe
    return recipes


def stored_recipes(servers, keys):
    """The recipes ``servers`` cached for ``keys``; each key must be
    stored on exactly one of them (its structure's home shard)."""
    recipes = {}
    for server in servers:
        for key, entry in server.server.cache.snapshot_entries():
            if key in keys:
                assert key not in recipes, "key stored on two shards"
                recipes[key] = entry.recipe
    return recipes


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
        yield [first, second]


#: above ``registry.EXACT_MAX_RELATIONS``, so ``auto`` routes to greedy
CHAIN_16 = generators.chain(16, seed=3)
CYCLE_18 = generators.cycle(18, seed=4)
GREEDY_BATCH = [
    CHAIN_16,
    relabeled(CHAIN_16, seed=1),
    CYCLE_18,
    relabeled(CYCLE_18, seed=2),
]


@settings(**COMMON)
@given(batch=batches())
@example(batch=GREEDY_BATCH)
def test_plan_is_identical_across_executors_cache_and_restart(batch):
    serial = Optimizer(OptimizerConfig(cache="on"))
    expected = plans(serial.optimize_many(batch))
    # a relabeling costs what its original costs
    assert expected[0][0::2] == expected[0][1::2]

    warm = serial.optimize_many(batch)
    assert all(
        r.stats.extra["plan_cache"]["event"] == "hit" for r in warm
    )
    assert plans(warm) == expected

    cold = [
        Optimizer(OptimizerConfig(cache="on")).optimize_many([query])[0]
        for query in batch
    ]
    assert plans(cold) == expected

    reverse = Optimizer(OptimizerConfig(cache="on"))
    assert plans(reverse.optimize_many(batch[::-1])[::-1]) == expected

    thread = Optimizer(OptimizerConfig(cache="on"))
    assert plans(thread.optimize_many(batch, parallel=2)) == expected

    process = Optimizer(OptimizerConfig(cache="on"))
    assert plans(
        process.optimize_many(batch, executor="process", parallel=2)
    ) == expected

    uncached = Optimizer(OptimizerConfig(cache="off"))
    assert costs(uncached.optimize_many(batch)) == expected[0]

    with tempfile.TemporaryDirectory() as directory:
        config = OptimizerConfig(
            cache="on", cache_path=os.path.join(directory, "plans.sqlite")
        )
        assert plans(Optimizer(config).optimize_many(batch)) == expected
        restarted = Optimizer(config)
        served = restarted.optimize_many(batch)
        assert all(
            r.stats.extra["plan_cache"]["event"] == "hit" for r in served
        )
        assert plans(served) == expected


STAR_8 = generators.star(8, seed=5)


@settings(**COMMON)
@given(batch=batches())
@example(batch=[STAR_8] + [relabeled(STAR_8, seed=s) for s in range(1, 6)])
@example(batch=GREEDY_BATCH)
def test_plan_is_identical_through_the_daemon_and_shards(
    batch, daemon, fleet
):
    expected = costs(Optimizer(OptimizerConfig(cache="on")).optimize_many(
        batch
    ))
    recipes = canonical_recipes(batch)
    wire = specs(batch)
    with PlanClient(daemon.address) as client:
        assert served_costs(client.optimize_many(wire)) == expected
        assert served_costs(client.optimize_many(wire)) == expected
    assert stored_recipes([daemon], recipes) == recipes
    with ShardRouter([shard.address for shard in fleet]) as router:
        assert served_costs(router.optimize_many(wire)) == expected
        assert served_costs(router.optimize_many(wire)) == expected
    assert stored_recipes(fleet, recipes) == recipes
