"""Batch-pool equivalence, property-based (hypothesis).

``optimize_many(executor="process")`` ships one stateless task per
distinct missing cache key and absorbs the results in input order.
For generated batches holding exact repeats and isomorphic relabelings
of a few base queries, it must agree with the serial thread backend
on every plan and cost, on the per-query cache events, *and* on the
shared cache's hit/miss/store counters — also with ``cache_size=1``,
where entries are evicted inside the batch and a follower cannot lean
on the entry its leader stored.  The pool must see exactly one task
per distinct missing key.
"""

import concurrent.futures
from contextlib import contextmanager

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optimizer import Optimizer, OptimizerConfig
from repro.workloads import generators
from repro.workloads.repeated import relabeled

COMMON = dict(deadline=None, max_examples=20)

SHAPES = (generators.chain, generators.cycle, generators.star)
COUNTERS = ("hits", "misses", "stores", "evictions", "replay_failures")


@st.composite
def batches(draw, max_size=8):
    """A batch over 1-3 base queries: each item is a base, an exact
    repeat of one, or one of three isomorphic relabelings."""
    bases = [
        draw(st.sampled_from(SHAPES))(
            draw(st.integers(min_value=3, max_value=6)),
            seed=draw(st.integers(min_value=0, max_value=40)),
        )
        for _ in range(draw(st.integers(min_value=1, max_value=3)))
    ]
    picks = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=len(bases) - 1),
            st.integers(min_value=0, max_value=3),
        ),
        min_size=2,
        max_size=max_size,
    ))
    return [
        bases[base] if variant == 0
        else relabeled(bases[base], seed=variant)
        for base, variant in picks
    ]


@contextmanager
def counting_pool_tasks():
    """Record the task count of every ``ProcessPoolExecutor.map``."""
    shipped = []
    real_map = concurrent.futures.ProcessPoolExecutor.map

    def counting_map(self, fn, tasks, **kwargs):
        tasks = list(tasks)
        shipped.append(len(tasks))
        return real_map(self, fn, tasks, **kwargs)

    concurrent.futures.ProcessPoolExecutor.map = counting_map
    try:
        yield shipped
    finally:
        concurrent.futures.ProcessPoolExecutor.map = real_map


def counters(optimizer):
    snapshot = optimizer.plan_cache.counters()
    return {name: snapshot[name] for name in COUNTERS}


def events(results):
    return [r.stats.extra["plan_cache"]["event"] for r in results]


def assert_equivalent(thread_results, process_results):
    assert len(thread_results) == len(process_results)
    for a, b in zip(thread_results, process_results):
        assert a.algorithm == b.algorithm
        assert a.cost == b.cost
        assert a.explain() == b.explain()
    assert events(process_results) == events(thread_results)


def distinct_missing_keys(optimizer, batch):
    """Stores a default-capacity thread run makes for ``batch``: one
    per distinct key not already in the cache."""
    before = optimizer.plan_cache.stores
    optimizer.optimize_many(batch)
    return optimizer.plan_cache.stores - before


@settings(**COMMON)
@given(first=batches(), second=batches())
def test_process_pool_matches_thread_backend(first, second):
    """Default capacity, two batches: the second starts warm."""
    thread = Optimizer(OptimizerConfig(cache="on"))
    process = Optimizer(OptimizerConfig(cache="on"))
    reference = Optimizer(OptimizerConfig(cache="on"))
    for batch in (first, second):
        expected_tasks = distinct_missing_keys(reference, batch)
        thread_results = thread.optimize_many(batch, executor="thread")
        with counting_pool_tasks() as shipped:
            process_results = process.optimize_many(
                batch, executor="process", parallel=2
            )
        assert_equivalent(thread_results, process_results)
        assert counters(process) == counters(thread)
        assert sum(shipped) == expected_tasks


@settings(**COMMON)
@given(batch=batches())
def test_process_pool_matches_thread_backend_under_eviction(batch):
    """``cache_size=1``: every new key evicts the previous one, so a
    follower absorbed after another key's leader finds its leader's
    entry gone and must replay the canonical recipe on its own graph."""
    thread = Optimizer(OptimizerConfig(cache="on", cache_size=1))
    process = Optimizer(OptimizerConfig(cache="on", cache_size=1))
    expected_tasks = distinct_missing_keys(
        Optimizer(OptimizerConfig(cache="on")), batch
    )
    thread_results = thread.optimize_many(batch, executor="thread")
    with counting_pool_tasks() as shipped:
        process_results = process.optimize_many(
            batch, executor="process", parallel=2
        )
    assert_equivalent(thread_results, process_results)
    assert counters(process) == counters(thread)
    assert sum(shipped) == expected_tasks
