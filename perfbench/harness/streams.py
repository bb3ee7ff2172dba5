"""Seeded request streams for the four workloads.

Every stream is built from *decks*: a fixed multiset of query shapes
and sizes that the seed fills with statistics (cardinalities,
selectivities, hyperedge splits, relabelings) and shuffles.  Two seeds
therefore send different queries that cost the program the same work
per deck, which keeps throughput comparable across seeds, while one
seed always sends the identical stream.

Queries are built with ``repro.workloads``; the program receives only
the generated inputs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.hypergraph import Hypergraph
from repro.workloads import generators, hyper, repeated
from repro.workloads.generators import Query


def make_query(shape: str, size: int, rng: random.Random) -> Query:
    """One query of ``shape``/``size`` with statistics drawn from ``rng``."""
    seed = rng.getrandbits(48)
    if shape == "chain":
        return generators.chain(size, seed=seed)
    if shape == "cycle":
        return generators.cycle(size, seed=seed)
    if shape == "star":
        return generators.star(size, seed=seed)
    if shape == "clique":
        return generators.clique(size, seed=seed)
    # hypergraphs take the middle of their split schedule: the number
    # of splits changes the work by up to 5x, so it is part of the
    # shape, not of the statistics a seed draws
    if shape == "cycle-hyper":
        splits = hyper.max_splits(size // 2) // 2
        return hyper.cycle_hypergraph(size, splits, seed=seed)
    if shape == "star-hyper":
        splits = hyper.max_splits(size // 2) // 2
        return hyper.star_hypergraph(size, splits, seed=seed)
    raise ValueError(f"unknown shape {shape!r}")


def literal_copy(query: Query) -> Query:
    """The same query, labels and all, as a new object."""
    graph = query.graph
    return Query(
        graph=Hypergraph(
            n_nodes=graph.n_nodes,
            edges=list(graph.edges),
            node_names=(
                list(graph.node_names) if graph.node_names is not None
                else None
            ),
        ),
        cardinalities=list(query.cardinalities),
        description=query.description,
        meta=dict(query.meta),
    )


def relabeled_copy(query: Query, rng: random.Random) -> Query:
    """An isomorphic relabeling (same optimum, same cache entry)."""
    return repeated.relabeled(query, seed=rng.getrandbits(48))


def zipf_counts(n: int, total: int, exponent: float = 1.0) -> "list[int]":
    """Per-rank request counts of a Zipf law, at least one each."""
    weights = [1.0 / (rank + 1) ** exponent for rank in range(n)]
    scale = total / sum(weights)
    return [max(1, round(weight * scale)) for weight in weights]


@dataclass
class Request:
    """One request: the query plus the index of its oracle cost."""

    query: Query
    oracle: int
    #: literal repeat, relabeling, new query...
    kind: str = "new"


@dataclass
class Stream:
    """A workload's inputs: distinct queries (oracle) and the requests."""

    #: distinct queries; ``oracle_costs[i]`` is the optimum of ``uniques[i]``
    uniques: "list[Query]" = field(default_factory=list)
    #: the cache warm pass of the set-up (oracle-checked like requests)
    warm: "list[Request]" = field(default_factory=list)
    #: untimed warm-up requests sent before the measured phase
    warmup: "list[Request]" = field(default_factory=list)
    #: the measured stream; a workload loops over it
    requests: "list[Request]" = field(default_factory=list)
    #: requests per deck (the throughput block)
    deck: int = 1
    extra: "dict[str, Any]" = field(default_factory=dict)

    def add(self, query: Query) -> int:
        self.uniques.append(query)
        return len(self.uniques) - 1


# -- plan-cold ---------------------------------------------------------------

#: 35 shapes, 4-20 relations: auto routes to dpccp (simple, <= 10
#: relations), dphyp (hyperedges or 11-14 relations), greedy (> 14) and,
#: once a 15/16-relation structure is hot in the cache, dphyp-kernel.
#: An odd count puts the median request inside one shape's samples
#: (not on the boundary between two), and the heaviest shape (clique-8,
#: 1/35 of the requests) holds the p99.
COLD_DECK: "list[tuple[str, int]]" = (
    [("chain", n) for n in (4, 5, 6, 8, 10, 12, 14, 16, 18, 20)]
    + [("cycle", n) for n in (4, 6, 8, 10, 12, 14, 16, 18, 20)]
    + [("star", k) for k in (3, 5, 7, 9)]
    + [("clique", n) for n in (4, 5, 6, 7, 8)]
    + [("cycle-hyper", n) for n in (6, 8, 10, 12)]
    + [("star-hyper", k) for k in (4, 6, 8)]
)

#: decks in the cold stream: 700 distinct queries, so a query comes
#: back only after the 512-entry cache has evicted it
COLD_DECKS = 20


def plan_cold(seed: int) -> Stream:
    rng = random.Random(f"plan-cold/{seed}")
    stream = Stream(deck=len(COLD_DECK))
    for _ in range(COLD_DECKS):
        order = list(COLD_DECK)
        rng.shuffle(order)
        for shape, size in order:
            query = make_query(shape, size, rng)
            stream.requests.append(Request(query, stream.add(query)))
    order = list(COLD_DECK)
    rng.shuffle(order)
    for shape, size in order:
        query = make_query(shape, size, rng)
        stream.warmup.append(Request(query, stream.add(query)))
    return stream


# -- plan-hot ----------------------------------------------------------------

#: 48 base queries of 3-14 relations, 12 of them with <= 5, listed in
#: popularity order (rank 0 is the most requested)
HOT_BASES: "list[tuple[str, int]]" = [
    ("chain", 4), ("star", 5), ("cycle", 8), ("chain", 10),
    ("clique", 4), ("star", 3), ("cycle-hyper", 8), ("chain", 6),
    ("cycle", 12), ("star-hyper", 4), ("chain", 3), ("clique", 6),
    ("cycle", 5), ("chain", 12), ("star", 7), ("cycle", 6),
    ("chain", 8), ("cycle-hyper", 10), ("star", 2), ("cycle", 10),
    ("chain", 14), ("clique", 5), ("star", 8), ("cycle", 4),
    ("chain", 7), ("cycle-hyper", 6), ("cycle", 9), ("star", 6),
    ("chain", 11), ("clique", 3), ("cycle", 14), ("star-hyper", 6),
    ("chain", 5), ("cycle", 7), ("star", 4), ("chain", 9),
    ("cycle-hyper", 12), ("cycle", 11), ("clique", 7), ("chain", 13),
    ("star", 9), ("cycle", 3), ("cycle", 13), ("star-hyper", 8),
    ("chain", 3), ("cycle-hyper", 14), ("star", 10), ("clique", 5),
]

#: requests per hot deck before the at-least-one rounding
HOT_DECK_TARGET = 200
#: decks in the pre-built hot stream (looped)
HOT_DECKS = 16


def plan_hot(seed: int) -> Stream:
    rng = random.Random(f"plan-hot/{seed}")
    stream = Stream()
    bases = []
    for shape, size in HOT_BASES:
        query = make_query(shape, size, rng)
        index = stream.add(query)
        bases.append((query, index))
        stream.warm.append(Request(query, index, "warm"))
    counts = zipf_counts(len(bases), HOT_DECK_TARGET)
    stream.deck = sum(counts)

    def deck() -> "list[Request]":
        picks = [rank for rank, count in enumerate(counts)
                 for _ in range(count)]
        rng.shuffle(picks)
        out = []
        seen = [0] * len(bases)
        for rank in picks:
            query, index = bases[rank]
            # alternate per base: half literal repeats, half relabelings
            if seen[rank] % 2 == 0:
                out.append(Request(literal_copy(query), index, "literal"))
            else:
                out.append(
                    Request(relabeled_copy(query, rng), index, "relabeled")
                )
            seen[rank] += 1
        return out

    stream.warmup = deck()
    for _ in range(HOT_DECKS):
        stream.requests.extend(deck())
    return stream


# -- batch-process ------------------------------------------------------------

#: the 20 new queries of every batch (4-10 relations)
BATCH_NEW: "list[tuple[str, int]]" = (
    [("chain", n) for n in (4, 5, 6, 8, 10)]
    + [("cycle", n) for n in (4, 6, 7, 8, 10)]
    + [("star", k) for k in (3, 5, 7)]
    + [("clique", n) for n in (4, 5, 6)]
    + [("cycle-hyper", n) for n in (6, 8)]
    + [("star-hyper", k) for k in (4, 6)]
)
#: new queries per batch that get an isomorphic duplicate in the batch
BATCH_DUPLICATES = 4
#: earlier queries repeated per batch (a quarter of 32)
BATCH_REPEATS = 8
#: repeats are drawn from this many most recent distinct queries, all
#: still in the 512-entry cache
BATCH_REPEAT_WINDOW = 160
#: distinct queries of the set-up warm pass
BATCH_WARM = 256
#: batches in the pre-built stream (looped)
BATCH_COUNT = 160


def batch_process(seed: int) -> Stream:
    rng = random.Random(f"batch-process/{seed}")
    stream = Stream(deck=len(BATCH_NEW) + BATCH_DUPLICATES + BATCH_REPEATS)
    recent: "list[int]" = []
    for i in range(BATCH_WARM):
        shape, size = BATCH_NEW[i % len(BATCH_NEW)]
        query = make_query(shape, size, rng)
        index = stream.add(query)
        stream.warm.append(Request(query, index, "warm"))
        recent.append(index)

    def batch() -> "list[Request]":
        fresh = []
        for shape, size in BATCH_NEW:
            query = make_query(shape, size, rng)
            fresh.append(Request(query, stream.add(query), "new"))
        duplicates = [
            Request(relabeled_copy(req.query, rng), req.oracle, "duplicate")
            for req in rng.sample(fresh, BATCH_DUPLICATES)
        ]
        repeats = []
        for index in rng.sample(recent[-BATCH_REPEAT_WINDOW:], BATCH_REPEATS):
            query = stream.uniques[index]
            copy = (
                literal_copy(query) if rng.random() < 0.5
                else relabeled_copy(query, rng)
            )
            repeats.append(Request(copy, index, "repeat"))
        recent.extend(req.oracle for req in fresh)
        requests = fresh + duplicates + repeats
        rng.shuffle(requests)
        return requests

    stream.extra["warmup_batches"] = [batch() for _ in range(2)]
    stream.warmup = [r for b in stream.extra["warmup_batches"] for r in b]
    stream.extra["batches"] = [batch() for _ in range(BATCH_COUNT)]
    stream.requests = [r for b in stream.extra["batches"] for r in b]
    return stream


# -- serve-mixed ---------------------------------------------------------------

#: small queries filling the prepared store (3-7 relations)
STORE_SHAPES: "list[tuple[str, int]]" = (
    [("chain", n) for n in (3, 4, 5, 6, 7)]
    + [("cycle", n) for n in (3, 4, 5, 6)]
    + [("star", k) for k in (2, 3, 4, 5)]
)
#: store rows ("a few thousand", more than the 512-entry cache holds)
STORE_ROWS = 3000
#: the Zipf hot set; stored last, so the daemon's warm load keeps it
HOT_SET: "list[tuple[str, int]]" = [
    ("chain", 6), ("star", 4), ("cycle", 8), ("chain", 10), ("clique", 5),
    ("cycle-hyper", 8), ("chain", 4), ("cycle", 6), ("star", 6),
    ("chain", 8), ("cycle", 10), ("star-hyper", 4), ("clique", 4),
    ("chain", 12), ("cycle", 5), ("star", 3),
] * 4
#: interactive deck: hot hits, unique misses, then one ``save``
INTERACTIVE_HITS = 225
INTERACTIVE_MISSES: "list[tuple[str, int]]" = (
    [("chain", n) for n in (5, 6, 7, 8, 9)] * 2
    + [("cycle", n) for n in (5, 6, 7, 8, 9)] * 2
    + [("star", k) for k in (4, 5, 6)]
    + [("clique", 5), ("cycle-hyper", 6)]
)
INTERACTIVE_DECKS = 24
#: pipelined window: one new query, sent twice (literal and
#: relabeled, adjacent, so both are in flight at once), plus hot hits;
#: the new queries take their shapes in turn from this list.  One per
#: window keeps the single pool worker from queueing, so interactive
#: misses wait mostly for their own enumeration
WINDOW_NEW: "list[tuple[str, int]]" = [
    ("chain", 7), ("cycle", 7), ("star", 5), ("cycle-hyper", 6)
]
WINDOW_NEW_PER = 1
WINDOW_HITS = 14
WINDOWS = 600
PIPELINE_DEPTH = 8


def serve_mixed(seed: int) -> Stream:
    rng = random.Random(f"serve-mixed/{seed}")
    stream = Stream()
    store_rows = [
        make_query(*STORE_SHAPES[i % len(STORE_SHAPES)], rng)
        for i in range(STORE_ROWS - len(HOT_SET))
    ]
    hot = []
    for shape, size in HOT_SET:
        query = make_query(shape, size, rng)
        hot.append((query, stream.add(query)))
    stream.extra["store_rows"] = store_rows + [query for query, _ in hot]
    counts = zipf_counts(len(hot), INTERACTIVE_HITS)

    def hot_request(rank: int) -> Request:
        query, index = hot[rank]
        if rng.random() < 0.5:
            return Request(literal_copy(query), index, "hot")
        return Request(relabeled_copy(query, rng), index, "hot")

    def interactive_deck() -> "list[Request]":
        ranks = rng.choices(range(len(hot)), weights=counts,
                            k=INTERACTIVE_HITS)
        out = [hot_request(rank) for rank in ranks]
        for shape, size in INTERACTIVE_MISSES:
            query = make_query(shape, size, rng)
            out.append(Request(query, stream.add(query), "miss"))
        rng.shuffle(out)
        return out

    turn = itertools.count()

    def window() -> "list[Request]":
        out = []
        for _ in range(WINDOW_NEW_PER):
            shape, size = WINDOW_NEW[next(turn) % len(WINDOW_NEW)]
            query = make_query(shape, size, rng)
            index = stream.add(query)
            out.append(Request(query, index, "new"))
            out.append(
                Request(relabeled_copy(query, rng), index, "duplicate")
            )
        hits = [hot_request(rank) for rank in rng.choices(
            range(len(hot)), weights=counts, k=WINDOW_HITS)]
        # keep each duplicate pair adjacent: shuffle pairs and hits
        units = [out[i:i + 2] for i in range(0, len(out), 2)]
        units += [[hit] for hit in hits]
        rng.shuffle(units)
        return [req for unit in units for req in unit]

    probe_rng = random.Random(f"serve-mixed/{seed}/probes")
    probes = []
    for _ in range(8):
        query = make_query("cycle", 7, probe_rng)
        probes.append(Request(query, stream.add(query), "probe"))
    stream.extra["probes"] = probes
    stream.extra["warmup_windows"] = [window() for _ in range(2)]
    stream.warmup = interactive_deck()
    stream.deck = INTERACTIVE_HITS + len(INTERACTIVE_MISSES)
    stream.requests = [
        req for _ in range(INTERACTIVE_DECKS) for req in interactive_deck()
    ]
    stream.extra["windows"] = [window() for _ in range(WINDOWS)]
    return stream


BUILDERS: "dict[str, Callable[[int], Stream]]" = {
    "plan-cold": plan_cold,
    "plan-hot": plan_hot,
    "serve-mixed": serve_mixed,
    "batch-process": batch_process,
}


def build(workload: str, seed: int) -> Stream:
    return BUILDERS[workload](seed)


def fingerprint(stream: Stream) -> str:
    """Digest of everything a stream sends (for the self-tests)."""
    import hashlib

    digest = hashlib.sha256()

    def feed(query: Query, *tags: Any) -> None:
        graph = query.graph
        digest.update(repr((
            graph.n_nodes,
            [(e.left, e.right, e.flex, e.selectivity) for e in graph.edges],
            graph.node_names,
            query.cardinalities,
            tags,
        )).encode())

    for request in stream.warm + stream.warmup + stream.requests:
        feed(request.query, request.oracle, request.kind)
    for key in sorted(stream.extra):
        for item in stream.extra[key]:
            for member in item if isinstance(item, list) else [item]:
                if isinstance(member, Request):
                    feed(member.query, key, member.oracle, member.kind)
                else:
                    feed(member, key)
    return digest.hexdigest()
