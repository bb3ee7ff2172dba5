"""Golden values for :func:`repro.cache.keys.build_cache_key`.

Persisted plan-store entries are addressed by the canonical digest,
and their recipes are stored in canonical space through the
permutation.  Any change to the canonical-labeling code that moves a
digest or a permutation must therefore bump ``KEY_VERSION``; these
pinned values are the proof that a refactor did not.  The expected
values are recorded once per key version and must never be
regenerated to make a change pass — a mismatch means the key layout
changed.

The graphs are built by hand (no generators, no randomness) and cover
distinct cardinalities, tied cardinalities that force
individualization, complex hyperedges, flex nodes and the
budget-fallback clique.

Key version 4 changed only how the digest is built from the labeling
(packed bytes instead of a ``repr``'d tuple).  The version-3 encoder
is kept below as a reference: it must still reproduce the version-3
table byte for byte, the version-4 keys must carry the version-3
permutations and ``canonical`` flags, and on a seeded corpus two
queries share a version-4 key exactly when they shared a version-3
key.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Optional, Sequence

import pytest

from repro.cache.keys import KEY_VERSION, build_cache_key
from repro.core import bitset
from repro.core.canonical import (
    DEFAULT_BUDGET,
    CanonicalForm,
    _BudgetExceeded,
    _refine,
)
from repro.core.hypergraph import Hyperedge, Hypergraph
from repro.workloads import generators, hyper
from repro.workloads.generators import Query
from repro.workloads.repeated import relabeled

#: fixed stand-in for ``OptimizerConfig.cache_key()``; the golden values
#: pin the canonical part of the key, not the registration fingerprint
CONFIG_KEY = ("golden", 1)


def _simple(n, pairs, sels):
    graph = Hypergraph(n_nodes=n)
    for (a, b), sel in zip(pairs, sels):
        graph.add_simple_edge(a, b, selectivity=sel)
    return graph


def chain_distinct():
    graph = _simple(
        6, [(i, i + 1) for i in range(5)], [0.1, 0.05, 0.2, 0.01, 0.3]
    )
    return graph, [10.0, 200.0, 35.0, 4000.0, 5.0, 77.0]


def chain12_distinct():
    graph = _simple(
        12, [(i, i + 1) for i in range(11)],
        [0.5 / (i + 2) for i in range(11)],
    )
    return graph, [float(13 * i * i + 7) for i in range(12)]


def cycle_distinct():
    graph = _simple(
        7, [(i, (i + 1) % 7) for i in range(7)],
        [0.02, 0.3, 0.15, 0.07, 0.5, 0.011, 0.09],
    )
    return graph, [100.0, 20.0, 3000.0, 45.0, 600.0, 7.0, 81.0]


def star_distinct():
    graph = _simple(
        6, [(0, i) for i in range(1, 6)], [0.1, 0.2, 0.3, 0.4, 0.5]
    )
    return graph, [100000.0, 10.0, 20.0, 30.0, 40.0, 50.0]


def chain_uniform():
    graph = _simple(7, [(i, i + 1) for i in range(6)], [0.1] * 6)
    return graph, [100.0] * 7


def cycle_uniform():
    graph = _simple(8, [(i, (i + 1) % 8) for i in range(8)], [0.1] * 8)
    return graph, [100.0] * 8


def star_uniform():
    graph = _simple(6, [(0, i) for i in range(1, 6)], [0.25] * 5)
    return graph, [1000.0] + [50.0] * 5


def partial_ties():
    graph = _simple(
        7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0), (1, 4)],
        [0.1, 0.1, 0.2, 0.2, 0.1, 0.1, 0.3, 0.05],
    )
    return graph, [10.0, 20.0, 10.0, 20.0, 10.0, 20.0, 30.0]


def complex_hyperedge():
    graph = _simple(
        6, [(0, 1), (1, 2), (3, 4), (4, 5)], [0.1, 0.2, 0.3, 0.4]
    )
    graph.add_edge(Hyperedge(
        left=bitset.set_of(0, 1, 2), right=bitset.set_of(3, 4, 5),
        selectivity=0.05,
    ))
    return graph, [10.0, 20.0, 30.0, 40.0, 50.0, 60.0]


def complex_hyperedge_tied():
    graph = _simple(6, [(0, 1), (1, 2), (3, 4), (4, 5)], [0.1] * 4)
    graph.add_edge(Hyperedge(
        left=bitset.set_of(0, 2), right=bitset.set_of(3, 5),
        selectivity=0.01,
    ))
    return graph, [50.0] * 6


def flex_hyperedge():
    graph = _simple(5, [(0, 1), (2, 3), (3, 4)], [0.5, 0.25, 0.125])
    graph.add_edge(Hyperedge(
        left=bitset.set_of(1), right=bitset.set_of(2),
        flex=bitset.set_of(4), selectivity=0.2,
    ))
    return graph, [11.0, 22.0, 33.0, 44.0, 55.0]


def flex_hyperedge_tied():
    graph = _simple(6, [(0, 1), (1, 2), (3, 4), (4, 5)], [0.3] * 4)
    graph.add_edge(Hyperedge(
        left=bitset.set_of(0), right=bitset.set_of(3),
        flex=bitset.set_of(1, 4), selectivity=0.3,
    ))
    graph.add_edge(Hyperedge(
        left=bitset.set_of(2), right=bitset.set_of(5),
        flex=bitset.set_of(1, 4), selectivity=0.3,
    ))
    return graph, [8.0] * 6


def clique_budget_fallback():
    pairs = [(a, b) for a in range(8) for b in range(a + 1, 8)]
    graph = _simple(8, pairs, [0.5] * len(pairs))
    return graph, [100.0] * 8


def two_nodes():
    return _simple(2, [(0, 1)], [0.01]), [1000.0, 10.0]


CASES = {
    builder.__name__: builder
    for builder in (
        chain_distinct, chain12_distinct, cycle_distinct, star_distinct,
        chain_uniform, cycle_uniform, star_uniform, partial_ties,
        complex_hyperedge, complex_hyperedge_tied, flex_hyperedge,
        flex_hyperedge_tied, clique_budget_fallback, two_nodes,
    )
}

#: name -> (digest, permutation, canonical) under key version 3
GOLDEN_V3 = {
    "chain12_distinct": (
        "07d216b13a237a0160a6a02ef308109c73661d7649920fac547e258f2f9a13c5",
        (10, 4, 8, 1, 5, 6, 7, 9, 11, 0, 2, 3),
        True,
    ),
    "chain_distinct": (
        "97f5d7c02e427885461c5fd889e67dd314df22e8d8ba92efcb48f6317a043ca2",
        (0, 1, 2, 3, 4, 5),
        True,
    ),
    "chain_uniform": (
        "57f30c6a8f665bebb9b03910e3f42d6a21b3144308a1fe04a507e089dd618336",
        (0, 2, 4, 6, 5, 3, 1),
        True,
    ),
    "clique_budget_fallback": (
        "7dedd1b89bcf3494487d7bbebf445df68f5d6705fe083ae499a9d2da42a9ce3f",
        (0, 1, 2, 3, 4, 5, 6, 7),
        False,
    ),
    "complex_hyperedge": (
        "b30e822f45f819a6b4f6f90b29c5094d8eda7815cd38ea3be1797cd6e2d86c17",
        (0, 1, 2, 3, 4, 5),
        True,
    ),
    "complex_hyperedge_tied": (
        "afb3985d0f7357bd2bdeba1774c8e63c40cd44f2e9cb7edd009321ec0e841d81",
        (0, 4, 1, 2, 5, 3),
        True,
    ),
    "cycle_distinct": (
        "3d8436851850fcd3505dc743b3475304e6e69afd32e1b62078224f9ef819aea6",
        (0, 1, 2, 3, 4, 5, 6),
        True,
    ),
    "cycle_uniform": (
        "160823a28bf102d5831bcaec9c3752eaf4ff26b7b5af05331ffe264046f1b066",
        (0, 1, 3, 5, 7, 6, 4, 2),
        True,
    ),
    "flex_hyperedge": (
        "b52b13ca14eb80fa97ba27a1fe9b2649280be1485c9a5fc617b00c43dd3633e6",
        (0, 1, 2, 3, 4),
        True,
    ),
    "flex_hyperedge_tied": (
        "01fb775426bea7834dbe535a8b2c64663328c266941f6d04ff92b420e7f6477e",
        (2, 0, 3, 4, 1, 5),
        True,
    ),
    "partial_ties": (
        "ebe2c40c48aa0cb2da1548df1df44cefd7b5441b6cf3477d6d2975150cfdc70d",
        (2, 3, 1, 5, 0, 4, 6),
        True,
    ),
    "star_distinct": (
        "32225850128fca0b53110d8b46dc1a96d82c72c80b672f62c8d6f2f3be105e09",
        (1, 0, 2, 3, 4, 5),
        True,
    ),
    "star_uniform": (
        "754350a7f0f95db5b58952b4d9f6ca353fc5cd7faa27e65aedd1599b5e48f73d",
        (0, 1, 2, 3, 4, 5),
        True,
    ),
    "two_nodes": (
        "576ec374c092025f25135f1096a40f40188b35eeea2854ab972d56dfce5832d6",
        (1, 0),
        True,
    ),
}


#: name -> digest under key version 4; each case's permutation and
#: ``canonical`` flag are version 3's (``GOLDEN_V3``)
GOLDEN_V4 = {
    "chain12_distinct": (
        "75727a7ad2e82d8787ead8f7390cec6a67b6282251c7501fccb5ba02e7ea3493"
    ),
    "chain_distinct": (
        "fa78e94d4002a07a2bcd78a622ee95485e5fb3ee1fab493d2329b458636a89c1"
    ),
    "chain_uniform": (
        "253b9307d8aa00d92e4ef186996f8ccebee12dd42a177602aa32a21c3afcf276"
    ),
    "clique_budget_fallback": (
        "8b513558621aaabd400fcf2bbc9b6578c47f779cfd560585a4f3bc8790410c1b"
    ),
    "complex_hyperedge": (
        "aa9ea8a9ca8b6dd9d86431fa110486fd7bb8c67de3b47110c781f09b672cc30f"
    ),
    "complex_hyperedge_tied": (
        "3f740117b70564b02a9fd0f5c7bb06641bbd1e35da60156f0e87b50c814b20c2"
    ),
    "cycle_distinct": (
        "6b0ff52e109e0dd2cfbbb92c9db2be1c12fe1d4a4422466900f75b2c68e645c2"
    ),
    "cycle_uniform": (
        "a7e1e2af55b1c665f1806ff1335dc6d2a0f8f32327934fa34ef19f83f44abb5b"
    ),
    "flex_hyperedge": (
        "bd28b5c7d1e9fa197d75f76f71c6c4870fea30aa200ccee859c3e19e3c21554f"
    ),
    "flex_hyperedge_tied": (
        "0177551e152d3f84253131295134e5676f5ab6c6e2eee1759f9069f6fbb038c2"
    ),
    "partial_ties": (
        "ea4b47586521915dfd1802c9e1fc7533c2fb14a6fd6f037bd7ab38127bb38027"
    ),
    "star_distinct": (
        "89fc7d507e28a0591bf7b60b2a7f8ef3982803d1e4760f8e7464808f429be136"
    ),
    "star_uniform": (
        "ea70701c19466b1c58bd96cee48212dbbda5efb85b4aede32c26f0f1f59f1f88"
    ),
    "two_nodes": (
        "6ec8c24fb865398cd367fa3143eb9aa1404dc62ed73cb9bb5c7c7d38e2ff8513"
    ),
}


# -- the version-3 encoder, kept as a reference -------------------------------


def _v3_token_ranks(tokens: Sequence[Any]) -> tuple[list[int], tuple]:
    if set(map(type, tokens)) <= {float}:
        reprs = list(map(repr, tokens))
        distinct = sorted(set(reprs))
        rank_of_repr = {text: rank for rank, text in enumerate(distinct)}
        table = tuple([("float", text) for text in distinct])
        return [rank_of_repr[text] for text in reprs], table
    keys = [(type(t).__name__, repr(t)) for t in tokens]
    table = tuple(sorted(set(keys)))
    rank_of = {key: rank for rank, key in enumerate(table)}
    return [rank_of[key] for key in keys], table


def _v3_encode(n, perm, node_ranks, edges, edge_ranks) -> tuple:
    def mapped(s):
        return tuple(sorted(perm[u] for u in bitset.iter_nodes(s)))

    inverse = [0] * n
    for node, rank in enumerate(perm):
        inverse[rank] = node
    node_part = tuple(node_ranks[inverse[rank]] for rank in range(n))
    parts: list[tuple] = []
    for position, (left, right, flex) in enumerate(edges):
        if not flex and left & (left - 1) == 0 and right & (right - 1) == 0:
            a = perm[left.bit_length() - 1]
            b = perm[right.bit_length() - 1]
            sides = ((a,), (b,)) if a < b else ((b,), (a,))
            parts.append((sides, (), edge_ranks[position]))
        else:
            parts.append((
                tuple(sorted((mapped(left), mapped(right)))),
                mapped(flex),
                edge_ranks[position],
            ))
    return (n, node_part, tuple(sorted(parts)))


def _v3_search(n, colors, edges, edge_ranks, node_ranks, budget):
    colors = _refine(n, colors, edges, edge_ranks)
    classes: dict[int, list[int]] = {}
    for v, color in enumerate(colors):
        classes.setdefault(color, []).append(v)
    ambiguous = [members for members in classes.values() if len(members) > 1]
    if not ambiguous:
        perm = tuple(colors)
        return _v3_encode(n, perm, node_ranks, edges, edge_ranks), perm
    target = min(ambiguous, key=lambda members: colors[members[0]])
    best: Optional[tuple[tuple, tuple[int, ...]]] = None
    for v in target:
        budget[0] -= 1
        if budget[0] < 0:
            raise _BudgetExceeded
        child = [(color, 1) for color in colors]
        child[v] = (colors[v], 0)
        order = {pair: rank for rank, pair in enumerate(sorted(set(child)))}
        candidate = _v3_search(
            n, [order[pair] for pair in child],
            edges, edge_ranks, node_ranks, budget,
        )
        if best is None or candidate[0] < best[0]:
            best = candidate
    assert best is not None
    return best


def _v3_canonical_form(n_nodes, edges, node_tokens, edge_tokens):
    node_ranks, node_table = _v3_token_ranks(node_tokens)
    edge_ranks, edge_table = _v3_token_ranks(edge_tokens)
    try:
        encoding, perm = _v3_search(
            n_nodes, list(node_ranks), edges, edge_ranks, node_ranks,
            [DEFAULT_BUDGET],
        )
        canonical = True
    except _BudgetExceeded:
        perm = tuple(range(n_nodes))
        encoding = _v3_encode(n_nodes, perm, node_ranks, edges, edge_ranks)
        canonical = False
    payload = repr((canonical, node_table, edge_table, encoding))
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return CanonicalForm(
        digest=digest, permutation=tuple(perm), canonical=canonical
    )


def v3_form(graph: Hypergraph, cards: Sequence[float]) -> CanonicalForm:
    """What ``build_cache_key`` fingerprinted under key version 3."""
    return _v3_canonical_form(
        graph.n_nodes,
        [(edge.left, edge.right, edge.flex) for edge in graph.edges],
        [float(card) for card in cards],
        [float(edge.selectivity) for edge in graph.edges],
    )


# -- golden keys --------------------------------------------------------------


def test_key_version_unchanged():
    # 2: recipes carry per-join floats; 3: recipes are enumerated on
    # the canonical problem (digests and permutations unchanged by
    # both); 4: the digest hashes packed bytes instead of a repr'd
    # tuple, so every digest moved but the labeling did not
    assert KEY_VERSION == 4


def test_every_case_is_pinned():
    assert set(GOLDEN_V3) == set(CASES)
    assert set(GOLDEN_V4) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_v3_reference_reproduces_v3_golden(name):
    graph, cards = CASES[name]()
    form = v3_form(graph, cards)
    assert (form.digest, form.permutation, form.canonical) == GOLDEN_V3[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_key(name):
    graph, cards = CASES[name]()
    info = build_cache_key(graph, cards, CONFIG_KEY)
    _v3_digest, permutation, canonical = GOLDEN_V3[name]
    assert info.key == (KEY_VERSION, GOLDEN_V4[name], CONFIG_KEY)
    assert info.permutation == permutation
    assert info.canonical is canonical


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_key_ignores_edge_order_and_sides(name):
    graph, cards = CASES[name]()
    flipped = Hypergraph(n_nodes=graph.n_nodes, edges=[
        Hyperedge(left=e.right, right=e.left, flex=e.flex,
                  selectivity=e.selectivity)
        for e in reversed(graph.edges)
    ])
    info = build_cache_key(flipped, cards, CONFIG_KEY)
    assert info.key[1] == GOLDEN_V4[name]


def test_relabeling_shares_the_key():
    graph, cards = chain_distinct()
    first = build_cache_key(graph, cards, CONFIG_KEY)
    order = [3, 5, 0, 4, 1, 2]  # new index of each old node
    relabeled_graph = Hypergraph(n_nodes=graph.n_nodes, edges=[
        Hyperedge(left=1 << order[e.left.bit_length() - 1],
                  right=1 << order[e.right.bit_length() - 1],
                  selectivity=e.selectivity)
        for e in graph.edges
    ])
    moved = [0.0] * len(cards)
    for old, new in enumerate(order):
        moved[new] = cards[old]
    second = build_cache_key(relabeled_graph, moved, CONFIG_KEY)
    assert second.key == first.key
    assert second.permutation != first.permutation


def test_signed_zero_is_not_conflated():
    # 0.0 == -0.0, but their repr tokens differ, and so do the keys
    graph, _cards = two_nodes()
    plus = build_cache_key(graph, [0.0, 10.0], CONFIG_KEY)
    minus = build_cache_key(graph, [-0.0, 10.0], CONFIG_KEY)
    assert plus.key != minus.key


# -- version 4 against version 3 on a seeded corpus ---------------------------


def _restated(query: Query, cards, selectivities) -> Query:
    """``query``'s shape with new statistics."""
    graph = Hypergraph(n_nodes=query.graph.n_nodes, edges=[
        Hyperedge(left=e.left, right=e.right, flex=e.flex, selectivity=sel)
        for e, sel in zip(query.graph.edges, selectivities)
    ])
    return Query(graph, list(cards), query.description)


def _corpus() -> "list[Query]":
    """Seeded queries with distinct, uniform and partly tied statistics,
    hyperedges with flex nodes, budget fallbacks and signed zeros, each
    with two relabelings."""
    rng = random.Random(27)
    shapes = (
        [generators.chain(n, seed=n) for n in range(2, 13)]
        + [generators.cycle(n, seed=n) for n in range(3, 13)]
        + [generators.star(k, seed=k) for k in range(1, 8)]
        + [generators.clique(n, seed=n) for n in range(3, 7)]
        + [hyper.cycle_hypergraph(n, s, seed=n + s)
           for n in (4, 6, 8, 10) for s in range(hyper.max_splits(n // 2) + 1)]
        + [hyper.star_hypergraph(k, s, seed=k + s)
           for k in (2, 4, 6, 8) for s in range(hyper.max_splits(k // 2) + 1)]
    )
    base: "list[Query]" = []
    for query in shapes:
        n, m = query.graph.n_nodes, len(query.graph.edges)
        base.append(query)
        base.append(_restated(query, [100.0] * n, [0.1] * m))
        base.append(_restated(
            query,
            [rng.choice((10.0, 20.0)) for _ in range(n)],
            [rng.choice((0.1, 0.2)) for _ in range(m)],
        ))
    base.append(_restated(generators.clique(8), [100.0] * 8, [0.5] * 28))
    pair = generators.chain(2)
    for zero in (0.0, -0.0):
        base.append(_restated(pair, [zero, 10.0], [0.5]))
        base.append(_restated(pair, [1.0, 10.0], [zero]))
    corpus = []
    for query in base:
        corpus.append(query)
        corpus.extend(
            relabeled(query, seed=rng.getrandbits(32)) for _ in range(2)
        )
    return corpus


def test_v4_keys_partition_like_v3():
    corpus = _corpus()
    old = [v3_form(q.graph, q.cardinalities) for q in corpus]
    new = [
        build_cache_key(q.graph, q.cardinalities, CONFIG_KEY) for q in corpus
    ]
    pairs = {(a.digest, b.key) for a, b in zip(old, new)}
    # equal v4 keys exactly when equal v3 digests: the pairing is 1:1
    assert len(pairs) == len({a.digest for a in old})
    assert len(pairs) == len({b.key for b in new})
    assert [a.canonical for a in old] == [b.canonical for b in new]
    assert sum(not a.canonical for a in old) >= 2
    # on simple graphs the packed bytes order the search's branches as
    # the v3 tuples did, so it picks the same labeling; a complex edge's
    # repr orders differently, which may pick another automorphism
    # class representative when statistics tie
    for query, a, b in zip(corpus, old, new):
        if all(edge.is_simple for edge in query.graph.edges):
            assert a.permutation == b.permutation, query.description
