"""Golden values for :func:`repro.cache.keys.build_cache_key`.

Persisted plan-store entries are addressed by the canonical digest,
and their recipes are stored in canonical space through the
permutation.  Any change to the canonical-labeling code that moves a
digest or a permutation must therefore bump ``KEY_VERSION``; these
pinned values are the proof that a refactor did not.  The expected
values were recorded once and must never be regenerated to make a
change pass — a mismatch means the key layout changed.

The graphs are built by hand (no generators, no randomness) and cover
distinct cardinalities, tied cardinalities that force
individualization, complex hyperedges, flex nodes and the
budget-fallback clique.
"""

from __future__ import annotations

import pytest

from repro.cache.keys import KEY_VERSION, build_cache_key
from repro.core import bitset
from repro.core.hypergraph import Hyperedge, Hypergraph

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

#: name -> (digest, permutation, canonical)
GOLDEN = {
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


def test_key_version_unchanged():
    # 2: recipes carry per-join floats; 3: recipes are enumerated on
    # the canonical problem.  Digests and permutations are unchanged by
    # both, so every pinned value below still holds
    assert KEY_VERSION == 3


def test_every_case_is_pinned():
    assert set(GOLDEN) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_key(name):
    graph, cards = CASES[name]()
    info = build_cache_key(graph, cards, CONFIG_KEY)
    digest, permutation, canonical = GOLDEN[name]
    assert info.key == (KEY_VERSION, digest, CONFIG_KEY)
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
    assert info.key[1] == GOLDEN[name][0]


def test_relabeling_shares_the_key():
    graph, cards = chain_distinct()
    first = build_cache_key(graph, cards, CONFIG_KEY)
    order = [3, 5, 0, 4, 1, 2]  # new index of each old node
    relabeled = Hypergraph(n_nodes=graph.n_nodes, edges=[
        Hyperedge(left=1 << order[e.left.bit_length() - 1],
                  right=1 << order[e.right.bit_length() - 1],
                  selectivity=e.selectivity)
        for e in graph.edges
    ])
    moved = [0.0] * len(cards)
    for old, new in enumerate(order):
        moved[new] = cards[old]
    second = build_cache_key(relabeled, moved, CONFIG_KEY)
    assert second.key == first.key
    assert second.permutation != first.permutation


def test_signed_zero_is_not_conflated():
    # 0.0 == -0.0, but their repr tokens differ, and so do the keys
    graph, _cards = two_nodes()
    plus = build_cache_key(graph, [0.0, 10.0], CONFIG_KEY)
    minus = build_cache_key(graph, [-0.0, 10.0], CONFIG_KEY)
    assert plus.key != minus.key
