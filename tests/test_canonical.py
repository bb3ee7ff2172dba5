"""Tests for the structural digests: the canonical form
(repro.core.canonical, Hypergraph.canonical_form) and the cache's
search-free structure_bucket."""

import random

import pytest

from repro.cache.keys import structure_bucket
from repro.core import bitset
from repro.core.canonical import CanonicalForm, canonical_form
from repro.core.hypergraph import Hyperedge, Hypergraph, payload_token
from repro.workloads import generators
from repro.workloads.repeated import relabeled


def shuffled_edges(graph: Hypergraph, seed: int) -> Hypergraph:
    """Same graph, edges appended in a different order."""
    edges = list(graph.edges)
    random.Random(seed).shuffle(edges)
    return Hypergraph(
        n_nodes=graph.n_nodes, edges=edges, node_names=graph.node_names
    )


def swapped_sides(graph: Hypergraph) -> Hypergraph:
    """Same graph with every edge's left/right sides exchanged."""
    edges = [
        Hyperedge(
            left=edge.right,
            right=edge.left,
            flex=edge.flex,
            selectivity=edge.selectivity,
            payload=edge.payload,
        )
        for edge in graph.edges
    ]
    return Hypergraph(
        n_nodes=graph.n_nodes, edges=edges, node_names=graph.node_names
    )


def canonical_digest(graph: Hypergraph) -> str:
    return graph.canonical_form().digest


#: both isomorphism-invariant digests of a bare structure
DIGESTS = {"canonical": canonical_digest, "bucket": structure_bucket}

SHAPES = {
    "chain": generators.chain(7, seed=1),
    "cycle": generators.cycle(7, seed=2),
    "star": generators.star(6, seed=3),
    "clique": generators.clique(5, seed=4),
    "grid": generators.grid(2, 3, seed=5),
}


class TestOrderInsensitivity:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("digest", sorted(DIGESTS))
    def test_edge_order_does_not_matter(self, shape, digest):
        graph = SHAPES[shape].graph
        reordered = shuffled_edges(graph, seed=9)
        assert DIGESTS[digest](graph) == DIGESTS[digest](reordered)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("digest", sorted(DIGESTS))
    def test_side_swap_does_not_matter(self, shape, digest):
        graph = SHAPES[shape].graph
        assert DIGESTS[digest](graph) == DIGESTS[digest](swapped_sides(graph))


class TestIsomorphismSharing:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("digest", sorted(DIGESTS))
    def test_relabeled_copy_shares_digest(self, shape, digest):
        query = SHAPES[shape]
        copy = relabeled(query, seed=17)
        assert DIGESTS[digest](query.graph) == DIGESTS[digest](copy.graph)

    @pytest.mark.parametrize("digest", sorted(DIGESTS))
    def test_names_do_not_affect_digest(self, digest):
        bare = generators.chain(5, seed=1).graph
        named = Hypergraph(
            n_nodes=bare.n_nodes,
            edges=list(bare.edges),
            node_names=[f"T{i}" for i in range(bare.n_nodes)],
        )
        assert DIGESTS[digest](bare) == DIGESTS[digest](named)

    @pytest.mark.parametrize("digest", sorted(DIGESTS))
    def test_different_shapes_differ(self, digest):
        chain4 = generators.chain(4, seed=0).graph
        star3 = generators.star(3, seed=0).graph   # also 4 nodes, 3 edges
        assert DIGESTS[digest](chain4) != DIGESTS[digest](star3)

    @pytest.mark.parametrize("digest", sorted(DIGESTS))
    def test_cycle_differs_from_path(self, digest):
        cycle = generators.cycle(5, seed=0).graph
        path = generators.chain(5, seed=0).graph
        assert DIGESTS[digest](cycle) != DIGESTS[digest](path)

    def test_payload_is_structural(self):
        plain = Hypergraph(n_nodes=2)
        plain.add_simple_edge(0, 1)
        annotated = Hypergraph(n_nodes=2)
        annotated.add_simple_edge(0, 1, payload="a.x = b.y")
        assert structure_bucket(plain) != structure_bucket(annotated)


class TestAnnotatedForms:
    def test_permutation_aligns_annotations(self):
        query = generators.cycle(8, seed=6)
        copy = relabeled(query, seed=23)

        def form(q):
            return q.graph.canonical_form(
                node_colors=q.cardinalities,
                edge_colors=[e.selectivity for e in q.graph.edges],
            )

        original, mirrored = form(query), form(copy)
        assert original.digest == mirrored.digest
        assert original.canonical and mirrored.canonical
        # cardinalities agree in canonical order
        canonical_cards = [
            query.cardinalities[original.inverse[rank]]
            for rank in range(8)
        ]
        mirrored_cards = [
            copy.cardinalities[mirrored.inverse[rank]] for rank in range(8)
        ]
        assert canonical_cards == mirrored_cards

    def test_different_stats_different_digest(self):
        query = generators.chain(5, seed=6)
        one = query.graph.canonical_form(node_colors=query.cardinalities)
        other = query.graph.canonical_form(
            node_colors=[c * 2 for c in query.cardinalities]
        )
        assert one.digest != other.digest

    def test_uniform_clique_budget_fallback(self):
        graph = Hypergraph(n_nodes=9)
        for i in range(9):
            for j in range(i + 1, 9):
                graph.add_simple_edge(i, j, selectivity=0.1)
        form = graph.canonical_form(
            node_colors=[10.0] * 9, budget=50
        )
        assert isinstance(form, CanonicalForm)
        assert not form.canonical
        assert form.permutation == tuple(range(9))
        # deterministic: same input, same digest
        again = graph.canonical_form(node_colors=[10.0] * 9, budget=50)
        assert form.digest == again.digest

    def test_distinct_colors_avoid_fallback_on_clique(self):
        query = generators.clique(7, seed=8)
        form = query.graph.canonical_form(
            node_colors=query.cardinalities,
            edge_colors=[e.selectivity for e in query.graph.edges],
        )
        assert form.canonical

    def test_inverse_roundtrip(self):
        form = SHAPES["grid"].graph.canonical_form()
        n = len(form.permutation)
        assert sorted(form.permutation) == list(range(n))
        assert all(
            form.permutation[form.inverse[rank]] == rank for rank in range(n)
        )


class TestLowLevelApi:
    def test_validates_color_lengths(self):
        with pytest.raises(ValueError, match="node color"):
            canonical_form(3, [], node_colors=[1.0])
        with pytest.raises(ValueError, match="edge color"):
            canonical_form(2, [(1, 2, 0)], edge_colors=[0.1, 0.2])

    @pytest.mark.parametrize("digest", sorted(DIGESTS))
    def test_complex_hyperedges_participate(self, digest):
        # ({0,1} -- {2}) vs two simple edges: different structures
        complex_graph = Hypergraph(n_nodes=3, edges=[
            Hyperedge(left=bitset.set_of(0, 1), right=bitset.set_of(2)),
            Hyperedge(left=bitset.set_of(0), right=bitset.set_of(1)),
        ])
        simple_graph = Hypergraph(n_nodes=3)
        simple_graph.add_simple_edge(0, 1)
        simple_graph.add_simple_edge(1, 2)
        assert DIGESTS[digest](complex_graph) != \
            DIGESTS[digest](simple_graph)

    @pytest.mark.parametrize("digest", sorted(DIGESTS))
    def test_flex_nodes_participate(self, digest):
        with_flex = Hypergraph(n_nodes=3, edges=[
            Hyperedge(
                left=bitset.set_of(0), right=bitset.set_of(1),
                flex=bitset.set_of(2),
            ),
            Hyperedge(left=bitset.set_of(1), right=bitset.set_of(2)),
        ])
        without_flex = Hypergraph(n_nodes=3, edges=[
            Hyperedge(left=bitset.set_of(0), right=bitset.set_of(1)),
            Hyperedge(left=bitset.set_of(1), right=bitset.set_of(2)),
        ])
        assert DIGESTS[digest](with_flex) != DIGESTS[digest](without_flex)

    def test_payload_token_stability(self):
        assert payload_token(None) is None
        assert payload_token("p") == "str:p"
        assert payload_token("p") == payload_token("p")
        assert payload_token(1) != payload_token("1")


class TestBitsetPermute:
    def test_permute_roundtrip(self):
        perm = [2, 0, 3, 1]
        inverse = [0] * 4
        for old, new in enumerate(perm):
            inverse[new] = old
        s = bitset.set_of(0, 2)
        assert bitset.permute(bitset.permute(s, perm), inverse) == s

    def test_permute_identity(self):
        s = bitset.set_of(1, 3, 4)
        assert bitset.permute(s, list(range(5))) == s

    def test_permute_empty(self):
        assert bitset.permute(0, [1, 0]) == 0
