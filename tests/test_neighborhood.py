"""Unit tests for neighborhood computation (Section 2.3)."""

from repro.core import bitset
from repro.core.hypergraph import Hyperedge, Hypergraph
from repro.core.neighborhood import NeighborhoodIndex


class TestSimpleNeighborhood:
    def test_chain(self):
        graph = Hypergraph(n_nodes=3)
        graph.add_simple_edge(0, 1)
        graph.add_simple_edge(1, 2)
        index = NeighborhoodIndex(graph)
        assert index.neighborhood(bitset.singleton(1), 0) == bitset.set_of(0, 2)
        assert index.neighborhood(bitset.singleton(0), 0) == bitset.set_of(1)

    def test_exclusion_set(self):
        graph = Hypergraph(n_nodes=3)
        graph.add_simple_edge(0, 1)
        graph.add_simple_edge(1, 2)
        index = NeighborhoodIndex(graph)
        assert index.neighborhood(
            bitset.singleton(1), bitset.singleton(0)
        ) == bitset.set_of(2)

    def test_own_nodes_never_in_neighborhood(self):
        graph = Hypergraph(n_nodes=3)
        graph.add_simple_edge(0, 1)
        graph.add_simple_edge(1, 2)
        index = NeighborhoodIndex(graph)
        n = index.neighborhood(bitset.set_of(0, 1), 0)
        assert n & bitset.set_of(0, 1) == 0


class TestPaperExample:
    """The worked example of Section 2.3 on the Fig. 2 hypergraph."""

    def test_neighborhood_of_left_side(self, fig2_graph):
        index = NeighborhoodIndex(fig2_graph)
        s = bitset.set_of(0, 1, 2)  # paper's {R1,R2,R3}
        # paper: N(S, X) = {R4} — only min(v) of the hyperedge target
        assert index.neighborhood(s, s) == bitset.singleton(3)

    def test_hyperedge_needs_full_anchor(self, fig2_graph):
        index = NeighborhoodIndex(fig2_graph)
        # {R1, R2} does not contain the full hypernode {R1,R2,R3}:
        # only the simple edge to R3 contributes.
        assert index.neighborhood(bitset.set_of(0, 1), 0) == bitset.singleton(2)

    def test_excluded_representative_blocks_edge(self, fig2_graph):
        index = NeighborhoodIndex(fig2_graph)
        s = bitset.set_of(0, 1, 2)
        x = s | bitset.singleton(3)  # exclude R4 = min of the target
        assert index.neighborhood(s, x) == 0


class TestSubsumption:
    def test_candidate_subsumed_by_simple_neighbor(self):
        # edge 0-1 simple plus hyperedge ({0},{1,2}): target {1,2} is
        # subsumed by simple neighbor {1} and contributes nothing.
        graph = Hypergraph(n_nodes=3)
        graph.add_simple_edge(0, 1)
        graph.add_edge(Hyperedge(left=0b1, right=0b110))
        index = NeighborhoodIndex(graph)
        assert index.neighborhood(bitset.singleton(0), 0) == bitset.singleton(1)

    def test_subsumed_hypernode_dropped(self):
        # two hyperedges from {0}: targets {1,2} and {1,2,3}; the
        # minimal set keeps only {1,2} (E-downarrow minimization) but
        # the representative min is node 1 either way.
        graph = Hypergraph(n_nodes=4)
        graph.add_edge(Hyperedge(left=0b1, right=0b0110))
        graph.add_edge(Hyperedge(left=0b1, right=0b1110))
        index = NeighborhoodIndex(graph)
        assert index.neighborhood(bitset.singleton(0), 0) == bitset.singleton(1)

    def test_different_representatives_union(self):
        graph = Hypergraph(n_nodes=5)
        graph.add_edge(Hyperedge(left=0b1, right=bitset.set_of(1, 2)))
        graph.add_edge(Hyperedge(left=0b1, right=bitset.set_of(3, 4)))
        index = NeighborhoodIndex(graph)
        assert index.neighborhood(bitset.singleton(0), 0) == bitset.set_of(1, 3)


class TestGeneralizedEdges:
    def test_flex_travels_with_target(self):
        # (u={0}, v={2}, w={1}): from {0}, target is {2} plus flex {1},
        # representative is min = node 1.
        graph = Hypergraph(n_nodes=3)
        graph.add_edge(Hyperedge(left=0b1, right=0b100, flex=0b10))
        index = NeighborhoodIndex(graph)
        assert index.neighborhood(bitset.singleton(0), 0) == bitset.singleton(1)

    def test_flex_inside_s_counts_as_anchor_side(self):
        graph = Hypergraph(n_nodes=3)
        graph.add_edge(Hyperedge(left=0b1, right=0b100, flex=0b10))
        index = NeighborhoodIndex(graph)
        # S = {0,1}: flex node already inside; target is just {2}
        assert index.neighborhood(bitset.set_of(0, 1), 0) == bitset.singleton(2)

    def test_excluded_flex_blocks_edge(self):
        graph = Hypergraph(n_nodes=3)
        graph.add_edge(Hyperedge(left=0b1, right=0b100, flex=0b10))
        index = NeighborhoodIndex(graph)
        # flex node 1 is excluded and outside S: edge unusable
        assert index.neighborhood(bitset.singleton(0), bitset.singleton(1)) == 0


class TestMemoization:
    def _chain_index(self, memoize=True):
        graph = Hypergraph(n_nodes=4)
        graph.add_simple_edge(0, 1)
        graph.add_simple_edge(1, 2)
        graph.add_simple_edge(2, 3)
        return NeighborhoodIndex(graph, memoize=memoize)

    def test_repeat_query_hits_cache(self):
        index = self._chain_index()
        s = bitset.set_of(1, 2)
        first = index.simple_neighborhood(s)
        assert (index.cache_hits, index.cache_misses) == (0, 1)
        assert index.simple_neighborhood(s) == first
        assert (index.cache_hits, index.cache_misses) == (1, 1)

    def test_singletons_bypass_cache(self):
        index = self._chain_index()
        assert index.simple_neighborhood(bitset.singleton(1)) == (
            bitset.set_of(0, 2)
        )
        assert index.simple_neighborhood(0) == 0
        assert (index.cache_hits, index.cache_misses) == (0, 0)

    def test_memoize_off_never_touches_cache(self):
        index = self._chain_index(memoize=False)
        s = bitset.set_of(0, 3)
        assert index.simple_neighborhood(s) == bitset.set_of(1, 2)
        assert index.simple_neighborhood(s) == bitset.set_of(1, 2)
        assert (index.cache_hits, index.cache_misses) == (0, 0)

    def test_cached_and_fresh_results_agree(self):
        graph = Hypergraph(n_nodes=6)
        for a, b in [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (1, 5)]:
            graph.add_simple_edge(a, b)
        memoized = NeighborhoodIndex(graph, memoize=True)
        cold = NeighborhoodIndex(graph, memoize=False)
        for s in bitset.subsets(graph.all_nodes):
            assert memoized.simple_neighborhood(s) == (
                cold.simple_neighborhood(s)
            ), bitset.format_set(s)
            # second pass: answers must come from cache unchanged
            assert memoized.simple_neighborhood(s) == (
                cold.simple_neighborhood(s)
            )


class TestComplexAnchorSkip:
    def test_anchor_mins_precomputed(self):
        graph = Hypergraph(n_nodes=5)
        graph.add_simple_edge(0, 1)
        graph.add_edge(
            Hyperedge(left=bitset.set_of(2, 3), right=bitset.set_of(4))
        )
        index = NeighborhoodIndex(graph)
        # min of {2,3} and min of {4}, one per orientation
        assert index.anchor_mins == bitset.set_of(2, 4)

    def test_disjoint_sets_skip_scan_with_same_result(self):
        graph = Hypergraph(n_nodes=5)
        graph.add_simple_edge(0, 1)
        graph.add_edge(
            Hyperedge(left=bitset.set_of(2, 3), right=bitset.set_of(4))
        )
        index = NeighborhoodIndex(graph)
        # S = {0} intersects no anchor: neighborhood is purely simple
        assert index.neighborhood(bitset.singleton(0), 0) == (
            bitset.singleton(1)
        )
        # S = {2,3} contains an anchor: the hyperedge contributes
        assert index.neighborhood(bitset.set_of(2, 3), 0) == (
            bitset.singleton(4)
        )

    def test_simple_only_graph_has_empty_anchor_mask(self):
        graph = Hypergraph(n_nodes=3)
        graph.add_simple_edge(0, 1)
        index = NeighborhoodIndex(graph)
        assert index.anchor_mins == 0
        assert not index.has_complex
