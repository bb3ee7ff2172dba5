"""Search statistics collected by every enumeration algorithm.

The paper argues about algorithm efficiency in terms of how many
candidate pairs an algorithm *considers* versus how many csg-cmp-pairs
actually exist (the lower bound on cost-function calls).  These
counters are hardware independent, so they reproduce the paper's
complexity story exactly even though our wall-clock numbers come from
pure Python rather than the authors' C++ on a Pentium D.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SearchStats:
    """Counters shared by all join-ordering algorithms.

    For greedy (GOO), ``pairs_considered``, ``ccp_emitted`` and
    ``cost_calls`` count each connected fragment pair once, when it is
    costed (two plans per pair with an inner-join builder): on
    ``chain(20)`` they read 49/49/98, where re-costing every pair each
    round read 1330/190/380.

    Attributes:
        ccp_emitted: number of csg-cmp-pairs handed to plan
            construction (``EmitCsgCmp`` calls for DPhyp).  For DPhyp
            this equals the number of ccps of the hypergraph; for
            DPsize/DPsub it is the number of pairs surviving all tests.
        pairs_considered: number of candidate pairs inspected,
            including ones failing the disjointness/connectivity tests
            (the ``(*)`` lines of Fig. 1).  This is where DPsize and
            DPsub lose against DPhyp.
        cost_calls: number of plans actually costed.
        table_entries: number of plan classes stored (connected,
            plannable subsets) at the end of the run.
        neighborhood_calls: number of ``N(S, X)`` computations
            (DPhyp only).
        neighborhood_cache_hits: ``simple_neighborhood`` memoization
            hits inside :class:`~repro.core.neighborhood.NeighborhoodIndex`
            (DPhyp only; zero when ``memoize_neighborhoods`` is off or
            every query was a singleton fast-path lookup).
        neighborhood_cache_misses: memoized ``simple_neighborhood``
            computations, i.e. distinct multi-node subgraphs whose
            simple neighborhood had to be computed once.
        extra: free-form counters merged into :meth:`as_dict`.  The
            optimizer's finalize stage adds a ``"plan_cache"`` entry
            (per-query hit/miss/revalidated/bypass/replay_failed event
            plus a shared cache counter snapshot) whenever a plan
            cache was attached to the run; with the cache off the dict
            stays untouched.
    """

    ccp_emitted: int = 0
    pairs_considered: int = 0
    cost_calls: int = 0
    table_entries: int = 0
    neighborhood_calls: int = 0
    neighborhood_cache_hits: int = 0
    neighborhood_cache_misses: int = 0
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """Plain-dict view used by the benchmark reporting layer."""
        result = {
            "ccp_emitted": self.ccp_emitted,
            "pairs_considered": self.pairs_considered,
            "cost_calls": self.cost_calls,
            "table_entries": self.table_entries,
            "neighborhood_calls": self.neighborhood_calls,
            "neighborhood_cache_hits": self.neighborhood_cache_hits,
            "neighborhood_cache_misses": self.neighborhood_cache_misses,
        }
        result.update(self.extra)
        return result
