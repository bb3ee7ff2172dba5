"""Core join-enumeration machinery: hypergraphs, DPhyp, and baselines."""

from .bitset import NodeSet
from .canonical import CanonicalForm, canonical_form
from .dpccp import DPccp, solve_dpccp
from .dphyp_recursive import DPhypRecursive, solve_dphyp_recursive
from .dpsize import solve_dpsize
from .dpsub import solve_dpsub
from .dptable import DPTable
from .greedy import solve_greedy
from .kernel import DPhyp, solve_dphyp
from .hypergraph import (
    DisconnectedGraphError,
    Hyperedge,
    Hypergraph,
    payload_token,
    simple_edge,
)
from .neighborhood import NeighborhoodIndex
from .plans import JoinPlanBuilder, Plan, PlanBuilder
from .stats import SearchStats
from .topdown import TopDownMemo, solve_topdown

__all__ = [
    "NodeSet",
    "CanonicalForm",
    "canonical_form",
    "payload_token",
    "DPccp",
    "solve_dpccp",
    "DPhyp",
    "solve_dphyp",
    "DPhypRecursive",
    "solve_dphyp_recursive",
    "solve_dpsize",
    "solve_dpsub",
    "DPTable",
    "solve_greedy",
    "DisconnectedGraphError",
    "Hyperedge",
    "Hypergraph",
    "simple_edge",
    "NeighborhoodIndex",
    "JoinPlanBuilder",
    "Plan",
    "PlanBuilder",
    "SearchStats",
    "TopDownMemo",
    "solve_topdown",
]
