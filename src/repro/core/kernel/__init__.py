"""DPhyp, the one csg-cmp-pair traversal behind every builder.

:class:`DPhyp` runs one explicit-stack traversal and picks its
``EmitCsgCmp`` once per run: a flat-array offer for a plain
:class:`~repro.core.plans.JoinPlanBuilder` (no Plan objects per
candidate, the winner materialized afterwards), and a ``NodeSet ->
Plan`` offer through ``builder.join_unordered`` for every other
builder (operator trees of Section 5, custom builders).  See
:mod:`repro.core.kernel.solver` and ``docs/kernel.md``;
:mod:`repro.core.dphyp_recursive` stays as the recursive oracle.
"""

from .solver import DPhyp, solve_dphyp

__all__ = ["DPhyp", "solve_dphyp"]
