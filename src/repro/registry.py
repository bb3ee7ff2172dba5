"""Capability-aware algorithm registry.

Every join-ordering algorithm the package ships is described by an
:class:`AlgorithmInfo` record: the solver callable plus the metadata
the :class:`~repro.optimizer.Optimizer` facade needs to dispatch
safely — whether the solver handles complex hyperedges and whether it
is exact.  ``algorithm="auto"`` is implemented entirely on top of this
metadata plus :data:`EXACT_MAX_RELATIONS` (see :func:`select_auto`),
so registering a new solver with :func:`register_algorithm` is all it
takes to make it available to the facade, the legacy wrappers, and the
bench harness.

The legacy ``repro.api.ALGORITHMS`` mapping is preserved as a live
read-only view over this registry (:data:`ALGORITHMS`), so existing
``ALGORITHMS[name]`` callers keep working and see registered
extensions immediately.
"""

from __future__ import annotations

import hashlib
import itertools
import types
import weakref
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .core.dpccp import solve_dpccp
from .core.dphyp_recursive import solve_dphyp_recursive
from .core.kernel.solver import solve_dphyp
from .core.dpsize import solve_dpsize
from .core.dpsub import solve_dpsub
from .core.greedy import solve_greedy
from .core.hypergraph import Hypergraph
from .core.identity import process_token
from .core.topdown import solve_topdown


class CapabilityError(ValueError):
    """An algorithm was asked to run a query it cannot handle.

    Raised at *dispatch* time by the facade (and the legacy wrappers)
    with a message naming the offending query feature — e.g. the
    complex hyperedges a simple-graph-only solver like DPccp would
    otherwise trip over deep inside the enumeration.
    """


@dataclass(frozen=True)
class AlgorithmInfo:
    """Metadata record for one registered join-ordering algorithm.

    Attributes:
        name: registry key, e.g. ``"dphyp"``.
        solver: callable ``(graph, builder, stats) -> Optional[Plan]``.
        supports_hypergraphs: True when the solver handles complex
            (non-binary) hyperedges.  DPccp is the one shipped solver
            restricted to simple graphs.
        supports_operator_trees: True when the solver may be used on
            hypergraphs compiled from operator trees (Section 5).  All
            shipped solvers qualify subject to the hyperedge
            restriction above — the flag exists so extensions can opt
            out (e.g. a solver that assumes commutative inner joins
            only).
        exact: True when the solver enumerates the full
            cross-product-free search space (greedy is the one shipped
            heuristic).
        auto_priority: tie-break among eligible candidates during
            ``auto`` dispatch; highest wins, ``0`` means "never
            auto-selected" (baselines kept for measurement only).
        cacheable: True when the solver is deterministic — same graph,
            statistics, and cost model always yield the same plan — so
            its results may be served from the plan cache.  All shipped
            solvers qualify; randomized or stateful extensions must
            register with ``cacheable=False`` to bypass the cache.
        description: one-line summary for ``repr`` and docs.

    Pickle-safety: an :class:`AlgorithmInfo` pickles iff its ``solver``
    does — i.e. the solver is a module-level callable (all built-ins
    are).  ``optimize_many(executor="process")`` relies on this to
    re-register custom algorithms inside worker processes
    (:func:`snapshot_registrations` / :func:`restore_registrations`);
    registrations whose solver is a lambda or closure are silently
    left out of the snapshot and exist only in the parent.
    """

    name: str
    solver: Callable
    supports_hypergraphs: bool = True
    supports_operator_trees: bool = True
    exact: bool = True
    auto_priority: int = 0
    cacheable: bool = True
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError("algorithm name must be a non-empty string")
        if self.name == "auto":
            raise ValueError('"auto" is reserved for dispatch')
        if not callable(self.solver):
            raise ValueError(f"solver for {self.name!r} must be callable")
        if self.auto_priority < 0:
            raise ValueError("auto_priority must be non-negative")


#: the live registry: name -> AlgorithmInfo, in registration order
_REGISTRY: dict[str, AlgorithmInfo] = {}

#: monotone token per (re-)registration, so plan-cache keys can tell
#: apart two different solvers registered under the same name over the
#: lifetime of the process (``register_algorithm(..., replace=True)``)
_REGISTRATION_TOKENS: dict[str, int] = {}
#: last registered solver identity per name: (module, qualname, solver).
#: Survives unregister_algorithm on purpose — a later re-registration
#: must still be comparable against what the name used to mean.
_LAST_SOLVER_IDENTITY: dict[str, tuple] = {}
#: names whose (module, qualname) was ever *reused by a different
#: callable* in this process (e.g. a function redefined in a REPL and
#: re-registered): name resolution can no longer tell the versions
#: apart, so their fingerprints turn process-scoped for good
_AMBIGUOUS_NAMES: set[str] = set()
_TOKEN_COUNTER = itertools.count(1)


def registration_token(name: str) -> int:
    """Token identifying the *current* registration under ``name``.

    Bumped on every :func:`register_algorithm` for that name.  This is
    a plain per-process counter — cache keys use
    :func:`registration_fingerprint`, which only falls back to it (in
    process-scoped form) for solvers that name resolution cannot
    identify.
    """
    return _REGISTRATION_TOKENS.get(name, 0)


def _code_fingerprint(solver: Callable) -> Optional[str]:
    """Deterministic digest of a function's compiled body.

    Part of the durable solver identity: a solver whose *own body* is
    edited between two server lifetimes keeps its ``(module,
    qualname)`` but not its bytecode, so persisted cache entries keyed
    with this hash are not served by the changed implementation.
    ``None`` for callables without ``__code__`` (callable objects, C
    functions) — their behaviour cannot be pinned, so they key
    process-scoped.

    The digest covers the solver's code and constants recursively
    (nested functions/lambdas included) but **not** its transitive
    call graph: changes confined to helper functions, globals, or
    default arguments keep the hash.  Extensions whose behaviour lives
    outside the solver body should fold their own version into the
    solver (e.g. a constant) or into ``CostModel.cache_key``-style
    keys — the same discipline :data:`repro.cache.keys.KEY_VERSION`
    applies to in-repo semantics.  The hash is stable across processes
    of one code version and deliberately changes across interpreter
    versions (bytecode differs), which only costs a conservative miss.
    """
    try:
        return _CODE_FINGERPRINTS[solver]
    except (KeyError, TypeError):
        pass
    code = getattr(solver, "__code__", None)
    if code is None:
        return None
    digest = hashlib.sha256()

    def feed(obj: types.CodeType) -> None:
        digest.update(obj.co_code)
        for const in obj.co_consts:
            if isinstance(const, types.CodeType):
                feed(const)
            else:
                digest.update(repr(const).encode("utf-8"))

    feed(code)
    result = digest.hexdigest()[:16]
    try:
        _CODE_FINGERPRINTS[solver] = result
    except TypeError:  # pragma: no cover - non-weakref-able callable
        pass
    return result


#: memo for :func:`_code_fingerprint` — the fingerprint stage asks per
#: query, hashing per solver object once is enough
_CODE_FINGERPRINTS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _resolves_by_name(solver: Callable, module: str, qualname: str) -> bool:
    """True iff ``module.qualname`` resolves back to ``solver`` itself.

    Module-level functions pass; lambdas, closures, locally defined
    functions, and names that have been shadowed since registration
    fail — their ``(module, qualname)`` pair does not pin down *which*
    callable is meant, so it must not serve as durable identity.
    """
    import sys

    obj = sys.modules.get(module)
    if obj is None:
        return False
    for part in qualname.split("."):
        if part == "<locals>":
            return False
        obj = getattr(obj, part, None)
        if obj is None:
            return False
    return obj is solver


def registration_fingerprint(name: str) -> tuple:
    """Cache-key component identifying the registration under ``name``.

    For the common case — the registered solver is a module-level
    function reachable under its own ``(module, qualname)`` (all
    built-ins, typical extensions) — the fingerprint is ``(name,
    module, qualname, code hash)``: stable across process restarts of
    the *same code*, so entries may be persisted and served warm, yet
    distinct for any two different implementations — a ``replace=True``
    successor lives at a different path, and an implementation *edited
    between lifetimes* keeps its path but not its bytecode
    (:func:`_code_fingerprint`), so a restarted server re-plans
    instead of serving the old solver's recipes.

    When the solver is **not** name-resolvable — a lambda, a closure,
    a replaced-and-shadowed name — or its ``(module, qualname)`` has
    ever been *reused by a different callable* under this name (a
    function redefined in a REPL and re-registered), the fingerprint
    instead carries the registration token in process-scoped form
    (:func:`repro.core.identity.process_token`): successive
    registrations stay distinct in-process, and the branded keys are
    refused by the persistence layer — token counters restart in a new
    process, so a bare counter could collide with a *different*
    registration sequence after a restart.
    """
    info = _REGISTRY.get(name)
    if info is None:
        return (name, "unregistered")
    module = getattr(info.solver, "__module__", "?")
    qualname = getattr(info.solver, "__qualname__", "?")
    if name not in _AMBIGUOUS_NAMES and _resolves_by_name(
        info.solver, module, qualname
    ):
        code_hash = _code_fingerprint(info.solver)
        if code_hash is not None:
            return (name, module, qualname, code_hash)
    return (name, process_token(registration_token(name)))


def register_algorithm(info: AlgorithmInfo, replace: bool = False) -> AlgorithmInfo:
    """Register a solver so every entry point can dispatch to it.

    Args:
        info: the algorithm record; ``info.name`` becomes the registry
            key usable as ``algorithm=<name>`` everywhere.
        replace: allow overwriting an existing registration (off by
            default so typos do not silently shadow built-ins).

    Returns:
        ``info``, for decorator-style or fluent use.
    """
    if not isinstance(info, AlgorithmInfo):
        raise TypeError("register_algorithm expects an AlgorithmInfo")
    if info.name in _REGISTRY and not replace:
        raise ValueError(
            f"algorithm {info.name!r} is already registered; "
            "pass replace=True to overwrite"
        )
    _REGISTRY[info.name] = info
    _REGISTRATION_TOKENS[info.name] = next(_TOKEN_COUNTER)
    identity = (
        getattr(info.solver, "__module__", "?"),
        getattr(info.solver, "__qualname__", "?"),
        info.solver,
    )
    previous = _LAST_SOLVER_IDENTITY.get(info.name)
    if (
        previous is not None
        and previous[:2] == identity[:2]
        and previous[2] is not info.solver
    ):
        # The same (module, qualname) now names a *different* callable
        # — e.g. a redefined-and-re-registered function.  The path can
        # no longer serve as durable identity for this name.
        _AMBIGUOUS_NAMES.add(info.name)
    _LAST_SOLVER_IDENTITY[info.name] = identity
    return info


def unregister_algorithm(name: str) -> None:
    """Remove a registration (primarily for tests of extensions)."""
    _REGISTRY.pop(name, None)


def snapshot_registrations() -> list[AlgorithmInfo]:
    """The current registrations whose records survive pickling.

    Used by the process-pool ``optimize_many`` backend: the snapshot is
    shipped to each worker's initializer so custom solvers resolve
    there too.  Records with unpicklable solvers (lambdas, closures,
    bound methods of local objects) are skipped — a worker asked to run
    one fails with the ordinary unknown-algorithm error, naming the
    registration gap.
    """
    import pickle

    snapshot = []
    for info in _REGISTRY.values():
        try:
            pickle.dumps(info)
        except Exception:  # pickle raises a zoo: PicklingError,
            continue       # AttributeError, TypeError, ...
        snapshot.append(info)
    return snapshot


def restore_registrations(infos: "list[AlgorithmInfo]") -> None:
    """Adopt a :func:`snapshot_registrations` snapshot (worker side).

    Registrations already present and identical are left untouched —
    crucially this keeps their registration tokens, so a forked
    worker resolves every name to the same registration as its
    parent.  Only genuinely new or changed records (re-)register.
    """
    for info in infos:
        if _REGISTRY.get(info.name) == info:
            continue
        register_algorithm(info, replace=True)


def get_algorithm(name: str) -> AlgorithmInfo:
    """Look up a registration, with the historical error message."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {name!r}; pick one of {sorted(_REGISTRY)}"
        ) from None


def algorithm_names() -> list[str]:
    """Registered names in registration order."""
    return list(_REGISTRY)


def complex_edge_report(graph: Hypergraph) -> str:
    """Render the complex (non-simple) edges of ``graph`` for errors."""
    rendered = [
        edge.render(graph.node_names)
        for edge in graph.edges
        if not edge.is_simple
    ]
    return ", ".join(rendered)


def check_capabilities(
    info: AlgorithmInfo, graph: Hypergraph, from_tree: bool = False
) -> None:
    """Raise :class:`CapabilityError` when ``info`` cannot run ``graph``.

    This is the dispatch-time guard that turns DPccp's deep
    mid-enumeration ``ValueError`` into an immediate, friendly error
    naming the query's complex edges.
    """
    if not info.supports_hypergraphs and not graph.is_simple:
        raise CapabilityError(
            f"algorithm {info.name!r} handles only simple graphs, but the "
            f"query has complex hyperedges: {complex_edge_report(graph)}; "
            'use "dphyp" (or algorithm="auto") for hypergraphs'
        )
    if from_tree and not info.supports_operator_trees:
        raise CapabilityError(
            f"algorithm {info.name!r} does not support operator-tree "
            'queries; use "dphyp" (or algorithm="auto")'
        )


#: largest relation count ``"auto"`` hands to an exact enumerator;
#: larger queries go to the greedy heuristic
EXACT_MAX_RELATIONS = 14


def select_auto(graph: Hypergraph, from_tree: bool = False) -> AlgorithmInfo:
    """Pick an algorithm for ``graph`` from the registry metadata.

    The paper's guidance, expressed as a filter over capabilities:

    * complex hyperedges rule out simple-graph-only solvers (DPccp);
    * above :data:`EXACT_MAX_RELATIONS` relations, exact enumerators
      are ruled out and the search falls back to the greedy heuristic;
    * among the survivors the highest ``auto_priority`` wins, so
      ``dphyp`` takes every exact query — simple graph, hypergraph or
      operator tree alike.

    The choice depends on the query alone, never on cache history, so
    the same query resolves to the same registration everywhere.
    """
    n = graph.n_nodes
    has_complex = not graph.is_simple
    best: Optional[AlgorithmInfo] = None
    fallback: Optional[AlgorithmInfo] = None
    for info in _REGISTRY.values():
        if info.auto_priority <= 0:
            continue
        if has_complex and not info.supports_hypergraphs:
            continue
        if from_tree and not info.supports_operator_trees:
            continue
        if not info.exact:
            if fallback is None or info.auto_priority > fallback.auto_priority:
                fallback = info
            continue
        if n > EXACT_MAX_RELATIONS:
            continue
        if best is None or info.auto_priority > best.auto_priority:
            best = info
    chosen = best if best is not None else fallback
    if chosen is None:
        raise CapabilityError(
            f"no registered algorithm can handle this query "
            f"({n} relations, complex edges: {has_complex})"
        )
    return chosen


class _AlgorithmsView(Mapping):
    """Read-only live ``name -> solver`` view over the registry.

    Backwards compatibility for the original bare ``ALGORITHMS`` dict:
    iteration, membership, and item access behave identically, but the
    view always reflects :func:`register_algorithm` extensions.
    """

    def __getitem__(self, name: str) -> Callable:
        # KeyError (not ValueError) keeps dict semantics for the
        # Mapping protocol — `in` relies on it.
        return _REGISTRY[name].solver

    def __iter__(self) -> Iterator[str]:
        return iter(_REGISTRY)

    def __len__(self) -> int:
        return len(_REGISTRY)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"ALGORITHMS({sorted(_REGISTRY)})"


#: Legacy registry view: name -> solver(graph, builder, stats).
ALGORITHMS = _AlgorithmsView()


# -- built-in registrations ------------------------------------------------

register_algorithm(AlgorithmInfo(
    name="dphyp",
    solver=solve_dphyp,
    # auto's one exact enumerator: inner joins, hypergraphs and
    # operator trees alike
    auto_priority=50,
    description="DPhyp, the paper's hypergraph enumerator",
))
register_algorithm(AlgorithmInfo(
    name="dphyp-recursive",
    solver=solve_dphyp_recursive,
    description="seed-faithful recursive DPhyp, kept as measured baseline",
))
register_algorithm(AlgorithmInfo(
    name="dpccp",
    solver=solve_dpccp,
    supports_hypergraphs=False,
    description="csg-cmp-pair enumeration for simple graphs ([17])",
))
register_algorithm(AlgorithmInfo(
    name="dpsize",
    solver=solve_dpsize,
    description="size-driven DP baseline (System R generalization)",
))
register_algorithm(AlgorithmInfo(
    name="dpsub",
    solver=solve_dpsub,
    description="subset-driven DP baseline",
))
register_algorithm(AlgorithmInfo(
    name="topdown",
    solver=solve_topdown,
    description="top-down memoizing partition search",
))
register_algorithm(AlgorithmInfo(
    name="greedy",
    solver=solve_greedy,
    exact=False,
    auto_priority=1,
    description="GOO-style greedy heuristic, the beyond-threshold fallback",
))
