"""The unified ``Optimizer`` facade.

One front door for every query representation the package understands:

* a :class:`~repro.core.hypergraph.Hypergraph` (Sections 2–4),
* an operator tree (:class:`~repro.algebra.optree.TreeNode`,
  Section 5),
* a declarative :class:`QuerySpec` (relations + cardinalities + join
  predicates),
* a :class:`~repro.workloads.generators.Query` bundle as produced by
  the workload generators.

Construct :class:`Optimizer` once with an :class:`OptimizerConfig`
(cost model, algorithm name or ``"auto"``, disconnected-graph
policy), then call :meth:`Optimizer.optimize` per query or
:meth:`Optimizer.optimize_many` for batches.  Every path
returns the same :class:`OptimizationResult`, which carries the plan,
search statistics, the resolved algorithm, relation names, and the
``.explain()`` / ``.to_dict()`` conveniences.

``algorithm="auto"`` dispatches per the paper's guidance using the
capability metadata in :mod:`repro.registry`: DPhyp for every exact
query (inner joins, complex hyperedges and operator trees alike), and
the greedy heuristic beyond
:data:`~repro.registry.EXACT_MAX_RELATIONS` relations, where
exhaustive enumeration stops being a sensible default.  The choice
depends on the query alone, never on what the cache holds.

The legacy entry points — :func:`repro.api.optimize` and
:func:`repro.algebra.pipeline.optimize_operator_tree` — are thin
wrappers over this facade.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    ClassVar,
    Iterable,
    Mapping,
    Optional,
    Sequence,
    Union,
)

from .cache import (
    DEFAULT_CAPACITY,
    CacheKeyInfo,
    PlanCache,
    PlanRecipe,
    build_cache_key,
    canonical_problem,
    plan_recipe,
    replay_recipe,
    structure_bucket,
)
from .cache import persist
from .cache.store import STORE_SUFFIXES, PlanStore, is_store_path
from .core.hypergraph import (
    DisconnectedGraphError,
    Hyperedge,
    Hypergraph,
)
from .core import bitset
from .core.plans import JoinPlanBuilder, Plan, PlanBuilder
from .core.stats import SearchStats
from .cost.models import CostModel, CoutModel
from .registry import (
    AlgorithmInfo,
    check_capabilities,
    get_algorithm,
    registration_fingerprint,
    restore_registrations,
    select_auto,
    snapshot_registrations,
)

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor


# -- declarative query specification ---------------------------------------


@dataclass(frozen=True)
class JoinSpec:
    """One join predicate of a :class:`QuerySpec`.

    ``left`` / ``right`` are relation-name groups (a single name for a
    plain binary join, several for a complex n-ary predicate), ``flex``
    the relations the predicate allows on either side (Section 6), and
    ``predicate`` an optional human-readable annotation that rides
    along as the hyperedge payload and shows up in EXPLAIN output.
    """

    left: tuple[str, ...]
    right: tuple[str, ...]
    selectivity: float = 1.0
    flex: tuple[str, ...] = ()
    predicate: Optional[str] = None

    @staticmethod
    def _group(side: Union[str, Sequence[str]]) -> tuple[str, ...]:
        if isinstance(side, str):
            return (side,)
        return tuple(side)

    @classmethod
    def of(
        cls,
        left: Union[str, Sequence[str]],
        right: Union[str, Sequence[str]],
        selectivity: float = 1.0,
        flex: Union[str, Sequence[str]] = (),
        predicate: Optional[str] = None,
    ) -> "JoinSpec":
        """Build a spec accepting bare strings or name sequences."""
        return cls(
            left=cls._group(left),
            right=cls._group(right),
            selectivity=float(selectivity),
            flex=cls._group(flex) if flex else (),
            predicate=predicate,
        )

    @classmethod
    def parse(cls, raw: Union["JoinSpec", tuple, Mapping]) -> "JoinSpec":
        """Coerce the accepted shorthand forms into a :class:`JoinSpec`.

        Accepted: a ``JoinSpec``; a ``(left, right)`` or ``(left,
        right, selectivity)`` tuple; a mapping with keys ``left`` /
        ``right`` and optional ``selectivity`` / ``flex`` /
        ``predicate``.
        """
        if isinstance(raw, JoinSpec):
            return raw
        if isinstance(raw, Mapping):
            return cls.of(
                raw["left"],
                raw["right"],
                selectivity=raw.get("selectivity", 1.0),
                flex=raw.get("flex", ()),
                predicate=raw.get("predicate"),
            )
        if isinstance(raw, tuple) and len(raw) in (2, 3):
            selectivity = raw[2] if len(raw) == 3 else 1.0
            return cls.of(raw[0], raw[1], selectivity=selectivity)
        raise ValueError(
            f"cannot interpret {raw!r} as a join spec; use JoinSpec, "
            "(left, right[, selectivity]), or a mapping"
        )


@dataclass
class QuerySpec:
    """A declarative join-ordering problem: names, cardinalities, joins.

    The third query representation the facade accepts, for callers who
    have neither a hand-built hypergraph nor an operator tree::

        spec = QuerySpec(
            relations={"customer": 15_000, "orders": 150_000},
            joins=[("customer", "orders", 1 / 15_000)],
        )
        result = Optimizer().optimize(spec)

    ``relations`` may be a mapping ``name -> cardinality`` or a
    sequence of ``(name, cardinality)`` pairs (which also fixes the
    node order); ``joins`` accepts every form :meth:`JoinSpec.parse`
    understands, including complex predicates via name groups.
    """

    relations: Union[Mapping[str, float], Sequence[tuple[str, float]]]
    joins: Sequence[Union[JoinSpec, tuple, Mapping]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if isinstance(self.relations, Mapping):
            pairs = list(self.relations.items())
        else:
            pairs = [(name, card) for name, card in self.relations]
        if not pairs:
            raise ValueError("a QuerySpec needs at least one relation")
        names = [name for name, _card in pairs]
        if len(set(names)) != len(names):
            raise ValueError("relation names must be unique")
        self._names: list[str] = names
        self._cardinalities: list[float] = [float(c) for _n, c in pairs]
        self.joins = [JoinSpec.parse(raw) for raw in self.joins]

    @property
    def relation_names(self) -> list[str]:
        return list(self._names)

    @property
    def cardinalities(self) -> list[float]:
        return list(self._cardinalities)

    def to_hypergraph(self) -> tuple[Hypergraph, list[float]]:
        """Compile to ``(Hypergraph, cardinalities)``.

        Join predicate annotations become hyperedge payloads, so
        EXPLAIN output shows them.
        """
        index = {name: i for i, name in enumerate(self._names)}

        def bitmap(group: tuple[str, ...]) -> int:
            result = 0
            for name in group:
                if name not in index:
                    raise ValueError(
                        f"join references unknown relation {name!r}; "
                        f"declared: {self._names}"
                    )
                result |= bitset.singleton(index[name])
            return result

        graph = Hypergraph(
            n_nodes=len(self._names), node_names=list(self._names)
        )
        for join in self.joins:
            graph.add_edge(
                Hyperedge(
                    left=bitmap(join.left),
                    right=bitmap(join.right),
                    flex=bitmap(join.flex),
                    selectivity=join.selectivity,
                    payload=join.predicate,
                )
            )
        return graph, self.cardinalities

    @classmethod
    def from_hypergraph(
        cls, graph: Hypergraph, cardinalities: Sequence[float]
    ) -> "QuerySpec":
        """Inverse of :meth:`to_hypergraph` (round-trip safe)."""
        if len(cardinalities) != graph.n_nodes:
            raise ValueError("need one cardinality per relation")
        names = [graph.name_of(i) for i in range(graph.n_nodes)]

        def group(nodes: int) -> tuple[str, ...]:
            return tuple(
                names[node] for node in bitset.iter_nodes(nodes)
            )

        joins = [
            JoinSpec(
                left=group(edge.left),
                right=group(edge.right),
                selectivity=edge.selectivity,
                flex=group(edge.flex),
                predicate=None if edge.payload is None else str(edge.payload),
            )
            for edge in graph.edges
        ]
        return cls(
            relations=list(zip(names, (float(c) for c in cardinalities))),
            joins=joins,
        )


# -- the staged pipeline -----------------------------------------------------


@dataclass
class PipelineContext:
    """Mutable state threaded through one optimize() pipeline run.

    Stages communicate exclusively through this object: ``normalize``
    fills the prepared-query fields, ``fingerprint`` the cache key,
    the cache stage the hit/event fields, a hit or an absorbed miss the
    recipe and its replayed plan, and ``finalize`` folds everything
    into the :class:`OptimizationResult`.  Each run gets a fresh
    context, so runs are independent and thread-safe as long as the
    stages stay stateless (the built-ins are).
    """

    config: "OptimizerConfig"
    query: Any
    cardinalities: Optional[Sequence[float]]
    builder_arg: Optional[PlanBuilder]
    cache: Optional[PlanCache]
    # -- set by the normalize stage
    kind: str = ""
    graph: Optional[Hypergraph] = None
    resolved_cardinalities: Optional[list[float]] = None
    builder: Optional[PlanBuilder] = None
    stats: SearchStats = field(default_factory=SearchStats)
    info: Optional[AlgorithmInfo] = None
    compiled: Any = None
    mode: Optional[str] = None
    cacheable: bool = False
    # -- set by the fingerprint stage
    key_info: Optional[CacheKeyInfo] = None
    # -- set by the cache stage
    cache_hit: bool = False
    cache_event: Optional[str] = None
    # -- set by a hit or an absorbed recipe (or, unkeyed, by dispatch)
    recipe: Optional[PlanRecipe] = None
    plan: Optional[Plan] = None


class NormalizeStage:
    """Stage 1: coerce any supported query kind into a prepared form.

    Accepts a :class:`Hypergraph`, :class:`QuerySpec`, operator
    :class:`~repro.algebra.optree.TreeNode`, or workload ``Query``
    bundle; applies the disconnected-graph policy; materializes
    default cardinalities; builds the plan builder; and resolves the
    configured algorithm against the capability registry.  Also
    decides cacheability: only hypergraph queries optimized through
    the default builder by a solver registered ``cacheable=True``
    qualify (operator trees carry operator payloads whose plans are
    not recipe-replayable; custom builders are opaque).
    """

    def __call__(self, ctx: PipelineContext) -> None:
        from .algebra.optree import TreeNode  # local: avoid import cycle

        query = ctx.query
        if isinstance(query, Hypergraph):
            self._hypergraph(ctx, query, ctx.cardinalities, ctx.builder_arg)
        elif isinstance(query, QuerySpec):
            if ctx.cardinalities is not None or ctx.builder_arg is not None:
                raise ValueError(
                    "a QuerySpec carries its own cardinalities and builder"
                )
            graph, cards = query.to_hypergraph()
            self._hypergraph(ctx, graph, cards, None)
        elif isinstance(query, TreeNode):
            if ctx.cardinalities is not None or ctx.builder_arg is not None:
                raise ValueError(
                    "an operator tree carries its own cardinalities; "
                    "configure cost_model on OptimizerConfig instead"
                )
            self._tree(ctx, query)
        elif hasattr(query, "graph") and hasattr(query, "cardinalities"):
            # a repro.workloads.generators.Query bundle (duck-typed)
            self._hypergraph(
                ctx,
                query.graph,
                ctx.cardinalities if ctx.cardinalities is not None
                else query.cardinalities,
                ctx.builder_arg,
            )
        else:
            raise TypeError(
                f"cannot optimize {type(query).__name__}; expected "
                "Hypergraph, TreeNode, QuerySpec, or a workload Query"
            )

    def _hypergraph(
        self,
        ctx: PipelineContext,
        graph: Hypergraph,
        cardinalities: Optional[Sequence[float]],
        builder: Optional[PlanBuilder],
    ) -> None:
        config = ctx.config
        if not graph.is_connected:
            if config.on_disconnected == "raise":
                raise DisconnectedGraphError(
                    f"the query hypergraph has "
                    f"{len(graph.connected_components())} connected "
                    "components and therefore no cross-product-free plan; "
                    "call Hypergraph.make_connected() first or configure "
                    "OptimizerConfig(on_disconnected='connect')"
                )
            if config.on_disconnected == "connect":
                graph = graph.make_connected()
            # "plan-none": legacy behaviour, let the solver return None
        ctx.kind = "hypergraph"
        ctx.graph = graph
        ctx.info = _resolve_algorithm(config, graph, from_tree=False)
        if builder is None:
            if cardinalities is None:
                cardinalities = [config.default_cardinality] * graph.n_nodes
            ctx.resolved_cardinalities = [float(c) for c in cardinalities]
            builder = JoinPlanBuilder(
                graph, ctx.resolved_cardinalities, config.cost_model,
                ctx.stats,
            )
            ctx.cacheable = ctx.info.cacheable
        ctx.builder = builder

    def _tree(self, ctx: PipelineContext, tree: Any) -> None:
        # Local imports: repro.algebra imports the facade wrappers.
        from .algebra.hyperedges import compile_tree
        from .algebra.optree import (
            normalize_commutative_children,
            validate_tree,
        )
        from .algebra.reorder import OperatorPlanBuilder
        from .algebra.tes_filter import TesFilterPlanBuilder, compile_tree_ses

        config = ctx.config
        validate_tree(tree)
        normalized = normalize_commutative_children(tree)
        if config.mode == "hyperedges":
            compiled = compile_tree(normalized)
            builder = OperatorPlanBuilder(compiled, config.cost_model,
                                          ctx.stats)
        else:
            compiled, requirements = compile_tree_ses(normalized)
            builder = TesFilterPlanBuilder(
                compiled, requirements, config.cost_model, ctx.stats
            )
        ctx.kind = "tree"
        ctx.graph = compiled.graph
        ctx.compiled = compiled
        ctx.mode = config.mode
        ctx.builder = builder
        ctx.info = _resolve_algorithm(config, compiled.graph, from_tree=True)


class FingerprintStage:
    """Stage 2: canonical cache key for cacheable queries.

    Computes the annotated canonical form (cardinalities as node
    colors, selectivities as edge colors) so every isomorphic
    relabeling of the query maps to one key, and combines it with the
    config/cost-model key tuple.  Skipped entirely — zero overhead —
    when no cache is attached or the query is not cacheable.
    """

    def __call__(self, ctx: PipelineContext) -> None:
        if ctx.cache is None or not ctx.cacheable:
            return
        # The *resolved* registration is part of the key (not just the
        # configured name): replacing a solver via
        # register_algorithm(replace=True), or an "auto" resolution
        # change after new registrations, must never serve plans the
        # previous solver computed.  The fingerprint is restart-stable
        # for never-replaced names, so such keys may be persisted;
        # replaced names yield process-scoped keys the persistence
        # layer refuses (see repro.core.identity).
        resolved = registration_fingerprint(ctx.info.name)
        ctx.key_info = build_cache_key(
            ctx.graph,
            ctx.resolved_cardinalities,
            ctx.config.cache_key() + (resolved,),
        )
        if not ctx.key_info.canonical:
            # canonicalization hit its budget (uniform-stats cliques):
            # the index-order fallback key still dedupes exact repeats
            # but not relabelings — count it so operators can see when
            # the hit rate is limited by labeling, not capacity
            ctx.cache.note_canonical_fallback()


class CacheStage:
    """Stages 3a/3b: cache lookup before dispatch, store after.

    A hit replays the cached canonical recipe onto the requesting
    query: the stored per-join floats plus the requester's own leaves,
    edges and names, with no estimator or cost-model call (see
    :mod:`repro.cache.recipe`); a stale entry (older statistics epoch)
    is recomputed and refreshed, surfacing as a ``"revalidated"``
    event.  A miss stores the canonical recipe it was served from
    (:meth:`Optimizer._absorb_recipe`).
    """

    def lookup(self, ctx: PipelineContext) -> None:
        if ctx.cache is None or ctx.key_info is None:
            return
        entry, status = ctx.cache.probe(ctx.key_info.key)
        if status == "hit":
            try:
                ctx.plan = replay_recipe(
                    entry.recipe, ctx.key_info.inverse, ctx.graph,
                    ctx.builder,
                )
            except (ValueError, LookupError, TypeError):
                # Unreplayable entry (should not happen outside digest
                # collisions): degrade to a recompute, never fail the
                # query on the cache's account.  The entry is dropped
                # and the optimistic hit reclassified as a miss.
                ctx.cache.note_replay_failure(ctx.key_info.key)
                ctx.cache_event = "replay_failed"
                return
            ctx.recipe = entry.recipe
            ctx.cache_hit = True
            ctx.cache_event = "hit"
        elif status == "stale":
            ctx.cache_event = "revalidated"
        else:
            ctx.cache_event = "miss"

    def store(self, ctx: PipelineContext) -> None:
        if (
            ctx.cache is None
            or ctx.key_info is None
            or ctx.cache_hit
            or ctx.plan is None
        ):
            return
        ctx.cache.store(
            ctx.key_info.key,
            ctx.recipe,
            # computed here, not per-lookup: misses only
            structure=structure_bucket(ctx.graph),
            cost=ctx.plan.cost,
        )


class DispatchStage:
    """Stage 4: run the resolved algorithm (cache miss path; on a keyed
    miss, over the canonical problem — see :func:`_compute_recipe`)."""

    def __call__(self, ctx: PipelineContext) -> Optional[Plan]:
        return ctx.info.solver(ctx.graph, ctx.builder, ctx.stats)


class FinalizeStage:
    """Stage 5: fold the context into an :class:`OptimizationResult`.

    When a cache is attached, the result's ``stats.extra`` gains a
    ``"plan_cache"`` entry: the per-query event (``hit`` / ``miss`` /
    ``revalidated`` / ``bypass`` for uncacheable queries /
    ``replay_failed`` for the behaves-like-a-miss corrupt-entry path)
    plus a counter snapshot of the shared cache.  With the cache off
    the stats are byte-identical to the pre-cache optimizer.
    """

    def __call__(self, ctx: PipelineContext) -> "OptimizationResult":
        if ctx.cache is not None:
            ctx.stats.extra["plan_cache"] = {
                "event": ctx.cache_event or "bypass",
                **ctx.cache.counters(),
            }
        if ctx.kind == "tree":
            return OptimizationResult(
                plan=ctx.plan,
                stats=ctx.stats,
                algorithm=ctx.info.name,
                requested_algorithm=ctx.config.algorithm,
                compiled=ctx.compiled,
                mode=ctx.mode,
            )
        return OptimizationResult(
            plan=ctx.plan,
            stats=ctx.stats,
            algorithm=ctx.info.name,
            requested_algorithm=ctx.config.algorithm,
            graph=ctx.graph,
        )


def _resolve_algorithm(
    config: "OptimizerConfig", graph: Hypergraph, from_tree: bool
) -> AlgorithmInfo:
    """Map the configured algorithm to a registration for ``graph``."""
    if config.algorithm == "auto":
        return select_auto(graph, from_tree=from_tree)
    info = get_algorithm(config.algorithm)
    check_capabilities(info, graph, from_tree=from_tree)
    return info


@dataclass(frozen=True)
class PipelineStages:
    """The five replaceable stages of the optimize pipeline.

    ``normalize -> fingerprint -> cache(lookup) -> dispatch ->
    cache(store) -> finalize``.  Swap any stage via
    ``OptimizerConfig(pipeline=PipelineStages(dispatch=MyDispatch()))``
    — stages must be stateless (they may run concurrently from
    ``optimize_many`` worker threads) and communicate only through the
    :class:`PipelineContext`.
    """

    normalize: Callable[[PipelineContext], None] = NormalizeStage()
    fingerprint: Callable[[PipelineContext], None] = FingerprintStage()
    cache: CacheStage = CacheStage()
    dispatch: Callable[[PipelineContext], Optional[Plan]] = DispatchStage()
    finalize: Callable[[PipelineContext], "OptimizationResult"] = (
        FinalizeStage()
    )


#: shared default pipeline (all stages are stateless singletons)
DEFAULT_PIPELINE = PipelineStages()


# -- configuration ----------------------------------------------------------


@dataclass(frozen=True)
class OptimizerConfig:
    """Reusable configuration for :class:`Optimizer`.

    Attributes:
        algorithm: a registry name (``"dphyp"``, ``"dpccp"``, ...) or
            ``"auto"`` (default) for capability-aware dispatch.
        cost_model: cost model for the default plan builders
            (``None`` = ``C_out``).
        mode: operator-tree compilation mode, ``"hyperedges"``
            (Section 5.7, default) or ``"tes-filter"`` (the
            generate-and-test comparator of Fig. 8a).
        default_cardinality: base cardinality assumed per relation
            when a hypergraph is optimized without cardinalities.
        on_disconnected: policy for disconnected hypergraphs —
            ``"raise"`` (default) raises
            :class:`~repro.core.hypergraph.DisconnectedGraphError`,
            ``"connect"`` auto-applies
            :meth:`~repro.core.hypergraph.Hypergraph.make_connected`
            (cross products with selectivity 1), ``"plan-none"``
            preserves the legacy behaviour of returning a result whose
            ``plan`` is ``None``.
        cache: plan-cache policy — ``"auto"`` (default: off for
            single :meth:`Optimizer.optimize` calls, on for
            :meth:`Optimizer.optimize_many` batches), ``"on"``
            (every cacheable query), or ``"off"`` (never; the
            fingerprint and cache stages become no-ops and behaviour
            is bit-identical to the pre-cache optimizer).
        cache_size: LRU capacity of the optimizer-owned
            :class:`~repro.cache.plan_cache.PlanCache` (ignored when a
            shared cache is injected via ``Optimizer(plan_cache=...)``).
        cache_path: SQLite plan-store file (``.sqlite``/``.sqlite3``/
            ``.db``; any other extension raises ``ValueError`` — the
            JSON document is an export/import format, not an autosave
            backend).  When set, the optimizer-owned cache is
            **auto-loaded** from the :class:`~repro.cache.store.
            PlanStore` on first use (a missing file is a normal cold
            start) and **auto-saved** back after every
            :meth:`Optimizer.optimize_many` batch (see
            ``cache_autosave``), so a restarted server serves its first
            repeated query as a cache hit.  Corrupt or version-stale
            files degrade to a cold cache with a
            :class:`~repro.cache.persist.CachePersistenceWarning`,
            never an exception.
        cache_autosave: autosave the cache to ``cache_path`` at the
            end of each ``optimize_many`` batch (default on; explicit
            :meth:`Optimizer.save_cache` always works).
        cache_namespace: optional label folded into every cache key.
            Optimizers (or serving clients — see ``docs/serving.md``)
            with different namespaces never serve each other's entries
            even inside one shared :class:`PlanCache`; ``None`` (the
            default) is the shared global namespace and keeps keys
            bit-identical to earlier releases, so persisted caches
            stay loadable.
        parallel_workers: default worker count for
            :meth:`Optimizer.optimize_many` (``None``/``1`` = serial
            for the thread executor, all CPUs for the process
            executor; results keep input order either way).
        executor: default ``optimize_many`` backend — ``"thread"``
            (shared-memory, GIL-bound; fine for replay-dominated hot
            workloads) or ``"process"`` (a ``ProcessPoolExecutor``
            sidesteps the GIL for enumeration-heavy batches; stateless
            workers compute one plan per distinct missing cache key
            and return compact plan recipes that the parent replays —
            see ``docs/cache.md``).
        pipeline: the five pipeline stage components; replace
            individual stages via
            ``PipelineStages(dispatch=MyDispatch())``.
    """

    algorithm: str = "auto"
    cost_model: Optional[CostModel] = None
    mode: str = "hyperedges"
    default_cardinality: float = 10.0
    on_disconnected: str = "raise"
    cache: str = "auto"
    cache_size: int = DEFAULT_CAPACITY
    cache_path: Optional[str] = None
    cache_autosave: bool = True
    cache_namespace: Optional[str] = None
    parallel_workers: Optional[int] = None
    executor: str = "thread"
    pipeline: PipelineStages = DEFAULT_PIPELINE

    #: Fields that can never change the *resulting plan* and therefore
    #: stay out of :meth:`cache_key` on purpose.  The static analysis
    #: suite (rule ``cache-key-completeness``) enforces that every
    #: field is either read inside ``cache_key()`` or listed here — a
    #: new knob cannot silently leak out of the key.
    CACHE_KEY_EXCLUDED: ClassVar[frozenset] = frozenset({
        # materialized into the statistics signature before keying
        "default_cardinality",
        # applied to the graph before fingerprinting
        "on_disconnected",
        # cache/persistence/executor plumbing: never changes the plan
        "cache",
        "cache_size",
        "cache_path",
        "cache_autosave",
        "parallel_workers",
        "executor",
        "pipeline",
    })

    def __post_init__(self) -> None:
        if self.mode not in ("hyperedges", "tes-filter"):
            raise ValueError("mode must be 'hyperedges' or 'tes-filter'")
        if self.on_disconnected not in ("raise", "connect", "plan-none"):
            raise ValueError(
                "on_disconnected must be 'raise', 'connect', or 'plan-none'"
            )
        if self.default_cardinality <= 0:
            raise ValueError("default_cardinality must be positive")
        if self.cache not in ("auto", "on", "off"):
            raise ValueError("cache must be 'auto', 'on', or 'off'")
        if self.cache_namespace is not None and (
            not isinstance(self.cache_namespace, str)
            or not self.cache_namespace
        ):
            raise ValueError(
                "cache_namespace must be None or a non-empty string"
            )
        if self.cache_size < 1:
            raise ValueError("cache_size must be at least 1")
        if self.cache_path is not None and not is_store_path(
            self.cache_path
        ):
            raise ValueError(
                f"cache_path {self.cache_path!r} is not a plan store; "
                f"use a {'/'.join(STORE_SUFFIXES)} path.  JSON plan "
                "documents are export/import only — migrate one with "
                "PlanStore(store_path).import_document(document), where "
                "document = json.load(open(json_path))"
            )
        if self.parallel_workers is not None and self.parallel_workers < 1:
            raise ValueError("parallel_workers must be None or >= 1")
        if self.executor not in ("thread", "process"):
            raise ValueError("executor must be 'thread' or 'process'")
        if self.algorithm != "auto":
            get_algorithm(self.algorithm)  # raises on unknown names

    def cache_key(self) -> tuple:
        """Stable tuple identifying this config for plan-cache keys.

        Only fields that can change the *resulting plan* participate:
        the algorithm, the operator-tree mode, and the cost model (via
        :meth:`repro.cost.models.CostModel.cache_key`).  Deliberately
        excluded: ``default_cardinality`` (materialized into the
        statistics signature during normalization), ``on_disconnected``
        (already applied to the graph before fingerprinting), and the
        cache/persistence/executor/pipeline plumbing itself — so
        configs differing only in plumbing share entries (and a
        persisted cache file is readable regardless of executor or
        autosave settings).  One
        deliberate exception to the plan-semantics rule:
        ``cache_namespace`` participates although it never changes the
        plan, because its whole job is key-space isolation between
        tenants of a shared cache.  Custom pipeline stages that change
        planning semantics must therefore use a dedicated cache (or
        ``cache="off"``).
        """
        model = self.cost_model
        if model is None:
            cost = (CoutModel.__module__, CoutModel.__qualname__)
        else:
            cost = model.cache_key()
        key = (self.algorithm, self.mode, cost)
        if self.cache_namespace is not None:
            # appended only when set: the default (None) keeps keys
            # bit-identical to pre-namespace releases, so persisted
            # caches written by them stay servable
            key += (("namespace", self.cache_namespace),)
        return key


# -- unified result ---------------------------------------------------------


@dataclass
class OptimizationResult:
    """Everything a caller wants back from one optimizer run.

    The single result type of every entry point — hypergraph, operator
    tree, and :class:`QuerySpec` paths alike.  Tree runs additionally
    populate ``compiled`` (the Section-5 compilation artefacts) and
    ``mode``.
    """

    plan: Optional[Plan]
    stats: SearchStats
    algorithm: str
    #: what the caller asked for — differs from ``algorithm`` when
    #: ``"auto"`` dispatched
    requested_algorithm: str = ""
    names: Optional[list[str]] = None
    graph: Optional[Hypergraph] = None
    #: :class:`repro.algebra.hyperedges.CompiledQuery` for tree runs
    compiled: Any = None
    mode: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.requested_algorithm:
            self.requested_algorithm = self.algorithm

    @property
    def cost(self) -> float:
        if self.plan is None:
            raise ValueError("query has no cross-product-free plan")
        return self.plan.cost

    @property
    def cardinality(self) -> float:
        if self.plan is None:
            raise ValueError("query has no cross-product-free plan")
        return self.plan.cardinality

    @property
    def relation_names(self) -> Optional[list[str]]:
        """Relation names in node order, from whichever source has them."""
        if self.names is not None:
            return list(self.names)
        if self.compiled is not None:
            return list(self.compiled.relation_names)
        if self.graph is not None:
            return [self.graph.name_of(i) for i in range(self.graph.n_nodes)]
        return None

    def explain(self) -> str:
        """Indented EXPLAIN tree with relation names plumbed through."""
        from .explain import explain as _explain

        if self.plan is None:
            raise ValueError("query has no cross-product-free plan")
        return _explain(self.plan, self.relation_names)

    def explain_dot(self) -> str:
        """Graphviz ``digraph`` serialization of the plan."""
        from .explain import explain_dot as _explain_dot

        if self.plan is None:
            raise ValueError("query has no cross-product-free plan")
        return _explain_dot(self.plan, self.relation_names)

    def _plan_dict(self, plan: Plan) -> dict:
        from .explain import payload_text  # local: avoid import cycle

        names = self.relation_names
        if plan.is_leaf:
            return {
                "relation": bitset.format_set(plan.nodes, names)[1:-1],
                "cardinality": plan.cardinality,
            }
        operator = plan.operator if plan.operator is not None else "join"
        return {
            "operator": str(operator),
            "predicates": [
                text
                for text in (payload_text(edge.payload) for edge in plan.edges)
                if text is not None
            ],
            "cardinality": plan.cardinality,
            "cost": plan.cost,
            "left": self._plan_dict(plan.left),
            "right": self._plan_dict(plan.right),
        }

    def to_dict(self) -> dict:
        """JSON-serializable summary (``json.dumps``-safe)."""
        plannable = self.plan is not None
        return {
            "algorithm": self.algorithm,
            "requested_algorithm": self.requested_algorithm,
            "mode": self.mode,
            "relation_names": self.relation_names,
            "plannable": plannable,
            "cost": self.plan.cost if plannable else None,
            "cardinality": self.plan.cardinality if plannable else None,
            "plan": self._plan_dict(self.plan) if plannable else None,
            "stats": self.stats.as_dict(),
        }


# -- the facade -------------------------------------------------------------


class Optimizer:
    """Configured front door to every join-ordering algorithm.

    Construct once, reuse for any number of queries::

        opt = Optimizer()                       # algorithm="auto"
        opt = Optimizer(algorithm="dphyp")      # kwargs shorthand
        opt = Optimizer(OptimizerConfig(cost_model=HashJoinModel()))

        result = opt.optimize(graph_or_tree_or_spec)
        results = opt.optimize_many(queries)

    Every call runs the staged pipeline ``normalize -> fingerprint ->
    cache lookup -> algorithm dispatch -> finalize``
    (:class:`PipelineStages`).  The plan cache is off by default for
    single ``optimize`` calls and on for ``optimize_many`` batches
    (``OptimizerConfig.cache`` overrides both ways); a
    :class:`~repro.cache.plan_cache.PlanCache` can be shared across
    optimizers via the ``plan_cache`` constructor argument.
    """

    def __init__(
        self,
        config: Optional[OptimizerConfig] = None,
        plan_cache: Optional[PlanCache] = None,
        **overrides: Any,
    ) -> None:
        if config is None:
            config = OptimizerConfig(**overrides)
        elif overrides:
            config = replace(config, **overrides)
        self.config = config
        self._plan_cache = plan_cache
        self._plan_cache_lock = threading.Lock()
        #: the :class:`~repro.cache.store.PlanStore` behind
        #: ``cache_path``, opened on first use; it tracks the cache's
        #: mutation cursor so clean batches skip all I/O
        self._store: Optional[PlanStore] = None

    def _open_store(self) -> PlanStore:
        """The ``cache_path`` store; callers hold ``_plan_cache_lock``.

        Callers guarantee ``config.cache_path`` is set.  Also reached
        with an *injected* cache (``Optimizer(plan_cache=...)``), in
        which case the store attaches to it on the first sync
        (cursor 0 = full first write, deltas afterwards).
        """
        if self._store is None:
            self._store = PlanStore(
                self.config.cache_path,  # type: ignore[arg-type]
                capacity=self.config.cache_size,
            )
        return self._store

    def _sync_store(self, cache: PlanCache, force: bool = False) -> int:
        with self._plan_cache_lock:
            store = self._open_store()
        return store.sync_from(cache, force=force)

    @property
    def plan_cache(self) -> PlanCache:
        """This optimizer's plan cache (lazily created, injectable).

        With ``OptimizerConfig(cache_path=...)`` set, first access
        auto-loads the persisted cache from the plan store — the
        warm-restart path.  A missing file is a silent cold start; a
        corrupt or version-stale file warns and starts cold.
        """
        if self._plan_cache is None:
            with self._plan_cache_lock:
                if self._plan_cache is None:
                    if self.config.cache_path is not None:
                        # load() attaches the cache to the store: the
                        # loaded content IS the persisted content, so
                        # the first batch after a warm restart does not
                        # rewrite identical rows
                        self._plan_cache = self._open_store().load()
                    else:
                        self._plan_cache = PlanCache(self.config.cache_size)
        return self._plan_cache

    def save_cache(self, path: Optional[str] = None) -> int:
        """Persist the plan cache now; return the entry count written.

        ``path`` defaults to ``OptimizerConfig.cache_path``, in which
        case the attached plan store is rewritten from the cache (a
        force sync: every fresh member in LRU order, and no row the
        cache dropped, at O(cache) cost).  An ad-hoc ``path`` is a one-shot
        full export: a plan store for ``.sqlite``/``.sqlite3``/``.db``
        paths, the JSON interchange document otherwise.  Batches
        already autosave (``cache_autosave``); call this for explicit
        checkpoints or exports.
        """
        path = path if path is not None else self.config.cache_path
        if path is None:
            raise ValueError(
                "no path: pass save_cache(path) or configure "
                "OptimizerConfig(cache_path=...)"
            )
        cache = self.plan_cache
        if path == self.config.cache_path:
            return self._sync_store(cache, force=True)
        if is_store_path(path):
            with PlanStore(path, capacity=cache.capacity) as store:
                return store.sync_from(cache, force=True)
        return persist.save(cache, path)

    def _autosave(self, cache: Optional[PlanCache]) -> None:
        """Batch-end autosave; never fails the batch (the store is
        total: trouble degrades to a warning).

        Skipped entirely when the cache content has not changed since
        the last save — a fully-warm serving loop does pure lookups,
        which never bump ``PlanCache.mutations``, so steady state pays
        no disk I/O.  A dirty cache persists only its delta: the store
        consumes one atomic :meth:`~repro.cache.plan_cache.PlanCache.
        sync_since` call, so a batch that stored k new entries writes
        O(k) rows.  The save itself is not O(k): ``sync_since`` scans
        every cache entry under the cache lock to find the delta, and
        the store's capacity trim walks ``capacity`` index entries.
        """
        if (
            cache is not None
            and self.config.cache_path is not None
            and self.config.cache_autosave
        ):
            self._sync_store(cache)

    # -- public API ------------------------------------------------------

    def optimize(
        self,
        query: Any,
        cardinalities: Optional[Sequence[float]] = None,
        builder: Optional[PlanBuilder] = None,
    ) -> OptimizationResult:
        """Optimize one query of any supported representation.

        Args:
            query: a :class:`Hypergraph`, an operator tree
                (:class:`~repro.algebra.optree.TreeNode`), a
                :class:`QuerySpec`, or a workload
                :class:`~repro.workloads.generators.Query` bundle.
            cardinalities: per-relation base cardinalities; hypergraph
                path only (specs, trees, and workload queries carry
                their own).
            builder: a fully custom plan builder (hypergraph path
                only); overrides ``cardinalities`` and the configured
                cost model, and bypasses the plan cache.
        """
        cache = self.plan_cache if self.config.cache == "on" else None
        return self._run_pipeline(query, cardinalities, builder, cache)

    def optimize_many(
        self,
        queries: Iterable,
        parallel: Optional[int] = None,
        cache: Optional[bool] = None,
        executor: Optional[str] = None,
    ) -> list[OptimizationResult]:
        """Optimize a batch; results are in input order.

        The batch path is where repeated workloads pay off: all queries
        share this optimizer's plan cache (default on; disable with
        ``cache=False`` or ``OptimizerConfig(cache="off")``), so
        repeats and isomorphic relabelings are served by recipe replay
        instead of re-enumeration.  With ``cache_path`` configured the
        shared cache is autosaved at the end of the batch.

        Args:
            queries: any mix of supported query representations.
            parallel: worker count (default
                ``OptimizerConfig.parallel_workers``).  For the thread
                executor ``None``/``1`` means serial; the process
                executor defaults to all CPUs.  Result order is input
                order regardless of completion order, so serial and
                parallel runs are interchangeable.
            cache: per-call override of the config's cache policy.
            executor: ``"thread"`` (default) or ``"process"``; the
                per-call override of ``OptimizerConfig.executor``.  The
                process backend sidesteps the GIL: queries are shipped
                to stateless worker processes (no cache of their
                own), plans come back as compact recipes, and the
                parent replays them so the shared cache is populated
                once.  Results are identical to the
                thread backend's; operator-tree queries are optimized
                in the parent (their compiled plans are not
                recipe-portable).
        """
        items = list(queries)
        if not items:
            return []
        if cache is None:
            use_cache = self.config.cache != "off"
        else:
            use_cache = bool(cache)
        shared = self.plan_cache if use_cache else None
        workers = (
            parallel if parallel is not None
            else self.config.parallel_workers
        )
        mode = executor if executor is not None else self.config.executor
        if mode not in ("thread", "process"):
            raise ValueError("executor must be 'thread' or 'process'")
        try:
            if mode == "process" and len(items) > 1:
                return self._optimize_many_process(items, shared, workers)
            if workers is not None and workers > 1 and len(items) > 1:
                from concurrent.futures import ThreadPoolExecutor

                with ThreadPoolExecutor(
                    max_workers=min(workers, len(items))
                ) as pool:
                    return list(pool.map(
                        lambda query: self._run_pipeline(
                            query, None, None, shared
                        ),
                        items,
                    ))
            return [
                self._run_pipeline(query, None, None, shared)
                for query in items
            ]
        finally:
            self._autosave(shared)

    def _optimize_many_process(
        self,
        items: list,
        shared: Optional[PlanCache],
        workers: Optional[int],
    ) -> list[OptimizationResult]:
        """The ``executor="process"`` backend of :meth:`optimize_many`.

        Queries fresh in the shared cache are served in the parent (a
        fully warm batch spawns no processes).  The rest are grouped by
        cache key, and each group ships **one** :func:`_problem` task to
        a stateless worker; uncacheable queries (every query when the
        cache is off) are groups of one.  The parent absorbs the batch
        in input order, each query with its group's recipe, so the
        shared cache evolves exactly as in a serial run: the first
        absorb stores the entry, later ones hit it, and one whose entry
        was evicted inside the batch replays the recipe again.
        """
        from .algebra.optree import TreeNode  # local: avoid import cycle

        results: list = [None] * len(items)
        #: (result index, prepared context, task index), input order
        offload: "list[tuple[int, PipelineContext, int]]" = []
        tasks: "list[tuple[Hypergraph, list[float], str]]" = []
        task_of_key: dict = {}
        for index, query in enumerate(items):
            if isinstance(query, TreeNode):
                continue
            ctx, served = self._probe(query, shared)
            if served is not None:
                results[index] = served
                continue
            key = ctx.key_info.key if ctx.key_info is not None else None
            task = task_of_key.get(key) if key is not None else None
            if task is None:
                task = len(tasks)
                tasks.append(_problem(ctx))
                if key is not None:
                    task_of_key[key] = task
            # the prepared context rides along so absorbing the
            # worker payload does not normalize/fingerprint again
            offload.append((index, ctx, task))
        if tasks:
            if workers is None:
                workers = os.cpu_count() or 1
            n_workers = max(1, min(workers, len(tasks)))
            chunksize = max(1, len(tasks) // (n_workers * 4))
            with _process_pool(self.config, n_workers) as pool:
                payloads = pool.map(
                    _process_worker_run, tasks, chunksize=chunksize
                )
                # payloads arrive in task order, so absorbing overlaps
                # with the workers still computing later tasks
                received: "list[dict]" = []
                for index, ctx, task in offload:
                    while len(received) <= task:
                        received.append(next(payloads))
                    payload = received[task]
                    # the enumeration ran once: its statistics go to
                    # the first result absorbed from it
                    results[index] = self._absorb_recipe(
                        ctx, payload["recipe"], payload.pop("stats", None)
                    )
        for index, query in enumerate(items):
            if isinstance(query, TreeNode):
                results[index] = self._run_pipeline(query, None, None, shared)
        return results

    def _prepare(
        self,
        query: Any,
        cache: Optional[PlanCache],
        cardinalities: Optional[Sequence[float]] = None,
        builder: Optional[PlanBuilder] = None,
    ) -> PipelineContext:
        """A fresh context for ``query``, normalized and fingerprinted."""
        stages = self.config.pipeline
        ctx = PipelineContext(
            config=self.config,
            query=query,
            cardinalities=cardinalities,
            builder_arg=builder,
            cache=cache,
        )
        stages.normalize(ctx)
        stages.fingerprint(ctx)
        return ctx

    def _probe(
        self, query: Any, cache: Optional[PlanCache]
    ) -> "tuple[PipelineContext, Optional[OptimizationResult]]":
        """Prepare ``query``; serve it from ``cache`` if fresh there.

        A side-effect-free ``peek`` first, so a miss shipped to the pool
        is counted once, by :meth:`_absorb_recipe`.  ``result`` is
        ``None`` when the caller must compute (miss, stale entry,
        uncacheable query, replay failure).
        """
        stages = self.config.pipeline
        ctx = self._prepare(query, cache)
        if cache is None or ctx.key_info is None:
            return ctx, None
        _entry, status = cache.peek(ctx.key_info.key)
        if status != "hit":
            return ctx, None
        stages.cache.lookup(ctx)
        if not ctx.cache_hit:
            return ctx, None
        return ctx, stages.finalize(ctx)

    def _absorb_recipe(
        self,
        ctx: PipelineContext,
        recipe: Optional[PlanRecipe],
        worker_stats: Optional[dict] = None,
    ) -> OptimizationResult:
        """Serve a prepared miss from the recipe of its key's problem.

        Every executor's one way to fill the cache: the counted lookup
        (it may hit an entry stored meanwhile), else the recipe — from
        this query's :func:`_compute_recipe` or a same-key leader's —
        is replayed like a hit and stored.  ``None`` means no plan.
        """
        stages = self.config.pipeline
        if ctx.cache_event is None:
            # unless already made (an in-process miss, a replay failure
            # in the probe): a second would count a second miss
            stages.cache.lookup(ctx)
        if not ctx.cache_hit and recipe is not None:
            assert ctx.graph is not None and ctx.builder is not None
            inverse: Sequence[int] = (
                ctx.key_info.inverse if ctx.key_info is not None
                else range(ctx.graph.n_nodes)
            )
            ctx.recipe = recipe
            ctx.plan = replay_recipe(recipe, inverse, ctx.graph, ctx.builder)
            stages.cache.store(ctx)
        if worker_stats:
            ctx.stats.extra["process_worker"] = worker_stats
        return stages.finalize(ctx)

    # -- pipeline driver -------------------------------------------------

    def _run_pipeline(
        self,
        query: Any,
        cardinalities: Optional[Sequence[float]],
        builder: Optional[PlanBuilder],
        cache: Optional[PlanCache],
    ) -> OptimizationResult:
        stages = self.config.pipeline
        ctx = self._prepare(query, cache, cardinalities, builder)
        stages.cache.lookup(ctx)
        if ctx.cache_hit:
            return stages.finalize(ctx)
        if ctx.key_info is None:
            # unkeyed (no cache, operator tree, custom builder): a
            # relabel would cost more than it serves, nothing is stored
            ctx.plan = stages.dispatch(ctx)
            return stages.finalize(ctx)
        return self._absorb_recipe(
            ctx, _compute_recipe(self.config, _problem(ctx), ctx.stats)
        )


# -- the one compute function ------------------------------------------------


def _problem(ctx: PipelineContext) -> "tuple[Hypergraph, list[float], str]":
    """``(graph, cardinalities, algorithm)`` a prepared miss enumerates:
    the query relabeled by its key's canonical permutation (identity
    when unkeyed), and the resolved registration.  The pool's task."""
    assert ctx.graph is not None and ctx.info is not None
    assert ctx.resolved_cardinalities is not None
    permutation: Sequence[int] = (
        ctx.key_info.permutation if ctx.key_info is not None
        else range(ctx.graph.n_nodes)
    )
    graph, cardinalities = canonical_problem(
        ctx.graph, ctx.resolved_cardinalities, permutation
    )
    return graph, cardinalities, ctx.info.name


def _compute_recipe(
    config: OptimizerConfig,
    problem: "tuple[Hypergraph, list[float], str]",
    stats: SearchStats,
) -> Optional[PlanRecipe]:
    """Enumerate a :func:`_problem` through the dispatch stage.

    The one compute function of in-process misses and pool workers: it
    runs the resolved registration as given (a worker re-resolving
    could store another solver's plan under the parent's key) and
    returns the identity recipe, for a canonical problem the canonical
    recipe.  Counters land in ``stats``."""
    graph, cardinalities, algorithm = problem
    ctx = PipelineContext(
        config, graph, cardinalities, None, None, kind="hypergraph",
        graph=graph, resolved_cardinalities=cardinalities, stats=stats,
        builder=JoinPlanBuilder(
            graph, cardinalities, config.cost_model, stats
        ),
        info=get_algorithm(algorithm),
    )
    plan = config.pipeline.dispatch(ctx)
    return None if plan is None else plan_recipe(plan, range(graph.n_nodes))


# -- process-pool worker side ------------------------------------------------
#
# Module-level (not methods) so they pickle by reference under every
# multiprocessing start method, including "spawn" where the worker
# re-imports this module from scratch.

#: per-worker-process state: {"config": OptimizerConfig}
_WORKER_STATE: dict = {}


def _process_pool(
    config: OptimizerConfig, workers: int
) -> "ProcessPoolExecutor":
    """The worker pool every process-side computation runs in.

    ``optimize_many(executor="process")`` builds one per batch and the
    serving daemon one for its lifetime (and again after a worker
    crash); both ship :func:`_problem` tasks to
    :func:`_process_worker_run`.  The config is pickled here, in the
    parent, so an unpicklable one fails once with a clear error rather
    than in every worker.
    """
    import pickle
    from concurrent.futures import ProcessPoolExecutor

    try:
        config_blob = pickle.dumps(config)
    except Exception as exc:
        raise ValueError(
            "a process pool needs a picklable OptimizerConfig; custom "
            "cost models and pipeline stages must be module-level "
            f"classes (pickling failed with: {exc})"
        ) from exc
    return ProcessPoolExecutor(
        max_workers=workers,
        initializer=_process_worker_init,
        initargs=(config_blob, snapshot_registrations()),
    )


def _close_inherited_inet_sockets() -> None:
    """Drop the TCP fds a forked worker inherited from its parent.

    In the daemon they include the listening socket, which would keep
    the port accepting connections after shutdown closed it, and client
    connections, whose EOF would wait for the worker to exit.
    Multiprocessing's own channels are pipes and unix-domain sockets,
    so closing only the inet families is safe.
    """
    import socket

    try:
        fd_names = os.listdir("/proc/self/fd")
    except OSError:  # pragma: no cover - non-procfs platform
        return
    for name in fd_names:
        try:
            sock = socket.socket(fileno=int(name))
        except (OSError, ValueError):
            continue  # not a socket (or already gone)
        if sock.family in (socket.AF_INET, socket.AF_INET6):
            sock.close()
        else:
            sock.detach()  # release ownership without closing


def _exit_with_parent(parent: Any) -> None:
    """End this worker once its parent is gone, even SIGKILLed."""
    parent.join()
    os._exit(1)


def _process_worker_init(config_blob: bytes, registrations: list) -> None:
    """Initializer run once in each pool worker process.

    A forked worker drops the daemon's inet sockets and its asyncio
    signal handling (whose SIGTERM handler only wrote to the parent's
    wakeup fd), and exits when its parent dies.  Custom registrations
    are restored *before* the config is unpickled (its validation
    resolves algorithm names).  The config is all a worker keeps: no
    cache, so its plans cannot depend on cache history.
    """
    import multiprocessing
    import pickle
    import signal

    parent = multiprocessing.parent_process()
    if parent is not None:
        _close_inherited_inet_sockets()
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        signal.set_wakeup_fd(-1)
        threading.Thread(
            target=_exit_with_parent, args=(parent,), daemon=True,
            name="exit-with-parent",
        ).start()
    restore_registrations(registrations)
    _WORKER_STATE["config"] = pickle.loads(config_blob)


def _process_worker_run(
    problem: "tuple[Hypergraph, list[float], str]",
) -> dict:
    """One pool task: the problem's recipe plus the search statistics."""
    stats = SearchStats()
    recipe = _compute_recipe(_WORKER_STATE["config"], problem, stats)
    return {"recipe": recipe, "stats": stats.as_dict()}
