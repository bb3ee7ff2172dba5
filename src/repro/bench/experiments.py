"""One driver per table/figure of the paper's evaluation.

Every driver returns an :class:`~repro.bench.harness.ExperimentResult`
with the same rows/series the paper reports: optimization time per
algorithm over the experiment's x-axis (hyperedge splits, relation
count, or non-inner-operator count), plus the hardware-independent
csg-cmp-pair counts.

Scaled sizes: drivers take the paper's size as default but clamp it via
:func:`~repro.bench.harness.scaled`; EXPERIMENTS.md records both the
paper's numbers and ours.
"""

from __future__ import annotations

from typing import Optional

from ..core.kernel import DPhyp
from ..workloads import generators, hyper
from ..workloads.nonreorderable import cycle_outerjoin_tree, star_antijoin_tree
from .harness import ExperimentResult, Series, measure_algorithm, measure_tree, scaled

#: the three competitors of Section 4
HYPERGRAPH_ALGORITHMS = ("dphyp", "dpsize", "dpsub")


def _hypergraph_split_experiment(
    experiment_id: str,
    title: str,
    make_query,
    base_size: int,
    splits: list[int],
    algorithms=HYPERGRAPH_ALGORITHMS,
    notes: str = "",
) -> ExperimentResult:
    series = [Series(label=algorithm) for algorithm in algorithms]
    for split in splits:
        query = make_query(base_size, split)
        for entry in series:
            entry.points[split] = measure_algorithm(
                query.graph, query.cardinalities, entry.label
            )
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        x_label="hyperedge splits",
        x_values=list(splits),
        series=series,
        notes=notes,
    )


def table_cycle4(**_kwargs) -> ExperimentResult:
    """Section 4.2 table: cycle with 4 relations, splits 0–1."""
    return _hypergraph_split_experiment(
        "table-cycle4",
        "Cycle Queries with 4 Relations (Sec. 4.2 table)",
        hyper.cycle_hypergraph,
        base_size=4,
        splits=[0, 1],
    )


def fig5_cycle8(**_kwargs) -> ExperimentResult:
    """Fig. 5 (left): cycle with 8 relations, splits 0–3."""
    return _hypergraph_split_experiment(
        "fig5-cycle8",
        "Cycle Queries with 8 Relations (Fig. 5 left)",
        hyper.cycle_hypergraph,
        base_size=8,
        splits=list(range(hyper.max_splits(4) + 1)),
    )


def fig5_cycle16(n: Optional[int] = None, **_kwargs) -> ExperimentResult:
    """Fig. 5 (right): cycle with 16 relations, splits 0–7.

    Scaled default: 12 relations (DPsub needs ~3^n subset probes, which
    pure Python cannot deliver at n=16 in benchmark time).
    """
    size = n if n is not None else scaled(16, 12)
    return _hypergraph_split_experiment(
        "fig5-cycle16",
        f"Cycle Queries with {size} Relations (Fig. 5 right, paper: 16)",
        hyper.cycle_hypergraph,
        base_size=size,
        splits=list(range(hyper.max_splits(size // 2) + 1)),
        notes=f"paper size 16, run at {size} (REPRO_BENCH_FULL=1 for 16)",
    )


def table_star4(**_kwargs) -> ExperimentResult:
    """Section 4.3 table: star with 4 satellite relations, splits 0–1."""
    return _hypergraph_split_experiment(
        "table-star4",
        "Star Queries with 4 Satellites (Sec. 4.3 table)",
        hyper.star_hypergraph,
        base_size=4,
        splits=[0, 1],
    )


def fig6_star8(**_kwargs) -> ExperimentResult:
    """Fig. 6 (left): star with 8 satellites, splits 0–3."""
    return _hypergraph_split_experiment(
        "fig6-star8",
        "Star Queries with 8 Satellites (Fig. 6 left)",
        hyper.star_hypergraph,
        base_size=8,
        splits=list(range(hyper.max_splits(4) + 1)),
    )


def fig6_star16(n: Optional[int] = None, **_kwargs) -> ExperimentResult:
    """Fig. 6 (right): star with 16 satellites, splits 0–7.

    Scaled default: 10 satellites (DPsize alone needs >100 s in the
    paper's own C++ at 16; Python needs the cap).
    """
    size = n if n is not None else scaled(16, 10)
    return _hypergraph_split_experiment(
        "fig6-star16",
        f"Star Queries with {size} Satellites (Fig. 6 right, paper: 16)",
        hyper.star_hypergraph,
        base_size=size,
        splits=list(range(hyper.max_splits(size // 2) + 1)),
        notes=f"paper size 16, run at {size} (REPRO_BENCH_FULL=1 for 16)",
    )


def fig7_regular(
    max_n: Optional[int] = None,
    baseline_max_n: Optional[int] = None,
    **_kwargs,
) -> ExperimentResult:
    """Fig. 7: star queries *without* hyperedges, n = 3..16 (log scale).

    DPhyp runs the full range; DPsize/DPsub are capped separately
    because their runtime explodes combinatorially (which is exactly
    the figure's point — missing points mean "too slow", like the
    paper's DPsub exclusion in Fig. 8b).
    """
    top = max_n if max_n is not None else scaled(16, 13)
    baseline_top = (
        baseline_max_n if baseline_max_n is not None else scaled(16, 10)
    )
    x_values = list(range(3, top + 1))
    series = [Series(label=algorithm) for algorithm in HYPERGRAPH_ALGORITHMS]
    for n in x_values:
        query = generators.star(n - 1)  # n relations = hub + (n-1) satellites
        for entry in series:
            if entry.label != "dphyp" and n > baseline_top:
                continue
            entry.points[n] = measure_algorithm(
                query.graph, query.cardinalities, entry.label
            )
    return ExperimentResult(
        experiment_id="fig7-regular",
        title=f"Star Queries without Hyperedges, n=3..{top} (Fig. 7, paper: 16)",
        x_label="number of relations",
        x_values=x_values,
        series=series,
        notes=(
            f"DPsize/DPsub capped at n={baseline_top} "
            "(REPRO_BENCH_FULL=1 lifts caps)"
        ),
    )


def fig8a_antijoins(n: Optional[int] = None, **_kwargs) -> ExperimentResult:
    """Fig. 8a: star query, increasing number of antijoins —
    hypergraph-derived edges vs. generate-and-test on TESs."""
    n_satellites = n if n is not None else scaled(16, 12)
    x_values = list(range(n_satellites + 1))  # 0 .. all-antijoin
    series = [
        Series(label="DPhyp hypernodes"),
        Series(label="DPhyp TESs"),
    ]
    for k in x_values:
        tree = star_antijoin_tree(n_satellites, k, seed=7)
        series[0].points[k] = measure_tree(tree, mode="hyperedges")
        series[1].points[k] = measure_tree(tree, mode="tes-filter")
    return ExperimentResult(
        experiment_id="fig8a-antijoin",
        title=(
            f"Star Query with {n_satellites} Satellites, increasing antijoins "
            "(Fig. 8a, paper: 16 relations)"
        ),
        x_label="number of anti-joins",
        x_values=x_values,
        series=series,
        notes=f"paper: 16 relations; run with {n_satellites} satellites",
    )


def fig8b_outerjoins(n: Optional[int] = None, **_kwargs) -> ExperimentResult:
    """Fig. 8b: cycle query, increasing number of outer joins —
    DPhyp vs DPsize (DPsub excluded as in the paper: >1400 ms there)."""
    size = n if n is not None else scaled(16, 12)
    x_values = list(range(size))
    series = [Series(label="dphyp"), Series(label="dpsize")]
    for k in x_values:
        tree = cycle_outerjoin_tree(size, k, seed=7)
        for entry in series:
            entry.points[k] = measure_tree(tree, algorithm=entry.label)
    return ExperimentResult(
        experiment_id="fig8b-outerjoin",
        title=(
            f"Cycle Query with {size} Relations, increasing outer joins "
            "(Fig. 8b, paper: 16)"
        ),
        x_label="number of outer joins",
        x_values=x_values,
        series=series,
        notes="DPsub excluded as in the paper (> 1400 ms there)",
    )


def _dphyp_without_memo(graph, builder, stats):
    """DPhyp with neighborhood memoization off (ablation variant)."""
    return DPhyp(graph, builder, stats, memoize_neighborhoods=False).run()


def ablation_dphyp(n: Optional[int] = None, **_kwargs) -> ExperimentResult:
    """DPhyp implementation knobs on star queries (repo ablation).

    Not a figure of the paper: this positions the repo's own hot-path
    choices — DPhyp (``dphyp``), neighborhood memoization (off in
    ``dphyp-nomemo``, the solver constructed with the setting
    directly), and the seed-faithful recursive baseline
    (``dphyp-recursive``) — on the star shape whose neighborhood count
    grows fastest.
    """
    top = n if n is not None else scaled(12, 10)
    x_values = list(range(4, top + 1))
    variants = [
        ("dphyp", "dphyp"),
        ("dphyp-nomemo", _dphyp_without_memo),
        ("dphyp-recursive", "dphyp-recursive"),
    ]
    series = [Series(label=label) for label, _solver in variants]
    for satellites in x_values:
        query = generators.star(satellites)
        for entry, (_label, solver) in zip(series, variants):
            entry.points[satellites] = measure_algorithm(
                query.graph, query.cardinalities, solver
            )
    return ExperimentResult(
        experiment_id="ablation-dphyp",
        title=f"DPhyp knob ablation on star queries, satellites=4..{top}",
        x_label="number of satellites",
        x_values=x_values,
        series=series,
        notes=(
            "repo ablation (not a paper figure): DPhyp vs. "
            "memoization-off vs. seed recursive baseline"
        ),
    )


#: registry used by the CLI and the smoke tests
EXPERIMENTS = {
    "table-cycle4": table_cycle4,
    "fig5-cycle8": fig5_cycle8,
    "fig5-cycle16": fig5_cycle16,
    "table-star4": table_star4,
    "fig6-star8": fig6_star8,
    "fig6-star16": fig6_star16,
    "fig7-regular": fig7_regular,
    "fig8a-antijoin": fig8a_antijoins,
    "fig8b-outerjoin": fig8b_outerjoins,
    "ablation-dphyp": ablation_dphyp,
}
