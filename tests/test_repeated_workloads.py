"""Tests for the repeated/relabeled workload generators and the
throughput bench harness that consumes them."""

import pytest

from repro import Optimizer, OptimizerConfig
from repro.bench import throughput
from repro.cache.keys import structure_bucket
from repro.workloads import generators
from repro.workloads.repeated import (
    drifted,
    drifting_workload,
    mixed_shapes_workload,
    relabeled,
    repeated_workload,
)


class TestRelabeled:
    def test_same_optimum_cost(self):
        base = generators.cycle(7, seed=3)
        copy = relabeled(base, seed=5)
        opt = Optimizer(OptimizerConfig(cache="off"))
        assert opt.optimize(copy).cost == pytest.approx(
            opt.optimize(base).cost, rel=1e-12
        )

    def test_structure_is_isomorphic(self):
        base = generators.star(6, seed=2)
        copy = relabeled(base, seed=9)
        assert base.graph.canonical_form().digest == \
            copy.graph.canonical_form().digest
        assert structure_bucket(base.graph) == structure_bucket(copy.graph)
        assert copy.graph.n_nodes == base.graph.n_nodes
        assert len(copy.graph.edges) == len(base.graph.edges)

    def test_cardinalities_travel_with_nodes(self):
        base = generators.chain(5, seed=4)
        copy = relabeled(base, seed=7)
        assert sorted(copy.cardinalities) == sorted(base.cardinalities)

    def test_rename_gives_fresh_names(self):
        base = generators.chain(4, seed=1)
        copy = relabeled(base, seed=2, rename=True)
        assert copy.graph.node_names == ["Q0", "Q1", "Q2", "Q3"]

    def test_meta_records_provenance(self):
        base = generators.chain(4, seed=1)
        copy = relabeled(base, seed=6)
        assert copy.meta["relabel_seed"] == 6
        assert copy.meta["base"] == base.description


class TestDrifted:
    def test_same_structure_different_stats(self):
        base = generators.chain(5, seed=2)
        moved = drifted(base, seed=3)
        assert moved.graph is base.graph
        assert moved.cardinalities != base.cardinalities

    def test_drift_validation(self):
        with pytest.raises(ValueError):
            drifted(generators.chain(3, seed=1), drift=0.0)


class TestWorkloadFactories:
    def test_repeated_workload_first_is_base(self):
        base = generators.chain(5, seed=1)
        batch = repeated_workload(base, 4)
        assert batch[0] is base
        assert len(batch) == 4

    def test_repeated_workload_without_relabel(self):
        base = generators.chain(5, seed=1)
        batch = repeated_workload(base, 3, relabel=False)
        assert all(query is base for query in batch)

    def test_repeated_workload_validation(self):
        with pytest.raises(ValueError):
            repeated_workload(generators.chain(3, seed=1), 0)

    def test_drifting_workload_hit_rate(self):
        base = generators.chain(6, seed=2)
        batch = drifting_workload(base, 12, seed=1, distinct_stats=3)
        opt = Optimizer()
        opt.optimize_many(batch)       # warm: 3 distinct entries
        results = opt.optimize_many(batch)
        events = [r.stats.extra["plan_cache"]["event"] for r in results]
        assert events.count("hit") == len(batch)
        assert len(opt.plan_cache) == 3

    def test_drifting_workload_validation(self):
        base = generators.chain(3, seed=1)
        with pytest.raises(ValueError):
            drifting_workload(base, 0)
        with pytest.raises(ValueError):
            drifting_workload(base, 3, distinct_stats=0)


class TestMixedShapesWorkload:
    def test_one_cache_entry_per_base(self):
        bases = [generators.chain(4, seed=1), generators.star(3, seed=2)]
        batch = mixed_shapes_workload(bases, 8, seed=5)
        assert len(batch) == 8
        opt = Optimizer(OptimizerConfig(cache="on"))
        opt.optimize_many(batch)
        assert len(opt.plan_cache) == len(bases)

    def test_validation(self):
        with pytest.raises(ValueError):
            mixed_shapes_workload([], 4)
        with pytest.raises(ValueError):
            mixed_shapes_workload([generators.chain(3)], 0)


class TestThroughputHarness:
    def test_run_and_validate_tiny(self):
        document = throughput.run_throughput(max_n=5, copies=4)
        throughput.validate_result(document)
        for entry in document["workloads"]:
            assert entry["n_queries"] == 4
            assert entry["hot_hit_rate"] == 1.0
            assert entry["cache"]["size"] >= 1
        assert document["drifting"]["n_queries"] == 4
        assert document["restart"]["first_query_event"] == "hit"
        assert document["restart"]["persisted_entries"] >= 1

    def test_committed_baselines_still_validate(self):
        """Both committed BENCH documents (schema v1 and v2) must pass
        the validator — baselines from earlier PRs stay auditable."""
        import json
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent
        for name in ("BENCH_pr3_plan_cache.json", "BENCH_pr4_persist.json"):
            with open(root / name) as handle:
                throughput.validate_result(json.load(handle))

    def test_restart_phase_warm_hits(self):
        restart = throughput.run_restart(max_n=5, copies=6)
        assert restart["first_query_event"] == "hit"
        assert restart["warm_hit_rate"] == 1.0
        assert restart["persisted_entries"] >= 1

    def test_cli_restart_gate_fails_on_absurd_threshold(
        self, tmp_path, capsys
    ):
        out = tmp_path / "tp.json"
        code = throughput.main([
            "--max-n", "5", "--copies", "3",
            "--min-restart-speedup", "1e9", "--out", str(out),
        ])
        assert code == 1
        assert "PERSISTENCE REGRESSION" in capsys.readouterr().err

    def test_render_summary_mentions_every_workload(self):
        document = throughput.run_throughput(max_n=5, copies=3)
        text = throughput.render_summary(document)
        for entry in document["workloads"]:
            assert entry["query"] in text

    def test_validate_rejects_missing_keys(self):
        document = throughput.run_throughput(max_n=5, copies=3)
        del document["workloads"][0]["hot_qps"]
        with pytest.raises(ValueError, match="hot_qps"):
            throughput.validate_result(document)

    def test_copies_validation(self):
        with pytest.raises(ValueError):
            throughput.run_throughput(copies=1)

    def test_cli_min_speedup_gate(self, tmp_path, capsys):
        out = tmp_path / "tp.json"
        # an absurd required speedup must fail the gate
        code = throughput.main([
            "--max-n", "5", "--copies", "3",
            "--min-speedup", "1e9", "--out", str(out),
        ])
        assert code == 1
        assert out.exists()
        assert "THROUGHPUT REGRESSION" in capsys.readouterr().err
