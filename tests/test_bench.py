"""Tests for the benchmark harness, experiment drivers, and CLI."""

import pytest

from repro.bench.experiments import EXPERIMENTS, table_cycle4, table_star4
from repro.bench.harness import (
    ExperimentResult,
    Series,
    measure_algorithm,
    measure_tree,
    scaled,
    time_call,
)
from repro.bench.reporting import (
    render_markdown,
    render_table,
    summarize_winners,
)
from repro.workloads import chain
from repro.workloads.nonreorderable import star_antijoin_tree


class TestScaled:
    def test_default_cap(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_FULL", raising=False)
        monkeypatch.delenv("REPRO_BENCH_MAX_N", raising=False)
        assert scaled(16, 12) == 12
        assert scaled(8, 12) == 8

    def test_full_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_FULL", "1")
        assert scaled(16, 12) == 16

    def test_custom_cap(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_FULL", raising=False)
        monkeypatch.setenv("REPRO_BENCH_MAX_N", "6")
        assert scaled(16, 12) == 6


class TestMeasurement:
    def test_time_call_returns_positive(self):
        assert time_call(lambda: sum(range(100)), repeat=2) > 0.0

    def test_measure_algorithm(self):
        query = chain(4, seed=0)
        m = measure_algorithm(query.graph, query.cardinalities, "dphyp",
                              repeat=1)
        assert m.milliseconds > 0
        assert m.ccp == 10  # chain-4: (64-4)/6
        assert m.cost is not None

    def test_measure_tree(self):
        tree = star_antijoin_tree(3, 1, seed=0)
        m = measure_tree(tree, repeat=1)
        assert m.milliseconds > 0
        assert m.cost is not None


class TestExperimentDrivers:
    def test_registry_covers_every_table_and_figure(self):
        assert set(EXPERIMENTS) == {
            "table-cycle4",
            "fig5-cycle8",
            "fig5-cycle16",
            "table-star4",
            "fig6-star8",
            "fig6-star16",
            "fig7-regular",
            "fig8a-antijoin",
            "fig8b-outerjoin",
            "ablation-dphyp",
        }

    def test_table_cycle4_shape(self):
        result = table_cycle4()
        assert result.x_values == [0, 1]
        assert [s.label for s in result.series] == ["dphyp", "dpsize", "dpsub"]
        for series in result.series:
            assert set(series.points) == {0, 1}
        # all algorithms agree on enumeration-theoretic facts:
        # DPhyp emits each ccp once, DPsub the same, DPsize twice
        hyp = result.series_by_label("dphyp")
        sub = result.series_by_label("dpsub")
        size = result.series_by_label("dpsize")
        for split in result.x_values:
            assert hyp.points[split].ccp == sub.points[split].ccp
            assert size.points[split].ccp == 2 * hyp.points[split].ccp

    def test_table_star4_dphyp_never_explores_more(self):
        result = table_star4()
        hyp = result.series_by_label("dphyp")
        for other in result.series:
            for split in result.x_values:
                assert hyp.points[split].ccp <= other.points[split].ccp * 2

    def test_small_fig8_drivers(self):
        from repro.bench.experiments import fig8a_antijoins, fig8b_outerjoins

        result_a = fig8a_antijoins(n=4)
        assert result_a.x_values == [0, 1, 2, 3, 4]
        hyper = result_a.series_by_label("DPhyp hypernodes")
        # full antijoin star collapses the explored space
        assert hyper.points[4].ccp < hyper.points[0].ccp

        result_b = fig8b_outerjoins(n=5)
        assert len(result_b.series) == 2  # DPsub excluded, as in the paper

    def test_ablation_driver_variants_agree(self):
        from repro.bench.experiments import ablation_dphyp

        result = ablation_dphyp(n=5)
        labels = [series.label for series in result.series]
        assert labels == ["dphyp", "dphyp-nomemo", "dphyp-recursive"]
        for satellites in result.x_values:
            points = [series.points[satellites] for series in result.series]
            # same enumeration regardless of knob: identical ccps/costs
            assert len({point.ccp for point in points}) == 1
            assert len({round(point.cost, 6) for point in points}) == 1


class TestRegressionHarness:
    def test_run_and_validate_tiny(self):
        from repro.bench.regression import run_regression, validate_result

        document = run_regression(max_n=5, repeat=1, label="unit-test")
        validate_result(document)
        shapes = [entry["workload"] for entry in document["workloads"]]
        assert shapes == ["chain", "cycle", "star"]
        for entry in document["workloads"]:
            iterative = entry["results"]["dphyp"]
            recursive = entry["results"]["dphyp-recursive"]
            # identical enumeration and identical optimum, per PR gate
            assert iterative["ccp"] == recursive["ccp"]
            assert iterative["cost"] == pytest.approx(recursive["cost"])
        assert set(document["speedups"]) == {
            entry["query"] for entry in document["workloads"]
        }

    def test_validate_rejects_bad_documents(self):
        from repro.bench import regression

        with pytest.raises(ValueError):
            regression.validate_result({})
        document = regression.run_regression(max_n=4, repeat=1)
        document["schema_version"] = 999
        with pytest.raises(ValueError):
            regression.validate_result(document)

    def test_cli_writes_json(self, tmp_path, capsys):
        import json

        from repro.bench.regression import main, validate_result

        out = tmp_path / "BENCH_smoke.json"
        assert main(["--max-n", "4", "--repeat", "1", "--out", str(out)]) == 0
        document = json.loads(out.read_text())
        validate_result(document)
        assert "regression suite" in capsys.readouterr().out

    def test_bench_cli_regression_subcommand(self, capsys):
        from repro.bench.__main__ import main

        assert main(["regression", "--max-n", "4", "--repeat", "1"]) == 0
        assert "iterative speedup" in capsys.readouterr().out


class TestRegressionCompare:
    def document(self):
        from repro.bench.regression import run_regression

        return run_regression(max_n=4, repeat=1, label="compare-test")

    def test_identical_documents_are_clean(self):
        from repro.bench.regression import compare_documents

        document = self.document()
        assert compare_documents(document, document) == []

    def test_ccp_and_cost_drift_flagged(self):
        import copy

        from repro.bench.regression import compare_documents

        current = self.document()
        baseline = copy.deepcopy(current)
        baseline["workloads"][0]["results"]["dphyp"]["ccp"] += 1
        baseline["workloads"][1]["results"]["dphyp"]["cost"] *= 2
        problems = compare_documents(current, baseline)
        assert any("search space drift" in p for p in problems)
        assert any("plan drift" in p for p in problems)

    def test_slowdown_uses_normalized_ratio(self):
        import copy

        from repro.bench.regression import compare_documents

        current = self.document()
        baseline = copy.deepcopy(current)
        for entry in current["workloads"]:
            # dphyp got 2x slower while the recursive reference is
            # unchanged -> normalized slowdown 2x > tolerance
            entry["results"]["dphyp"]["ms"] *= 2
        problems = compare_documents(current, baseline, tolerance=1.3)
        assert len([p for p in problems if "slower" in p]) == len(
            current["workloads"]
        )
        # a uniformly slower machine (both algorithms 2x) is NOT a
        # regression: the normalized ratio cancels the hardware
        hardware = copy.deepcopy(baseline)
        for entry in hardware["workloads"]:
            for measurement in entry["results"].values():
                measurement["ms"] *= 2
        assert compare_documents(hardware, baseline, tolerance=1.3) == []

    def test_baseline_coverage_loss_flagged(self):
        import copy

        from repro.bench.regression import compare_documents

        baseline = self.document()
        current = copy.deepcopy(baseline)
        current["workloads"] = [w for w in current["workloads"]
                                if w["workload"] != "star"]
        del current["workloads"][0]["results"]["dphyp-recursive"]
        problems = compare_documents(current, baseline)
        assert any("star" in p and "coverage loss" in p for p in problems)
        assert any("dphyp-recursive" in p and "coverage loss" in p
                   for p in problems)

    def test_size_mismatch_reported_not_compared(self):
        import copy

        from repro.bench.regression import compare_documents

        current = self.document()
        baseline = copy.deepcopy(current)
        baseline["workloads"][0]["query"] = "chain-99"
        problems = compare_documents(current, baseline)
        assert any("size mismatch" in p for p in problems)

    def test_cli_compare_flag(self, tmp_path, capsys):
        import json

        from repro.bench.regression import main

        out = tmp_path / "base.json"
        assert main(["--max-n", "4", "--repeat", "1",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        # comparing a fresh run against itself passes (huge tolerance:
        # tiny sub-ms runs are timing noise, only the deterministic
        # ccp/cost guards should decide here)
        assert main(["--max-n", "4", "--repeat", "1",
                     "--compare", str(out), "--tolerance", "1e9"]) == 0
        assert "no regression" in capsys.readouterr().out
        # ...and a doctored baseline fails with a non-zero exit
        document = json.loads(out.read_text())
        document["workloads"][0]["results"]["dphyp"]["ccp"] += 1
        out.write_text(json.dumps(document))
        assert main(["--max-n", "4", "--repeat", "1",
                     "--compare", str(out), "--tolerance", "1e9"]) == 1
        assert "REGRESSION" in capsys.readouterr().err


class TestKernelTier:
    def tiny_document(self):
        from repro.bench.regression import run_regression

        # --max-n 6 collapses the chain ladder to one entry per shape
        return run_regression(
            max_n=6, repeat=1, label="kernel-unit", tier="kernel"
        )

    def test_run_and_validate(self):
        from repro.bench.regression import validate_result

        document = self.tiny_document()
        validate_result(document)
        assert document["tier"] == "kernel"
        shapes = [entry["workload"] for entry in document["workloads"]]
        # clamped sizes dedupe the 30/40/60 chain ladder
        assert shapes == ["chain-6", "cycle-6", "star-6", "clique-6"]
        for entry in document["workloads"]:
            base = entry["results"]["dphyp-recursive"]
            new = entry["results"]["dphyp"]
            # the oracle contract: exactly equal, not approximately
            assert new["ccp"] == base["ccp"]
            assert new["cost"] == base["cost"]

    def test_gate_passes_on_equivalent_fast_kernel(self):
        from repro.bench.regression import (
            KERNEL_GATE_MIN_N,
            kernel_gate_problems,
        )

        document = self.tiny_document()
        # promote one workload past the gate size and make dphyp
        # "fast" so only the synthetic numbers decide
        entry = document["workloads"][0]
        entry["n_relations"] = KERNEL_GATE_MIN_N
        entry["results"]["dphyp-recursive"]["ms"] = 10.0
        entry["results"]["dphyp"]["ms"] = 2.0
        assert kernel_gate_problems(document, min_speedup=3.0) == []

    def test_gate_flags_slow_kernel_and_drift(self):
        from repro.bench.regression import (
            KERNEL_GATE_MIN_N,
            kernel_gate_problems,
        )

        document = self.tiny_document()
        entry = document["workloads"][0]
        entry["n_relations"] = KERNEL_GATE_MIN_N
        entry["results"]["dphyp-recursive"]["ms"] = 10.0
        entry["results"]["dphyp"]["ms"] = 9.0  # only 1.1x
        document["workloads"][1]["results"]["dphyp"]["cost"] *= 2
        document["workloads"][2]["results"]["dphyp"]["ccp"] += 1
        problems = kernel_gate_problems(document, min_speedup=3.0)
        assert any("speedup" in p for p in problems)
        assert any("bit-identical" in p for p in problems)
        assert any("search space drift" in p for p in problems)

    def test_gate_refuses_to_pass_vacuously(self):
        from repro.bench.regression import kernel_gate_problems

        document = self.tiny_document()  # every workload below n=30
        problems = kernel_gate_problems(document, min_speedup=3.0)
        assert any("checked nothing" in p for p in problems)

    def test_committed_baseline_is_valid_and_meets_the_bar(self):
        import json
        import pathlib

        from repro.bench.regression import (
            KERNEL_GATE_MIN_N,
            validate_result,
        )

        path = (
            pathlib.Path(__file__).resolve().parent.parent
            / "BENCH_pr8_kernel.json"
        )
        document = json.loads(path.read_text())
        validate_result(document)
        assert document["tier"] == "kernel"
        gated = [
            entry["query"]
            for entry in document["workloads"]
            if entry["n_relations"] >= KERNEL_GATE_MIN_N
        ]
        assert gated  # the committed run must exercise the gate
        for query in gated:
            assert document["speedups"][query] >= 3.0, query

    def test_cli_tier_and_min_speedup(self, capsys):
        from repro.bench.regression import main

        # tiny sizes stay below KERNEL_GATE_MIN_N -> the gate must
        # refuse to pass vacuously
        assert main(["--tier", "kernel", "--max-n", "4",
                     "--repeat", "1", "--min-speedup", "1e-9"]) == 1
        captured = capsys.readouterr()
        assert "kernel speedup" in captured.out
        assert "GATE" in captured.err

    def test_cli_min_speedup_requires_kernel_tier(self, capsys):
        from repro.bench.regression import main

        with pytest.raises(SystemExit):
            main(["--min-speedup", "2"])
        assert "--tier kernel" in capsys.readouterr().err


class TestProfileSubcommand:
    def test_report_structure_and_phases(self):
        from repro.bench.profile import PHASE_ORDER, profile_workload

        report = profile_workload("chain", 8, algorithm="dphyp")
        assert report["workload"] == "chain-8"
        assert report["ccp"] > 0
        assert set(report["phases_ms"]) == set(PHASE_ORDER)
        # own-time buckets are disjoint, so they sum to the total
        assert sum(report["phases_ms"].values()) == pytest.approx(
            report["total_ms"], abs=0.1
        )
        assert report["hot"]
        assert {"function", "phase", "ncalls", "tottime_ms"} <= set(
            report["hot"][0]
        )
        # the enumeration must show up as search time on any real run
        assert report["phases_ms"]["search"] > 0

    def test_phase_classification(self):
        from repro.bench.profile import classify_phase

        assert classify_phase("src/repro/core/dphyp_recursive.py") == "search"
        assert classify_phase("src/repro/core/kernel/solver.py") == "search"
        assert (
            classify_phase("src/repro/core/kernel/costing.py") == "costing"
        )
        assert classify_phase("src/repro/cost/models.py") == "costing"
        assert classify_phase("src/repro/core/plans.py") == "materialize"
        assert classify_phase("src/repro/optimizer.py") == "other"

    def test_cli_text_and_json(self, capsys):
        import json

        from repro.bench.profile import main

        assert main(["--workload", "cycle", "--n", "6", "--top", "3"]) == 0
        assert "phase totals" in capsys.readouterr().out
        assert main(["--workload", "star", "--n", "4", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["workload"] == "star-4"
        assert len(document["hot"]) <= 10

    def test_default_profiles_the_auto_route(self):
        from repro.bench.profile import profile_workload

        report = profile_workload("cycle", 6)
        assert report["requested_algorithm"] == "auto"
        assert report["algorithm"] == "dphyp"

    def test_bench_cli_dispatches_profile(self, capsys):
        from repro.bench.__main__ import main

        assert main(["profile", "--workload", "chain", "--n", "5"]) == 0
        assert "profile: chain-5" in capsys.readouterr().out


class TestReporting:
    def _dummy_result(self):
        from repro.bench.harness import Measurement
        from repro.core.stats import SearchStats

        stats = SearchStats(ccp_emitted=7)
        series = Series(label="dphyp",
                        points={0: Measurement(1.234, stats, 9.0)})
        return ExperimentResult(
            experiment_id="x",
            title="Dummy",
            x_label="splits",
            x_values=[0, 1],
            series=[series],
            notes="scaled",
        )

    def test_render_table(self):
        text = render_table(self._dummy_result())
        assert "Dummy" in text
        assert "dphyp [ms]" in text
        assert "1.23" in text
        assert "-" in text  # missing point at x=1
        assert "scaled" in text

    def test_render_markdown(self):
        text = render_markdown(self._dummy_result())
        assert text.startswith("### Dummy")
        assert "| splits |" in text

    def test_summarize_winners(self):
        result = table_cycle4()
        summary = summarize_winners(result)
        assert "fastest" in summary and "slowest" in summary


class TestCli:
    def test_list(self, capsys):
        from repro.bench.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig7-regular" in out

    def test_run_single(self, capsys):
        from repro.bench.__main__ import main

        assert main(["run", "table-cycle4"]) == 0
        out = capsys.readouterr().out
        assert "Cycle Queries with 4 Relations" in out
        assert "shape:" in out

    def test_run_unknown(self, capsys):
        from repro.bench.__main__ import main

        assert main(["run", "nope"]) == 2
