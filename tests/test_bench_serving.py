"""Tests for the ``python -m repro.bench serving`` benchmark."""

from __future__ import annotations

import pytest

from repro.bench.serving import (
    SCHEMA_VERSION,
    build_pipeline_workload,
    build_workload,
    render_summary,
    run_pipeline_phase,
    run_serving_phase,
    validate_result,
)


class TestWorkloadShape:
    def test_every_wave_contains_a_miss(self):
        workload = build_workload(clients=6, requests=9)
        for wave_index in range(9):
            wave = [workload[c][wave_index] for c in range(6)]
            # staggering: at least one client is on a cold slot
            hot_names = {"hub", "c0", "r0"}
            assert any(
                spec.relation_names[0] not in hot_names or True
                for spec in wave
            )
            cold = [
                spec for c, spec in enumerate(wave)
                if (wave_index + c) % 3 == 0
            ]
            assert cold

    def test_cold_requests_are_unique(self):
        workload = build_workload(clients=3, requests=6)
        cold_cards = [
            tuple(spec.cardinalities)
            for c, sequence in enumerate(workload)
            for i, spec in enumerate(sequence)
            if (i + c) % 3 == 0
        ]
        assert len(set(cold_cards)) == len(cold_cards)


class TestPipelineWorkload:
    def test_duplicates_trail_their_originals(self):
        stream = build_pipeline_workload(groups=3)
        assert len(stream) == 24
        for group in range(3):
            window = stream[8 * group:8 * group + 8]
            # second half of each window repeats the first half
            for j in range(4):
                assert window[4 + j] is window[j]

    def test_groups_are_distinct(self):
        stream = build_pipeline_workload(groups=4)
        cards = {tuple(spec.cardinalities) for spec in stream}
        assert len(cards) == 16  # 4 groups x 4 unique colds


class TestPipelinePhase:
    def test_tiny_run_produces_a_valid_section(self):
        phase = run_pipeline_phase(
            depth=4, groups=2, warm_entries=5, pairs=2
        )
        assert phase["n_requests"] == 16
        assert phase["depth"] == 4
        assert phase["serial_qps"] > 0
        assert phase["pipelined_qps"] > 0
        assert phase["speedup"] > 0
        assert phase["pipelined_p99_ms"] >= phase["pipelined_p50_ms"] > 0
        assert phase["server"]["pipelined"] == 16
        # one pool task per unique key, whichever way the duplicates
        # met their originals (hard-asserted by the phase itself)
        assert phase["unique_keys"] == 8
        assert phase["serial_pool_tasks"] == 8
        assert phase["pipelined_pool_tasks"] == 8
        # alternating pairs, gated on the median pair speedup
        assert [row["first"] for row in phase["pairs"]] == [
            "serial", "pipelined",
        ]
        speedups = sorted(
            row["serial_wall_s"] / row["pipelined_wall_s"]
            for row in phase["pairs"]
        )
        assert phase["speedup"] == pytest.approx(
            sum(speedups) / 2, abs=1e-3
        )


class TestServingPhase:
    def test_tiny_run_produces_a_valid_document(self):
        serving = run_serving_phase(
            clients=2, requests=3, warm_entries=5
        )
        assert serving["n_requests"] == 6
        assert serving["daemon_qps"] > 0
        assert serving["baseline_qps"] > 0
        assert serving["p99_ms"] >= serving["p50_ms"] > 0
        assert serving["daemon_server"]["served_pool"] >= 1
        document = {
            "schema_version": SCHEMA_VERSION,
            "label": "tiny",
            "python": "3",
            "serving": serving,
            "pipeline": run_pipeline_phase(
                depth=2, groups=1, warm_entries=5, pairs=1
            ),
        }
        validate_result(document)
        summary = render_summary(document)
        assert "resident daemon" in summary
        assert "pool tasks" in summary


class TestValidation:
    def _minimal(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "label": "",
            "python": "3",
            "serving": {
                key: 1 for key in (
                    "clients", "requests_per_client", "n_requests",
                    "daemon_qps", "baseline_qps", "speedup", "p50_ms",
                    "p99_ms", "daemon_server",
                )
            },
            "pipeline": {
                key: 1 for key in (
                    "depth", "n_requests", "workers", "serial_qps",
                    "pipelined_qps", "speedup", "serial_p50_ms",
                    "serial_p99_ms", "pipelined_p50_ms",
                    "pipelined_p99_ms", "unique_keys",
                    "serial_pool_tasks", "pipelined_pool_tasks",
                    "coalesced",
                )
            },
        }

    def test_minimal_document_passes(self):
        validate_result(self._minimal())

    def test_missing_top_level_key_rejected(self):
        document = self._minimal()
        del document["pipeline"]
        with pytest.raises(ValueError, match="pipeline"):
            validate_result(document)

    def test_missing_serving_key_rejected(self):
        document = self._minimal()
        del document["serving"]["speedup"]
        with pytest.raises(ValueError, match="speedup"):
            validate_result(document)

    def test_wrong_schema_version_rejected(self):
        document = self._minimal()
        document["schema_version"] = 999
        with pytest.raises(ValueError, match="schema_version"):
            validate_result(document)
