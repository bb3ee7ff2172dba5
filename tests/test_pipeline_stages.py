"""Tests for the staged optimize pipeline: stage wiring, replaceable
components via OptimizerConfig, and context plumbing."""

import pytest

from repro import Optimizer, OptimizerConfig, PipelineStages
from repro.optimizer import (
    DEFAULT_PIPELINE,
    DispatchStage,
    FinalizeStage,
    NormalizeStage,
    PipelineContext,
)
from repro.workloads import generators


class TestDefaultPipeline:
    def test_config_carries_default_stages(self):
        config = OptimizerConfig()
        assert config.pipeline is DEFAULT_PIPELINE

    def test_stages_are_stateless_singletons(self):
        assert OptimizerConfig().pipeline is OptimizerConfig().pipeline

    def test_normalize_populates_context(self):
        query = generators.chain(4, seed=1)
        ctx = PipelineContext(
            config=OptimizerConfig(),
            query=query,
            cardinalities=None,
            builder_arg=None,
            cache=None,
        )
        NormalizeStage()(ctx)
        assert ctx.kind == "hypergraph"
        assert ctx.graph is query.graph
        assert ctx.resolved_cardinalities == query.cardinalities
        assert ctx.builder is not None
        assert ctx.info.name == "dphyp"  # auto on a small chain
        assert ctx.cacheable

    def test_fingerprint_skipped_without_cache(self):
        query = generators.chain(4, seed=1)
        ctx = PipelineContext(
            config=OptimizerConfig(),
            query=query,
            cardinalities=None,
            builder_arg=None,
            cache=None,
        )
        NormalizeStage()(ctx)
        DEFAULT_PIPELINE.fingerprint(ctx)
        assert ctx.key_info is None

    def test_dispatch_runs_resolved_algorithm(self):
        query = generators.chain(4, seed=1)
        ctx = PipelineContext(
            config=OptimizerConfig(algorithm="dphyp"),
            query=query,
            cardinalities=None,
            builder_arg=None,
            cache=None,
        )
        NormalizeStage()(ctx)
        plan = DispatchStage()(ctx)
        assert plan is not None
        assert plan.nodes == query.graph.all_nodes

    def test_finalize_builds_result(self):
        query = generators.chain(4, seed=1)
        ctx = PipelineContext(
            config=OptimizerConfig(),
            query=query,
            cardinalities=None,
            builder_arg=None,
            cache=None,
        )
        NormalizeStage()(ctx)
        ctx.plan = DispatchStage()(ctx)
        result = FinalizeStage()(ctx)
        assert result.plan is ctx.plan
        assert result.algorithm == ctx.info.name
        assert result.graph is query.graph


class TestReplaceableStages:
    def test_custom_dispatch_stage(self):
        calls = []

        class CountingDispatch:
            def __call__(self, ctx):
                calls.append(ctx.info.name)
                return DispatchStage()(ctx)

        config = OptimizerConfig(
            pipeline=PipelineStages(dispatch=CountingDispatch())
        )
        result = Optimizer(config).optimize(generators.chain(5, seed=2))
        assert calls == [result.algorithm]
        assert result.plan is not None

    def test_custom_finalize_stage(self):
        class TaggingFinalize:
            def __call__(self, ctx):
                result = FinalizeStage()(ctx)
                result.stats.extra["tag"] = "custom"
                return result

        config = OptimizerConfig(
            pipeline=PipelineStages(finalize=TaggingFinalize())
        )
        result = Optimizer(config).optimize(generators.chain(4, seed=1))
        assert result.stats.extra["tag"] == "custom"

    def test_custom_normalize_rejects(self):
        class Refusing:
            def __call__(self, ctx):
                raise RuntimeError("no queries today")

        config = OptimizerConfig(
            pipeline=PipelineStages(normalize=Refusing())
        )
        with pytest.raises(RuntimeError, match="no queries today"):
            Optimizer(config).optimize(generators.chain(3, seed=1))

    def test_custom_stage_used_by_optimize_many(self):
        seen = []

        class Spy:
            def __call__(self, ctx):
                seen.append(type(ctx.query).__name__)
                return NormalizeStage()(ctx)

        config = OptimizerConfig(pipeline=PipelineStages(normalize=Spy()))
        Optimizer(config).optimize_many(
            [generators.chain(3, seed=1), generators.chain(4, seed=2)]
        )
        assert seen == ["Query", "Query"]
