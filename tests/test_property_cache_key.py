"""Property-based audit of ``OptimizerConfig.cache_key()`` (hypothesis).

The companion to the static ``cache-key-completeness`` rule: for any
valid configuration, perturbing any single *keyed* field must change
``cache_key()``, and perturbing any field in ``CACHE_KEY_EXCLUDED``
must leave it untouched (so configs differing only in plumbing share
plan-cache entries).  Together the two guarantees pin the key surface
exactly — no silent leak in either direction.
"""

from dataclasses import fields, replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost.models import (
    CoutModel,
    HashJoinModel,
    MinOfModel,
    NestedLoopModel,
    SortMergeModel,
)
from repro.optimizer import DispatchStage, OptimizerConfig, PipelineStages

COMMON = dict(deadline=None, max_examples=60)

ALGORITHMS = ("auto", "dphyp", "dpccp", "dpsize", "dpsub", "greedy")
MODES = ("hyperedges", "tes-filter")
COST_MODELS = st.sampled_from([
    None,
    CoutModel(),
    NestedLoopModel(),
    SortMergeModel(),
    HashJoinModel(1.5),
    HashJoinModel(2.5),
    MinOfModel(),
])


@st.composite
def configs(draw):
    # algorithm stays "auto"; the algorithm field itself is perturbed
    # explicitly below.
    return OptimizerConfig(
        algorithm="auto",
        cost_model=draw(COST_MODELS),
        mode=draw(st.sampled_from(MODES)),
        default_cardinality=draw(
            st.floats(min_value=1.0, max_value=1e6, allow_nan=False)
        ),
        on_disconnected=draw(
            st.sampled_from(("raise", "connect", "plan-none"))
        ),
        cache=draw(st.sampled_from(("auto", "on", "off"))),
        cache_size=draw(st.integers(min_value=1, max_value=4096)),
        cache_path=draw(st.sampled_from((None, "a.sqlite", "b.sqlite"))),
        cache_autosave=draw(st.booleans()),
        parallel_workers=draw(st.sampled_from((None, 1, 2, 8))),
        executor=draw(st.sampled_from(("thread", "process"))),
    )


def perturb(config: OptimizerConfig, name: str) -> OptimizerConfig:
    """Return a valid config differing from ``config`` in exactly ``name``."""
    current = getattr(config, name)
    if name == "algorithm":
        value = "dphyp" if current == "auto" else "auto"
    elif name == "cost_model":
        value = HashJoinModel(9.75) if (
            current is None or current.cache_key() != HashJoinModel(9.75).cache_key()
        ) else NestedLoopModel()
    elif name == "mode":
        value = MODES[1 - MODES.index(current)]
    elif name == "on_disconnected":
        value = "connect" if current == "raise" else "raise"
    elif name == "cache":
        value = "on" if current == "off" else "off"
    elif name == "cache_path":
        value = "other.sqlite" if current != "other.sqlite" else None
    elif name == "cache_namespace":
        # deliberately keyed (the one plumbing-looking exception):
        # namespaces exist to partition a shared cache
        value = "tenant-x" if current != "tenant-x" else "tenant-y"
    elif name == "parallel_workers":
        value = 3 if current != 3 else None
    elif name == "executor":
        value = "process" if current == "thread" else "thread"
    elif name == "pipeline":
        # a fresh stage instance: unequal to the shared default
        # singleton under dataclass equality
        value = PipelineStages(dispatch=DispatchStage())
    elif isinstance(current, bool):
        value = not current
    elif isinstance(current, int):
        value = current + 1
    elif isinstance(current, float):
        value = current + 1.0
    else:  # pragma: no cover - new field types must be added here
        raise AssertionError(f"no perturbation for field {name!r}")
    return replace(config, **{name: value})


KEYED = sorted(
    {f.name for f in fields(OptimizerConfig)}
    - set(OptimizerConfig.CACHE_KEY_EXCLUDED)
)
EXCLUDED = sorted(OptimizerConfig.CACHE_KEY_EXCLUDED)


def test_every_field_is_classified():
    assert set(KEYED) | set(EXCLUDED) == {
        f.name for f in fields(OptimizerConfig)
    }
    assert not set(KEYED) & set(EXCLUDED)


@settings(**COMMON)
@given(config=configs(), name=st.sampled_from(KEYED))
def test_perturbing_any_keyed_field_changes_the_key(config, name):
    changed = perturb(config, name)
    assert getattr(changed, name) != getattr(config, name)
    assert changed.cache_key() != config.cache_key()


@settings(**COMMON)
@given(config=configs(), name=st.sampled_from(EXCLUDED))
def test_perturbing_any_excluded_field_keeps_the_key(config, name):
    changed = perturb(config, name)
    assert getattr(changed, name) != getattr(config, name)
    assert changed.cache_key() == config.cache_key()


@settings(**COMMON)
@given(config=configs())
def test_key_is_reprable_and_stable(config):
    # persisted cache files round-trip keys through repr/literal_eval,
    # so every key must be a printable literal and deterministic
    import ast

    key = config.cache_key()
    assert ast.literal_eval(repr(key)) == key
    assert config.cache_key() == key
