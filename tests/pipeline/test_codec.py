"""The stage codec, property-tested: ``Stage`` derives ``from_dict`` /
``to_dict`` / ``copy`` from ``dataclasses.fields``, so these hold for
every stage and every field - including one added tomorrow.

One strategy of valid specs (stages present or absent, params dicts,
name-based cascades with float thresholds and bands, budgets at their
edges, live and batch) feeds the round trip, the copy and the
unknown-key properties; a second one drives the builder through random
call sequences.  Changed a stage?  This file plus
``python3 benchmarks/e2e/run.py --smoke --trace 1`` is the recipe.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.pipeline import ERPipeline
from repro.pipeline.config import PipelineConfig, Stage
from repro.registry import pruning_algorithms

# -- the spec strategy --------------------------------------------------------

ratios = st.one_of(st.none(), st.sampled_from([0.05, 0.5, 1.0]))
unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text("abc", max_size=3),
)
#: JSON-able constructor params (lists, not tuples: JSON has one sequence).
params = st.dictionaries(
    st.text("xyz", min_size=1, max_size=3),
    st.one_of(leaves, st.lists(leaves, max_size=3)),
    max_size=3,
)
counts = st.one_of(st.none(), st.sampled_from([0, 1, 10_000]))
budgets = st.fixed_dictionaries(
    {
        "comparisons": counts,
        "seconds": st.one_of(st.none(), st.sampled_from([0, 0.5, 3600])),
    }
)


@st.composite
def match_stages(draw):
    tiers = draw(
        st.lists(
            st.sampled_from(["exact", "jaccard", "edit-distance", "oracle"]),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    thresholds = {}
    for name in tiers:
        kind = draw(st.sampled_from(["none", "float", "band"]))
        if kind == "float" or (kind == "band" and name == tiers[-1]):
            thresholds[name] = draw(unit)
        elif kind == "band":
            thresholds[name] = sorted(draw(st.tuples(unit, unit)))
    return {
        "tiers": tiers,
        "thresholds": thresholds,
        "params": {
            name: {"threshold": draw(unit)}
            for name in draw(st.lists(st.sampled_from(tiers), unique=True))
            if name in ("jaccard", "edit-distance")
        },
    }


@st.composite
def spec_dicts(draw):
    """A valid, JSON-able ``PipelineConfig.to_dict()``-shaped dict (keys
    may be absent: ``from_dict`` fills the defaults)."""
    live = draw(st.sampled_from([None, "incremental", "service"]))
    spec = {}
    if live is None:
        spec["blocking"] = {
            "scheme": draw(st.sampled_from(["token", "suffix"])),
            "purge_ratio": draw(ratios),
            "filter_ratio": draw(ratios),
            "params": draw(params),
        }
        spec["method"] = {
            "name": draw(st.sampled_from(["PPS", "PBS", "ONLINE", "SA-PSN", "GS-PSN"])),
            "params": draw(params),
        }
        spec["meta"] = {
            "weighting": draw(st.sampled_from(["ARCS", "CBS", "ECBS", "JS", "EJS"])),
            "pruning": draw(st.sampled_from([None, *pruning_algorithms.names()])),
        }
    else:
        spec["blocking"] = {"purge_ratio": draw(ratios), "filter_ratio": draw(ratios)}
        spec["method"] = {"name": draw(st.sampled_from(["PPS", "ONLINE"]))}
        spec["incremental"] = {}
        if live == "service":
            if draw(st.booleans()):
                del spec["incremental"]  # a service stage implies it
            spec["service"] = {
                "session_budget": draw(budgets),
                "request_budget": draw(budgets),
                "max_pending": draw(st.sampled_from([1, 32])),
                "snapshot_dir": draw(st.sampled_from([None, "/tmp/snaps"])),
            }
    if draw(st.booleans()):
        spec["match"] = draw(match_stages())
    spec["budget"] = {
        **draw(budgets),
        "target_recall": draw(st.sampled_from([None, 0.5, 1.0])),
    }
    spec["backend"] = draw(st.sampled_from(["python", "numpy", "numpy-parallel"]))
    if spec["backend"] == "numpy-parallel" and draw(st.booleans()):
        spec["parallel"] = {
            "workers": draw(st.sampled_from([None, 0, 4])),
            "shards": draw(st.sampled_from([None, 1, 7])),
        }
    if draw(st.booleans()):
        spec["storage"] = {
            "mode": draw(st.sampled_from(["ram", "memmap"])),
            "dir": draw(st.sampled_from([None, "/tmp/scratch"])),
        }
    return spec


specs = spec_dicts().map(PipelineConfig.from_dict)


def stages_of(stage, path=()):
    """Every stage in the tree under ``stage``, with its dict path."""
    yield path, stage
    for field in dataclasses.fields(stage):
        value = getattr(stage, field.name)
        if isinstance(value, Stage):
            yield from stages_of(value, (*path, field.name))


def containers_of(value):
    """Every mutable container reachable from a stage or a value."""
    if isinstance(value, Stage):
        value = [getattr(value, field.name) for field in dataclasses.fields(value)]
    elif isinstance(value, dict):
        yield value
        value = list(value.values())
    elif isinstance(value, list):
        yield value
    elif not isinstance(value, tuple):
        return
    for item in value:
        yield from containers_of(item)


# -- the properties -----------------------------------------------------------


@given(specs)
@settings(max_examples=150, deadline=None)
def test_spec_survives_a_real_json_round_trip(spec):
    wire = json.dumps(spec.to_dict())
    rebuilt = PipelineConfig.from_dict(json.loads(wire))
    assert rebuilt == spec
    assert json.dumps(rebuilt.to_dict()) == wire


@given(specs)
@settings(max_examples=150, deadline=None)
def test_copy_shares_leaves_and_nothing_else(spec):
    blocks, matcher = object(), object()
    if spec.incremental is None:  # a live session takes no blocking params
        spec.blocking.params["blocks"] = blocks
    if spec.match is not None:
        tier = spec.match.tiers[0]
        spec.match.params[tier] = {"inner": {"deep": [matcher]}}
    pristine = spec.to_dict()
    copied = spec.copy()
    assert copied == spec and copied is not spec
    for (_, original), (_, twin) in zip(stages_of(spec), stages_of(copied)):
        assert type(original) is type(twin) and original is not twin
    # Leaf param objects are shared, however deep they sit ...
    if spec.incremental is None:
        assert copied.blocking.params["blocks"] is blocks
    if spec.match is not None:
        assert copied.match.params[tier]["inner"]["deep"][0] is matcher
    # ... and every container is the copy's own.
    for container in containers_of(copied):
        if isinstance(container, dict):
            container["mutated"] = True
        else:
            container.append("mutated")
    assert spec.to_dict() == pristine


@given(
    spec_dicts().filter(lambda spec: "match" not in spec),
    st.sampled_from(["jaccard", "edit-distance", "exact", "oracle"]),
    params,
)
@settings(max_examples=100, deadline=None)
def test_a_retired_matcher_stage_reads_as_its_one_tier_cascade(spec, name, kwargs):
    """Specs written up to 2.1 carry ``matcher``: it loads as the
    one-tier ``match`` stage, and ``to_dict`` never writes it back."""
    legacy = PipelineConfig.from_dict(
        {**spec, "matcher": {"name": name, "params": kwargs}}
    )
    one_tier = {"tiers": [name], "params": {name: kwargs}}
    assert legacy == PipelineConfig.from_dict({**spec, "match": one_tier})
    assert "matcher" not in legacy.to_dict()
    plain = PipelineConfig.from_dict(spec)
    assert PipelineConfig.from_dict({**spec, "matcher": None}) == plain
    both = {**spec, "matcher": {"name": name}, "match": one_tier}
    with pytest.raises(ConfigError, match="two owners"):
        PipelineConfig.from_dict(both)


@given(spec_dicts().filter(lambda spec: "match" in spec))
@settings(max_examples=100, deadline=None)
def test_retired_hook_keys_are_dropped_when_null(spec):
    """Every 2.x spec with a match stage wrote ``expensive`` and
    ``expensive_budget`` as null: such a spec loads as it did."""
    retired = {"expensive": None, "expensive_budget": None}
    legacy = {**spec, "match": {**spec["match"], **retired}}
    assert PipelineConfig.from_dict(legacy) == PipelineConfig.from_dict(spec)


@pytest.mark.parametrize(
    "match", [{"expensive": "edit-distance"}, {"expensive_budget": 3}]
)
def test_a_set_retired_hook_key_is_refused(match):
    with pytest.raises(ConfigError, match="sixth round"):
        PipelineConfig.from_dict({"match": match})


@given(specs, st.data())
@settings(max_examples=150, deadline=None)
def test_unknown_key_names_the_stage_that_owns_it(spec, data):
    path, stage = data.draw(st.sampled_from(list(stages_of(spec))))
    wire = spec.to_dict()
    target = wire
    for key in path:
        target = target[key]
    target["bogus"] = 1
    label = type(stage).__name__.removesuffix("Config").lower()
    with pytest.raises(ConfigError, match=rf"unknown {label} config keys \['bogus'\]"):
        PipelineConfig.from_dict(wire)


def stage_classes(base=Stage):
    for cls in base.__subclasses__():
        yield cls
        yield from stage_classes(cls)


@pytest.mark.parametrize("cls", sorted(stage_classes(), key=lambda c: c.__name__))
def test_no_field_can_be_forgotten(cls):
    """Every dataclass field of every stage is written by ``to_dict``
    and read back by ``from_dict`` - nothing else lists a stage's fields."""
    default = cls()
    wire = default.to_dict()
    assert list(wire) == [field.name for field in dataclasses.fields(cls)]
    for name, value in wire.items():
        assert cls.from_dict({name: value}) == default
    assert cls.from_dict(json.loads(json.dumps(wire))) == default
    assert default.copy() == default


def test_a_null_stage_is_refused_unless_the_stage_is_optional():
    assert PipelineConfig.from_dict({"match": None, "service": None}).match is None
    with pytest.raises(ConfigError, match="pipeline config key 'blocking'"):
        PipelineConfig.from_dict({"blocking": None})
    with pytest.raises(ConfigError, match="service config key 'session_budget'"):
        PipelineConfig.from_dict({"service": {"session_budget": None}})


# -- the builder: every call re-validates the whole spec ----------------------

calls = st.one_of(
    st.tuples(
        st.just("blocking"),
        st.fixed_dictionaries(
            {
                "scheme": st.sampled_from(["token", "suffix"]),
                "purge": st.sampled_from([True, None, 0.3]),
                "filter_ratio": st.sampled_from([0.8, False]),
            }
        ),
    ),
    st.tuples(
        st.just("meta"),
        st.fixed_dictionaries(
            {
                "weighting": st.sampled_from(["ARCS", "JS"]),
                "pruning": st.sampled_from([None, "WNP", "CNP"]),
            }
        ),
    ),
    st.tuples(
        st.just("method"),
        st.fixed_dictionaries({"name": st.sampled_from(["PPS", "ONLINE", "SA-PSN"])}),
    ),
    st.tuples(st.just("method"), st.just({"name": "PPS", "k_max": 5})),
    st.tuples(
        st.just("match"),
        match_stages().map(lambda m: {"cascade": m.pop("tiers"), **m}),
    ),
    st.tuples(st.just("no_match"), st.just({})),
    st.tuples(st.just("budget"), budgets),
    st.tuples(
        st.just("backend"),
        st.fixed_dictionaries(
            {"name": st.sampled_from(["python", "numpy", "numpy-parallel"])}
        ),
    ),
    st.tuples(
        st.just("parallel"),
        st.fixed_dictionaries(
            {"workers": st.sampled_from([None, 0, 2]), "enabled": st.booleans()}
        ),
    ),
    st.tuples(
        st.just("storage"),
        st.fixed_dictionaries(
            {"mode": st.sampled_from(["ram", "memmap"]), "enabled": st.booleans()}
        ),
    ),
    st.tuples(
        st.just("incremental"),
        st.fixed_dictionaries({"enabled": st.booleans()}),
    ),
    st.tuples(
        st.just("serve"),
        st.fixed_dictionaries(
            {"enabled": st.booleans(), "request_comparisons": counts}
        ),
    ),
)


@given(st.lists(calls, max_size=8))
@settings(max_examples=200, deadline=None)
def test_builder_never_holds_a_spec_its_own_from_dict_rejects(sequence):
    pipeline = ERPipeline()
    for name, kwargs in sequence:
        before = pipeline.to_dict()
        try:
            getattr(pipeline, name)(**kwargs)
        except ConfigError:
            # Refused at the offending call, which changed nothing.
            assert pipeline.to_dict() == before
        wire = pipeline.to_dict()
        assert ERPipeline.from_dict(json.loads(json.dumps(wire))).to_dict() == wire
    assert pipeline.clone().to_dict() == pipeline.to_dict()
