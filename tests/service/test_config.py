"""ServiceConfig and the ``serve()`` stage: validation and round-trip."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.pipeline import ERPipeline, ServiceConfig
from repro.pipeline.config import BudgetConfig, PipelineConfig


def test_serve_spec_round_trips():
    pipeline = ERPipeline().serve(
        request_comparisons=10,
        session_comparisons=1000,
        session_seconds=3600,
        max_pending=4,
        snapshot_dir="/tmp/snaps",
    )
    spec = pipeline.to_dict()
    assert spec["service"]["request_budget"]["comparisons"] == 10
    assert spec["service"]["session_budget"]["seconds"] == 3600
    assert spec["service"]["max_pending"] == 4
    assert spec["service"]["snapshot_dir"] == "/tmp/snaps"
    rebuilt = ERPipeline.from_dict(spec)
    assert rebuilt.to_dict() == spec


def test_serve_implies_incremental():
    pipeline = ERPipeline().serve()
    assert pipeline.config.incremental is not None
    spec = pipeline.to_dict()
    assert spec["incremental"] is not None


def test_serve_enabled_false_removes_the_stage():
    pipeline = ERPipeline().serve(max_pending=4).serve(enabled=False)
    assert pipeline.config.service is None
    assert pipeline.to_dict()["service"] is None


def test_service_config_rejects_target_recall():
    with pytest.raises(ConfigError, match="target_recall"):
        ServiceConfig(session_budget=BudgetConfig(target_recall=0.9))
    with pytest.raises(ConfigError, match="target_recall"):
        ServiceConfig(request_budget=BudgetConfig(target_recall=0.5))


def test_service_config_rejects_bad_max_pending():
    for bad in (0, -1, 1.5, "many"):
        with pytest.raises(ConfigError, match="max_pending"):
            ServiceConfig(max_pending=bad)


def test_service_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown"):
        ServiceConfig.from_dict({"max_pending": 2, "queue": 9})


def test_serve_refuses_batch_only_stages_at_config_time():
    with pytest.raises(ConfigError, match="blocking"):
        ERPipeline().blocking("suffix").serve()
    with pytest.raises(ConfigError, match="ONLINE"):
        ERPipeline().method("SA-PSN").serve()
    with pytest.raises(ConfigError, match="pruning"):
        ERPipeline().meta("ARCS", pruning="WNP").serve()


def test_serve_refusals_also_fire_through_from_dict():
    spec = ERPipeline().serve().to_dict()
    spec["method"] = {"name": "SA-PSN", "params": {}}
    with pytest.raises(ConfigError, match="ONLINE"):
        PipelineConfig.from_dict(spec)


def test_config_error_is_a_value_error():
    """Typed errors stay catchable by the pre-1.4 builtin types."""
    from repro.errors import BudgetExceeded, ReproError, SessionClosed

    assert issubclass(ConfigError, ValueError)
    assert issubclass(ConfigError, ReproError)
    assert issubclass(SessionClosed, RuntimeError)
    assert issubclass(SessionClosed, ReproError)
    assert issubclass(BudgetExceeded, ReproError)
    rejection = BudgetExceeded("over", reason="queue-full")
    assert rejection.reason == "queue-full"
    assert BudgetExceeded("over").reason == "budget"


def test_pipeline_validation_raises_config_error():
    with pytest.raises(ConfigError):
        ERPipeline().blocking("token", purge=-1)
    with pytest.raises(ConfigError):
        BudgetConfig(comparisons=-1)
