"""End-to-end observability: specs, hubs on real runs, flight bundles.

All on the simulator -- fast and deterministic.  The live-transport
surface (``GET /metrics`` on the asyncio clock) is covered by
``tests/service/test_http_live.py`` and the CI scrape job.
"""

import json
import pathlib

import pytest

from repro.experiments import audit_scenario, observe_spec, run_scenario
from repro.adversary import AdversarySpec
from repro.experiments.spec import ObsSpec, ScenarioSpec
from repro.obs import DISABLED_HUB, ObsHub, hub_of, install_hub
from repro.obs.flight import BUNDLE_EVENTS, BUNDLE_MANIFEST


def small_spec(**overrides) -> ScenarioSpec:
    base = dict(
        system="fs-newtop", n_members=2, messages_per_member=4, settle_ms=5000
    )
    base.update(overrides)
    return ScenarioSpec(**base)


# ----------------------------------------------------------------------
# ObsSpec on the scenario spec
# ----------------------------------------------------------------------
def test_obsspec_round_trips_through_json():
    spec = small_spec(
        obs=ObsSpec(enabled=True, http_port=9464, flight_events=32, flight_dir="x")
    )
    rebuilt = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert rebuilt == spec
    assert rebuilt.obs.flight_events == 32


def test_obsspec_default_absent():
    spec = small_spec()
    assert spec.obs is None
    rebuilt = ScenarioSpec.from_dict(spec.to_dict())
    assert rebuilt.obs is None


def test_obsspec_validation():
    with pytest.raises(ValueError):
        ObsSpec(http_port=70000)
    with pytest.raises(ValueError):
        ObsSpec(flight_events=0)


# ----------------------------------------------------------------------
# hub plumbing
# ----------------------------------------------------------------------
def test_hub_of_falls_back_to_disabled_singleton():
    class Clock:
        pass

    clock = Clock()
    assert hub_of(clock) is DISABLED_HUB
    assert not DISABLED_HUB.enabled
    hub = install_hub(clock, ObsHub())
    assert hub_of(clock) is hub
    assert hub.enabled


def test_disabled_hub_instruments_do_nothing():
    DISABLED_HUB.fail_signals.inc()
    DISABLED_HUB.sign_histogram("AnyScheme").observe(1.0)
    assert DISABLED_HUB.fail_signals.value == 0.0
    assert DISABLED_HUB.sign_histogram("AnyScheme").count == 0


def test_summary_metrics_skips_untouched_subsystems():
    hub = ObsHub()
    assert hub.summary_metrics() == {}
    hub.verify_histogram("S").observe(1.0)
    summary = hub.summary_metrics()
    assert summary["obs_verify_count"] == 1.0
    assert "obs_sign_count" not in summary
    assert "obs_submit_p999_ms" not in summary


# ----------------------------------------------------------------------
# real runs
# ----------------------------------------------------------------------
def test_audit_run_collects_stage_histograms():
    run = audit_scenario(small_spec(), scenario="obs_smoke")
    assert run.report.ok
    assert run.result.metrics["obs_sign_count"] > 0
    assert run.result.metrics["obs_verify_count"] > 0
    assert run.result.metrics["obs_sign_p99_ms"] >= run.result.metrics["obs_sign_p50_ms"]


def test_measurement_run_unobserved_by_default():
    metrics = run_scenario(small_spec()).metrics
    assert not any(key.startswith("obs_") for key in metrics)


def test_explicit_obsspec_instruments_measurement_run():
    metrics = run_scenario(small_spec(obs=ObsSpec(http_port=None))).metrics
    assert metrics["obs_sign_count"] > 0


def test_obsspec_disabled_wins_over_audit_default():
    run = audit_scenario(small_spec(obs=ObsSpec(enabled=False)))
    assert not any(key.startswith("obs_") for key in run.result.metrics)
    assert run.flight_bundle is None


def test_fail_signal_dumps_flight_bundle(tmp_path):
    spec = small_spec(
        adversaries=(AdversarySpec(kind="corrupt", at=200.0, member=0),),
        obs=ObsSpec(http_port=None, flight_dir=str(tmp_path)),
    )
    run = audit_scenario(spec, scenario="obs_viol")
    assert run.result.metrics["fail_signals"] > 0
    assert run.flight_bundle is not None
    bundle = pathlib.Path(run.flight_bundle)
    assert bundle.parent == tmp_path
    manifest = json.loads((bundle / BUNDLE_MANIFEST).read_text())
    assert manifest["trips"]
    assert manifest["events_retained"] > 0
    assert "metrics.json" in manifest["contents"]
    assert "spec.json" in manifest["contents"]
    assert "report.json" in manifest["contents"]
    events = (bundle / BUNDLE_EVENTS).read_text().splitlines()
    assert len(events) == manifest["events_retained"]
    spec_doc = json.loads((bundle / "spec.json").read_text())
    assert spec_doc["obs"]["flight_dir"] == str(tmp_path)
    report_doc = json.loads((bundle / "report.json").read_text())
    assert "checks" in report_doc or report_doc  # serialised oracle report
    # The audited metrics carry the same story the bundle tells.
    assert run.result.metrics["obs_sign_count"] > 0
    assert run.to_dict()["flight_bundle"] == run.flight_bundle


def test_healthy_audit_leaves_no_bundle(tmp_path):
    spec = small_spec(obs=ObsSpec(http_port=None, flight_dir=str(tmp_path)))
    run = audit_scenario(spec, scenario="obs_clean")
    assert run.report.ok
    assert run.flight_bundle is None
    assert not list(tmp_path.iterdir())


def test_observe_spec_snapshot():
    snapshot = observe_spec(small_spec(), scenario="obs_snap")
    assert snapshot["enabled"] is True
    names = {m["name"] for m in snapshot["metrics"]}
    assert "repro_fso_sign_ms" in names
    assert snapshot["summary"]["obs_sign_count"] > 0
