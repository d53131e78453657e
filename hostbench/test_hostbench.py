"""Tests of the host-cost benchmark's own code (run with the repo's
pytest suite; they need ``src`` on the path like every other test)."""

from __future__ import annotations

import json
import math
import pathlib

import pytest

from hostbench import spans, stats, workloads
from repro.analysis.metrics import percentile
from repro.experiments.spec import ScenarioSpec

ROOT = pathlib.Path(__file__).resolve().parent.parent


class FakeClock:
    """Nanoseconds that advance only when a test says so."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def work(self, ns: int) -> None:
        self.now += ns


# ----------------------------------------------------------------------
# self-time arithmetic
# ----------------------------------------------------------------------
def test_self_time_subtracts_exactly_the_child_spans():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def leaf():
        clock.work(7)

    def middle():
        clock.work(5)
        wrapped_leaf()
        clock.work(3)
        wrapped_leaf()

    def outer():
        clock.work(11)
        wrapped_middle()
        clock.work(2)

    wrapped_leaf = tracer.wrap(leaf, "crypto", "leaf")
    wrapped_middle = tracer.wrap(middle, "net", "middle")
    wrapped_outer = tracer.wrap(outer, "core", "outer")

    clock.work(100)  # outside any span: ``other``
    wrapped_outer()
    clock.work(40)

    assert tracer.self_ns == {"crypto": 14, "net": 8, "core": 13}
    accounted = tracer.account(wall_ns=clock.now)
    assert accounted[spans.OTHER] == 140
    assert sum(accounted.values()) == clock.now

    # The online arithmetic agrees with recomputing from the raw spans.
    by_id = {s[0]: s for s in tracer.spans}
    covered = {}
    for span_id, _, _, start, end, parent, _ in tracer.spans:
        if parent is not None:
            covered[parent] = covered.get(parent, 0) + (end - start)
    recomputed = {}
    for span_id, _, layer, start, end, _, _ in tracer.spans:
        recomputed[layer] = recomputed.get(layer, 0) + (end - start) - covered.get(span_id, 0)
    assert recomputed == tracer.self_ns
    assert {by_id[s[5]][1] for s in tracer.spans if s[5] is not None} == {"outer", "middle"}


def test_same_layer_calls_and_recursion_add_no_span():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def helper():
        clock.work(4)

    def recursive(depth):
        clock.work(1)
        if depth:
            wrapped_recursive(depth - 1)

    wrapped_helper = tracer.wrap(helper, "net", "helper")
    wrapped_recursive = tracer.wrap(recursive, "crypto", "encode", counter=("crypto.encode", False))

    def caller():
        wrapped_helper()
        wrapped_recursive(3)

    tracer.wrap(caller, "net", "caller")()
    assert [s[1] for s in tracer.spans] == ["encode", "caller"]
    assert tracer.calls == {"crypto.encode": 1}
    assert tracer.self_ns == {"net": 4, "crypto": 4}


def test_kernel_callbacks_are_charged_to_their_own_layer():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    pending = []

    def schedule(callback):
        clock.work(2)
        pending.append(callback)

    def run_events():
        clock.work(1)
        for callback in pending:
            callback()

    def protocol_step():  # a function of this test module: glue, not a layer
        clock.work(10)

    wrapped_schedule = tracer.wrap(schedule, spans.KERNEL, "schedule")
    wrapped_run = tracer.wrap(run_events, spans.KERNEL, "run")
    wrapped_schedule(protocol_step)
    wrapped_run()
    assert tracer.self_ns == {spans.KERNEL: 3, spans.OTHER: 10}
    assert tracer.calls == {"callbacks.other": 1}


# ----------------------------------------------------------------------
# the percentile rule and failed operations
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 0.5), (39, 0.5), (40, 0.75), (64, 0.75), (128, 0.9),
     (999, 0.95), (1000, 0.99), (9999, 0.99), (10000, 0.999)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected
    if expected is not None:
        assert n - math.ceil(expected * n) >= stats.BEYOND


def test_nearest_rank_matches_the_repo_convention():
    sample = [float(v) for v in range(1, 101)]
    for q in stats.TAIL_CANDIDATES:
        assert stats.nearest_rank(sample, q) == percentile(sample, q)


def test_failed_operations_miss_any_latency_limit():
    ok = stats.latency_summary([5.0] * 990, failed=10)
    assert ok["n"] == 1000 and ok["q"] == 0.99 and ok["tail"] == 5.0
    late = stats.latency_summary([5.0] * 989, failed=11)
    assert late["tail"] == math.inf
    assert stats.latency_summary([5.0] * 10, failed=11)["p50"] == math.inf
    assert stats.percentile_label(0.999) == "p99.9"


# ----------------------------------------------------------------------
# done / failed bookkeeping and the correctness gate
# ----------------------------------------------------------------------
def test_ops_of_crashed_senders_are_not_offered_and_missing_ones_fail():
    recorder = workloads._ProbeRecorder()
    members = ["m0", "m1", "m2"]
    recorder.sent(("m0", 0), 0.0)
    recorder.sent(("m1", 0), 1.0)
    recorder.sent(("m2", 0), 2.0)  # m2 crashes: not offered
    for member, at in (("m0", 4.0), ("m1", 6.0)):
        recorder.delivered(("m0", 0), member, at)
    recorder.delivered(("m1", 0), "m0", 3.0)  # never reaches m1
    latencies, failed, first, last = workloads._op_outcomes(recorder, members, {2})
    assert latencies == [6.0] and failed == 1 and first == 0.0 and last == 6.0


def test_crashed_members_come_from_faults_and_churn():
    spec = workloads.SIM_WORKLOADS["audit_recover"].spec(1, "unused")
    assert workloads.crashed_members(spec) == {4, 5}
    assert workloads.crashed_members(ScenarioSpec()) == set()


@pytest.mark.parametrize(
    "change, message",
    [
        ({"fail_signals": 1.0}, "fail-signals"),
        ({"ordered": 9.0}, "modelled counts differ"),
    ],
)
def test_gate_rejects_signals_and_nondeterminism(change, message):
    reference = {"ordered": 10.0, "network_messages": 50.0, "signatures": 20.0}
    metrics = dict(reference, fail_signals=0.0)
    clean = workloads.SIM_WORKLOADS["paper_fig7"]
    workloads._check_rep(clean, metrics, None, reference)
    with pytest.raises(workloads.BenchmarkFailure, match=message):
        workloads._check_rep(clean, dict(metrics, **change), None, reference)


# ----------------------------------------------------------------------
# host-speed scaling
# ----------------------------------------------------------------------
def test_host_metrics_are_scaled_to_reference_speed():
    host = workloads.HostSpeed()
    host.samples = [workloads.REFERENCE_S * 1.5, workloads.REFERENCE_S * 2.5]
    assert host.speed == pytest.approx(0.5)
    outcome = workloads.Outcome(offered=100, done=100)
    workloads._scaled_host(outcome, ops=100, wall=4.0, cpu=3.0, setup=0.02, speed=host.speed)
    # At half speed the run took twice as long as it would uncontended.
    assert outcome.host["ops_per_host_s"] == pytest.approx(50.0)
    assert outcome.host["cpu_us_per_op"] == pytest.approx(15_000.0)
    assert outcome.host["setup_s"] == pytest.approx(0.01)
    assert outcome.notes["measured_ops_per_host_s"] == pytest.approx(25.0)


def test_reference_pass_uses_no_repro_code_and_restores_the_collector():
    import gc

    assert gc.isenabled()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert workloads.reference_seconds() > 0
    finally:
        tracer.uninstall()
    assert tracer.spans == [] and gc.isenabled()


# ----------------------------------------------------------------------
# untraced runs carry no wrapper; tracing leaves none behind
# ----------------------------------------------------------------------
def _tiny(seed: int, flight_dir: str) -> ScenarioSpec:
    return ScenarioSpec(
        system="fs-newtop", n_members=2, messages_per_member=2, interval=50.0, seed=seed,
        settle_ms=5_000.0,
    )


@pytest.mark.parametrize("trace", [False, True])
def test_untraced_runs_execute_with_no_wrapper_installed(monkeypatch, tmp_path, trace):
    seen = []
    execute = workloads._execute

    def spy(spec, audited):
        seen.append(bool(spans.installed_wrappers()))
        return execute(spec, audited)

    monkeypatch.setattr(workloads, "_execute", spy)
    tiny = workloads.SimWorkload("tiny", _tiny)
    outcome = workloads.measure_sim(tiny, 1, 0.0, str(tmp_path), trace)
    assert outcome.done == outcome.offered > 0
    # probe + untraced reps see none; the traced reps see the wrappers
    assert seen == [False, False] + ([True] if trace else [])
    assert spans.installed_wrappers() == []
    if trace:
        layers = outcome.layers
        assert layers["sim.events_per_op"] > 0 and layers["crypto.signs_per_op"] > 0
        assert layers["trace.accounted_s"] == pytest.approx(layers["trace.wall_s"])


def test_uninstall_restores_every_binding():
    from repro.crypto import canonical, signing
    from repro.net import message

    before = (
        canonical.canonical_encode,
        message.canonical_encode,
        signing.canonical_encode,
        signing._payload_bytes.__defaults__,
        signing.SignatureScheme.verify_cached,
    )
    tracer = spans.Tracer()
    assert tracer.install() > 0
    try:
        assert message.canonical_encode is canonical.canonical_encode
        assert hasattr(canonical.canonical_encode, "__hostbench_wrapped__")
        assert spans.installed_wrappers()
    finally:
        tracer.uninstall()
    after = (
        canonical.canonical_encode,
        message.canonical_encode,
        signing.canonical_encode,
        signing._payload_bytes.__defaults__,
        signing.SignatureScheme.verify_cached,
    )
    assert after == before
    assert spans.installed_wrappers() == []


# ----------------------------------------------------------------------
# the metric catalogue and BENCHMARK.json agree
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_catalogue():
    catalogue = json.loads((ROOT / "hostbench" / "metrics.json").read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    fields = ("name", "unit", "better")
    for section in ("end_to_end", "per_layer"):
        listed = [{k: m[k] for k in fields} for m in catalogue[section] if m["json"]]
        assert [{k: m[k] for k in fields} for m in bench[section]] == listed
    assert {m["kind"] for m in catalogue["end_to_end"]} == {"host", "modelled"}
    assert all(m["name"].startswith("model_") == (m["kind"] == "modelled")
               for m in catalogue["end_to_end"])
    assert catalogue["seeds"]["default"] != catalogue["seeds"]["held_out"]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.SIM_WORKLOADS) + [
        "live_fleet"
    ]
