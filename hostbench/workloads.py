"""The host-cost benchmark's four workloads and how each is measured.

Every workload's spec is built here from the seed alone; nothing is
read from the scenario registry, so registry edits cannot move the
benchmark.  The three simulator workloads run through the public entry
points :func:`repro.experiments.runner.run_scenario` and
:func:`~repro.experiments.runner.audit_scenario`; ``live_fleet`` drives
an :class:`~repro.service.gateway.OrderingGateway` over the asyncio TCP
transport at time-scale 1.

An operation is *done* when it is delivered at every member that ends
the run correct.  Operations offered by a member that crashes are not
counted (a crashed client's request has no one waiting for it); every
other operation not done is *failed*, and failed operations count as
missing any latency limit.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import heapq
import math
import random
import resource
import statistics
import time
import typing

from repro.adversary.spec import AdversarySpec
from repro.analysis.metrics import LatencyRecorder
from repro.app.runtime import AppRuntime
from repro.app.spec import AppSpec
from repro.crypto.provider import CryptoSpec
from repro.experiments.runner import (
    audit_scenario,
    build_ordering_group,
    live_overrides,
    run_scenario,
    transport_metrics,
)
from repro.experiments.spec import (
    BatchingSpec,
    FaultEvent,
    ObsSpec,
    ScenarioSpec,
    ShardSpec,
    TransportSpec,
)
from repro.perf import clear_caches, gc_paused
from repro.service.gateway import OrderingGateway
from repro.service.spec import ServiceSpec
from repro.shard.group import build_sharded_group
from repro.shard.router import keyspace
from repro.transport import SERVICE_FLOOR_MS, build_transport, calibrate
from repro.workloads.ordering import OrderingWorkload

from hostbench import stats
from hostbench.spans import IDLE, LAYERS, OTHER, Tracer, installed_wrappers

#: Counts that are a pure function of the spec: two runs of one seed
#: must reproduce them exactly.
MODELLED_COUNTS = ("ordered", "network_messages", "signatures")

#: Set-ups timed ahead of every measured simulator run; ``setup_s`` is
#: the median of all of them.  Spreading them over the whole measurement
#: keeps a burst of host contention from deciding the figure.  A live
#: set-up (host calibration) takes a tenth of a second and is timed
#: :data:`LIVE_SETUP_REPEATS` times in all.
SETUPS_PER_REP = 5
LIVE_SETUP_REPEATS = 11

#: Seconds one reference pass (:func:`reference_seconds`) takes on an
#: uncontended host: a 2.1 GHz Xeon vCPU under Python 3.11.  It fixes
#: only the unit of the scaled host metrics.
REFERENCE_S = 0.0108

#: Share of the measured time spent on reference passes, taken after
#: each measured simulator run (at least :data:`REFERENCE_PASSES`, which
#: also precede the first).
REFERENCE_SHARE = 0.08
REFERENCE_PASSES = 3

#: Share of a traced run's seconds spent on its untraced baseline.
BASELINE_SHARE = 1 / 3


class BenchmarkFailure(Exception):
    """A correctness check failed; the run must not report figures."""


@dataclasses.dataclass
class Outcome:
    """What one workload run measured."""

    offered: int
    done: int
    host: dict[str, float] = dataclasses.field(default_factory=dict)
    modelled: dict[str, float] = dataclasses.field(default_factory=dict)
    layers: dict[str, float] = dataclasses.field(default_factory=dict)
    notes: dict[str, typing.Any] = dataclasses.field(default_factory=dict)
    spans: list[tuple] = dataclasses.field(default_factory=list)


# ----------------------------------------------------------------------
# workload definitions
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class SimWorkload:
    """A simulator workload: ``spec(seed, flight_dir)`` builds the spec
    that is run back to back."""

    name: str
    spec: typing.Callable[[int, str], ScenarioSpec]
    audited: bool = False
    #: Fail-signals are a correctness failure (no fault is injected).
    clean: bool = True


def _paper_fig7(seed: int, flight_dir: str) -> ScenarioSpec:
    return ScenarioSpec(
        system="fs-newtop",
        n_members=8,
        messages_per_member=4,
        interval=150.0,
        message_size=3,
        seed=seed,
        settle_ms=30_000.0,
    )


def _sharded_mixed(seed: int, flight_dir: str) -> ScenarioSpec:
    return ScenarioSpec(
        system="fs-newtop",
        n_members=8,
        messages_per_member=8,
        interval=10.0,
        message_size=3,
        write_ratio=0.75,
        seed=seed,
        batching=BatchingSpec(max_batch=8, max_delay_ms=4.0, max_inflight=4),
        shard=ShardSpec(shards=2, cross_shard_ratio=0.2, keyspace=64),
        # fallback=False: a host without the ed25519 backend must fail
        # here, not quietly benchmark hmac under this workload's name.
        crypto=CryptoSpec(provider="ed25519", codec="binwire", fallback=False),
        settle_ms=30_000.0,
    )


def _audit_recover(seed: int, flight_dir: str) -> ScenarioSpec:
    return ScenarioSpec(
        system="fs-newtop",
        n_members=6,
        messages_per_member=24,
        interval=60.0,
        collapsed=False,
        seed=seed,
        app=AppSpec(checkpoint_every=4),
        faults=(
            FaultEvent(at=400.0, kind="crash_recover", member=5, rejoin_at=1200.0),
        ),
        adversaries=(
            AdversarySpec(kind="churn_storm", at=1210.0, members=(4,), spacing=200.0),
        ),
        obs=ObsSpec(http_port=None, flight_dir=flight_dir),
        settle_ms=15_000.0,
    )


#: Why each workload exists is recorded in BENCHMARK.json and README.md.
SIM_WORKLOADS = {
    w.name: w
    for w in (
        SimWorkload("paper_fig7", _paper_fig7),
        SimWorkload("sharded_mixed", _sharded_mixed),
        SimWorkload("audit_recover", _audit_recover, audited=True, clean=False),
    )
}


def crashed_members(spec: ScenarioSpec) -> set[int]:
    """Member indices a spec's fault plan and adversaries crash."""
    crashed = {
        e.member for e in spec.faults if e.kind in ("crash", "crash_recover")
    }
    for adversary in spec.adversaries:
        if adversary.kind == "churn_storm":
            crashed.update(adversary.members)
    return crashed


# ----------------------------------------------------------------------
# simulator workloads
# ----------------------------------------------------------------------
class _ProbeRecorder(LatencyRecorder):
    """A latency recorder that also keeps who delivered what, when."""

    def __init__(self) -> None:
        super().__init__()
        self.sends: dict[typing.Any, tuple[float, int | None]] = {}
        self.member_times: dict[typing.Any, dict[str, float]] = {}

    def sent(self, key, time: float, expected: int | None = None) -> None:
        super().sent(key, time, expected)
        self.sends[key] = (time, expected)

    def delivered(self, key, member: str, time: float) -> None:
        super().delivered(key, member, time)
        if key in self.sends:
            self.member_times.setdefault(key, {}).setdefault(member, time)


@contextlib.contextmanager
def _capture() -> typing.Iterator[dict]:
    """Capture the workload object of the next run (and its recovery
    trace records): the probe run's per-operation view.  Restores
    :meth:`OrderingWorkload.run` on exit."""
    captured: dict[str, typing.Any] = {"recovery": []}
    original = OrderingWorkload.run

    def run(workload, *args, **kwargs):
        workload.recorder = _ProbeRecorder()
        captured["workload"] = workload
        trace = workload.sim.trace
        if trace.enabled:
            trace.add_listener(
                lambda rec: rec.event in ("recover-start", "recover-complete")
                and captured["recovery"].append((rec.source, rec.event, rec.time))
            )
        return original(workload, *args, **kwargs)

    OrderingWorkload.run = run
    try:
        yield captured
    finally:
        OrderingWorkload.run = original


def _execute(spec: ScenarioSpec, audited: bool) -> tuple[dict[str, float], typing.Any]:
    if audited:
        audited_run = audit_scenario(spec, scenario="audit_recover")
        return audited_run.result.metrics, audited_run.report
    return run_scenario(spec).metrics, None


def _time_setup(spec: ScenarioSpec) -> float:
    """Seconds to build the system a spec describes, ready for its first
    operation: clock, group (keys, ORBs, wrappers) and application."""
    started = time.perf_counter()
    transport = build_transport(spec.transport, seed=spec.seed)
    try:
        clock = transport.clock
        if spec.shard is not None:
            group = build_sharded_group(clock, spec)
        else:
            group = build_ordering_group(clock, spec)
        if spec.app is not None:
            AppRuntime(clock, group, spec.app)
        return time.perf_counter() - started
    finally:
        transport.close()


def _op_outcomes(recorder: _ProbeRecorder, member_ids, crashed: set[int]):
    """Latencies of done operations and the count of failed ones."""
    crashed_ids = {member_ids[i] for i in crashed}
    correct = [m for m in member_ids if m not in crashed_ids]
    latencies = []
    failed = 0
    first_send = math.inf
    last_done = -math.inf
    for key, (sent, expected) in recorder.sends.items():
        if isinstance(key, tuple) and key and key[0] in crashed_ids:
            continue  # offered by a member that crashed
        first_send = min(first_send, sent)
        times = recorder.member_times.get(key, {})
        at_correct = [times[m] for m in correct if m in times]
        if len(at_correct) >= (expected if expected is not None else len(correct)):
            latencies.append(max(at_correct) - sent)
            last_done = max(last_done, max(at_correct))
        else:
            failed += 1
    return latencies, failed, first_send, last_done


def _check_rep(
    workload: SimWorkload, metrics: dict[str, float], report, reference: dict[str, float]
) -> None:
    counts = {name: metrics[name] for name in MODELLED_COUNTS}
    if counts != reference:
        raise BenchmarkFailure(
            f"modelled counts differ between two runs of one seed: {reference} vs {counts}"
        )
    if workload.clean and metrics["fail_signals"]:
        raise BenchmarkFailure(f"{metrics['fail_signals']:.0f} fail-signals on a clean run")
    if report is not None and not report.ok:
        failing = [v.oracle for v in report.verdicts if not v.ok]
        raise BenchmarkFailure(f"oracle violations: {failing}")


def _probe(workload: SimWorkload, spec: ScenarioSpec) -> tuple[dict, Outcome]:
    """One untimed run that also warms caches and lazy imports: it fixes
    the per-operation outcome and the modelled figures of this seed."""
    with _capture() as captured:
        metrics, report = _execute(spec, workload.audited)
    _check_rep(workload, metrics, report, {n: metrics[n] for n in MODELLED_COUNTS})
    run = captured["workload"]
    latencies, failed, first_send, last_done = _op_outcomes(
        run.recorder, list(run.group.member_ids), crashed_members(spec)
    )
    if failed:
        raise BenchmarkFailure(f"{failed} of {failed + len(latencies)} operations not done")
    outcome = Outcome(offered=len(latencies) + failed, done=len(latencies))
    summary = stats.latency_summary(latencies, failed)
    outcome.modelled = {
        "model_ops_per_s": len(latencies) / ((last_done - first_send) / 1000.0),
        "model_latency_p50_ms": summary["p50"],
        "model_latency_tail_ms": summary["tail"],
    }
    outcome.notes["model_latency_tail"] = stats.percentile_label(summary["q"])
    outcome.notes["model_latency_samples"] = summary["n"]
    if workload.name == "audit_recover":
        starts = {s: t for s, e, t in captured["recovery"] if e == "recover-start"}
        ends = {s: t for s, e, t in captured["recovery"] if e == "recover-complete"}
        if not starts or set(starts) != set(ends):
            raise BenchmarkFailure(f"recovery did not complete: {captured['recovery']}")
        outcome.modelled["model_recovery_ms"] = max(ends[s] - starts[s] for s in starts)
    return {n: metrics[n] for n in MODELLED_COUNTS}, outcome


def _reference_work(n: int = 3000) -> int:
    """A fixed mix of the work the stack does -- heap pushes and pops,
    dict traffic, hashing -- using no ``repro`` code."""
    heap: list = []
    table: dict = {}
    acc = 0
    for i in range(n):
        value = {"r": i, "s": i % 13, "b": b"abc"}
        heapq.heappush(heap, ((i * 7919) % 1009, i, value))
        table[(i % 8, i % 97)] = value
    while heap:
        _, i, value = heapq.heappop(heap)
        hit = table.get((i % 8, i % 97))
        if hit is not None:
            acc += hit["r"]
        digest = hashlib.sha256(repr(sorted(value.items())).encode()).digest()
        acc ^= int.from_bytes(digest[:4], "big")
    return acc


def reference_seconds() -> float:
    """Wall seconds of one pass of :func:`_reference_work`, collector off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _reference_work()
        return time.perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()


class HostSpeed:
    """How fast the host ran while a measurement was taken.

    On a shared host, co-tenants slow this process by up to half, in
    bursts of a tenth of a second and in spells of minutes.  Reference
    passes, taken between the measured runs, slow with it; their mean
    time estimates the slowdown over the measurement, and the host
    metrics are scaled back to :data:`REFERENCE_S` speed by it.  No
    change to ``repro`` can move the reference itself.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, passes: int) -> None:
        self.samples.extend(reference_seconds() for _ in range(passes))

    @property
    def speed(self) -> float:
        """Host speed relative to an uncontended host (1.0)."""
        return REFERENCE_S / statistics.fmean(self.samples)


def _timed_reps(
    workload: SimWorkload,
    spec: ScenarioSpec,
    seconds: float,
    reference: dict[str, float],
    host: HostSpeed,
    setups: list[float] | None = None,
) -> list[tuple[float, float, dict[str, float]]]:
    """Run the spec back to back until ``seconds`` have passed (at least
    once), sampling ``host`` before the first run and after each; returns
    ``(wall_s, cpu_s, metrics)`` per run.  With ``setups``,
    :data:`SETUPS_PER_REP` set-ups are timed into it ahead of each run."""
    reps = []
    deadline = time.perf_counter() + seconds
    host.sample(REFERENCE_PASSES)
    while not reps or time.perf_counter() < deadline:
        if setups is not None:
            setups.extend(_time_setup(spec) for _ in range(SETUPS_PER_REP))
        wall0, cpu0 = time.perf_counter(), time.process_time()
        metrics, report = _execute(spec, workload.audited)
        wall = time.perf_counter() - wall0
        reps.append((wall, time.process_time() - cpu0, metrics))
        host.sample(max(REFERENCE_PASSES, round(REFERENCE_SHARE * wall / REFERENCE_S)))
        _check_rep(workload, metrics, report, reference)
    return reps


def measure_sim(
    workload: SimWorkload, seed: int, seconds: float, scratch: str, trace: bool
) -> Outcome:
    """Measure a simulator workload for ``seconds`` (untraced), or split
    them between an untraced baseline and a traced run."""
    spec = workload.spec(seed, scratch)
    if installed_wrappers():
        raise RuntimeError(f"tracing wrappers installed: {installed_wrappers()[:5]}")
    reference, outcome = _probe(workload, spec)
    ops = outcome.done
    host = HostSpeed()
    setups: list[float] = []
    untraced = _timed_reps(
        workload,
        spec,
        seconds * (BASELINE_SHARE if trace else 1.0),
        reference,
        host,
        setups,
    )
    total_ops = ops * len(untraced)
    wall = sum(w for w, _, _ in untraced)
    cpu = sum(c for _, c, _ in untraced)
    outcome.offered *= len(untraced)
    outcome.done = total_ops
    _scaled_host(outcome, total_ops, wall, cpu, statistics.median(setups), host.speed)
    outcome.notes.update(reps=len(untraced), ops_per_rep=ops, setups=len(setups))
    if trace:
        tracer = Tracer()
        traced_host = HostSpeed()
        tracer.install()
        try:
            traced = _timed_reps(
                workload, spec, seconds * (1 - BASELINE_SHARE), reference, traced_host
            )
        finally:
            tracer.uninstall()
        outcome.spans = tracer.spans
        traced_ops = ops * len(traced)
        last = traced[-1][2]
        outcome.layers = layer_metrics(
            tracer,
            ops=traced_ops,
            runs=len(traced),
            wall_s=sum(w for w, _, _ in traced),
            cpu_per_op=sum(c for _, c, _ in traced) * traced_host.speed / traced_ops,
            baseline_cpu_per_op=outcome.host["cpu_us_per_op"] / 1e6,
            per_run={
                "net.msgs_per_op": last["network_messages"] / ops,
                "net.bytes_per_op": last["network_bytes"] / ops,
                "core.batch_mean_size": last["batch_mean_size"],
                "core.fail_signals": last["fail_signals"],
                "app.checkpoints_per_op": last.get("app_checkpoints", 0.0) / ops,
            },
        )
        outcome.notes.update(traced_reps=len(traced), spans_dropped=tracer.spans_dropped)
    return outcome


def _scaled_host(
    outcome: Outcome, ops: int, wall: float, cpu: float, setup: float, speed: float
) -> None:
    """Set the host metrics at reference speed from what was measured at
    ``speed``; the measured figures go to the notes."""
    outcome.host = {
        "ops_per_host_s": ops / (wall * speed),
        "cpu_us_per_op": cpu * speed / ops * 1e6,
        "setup_s": setup * speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    outcome.notes.update(
        host_speed=speed,
        measured_ops_per_host_s=ops / wall,
        measured_cpu_us_per_op=cpu / ops * 1e6,
        measured_setup_s=setup,
    )


# ----------------------------------------------------------------------
# the live fleet
# ----------------------------------------------------------------------
#: Session arrivals per wall second: below the knee of a 2-core host,
#: so queueing stays short and no deadline slips.
LIVE_ARRIVALS_PER_S = 27.0
#: Arrivals per second of a traced run and of its untraced baseline:
#: tracing adds host time per operation, and the traced fleet must stay
#: as far below the knee as the untraced one.
LIVE_TRACED_ARRIVALS_PER_S = 9.0
LIVE_OPS_PER_SESSION = 2
LIVE_THINK_MS = 30.0
LIVE_SUBSCRIBERS = 3
LIVE_MAX_RETRIES = 16


def live_spec(seed: int, seconds: float, arrivals_per_s: float) -> ScenarioSpec:
    sessions = max(1, round(arrivals_per_s * seconds))
    return ScenarioSpec(
        system="fs-newtop",
        n_members=4,
        seed=seed,
        shard=ShardSpec(shards=2, keyspace=32),
        transport=TransportSpec(kind="asyncio", tcp=True, time_scale=1.0, calibrate=True),
        gateway=ServiceSpec(
            clients=4,
            rate_limit_per_s=1000.0,
            burst=100,
            max_inflight=256,
            sessions=sessions,
            ops_per_session=LIVE_OPS_PER_SESSION,
            think_ms=LIVE_THINK_MS,
            subscribers=LIVE_SUBSCRIBERS,
            ramp_ms=seconds * 1000.0,
            max_retries=LIVE_MAX_RETRIES,
        ),
    )


class _Subscriber:
    """A feed consumer checking per-shard sequence numbers are gap-free
    and agree with every other subscriber's."""

    def __init__(self, reference: dict[tuple[int, int], str]) -> None:
        self.reference = reference
        self.last_seq: dict[int, int] = {}
        self.events = 0
        self.gaps = 0
        self.mismatches = 0

    def __call__(self, event) -> None:
        if event.seq != self.last_seq.get(event.shard, 0) + 1:
            self.gaps += 1
        self.last_seq[event.shard] = event.seq
        if self.reference.setdefault((event.shard, event.seq), event.op_id) != event.op_id:
            self.mismatches += 1
        self.events += 1


class _Fleet:
    """Sessions arriving open-loop, evenly over the ramp; each submits
    its operations closed-loop (the next one a think time after the
    previous was sequenced).  Latency runs from when an operation was
    due to when it was sequenced."""

    def __init__(self, clock, gateway: OrderingGateway, group, spec: ScenarioSpec) -> None:
        service = spec.gateway
        self.clock = clock
        self.gateway = gateway
        self.group = group
        self.service = service
        rng = random.Random(f"hostbench/live_fleet/{spec.seed}")
        keys = keyspace(spec.shard.keyspace)
        registry = gateway.registry
        self.api_keys = [
            registry.key_of(registry.client_ids[i % service.clients])
            for i in range(service.sessions)
        ]
        self.keys = [
            [rng.choice(keys) for _ in range(service.ops_per_session)]
            for _ in range(service.sessions)
        ]
        self.pending: dict[str, tuple[int, int, float]] = {}
        self.shard_of: dict[str, int] = {}
        self.deliveries: dict[str, int] = {}
        self.latencies: list[float] = []
        self.lateness: list[float] = []
        self.attempts = 0
        self.retries = 0
        self.given_up = 0
        self.done = 0
        self.reference: dict[tuple[int, int], str] = {}
        self.subscribers = [_Subscriber(self.reference) for _ in range(service.subscribers)]
        gateway.on_member_delivery = self._on_member_delivery
        gateway.on_sequenced = self._on_sequenced

    @property
    def offered(self) -> int:
        return self.service.sessions * self.service.ops_per_session

    def start(self) -> None:
        for subscriber in self.subscribers:
            self.gateway.subscribe(subscriber)
        spacing = self.service.ramp_ms / self.service.sessions
        for session in range(self.service.sessions):
            due = session * spacing
            self.clock.schedule(due, self._submit, session, 0, due, 0)

    def _submit(self, session: int, n: int, due: float, tries: int) -> None:
        self.attempts += 1
        outcome = self.gateway.submit(
            self.api_keys[session], payload={"s": session, "n": n}, key=self.keys[session][n]
        )
        if outcome.admitted:
            self.pending[outcome.op_id] = (session, n, due)
            self.shard_of[outcome.op_id] = outcome.shard
            self.deliveries[outcome.op_id] = 0
            self.lateness.append(self.clock.now - due)
            return
        if tries >= LIVE_MAX_RETRIES or outcome.status == 401:
            self.given_up += 1
            return
        self.retries += 1
        retry_ms = outcome.retry_after_ms or self.service.retry_after_ms
        self.clock.schedule(retry_ms, self._submit, session, n, due, tries + 1)

    def _on_member_delivery(self, op_id: str, member: str, at: float) -> None:
        if op_id in self.deliveries:
            self.deliveries[op_id] += 1

    def _on_sequenced(self, event) -> None:
        entry = self.pending.pop(event.op_id, None)
        if entry is None:
            return
        session, n, due = entry
        self.latencies.append(self.clock.now - due)
        if n + 1 < self.service.ops_per_session:
            self.clock.schedule(
                LIVE_THINK_MS, self._submit, session, n + 1, self.clock.now + LIVE_THINK_MS, 0
            )

    def check(self) -> dict[str, int]:
        """Verify the run; returns the verdict counters."""
        self.done = sum(
            1
            for op_id, count in self.deliveries.items()
            if op_id not in self.pending and count >= self.group.shard_size(self.shard_of[op_id])
        )
        verdict = {
            "given_up": self.given_up,
            "unsequenced": len(self.pending),
            "fail_signals": sum(
                g.members[m].fs_process.signaled
                for g in self.group.shard_groups
                for m in g.member_ids
            ),
            "feed_gaps": sum(s.gaps for s in self.subscribers),
            "feed_mismatches": sum(s.mismatches for s in self.subscribers),
            "feed_missing": sum(self.gateway.sequenced - s.events for s in self.subscribers),
            "not_done": self.offered - self.done,
        }
        problems = {name: count for name, count in verdict.items() if count}
        if problems:
            raise BenchmarkFailure(f"live fleet failed its checks: {problems}")
        return verdict


def _live_setup(spec: ScenarioSpec):
    """The live transport and this host's calibration."""
    transport = build_transport(spec.transport, seed=spec.seed)
    # Measurement runs switch the trace recorder off, as the scenario
    # runner does: a live recorder stores every record of the run.
    transport.clock.trace.enabled = False
    calibration = calibrate(tcp=True, base_delta_ms=SERVICE_FLOOR_MS)
    transport.calibration = calibration  # read by transport_metrics()
    return transport, calibration


def _live_build(spec: ScenarioSpec, transport, calibration):
    group = build_sharded_group(
        transport.clock,
        spec,
        transport=transport,
        overrides=live_overrides(spec, calibration) or None,
    )
    gateway = OrderingGateway(transport.clock, group, spec.gateway)
    return group, gateway


def _live_run(spec: ScenarioSpec, tracer: Tracer | None = None) -> dict[str, typing.Any]:
    started = time.perf_counter()
    transport, calibration = _live_setup(spec)
    try:
        clock = transport.clock
        if tracer is not None:
            tracer.install(selector=getattr(clock.loop, "_selector", None))
        group, gateway = _live_build(spec, transport, calibration)
        fleet = _Fleet(clock, gateway, group, spec)
        fleet.start()
        setup_s = time.perf_counter() - started
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            # As the scenario runner does: a full collection over the
            # run's heap stalls the loop past the pairs' deadlines.
            with gc_paused():
                clock.run(until=spec.gateway.ramp_ms + 30_000.0, max_events=50_000_000)
        finally:
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
            if tracer is not None:
                tracer.uninstall()
        verdict = fleet.check()
        return {
            "setup_s": setup_s,
            "wall_s": wall,
            "cpu_s": cpu,
            "fleet": fleet,
            "verdict": verdict,
            "transport": transport_metrics(transport),
            "events": clock.events_processed,
            "network": group.network.stats,
        }
    finally:
        transport.close()
        clear_caches()


def measure_live(seed: int, seconds: float, trace: bool) -> Outcome:
    """Measure the live fleet: ``seconds`` of arrivals, untraced; with
    ``trace``, an untraced baseline fleet then a traced one."""
    if installed_wrappers():
        raise RuntimeError(f"tracing wrappers installed: {installed_wrappers()[:5]}")
    if trace:
        spec = live_spec(seed, seconds * BASELINE_SHARE, LIVE_TRACED_ARRIVALS_PER_S)
    else:
        spec = live_spec(seed, seconds, LIVE_ARRIVALS_PER_S)
    setups = []
    for _ in range(LIVE_SETUP_REPEATS - 1):
        started = time.perf_counter()
        transport, calibration = _live_setup(spec)
        try:
            _live_build(spec, transport, calibration)
            setups.append(time.perf_counter() - started)
        finally:
            transport.close()
    run = _live_run(spec)
    setups.append(run["setup_s"])
    fleet = run["fleet"]
    outcome = Outcome(offered=fleet.offered, done=fleet.done)
    summary = stats.latency_summary(fleet.latencies, fleet.offered - fleet.done)
    # Not scaled to reference speed: arrivals pace the fleet, calibration
    # mostly waits on real timers, and the fleet's CPU per op held within
    # 3% while reference passes around (or inside) the run moved by 25%
    # and more.
    outcome.host = {
        "ops_per_host_s": fleet.done / run["wall_s"],
        "cpu_us_per_op": run["cpu_s"] / fleet.done * 1e6,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "latency_p50_ms": summary["p50"],
        "latency_tail_ms": summary["tail"],
    }
    outcome.notes.update(
        latency_tail=stats.percentile_label(summary["q"]),
        latency_samples=summary["n"],
        generator_late_p99_ms=stats.nearest_rank(sorted(fleet.lateness), 0.99),
        sessions=spec.gateway.sessions,
        **run["verdict"],
    )
    if trace:
        tracer = Tracer()
        traced_spec = live_spec(
            seed, seconds * (1 - BASELINE_SHARE), LIVE_TRACED_ARRIVALS_PER_S
        )
        traced = _live_run(traced_spec, tracer)
        traced_fleet = traced["fleet"]
        ops = traced_fleet.done
        slack = sorted(tracer.timer_slack_ms)
        outcome.spans = tracer.spans
        outcome.notes["spans_dropped"] = tracer.spans_dropped
        outcome.layers = layer_metrics(
            tracer,
            ops=ops,
            runs=1,
            wall_s=traced["wall_s"],
            cpu_per_op=traced["cpu_s"] / ops,
            baseline_cpu_per_op=outcome.host["cpu_us_per_op"] / 1e6,
            per_run={
                "service.admit_ratio": traced_fleet.gateway.admitted / traced_fleet.attempts,
                "service.retries_per_op": traced_fleet.retries / ops,
                "transport.timer_slack_p99_ms": stats.nearest_rank(slack, 0.99) if slack else 0.0,
                "transport.deadline_margin_ms": traced["transport"]["deadline_margin_ms"],
                "core.fail_signals": float(traced["verdict"]["fail_signals"]),
                "net.msgs_per_op": traced["network"].messages_sent / ops,
                "net.bytes_per_op": traced["network"].bytes_sent / ops,
            },
            events=traced["events"],
        )
    return outcome


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def layer_metrics(
    tracer: Tracer,
    ops: int,
    runs: int,
    wall_s: float,
    cpu_per_op: float,
    baseline_cpu_per_op: float,
    per_run: dict[str, float],
    events: int | None = None,
) -> dict[str, float]:
    """The traced run's per-layer figures, every layer present (zeros for
    layers the workload never entered)."""
    accounted = tracer.account(int(wall_s * 1e9))
    calls, nbytes = tracer.calls, tracer.nbytes
    hits, misses = tracer.cache_hits, tracer.cache_misses
    out = {f"{layer}.self_us_per_op": accounted.get(layer, 0) / 1e3 / ops for layer in LAYERS}
    out["other.self_us_per_op"] = accounted.get(OTHER, 0) / 1e3 / ops
    out["idle.self_us_per_op"] = accounted.get(IDLE, 0) / 1e3 / ops
    out.update(
        {
            "sim.events_per_op": (events if events is not None else tracer.events_processed())
            / ops,
            "crypto.encode_calls_per_op": calls.get("crypto.encode", 0) / ops,
            "crypto.encode_bytes_per_op": nbytes.get("crypto.encode", 0) / ops,
            "crypto.signs_per_op": calls.get("crypto.signs", 0) / ops,
            "crypto.verifies_per_op": calls.get("crypto.verifies", 0) / ops,
            "crypto.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "net.wire_size_us_per_op": tracer.incl_ns.get("net.wire_size", 0) / 1e3 / ops,
            "corba.invocations_per_op": calls.get("corba.invocations", 0) / ops,
            "shard.barrier_ops_per_op": calls.get("shard.barrier_ops", 0) / ops,
            "transport.frames_per_op": calls.get("transport.frames", 0) / ops,
            "transport.frame_bytes_per_op": nbytes.get("transport.frames", 0) / ops,
            "invariants.records_per_op": calls.get("invariants.records", 0) / ops,
            "adversary.actions": calls.get("callbacks.adversary", 0) / runs,
            "trace.overhead_frac": cpu_per_op / baseline_cpu_per_op - 1.0,
            "trace.wall_s": wall_s,
            "trace.ops": ops,
            "trace.accounted_s": sum(accounted.values()) / 1e9,
        }
    )
    for name in (
        "net.msgs_per_op",
        "net.bytes_per_op",
        "core.batch_mean_size",
        "core.fail_signals",
        "app.checkpoints_per_op",
        "service.admit_ratio",
        "service.retries_per_op",
        "transport.timer_slack_p99_ms",
        "transport.deadline_margin_ms",
    ):
        out[name] = float(per_run.get(name, 0.0))
    return out
