"""Execution of declarative scenario specs.

This module is the single place where a :class:`ScenarioSpec` becomes a
live simulation: it builds the system under test, schedules the fault
plan, drives the workload and flattens the measurements into a
JSON-able metrics dict.  The CLI, the campaign runner and the benchmark
harness all call in here, so their configurations cannot drift.

**Invariants this module maintains** (what the :mod:`repro.invariants`
oracles -- and every cross-run comparison -- are sound against):

* a spec is *complete*: everything that shapes a run (system, sizes,
  delay model, fault plan, adversaries, batching, seed) comes from the
  spec, so equal specs produce bit-identical metrics on any machine and
  worker count;
* measurement runs and audit runs execute the *same* simulation -- the
  only difference is whether the trace recorder is live (listener-only,
  nothing stored) for the oracles to consume; metrics are never read
  from trace state, so auditing cannot perturb what is measured;
* the fault plan is announced to the trace *before* it is applied
  (``adversary``/``faultplan`` records), so the oracles always learn
  which pairs are expected to misbehave no later than the misbehaviour
  itself;
* per-run caches are cleared after every run inside the GC pause, so
  one run's memoised state can never leak into the next run's timings.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.adversary.engine import AdversaryEngine
from repro.analysis.metrics import summarize
from repro.baselines.pbft import PbftCluster
from repro.invariants import AuditConfig, AuditReport, InvariantMonitor, topology_of
from repro.perf import clear_caches, gc_paused
from repro.core.config import FsoConfig
from repro.crypto.costmodel import CryptoCostModel
from repro.experiments.spec import ObsSpec, ScenarioSpec
from repro.fsnewtop.system import ByzantineTolerantGroup
from repro.obs import FlightRecorder, ObsHub, install_hub
from repro.net.network import Network
from repro.newtop.system import CrashTolerantGroup
from repro.shard.group import ShardedGroup, build_sharded_group
from repro.sim.scheduler import Simulator
from repro.transport import (
    SERVICE_FLOOR_MS,
    CalibrationResult,
    Clock,
    Transport,
    build_transport,
    calibrate,
)
from repro.workloads.ordering import (
    ExperimentResult,
    OrderingWorkload,
    ShardedOrderingWorkload,
)

AnyGroup = typing.Union[CrashTolerantGroup, ByzantineTolerantGroup, ShardedGroup]


@dataclasses.dataclass(frozen=True, slots=True)
class RunResult:
    """One scenario run, flattened for storage and aggregation.

    ``metrics`` maps metric name to a float; every system produces the
    shared core (``ordered``, ``throughput_msgs_per_s``,
    ``network_messages``, ``network_bytes``, ``view_changes``) plus the
    system-specific extras (``fail_signals``, ``suspicions``,
    ``latency_mean_ms`` ...).
    """

    spec: ScenarioSpec
    metrics: dict[str, float]

    def to_dict(self) -> dict:
        return {"spec": self.spec.to_dict(), "metrics": dict(self.metrics)}

    @classmethod
    def from_dict(cls, data: dict) -> "RunResult":
        return cls(
            spec=ScenarioSpec.from_dict(data["spec"]),
            metrics=dict(data["metrics"]),
        )


# ----------------------------------------------------------------------
# fault plan application
# ----------------------------------------------------------------------
def _partition_addresses(group: AnyGroup, members: tuple[int, ...]) -> list[str]:
    """Network addresses backing the given member indices."""
    addresses = []
    for index in members:
        member_id = group.member_ids[index]
        addresses.append(member_id)
        if isinstance(group, ByzantineTolerantGroup) and not group.collapsed:
            addresses.append(f"{member_id}-b")
    return addresses


def _apply_fault(group: AnyGroup, event, app_runtime=None) -> None:
    # Announce the fault to the trace first: the invariant monitor's
    # bookkeeping (which pairs/nodes are *expected* to misbehave) is
    # driven by this stream.
    sim = group.sim
    sim.trace.record(
        sim.now,
        "adversary",
        "fault-plan",
        "faultplan",
        kind=event.kind,
        member=event.member,
        groups=[list(g) for g in event.groups],
        rejoin_at=event.rejoin_at,
    )
    if event.kind == "crash":
        if isinstance(group, ByzantineTolerantGroup):
            group.crash_primary(event.member)
        else:
            group.crash(event.member)
    elif event.kind == "crash_recover":
        # Same node kill as ``crash`` -- the ordering pair stays down --
        # plus a scheduled application-level rejoin via state transfer.
        if app_runtime is None:
            raise ValueError("crash_recover faults need an AppSpec on the scenario")
        if isinstance(group, ByzantineTolerantGroup):
            group.crash_primary(event.member)
        else:
            group.crash(event.member)
        member_id = group.member_ids[event.member]
        app_runtime.mark_crashed(member_id)
        sim.schedule(event.rejoin_at - event.at, app_runtime.start_recovery, member_id)
    elif event.kind == "crash_backup":
        if not isinstance(group, ByzantineTolerantGroup):
            raise ValueError("crash_backup faults need the fs-newtop system")
        group.crash_backup(event.member)
    elif event.kind == "partition":
        groups = [_partition_addresses(group, g) for g in event.groups]
        group.network.partition(*groups)
    elif event.kind == "heal":
        group.network.heal()
    else:  # pragma: no cover - FaultEvent validates kinds
        raise ValueError(f"unknown fault kind {event.kind!r}")


def _schedule_faults(sim, group: AnyGroup, spec: ScenarioSpec, app_runtime=None) -> None:
    for event in spec.faults:
        sim.schedule(event.at, _apply_fault, group, event, app_runtime)


# ----------------------------------------------------------------------
# transports & calibration
# ----------------------------------------------------------------------
def live_overrides(
    spec: ScenarioSpec, calibration: CalibrationResult | None
) -> dict[str, typing.Any]:
    """Group-constructor overrides a calibrated live run applies.

    The measured cost model replaces the simulator's defaults so charged
    service times track real crypto time, and the calibrated delta
    replaces the cost-model deadline base (batch shape is preserved).
    fs-newtop only -- the other systems sign nothing.
    """
    if calibration is None or spec.system != "fs-newtop":
        return {}
    base = FsoConfig()
    if spec.batching is not None:
        base = FsoConfig(
            batch_max=spec.batching.max_batch,
            batch_delay_ms=spec.batching.max_delay_ms,
            batch_inflight=spec.batching.max_inflight,
        )
    return {
        "crypto_costs": calibration.crypto_cost_model(),
        "fso_config": calibration.fso_config(base),
    }


# ----------------------------------------------------------------------
# ordering systems (newtop / fs-newtop)
# ----------------------------------------------------------------------
def build_ordering_group(
    sim: Clock, spec: ScenarioSpec, **overrides: typing.Any
) -> AnyGroup:
    """Construct the group a spec describes (``newtop``/``fs-newtop``).

    ``overrides`` are forwarded to the group constructor verbatim and
    win over spec-derived arguments -- the escape hatch the ablation
    benchmarks use to pass live cost-model objects.
    """
    if spec.system == "newtop":
        kwargs: dict[str, typing.Any] = dict(
            delay=spec.delay.build(),
            suspectors=spec.suspectors,
            suspector_interval=spec.suspector_interval,
            suspector_timeout=spec.suspector_timeout,
            suspector_max_misses=spec.suspector_max_misses,
        )
        kwargs.update(overrides)
        return CrashTolerantGroup(sim, n_members=spec.n_members, **kwargs)
    if spec.system == "fs-newtop":
        kwargs = dict(
            delay=spec.delay.build(),
            collapsed=spec.collapsed,
            byzantine_members=spec.byzantine_members,
        )
        if spec.crypto is not None:
            # The CryptoSpec picks scheme, signing codec and the sim
            # cost table (the provider's own, unless costs="paper"
            # pins the reference table); crypto_scale composes on top,
            # scaling whichever table was selected.
            kwargs["scheme"] = spec.crypto.scheme()
            kwargs["codec"] = spec.crypto.codec
            crypto_costs = spec.crypto.cost_model()
            if spec.crypto_scale != 1.0:
                crypto_costs = crypto_costs.scaled(spec.crypto_scale)
            kwargs["crypto_costs"] = crypto_costs
        elif spec.crypto_scale != 1.0:
            kwargs["crypto_costs"] = CryptoCostModel().scaled(spec.crypto_scale)
        if spec.batching is not None:
            kwargs["fso_config"] = FsoConfig(
                batch_max=spec.batching.max_batch,
                batch_delay_ms=spec.batching.max_delay_ms,
                batch_inflight=spec.batching.max_inflight,
            )
        kwargs.update(overrides)
        return ByzantineTolerantGroup(sim, n_members=spec.n_members, **kwargs)
    raise ValueError(f"not an ordering system: {spec.system!r}")


def _run_ordering(
    spec: ScenarioSpec,
    monitor_config: AuditConfig | None = None,
    scenario: str | None = None,
    **system_kwargs: typing.Any,
) -> tuple[OrderingWorkload, InvariantMonitor | None, Transport]:
    """Build and run an ordering spec.

    With ``monitor_config`` set this becomes an *audit* run: the trace
    recorder stays live (listeners only -- nothing is stored) and an
    :class:`InvariantMonitor` rides along; call ``monitor.finish()``
    after the run for the report.  Measurement runs keep tracing off.

    The spec's :class:`~repro.experiments.spec.TransportSpec` picks the
    clock: the default simulator path is construction-for-construction
    identical to building the :class:`Simulator` directly, while a live
    transport supplies the network(s), wall-clock timers and (when
    enabled) the host-calibrated deadlines.
    """
    transport = build_transport(
        spec.transport,
        seed=spec.seed,
        codec=spec.crypto.codec if spec.crypto is not None else "canonical",
    )
    sim = transport.clock
    live = spec.transport is not None and spec.transport.live
    monitor = None
    if monitor_config is None:
        sim.trace.enabled = False  # measurement runs do not pay for tracing
    else:
        sim.trace.store = False  # oracles listen; nothing is stored
    # Observability: an explicit ObsSpec wins; otherwise audit runs
    # observe by default and measurement runs do not (the perf gate
    # must see the obs-disabled stack).  Installed before the group is
    # built so every layer's hub_of() lookup finds the instruments.
    obs_spec = spec.obs
    if obs_spec is None and monitor_config is not None:
        obs_spec = ObsSpec()
    hub = None
    flight = None
    if obs_spec is not None and obs_spec.enabled:
        hub = install_hub(sim, ObsHub())
        if obs_spec.flight and monitor_config is not None:
            # The recorder is a trace listener, so it rides the same
            # stream the oracles consume -- audit runs only.
            flight = FlightRecorder(capacity=obs_spec.flight_events).attach(sim.trace)
    calibration = None
    if live and spec.transport.calibrate:
        # A served run puts the whole client fleet on the protocol's
        # loop; start the delta derivation from the loaded floor.
        kwargs = {"tcp": spec.transport.tcp}
        if spec.crypto is not None:
            # Calibrate against the scheme that will actually sign, so
            # the measured deadlines shrink with a faster provider.
            kwargs["scheme"] = spec.crypto.scheme()
        if spec.gateway is not None:
            kwargs["base_delta_ms"] = SERVICE_FLOOR_MS
        calibration = calibrate(**kwargs)
    if hub is not None and calibration is not None:
        hub.calibrated_delta_ms.set(calibration.delta_ms)
    overrides = dict(live_overrides(spec, calibration))
    if spec.shard is not None:
        if system_kwargs:
            raise ValueError(
                "system overrides are not supported on sharded specs "
                f"(got {sorted(system_kwargs)})"
            )
        group: AnyGroup = build_sharded_group(
            sim,
            spec,
            transport=transport if live else None,
            overrides=overrides or None,
        )
    else:
        if live:
            overrides["network"] = transport.make_network(
                default_delay=spec.delay.build()
            )
        overrides.update(system_kwargs)
        group = build_ordering_group(sim, spec, **overrides)
    if monitor_config is not None:
        monitor = InvariantMonitor(
            sim, topology_of(group), config=monitor_config, scenario=scenario
        )
    app_runtime = None
    if spec.app is not None:
        from repro.app.runtime import AppRuntime

        app_runtime = AppRuntime(sim, group, spec.app)
    if spec.gateway is not None:
        from repro.service.workload import ServiceWorkload

        workload: OrderingWorkload = ServiceWorkload(
            sim,
            group,
            spec.gateway,
            message_size=spec.message_size,
            keyspace=spec.shard.keyspace if spec.shard is not None else None,
            kv_ops=spec.app is not None,
        )
    elif spec.shard is not None:
        workload = ShardedOrderingWorkload(
            sim,
            group,
            messages_per_member=spec.messages_per_member,
            interval=spec.interval,
            message_size=spec.message_size,
            service=spec.service,
            write_ratio=spec.write_ratio,
            keyspace=spec.shard.keyspace,
            cross_shard_ratio=spec.shard.cross_shard_ratio,
        )
    else:
        workload = OrderingWorkload(
            sim,
            group,
            messages_per_member=spec.messages_per_member,
            interval=spec.interval,
            message_size=spec.message_size,
            service=spec.service,
            write_ratio=spec.write_ratio,
        )
    if hub is not None and live and obs_spec.http_port is not None:
        # A live run hosts GET /metrics for the duration: scrapeable by
        # an operator (or the CI format check) while the scenario runs.
        # The socket dies with the loop, the same way `repro serve`'s
        # server does; gateway-backed runs also expose /v1/status.
        from repro.service.http import ServiceHttpServer

        metrics_server = ServiceHttpServer(
            sim,
            gateway=getattr(workload, "gateway", None),
            port=obs_spec.http_port,
            hub=hub,
        )

        async def _serve_metrics() -> None:
            await metrics_server.start()
            print(f"obs: GET /metrics on {metrics_server.address}", flush=True)

        sim.add_starter(_serve_metrics)
    _schedule_faults(sim, group, spec, app_runtime)
    if spec.adversaries:
        AdversaryEngine(sim, group, spec.adversaries).install()
    transport.calibration = calibration  # type: ignore[attr-defined]
    transport.app_runtime = app_runtime  # type: ignore[attr-defined]
    transport.obs_hub = hub  # type: ignore[attr-defined]
    transport.obs_spec = obs_spec  # type: ignore[attr-defined]
    transport.flight = flight  # type: ignore[attr-defined]
    try:
        with gc_paused():  # host-time only; see repro.perf
            workload.run(settle_ms=spec.settle_ms)
            # Entries keyed to this run's (now dead) messages would only
            # cause eviction churn in the next run and inflate the final
            # collection; dropping them inside the pause frees by refcount.
            clear_caches()
    finally:
        transport.close()
    return workload, monitor, transport


def transport_metrics(transport: Transport) -> dict[str, float]:
    """Wall-clock observations of a live run, flattened for the report.

    Empty for the simulator.  ``deadline_margin_ms`` is how much of the
    (calibrated) delta bound the worst observed timer slack left unused
    -- the headroom between this run and a spurious fail-signal.
    """
    metrics = dict(transport.wall_metrics())
    if not metrics:
        return metrics
    calibration = getattr(transport, "calibration", None)
    delta = calibration.delta_ms if calibration is not None else FsoConfig().delta
    metrics["calibrated_delta_ms"] = delta
    metrics["deadline_margin_ms"] = delta - metrics.get("timer_slack_max_ms", 0.0)
    return metrics


def obs_metrics(transport: Transport) -> dict[str, float]:
    """Histogram summaries of the run's obs hub, flattened.

    Empty when the run carried no hub.  Also the point where the
    deadline-margin gauge is finalised: the worst timer slack is only
    known once the run is over.
    """
    hub = getattr(transport, "obs_hub", None)
    if hub is None:
        return {}
    wall = transport.wall_metrics()
    if wall:
        delta = hub.calibrated_delta_ms.value or FsoConfig().delta
        hub.deadline_margin_ms.set(delta - wall.get("timer_slack_max_ms", 0.0))
    return hub.summary_metrics()


def app_metrics(transport: Transport) -> dict[str, float]:
    """The replicated application's ``app_*`` metrics, flattened.

    Empty when the spec carried no :class:`~repro.app.spec.AppSpec`.
    """
    runtime = getattr(transport, "app_runtime", None)
    if runtime is None:
        return {}
    return runtime.metrics()


def observe_spec(
    spec: ScenarioSpec, scenario: str | None = None
) -> dict[str, typing.Any]:
    """Run a spec once with observability forced on; return the registry
    snapshot (the ``repro obs --scenario`` backend).

    An explicit :class:`~repro.experiments.spec.ObsSpec` on the spec is
    honoured (re-enabled if switched off); otherwise a default one is
    attached with no HTTP port -- a snapshot run has no scraper.
    """
    if spec.obs is None:
        spec = spec.replace(obs=ObsSpec(http_port=None))
    elif not spec.obs.enabled:
        spec = spec.replace(obs=dataclasses.replace(spec.obs, enabled=True))
    _workload, _monitor, transport = _run_ordering(spec, scenario=scenario)
    hub = getattr(transport, "obs_hub", None)
    if hub is None:
        return {}
    snapshot = hub.registry.snapshot()
    snapshot["summary"] = hub.summary_metrics()
    return snapshot


def run_ordering_spec(
    spec: ScenarioSpec, **system_kwargs: typing.Any
) -> ExperimentResult:
    """Run an ordering spec and return the rich per-run result (the
    interface :func:`repro.workloads.run_ordering_experiment` wraps)."""
    workload, _monitor, _transport = _run_ordering(spec, **system_kwargs)
    return workload.result(spec.system)


def _fs_groups(group: AnyGroup) -> tuple[ByzantineTolerantGroup, ...]:
    """The fail-signal groups backing a run (one, or one per shard)."""
    if isinstance(group, ByzantineTolerantGroup):
        return (group,)
    if isinstance(group, ShardedGroup):
        return tuple(group.shard_groups)
    return ()


def _suspicion_count(group: AnyGroup) -> int:
    fs_groups = _fs_groups(group)
    if fs_groups:
        return sum(
            len(g.member(m).suspector.suspicions_raised)
            for g in fs_groups
            for m in g.member_ids
        )
    return sum(len(s.suspicions_raised) for s in group.suspectors.values())


def _batching_metrics(group: AnyGroup) -> dict[str, float]:
    """Crypto-amortisation counters of a run, summed over every wrapper.

    ``signatures`` counts every signing operation actually performed
    (singles/batches, countersignatures, fail-signals), so
    ``signatures_per_ordered`` is the amortised cost figure a batched
    vs unbatched A/B compares.  All zeros for systems without
    fail-signal pairs.
    """
    fs_groups = _fs_groups(group)
    if not fs_groups:
        return {"signatures": 0.0, "batches_signed": 0.0, "batch_outputs": 0.0,
                "batch_mean_size": 0.0}
    signatures = batches = outputs = 0
    for fs_group in fs_groups:
        for member_id in fs_group.member_ids:
            process = fs_group.members[member_id].fs_process
            for fso in (process.leader, process.follower):
                signatures += fso.signatures_made
                batches += fso.batches_signed
                outputs += fso.batch_outputs_signed
    return {
        "signatures": float(signatures),
        "batches_signed": float(batches),
        "batch_outputs": float(outputs),
        "batch_mean_size": outputs / batches if batches else 0.0,
    }


def _ordering_metrics(workload: OrderingWorkload, result: ExperimentResult) -> dict[str, float]:
    group = workload.group
    view_changes = sum(len(group.views(m)) for m in group.member_ids)
    ordered = float(workload.recorder.fully_delivered(workload.n_members))
    metrics = {
        # Messages ordered at *every* member -- comparable with PBFT's
        # fully-executed request count.
        "ordered": ordered,
        "latency_mean_ms": result.latency.mean,
        "latency_p95_ms": result.latency.p95,
        "completion_mean_ms": result.completion_latency.mean,
        "throughput_msgs_per_s": result.throughput_msgs_per_s,
        "network_messages": float(result.network_messages),
        "network_bytes": float(result.network_bytes),
        "fail_signals": float(result.fail_signals),
        "suspicions": float(_suspicion_count(group)),
        "view_changes": float(view_changes),
    }
    metrics.update(_batching_metrics(group))
    metrics["signatures_per_ordered"] = (
        metrics["signatures"] / ordered if ordered else 0.0
    )
    if isinstance(workload, ShardedOrderingWorkload):
        metrics.update(workload.shard_metrics())
    service_metrics = getattr(workload, "service_metrics", None)
    if service_metrics is not None:
        metrics.update(service_metrics())
    return metrics


# ----------------------------------------------------------------------
# the PBFT comparator
# ----------------------------------------------------------------------
def pbft_fault_budget(n_members: int) -> int:
    """The fault budget a PBFT cluster needs to match an ``n_members``
    (= 2f+1 application replicas) FS-NewTOP group."""
    return max(1, (n_members - 1) // 2)


def _run_pbft(spec: ScenarioSpec) -> dict[str, float]:
    sim = Simulator(seed=spec.seed)
    sim.trace.enabled = False
    network = Network(sim, default_delay=spec.delay.build())
    f = pbft_fault_budget(spec.n_members)
    cluster = PbftCluster(sim, f=f, network=network, view_timeout=spec.view_timeout)

    submitted_at: dict[int, float] = {}
    executed_at: dict[int, dict[str, float]] = {}

    def hook(replica_id: str):
        def on_execute(request) -> None:
            executed_at.setdefault(request.op_id, {})[replica_id] = sim.now

        return on_execute

    for replica_id, replica in cluster.replicas.items():
        replica.on_execute = hook(replica_id)

    for event in spec.faults:
        if event.kind == "crash":
            sim.schedule(event.at, cluster.crash, cluster.replica_ids[event.member])
        elif event.kind == "partition":
            groups = [
                [cluster.replica_ids[i] for i in g] for g in event.groups
            ]
            sim.schedule(event.at, network.partition, *groups)
        elif event.kind == "heal":
            sim.schedule(event.at, network.heal)
        else:
            raise ValueError(f"fault kind {event.kind!r} unsupported for pbft")

    # Offer the ordering workload's aggregate load as client requests.
    total = spec.messages_per_member * spec.n_members
    spacing = spec.interval / spec.n_members

    def submit() -> None:
        request = cluster.submit({"op": len(submitted_at)})
        submitted_at[request.op_id] = sim.now

    for i in range(total):
        sim.schedule(i * spacing, submit)
    with gc_paused():  # host-time only; see repro.perf
        sim.run(until=total * spacing + spec.settle_ms, max_events=200_000_000)

    ordered = min(len(r.executed) for r in cluster.replicas.values())
    view_changes = sum(r.view_changes for r in cluster.replicas.values())
    # Per-execution latencies (one sample per replica per request) are
    # the analog of the ordering systems' per-delivery latencies;
    # completions (time until the *slowest* replica executed) match
    # their completion latencies.
    per_execution = [
        t - submitted_at[op_id]
        for op_id, times in executed_at.items()
        for t in times.values()
    ]
    completions = []
    last_done: float | None = None
    for op_id, times in executed_at.items():
        if len(times) >= cluster.n:
            done = max(times.values())
            completions.append(done - submitted_at[op_id])
            last_done = done if last_done is None else max(last_done, done)
    first = min(submitted_at.values()) if submitted_at else None
    throughput = 0.0
    if completions and last_done is not None and first is not None and last_done > first:
        throughput = len(completions) / ((last_done - first) / 1000.0)
    # Same summary (and percentile convention) as the ordering systems.
    latency = summarize(per_execution) if per_execution else summarize([0.0])
    completion = summarize(completions) if completions else summarize([0.0])
    return {
        "ordered": float(ordered),
        "latency_mean_ms": latency.mean,
        "latency_p95_ms": latency.p95,
        "completion_mean_ms": completion.mean,
        "throughput_msgs_per_s": throughput,
        "network_messages": float(network.stats.messages_sent),
        "network_bytes": float(network.stats.bytes_sent),
        "fail_signals": 0.0,
        "suspicions": 0.0,
        "view_changes": float(view_changes),
        # The comparator signs nothing; keep the amortisation keys so
        # cross-system tables stay rectangular.
        "signatures": 0.0,
        "batches_signed": 0.0,
        "batch_outputs": 0.0,
        "batch_mean_size": 0.0,
        "signatures_per_ordered": 0.0,
    }


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def run_scenario(spec: ScenarioSpec) -> RunResult:
    """Execute one spec and return its flattened metrics."""
    if spec.system == "pbft":
        return RunResult(spec=spec, metrics=_run_pbft(spec))
    workload, _monitor, transport = _run_ordering(spec)
    result = workload.result(spec.system)
    metrics = _ordering_metrics(workload, result)
    metrics.update(transport_metrics(transport))
    metrics.update(obs_metrics(transport))
    metrics.update(app_metrics(transport))
    return RunResult(spec=spec, metrics=metrics)


@dataclasses.dataclass(frozen=True)
class AuditedRun:
    """One audited scenario run: the usual metrics plus the oracle report.

    ``flight_bundle`` is the postmortem bundle directory the flight
    recorder dumped -- set only when the run tripped (a fail-signal on
    the trace, or a report with violations) while obs was live.
    """

    result: RunResult
    report: AuditReport
    flight_bundle: str | None = None

    def to_dict(self) -> dict:
        return {
            "result": self.result.to_dict(),
            "report": self.report.to_dict(),
            "flight_bundle": self.flight_bundle,
        }


def audit_scenario(
    spec: ScenarioSpec,
    config: AuditConfig | None = None,
    scenario: str | None = None,
) -> AuditedRun:
    """Execute one spec under the invariant oracles.

    The run is identical to :func:`run_scenario` except that the trace
    recorder stays live (in listener-only mode) so the
    :mod:`repro.invariants` oracles can consume the event stream; the
    report lands next to the ordinary metrics.  Only the ordering
    systems are auditable -- the PBFT comparator exposes neither the
    fail-signal hooks nor the app-level trace stream.
    """
    if spec.system == "pbft":
        raise ValueError("audit runs need an ordering system (newtop / fs-newtop)")
    audit_config = config if config is not None else AuditConfig()
    workload, monitor, transport = _run_ordering(
        spec, monitor_config=audit_config, scenario=scenario
    )
    assert monitor is not None
    result = workload.result(spec.system)
    metrics = _ordering_metrics(workload, result)
    metrics.update(transport_metrics(transport))
    metrics.update(obs_metrics(transport))
    metrics.update(app_metrics(transport))
    report = monitor.finish()
    bundle = None
    flight = getattr(transport, "flight", None)
    if flight is not None and (flight.tripped or not report.ok):
        obs_spec = getattr(transport, "obs_spec", None) or ObsSpec()
        hub = getattr(transport, "obs_hub", None)
        bundle = str(
            flight.dump(
                obs_spec.flight_dir,
                scenario=scenario or spec.system,
                spec=spec.to_dict(),
                registry=hub.registry if hub is not None else None,
                calibration=getattr(transport, "calibration", None),
                report=report.to_dict(),
            )
        )
    return AuditedRun(
        result=RunResult(spec=spec, metrics=metrics),
        report=report,
        flight_bundle=bundle,
    )
