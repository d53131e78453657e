"""The instrumentation half of :mod:`repro.obs`: the hub.

An :class:`ObsHub` pre-builds every instrument the protocol stack
observes into -- signing/verification/countersignature stage latencies
(per signature scheme), batch flush sizes and pipeline-cap deferrals,
cross-shard barrier reserve/commit phases, gateway admission outcomes
and submit-to-delivery latency, asyncio timer lag and the calibration
deadline gauges -- so call sites hold bound instrument references and
the hot path never does a dict lookup.

The hub rides on the run's clock: the runner calls
:func:`install_hub` once, and every component finds it with
:func:`hub_of` at construction time.  A clock without a hub resolves to
:data:`DISABLED_HUB`, a singleton whose instruments are all no-ops --
so instrumented code is unconditional and un-instrumented runs pay one
no-op call per observation point (the ``TraceRecorder`` discipline).
"""

from __future__ import annotations

import typing

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_histograms,
)

#: Protocol stages with per-scheme latency histograms.
STAGES = ("sign", "verify", "countersign")


class ObsHub:
    """Every instrument the stack observes into, pre-registered."""

    def __init__(self, enabled: bool = True) -> None:
        self.registry = MetricsRegistry(enabled=enabled)
        registry = self.registry
        # -- fail-signal processors ------------------------------------
        self.fail_signals = registry.counter(
            "repro_fso_fail_signals_total",
            "Fail-signals raised by any wrapper (the paper's detection events)",
        )
        # -- batching layer --------------------------------------------
        self.batch_flush_outputs = registry.histogram(
            "repro_batch_flush_outputs",
            "Outputs per batch flush (amortisation actually achieved)",
        )
        self.batch_deferrals = registry.counter(
            "repro_batch_deferrals_total",
            "Size-triggered flushes deferred by the pipeline inflight cap",
        )
        # -- cross-shard barrier ---------------------------------------
        self.barrier_reserves = registry.counter(
            "repro_shard_barrier_reserve_total",
            "Cross-shard operations entering the two-phase barrier",
        )
        self.barrier_commits = registry.counter(
            "repro_shard_barrier_commit_total",
            "Cross-shard operations committed at their final position",
        )
        self.barrier_commit_ms = registry.histogram(
            "repro_shard_barrier_commit_ms",
            "Barrier reserve-to-commit latency",
        )
        # -- service gateway -------------------------------------------
        self.submit_ms = registry.histogram(
            "repro_gateway_submit_ms",
            "Admitted submit to sequenced delivery latency",
        )
        self._admission: dict[str, Counter] = {}
        # -- replicated application ------------------------------------
        self.app_checkpoint_ms = registry.histogram(
            "repro_app_checkpoint_ms",
            "Checkpoint emission to f+1 matching-certificate quorum latency",
        )
        self.app_transfer_bytes = registry.counter(
            "repro_app_transfer_bytes_total",
            "State-transfer bytes shipped to recovering members",
        )
        # -- transport -------------------------------------------------
        self.timer_lag_ms = registry.histogram(
            "repro_timer_lag_ms",
            "How late asyncio timer callbacks fired vs their deadline",
        )
        self.calibrated_delta_ms = registry.gauge(
            "repro_calibrated_delta_ms",
            "The delta bound this run's detection deadlines derive from",
        )
        self.deadline_margin_ms = registry.gauge(
            "repro_deadline_margin_ms",
            "Calibrated delta minus worst observed timer slack",
        )
        self._stages: dict[str, dict[str, Histogram]] = {s: {} for s in STAGES}

    # -- labelled factories --------------------------------------------
    @property
    def enabled(self) -> bool:
        return self.registry.enabled

    def stage_histogram(self, stage: str, scheme: str) -> Histogram:
        """The latency histogram of one crypto stage for one scheme."""
        if stage not in STAGES:
            raise ValueError(f"unknown stage {stage!r}, want one of {STAGES}")
        cache = self._stages[stage]
        histogram = cache.get(scheme)
        if histogram is None:
            histogram = self.registry.histogram(
                f"repro_fso_{stage}_ms",
                f"Wrapper {stage} stage latency, by signature scheme",
                scheme=scheme,
            )
            cache[scheme] = histogram
        return histogram

    def sign_histogram(self, scheme: str) -> Histogram:
        return self.stage_histogram("sign", scheme)

    def verify_histogram(self, scheme: str) -> Histogram:
        return self.stage_histogram("verify", scheme)

    def countersign_histogram(self, scheme: str) -> Histogram:
        return self.stage_histogram("countersign", scheme)

    def admission(self, outcome: str) -> Counter:
        """The admission counter for one outcome (accepted / 401 / 429)."""
        counter = self._admission.get(outcome)
        if counter is None:
            counter = self.registry.counter(
                "repro_gateway_admission_total",
                "Gateway admission decisions, by outcome",
                outcome=outcome,
            )
            self._admission[outcome] = counter
        return counter

    # -- summaries ------------------------------------------------------
    def summary_metrics(self) -> dict[str, float]:
        """Histogram summaries flattened for the runner's metrics dict.

        Only populated instruments appear, so a run that never touched a
        subsystem (no shards, no gateway) emits no dead columns.
        """
        out: dict[str, float] = {}
        for stage in STAGES:
            populated = [h for h in self._stages[stage].values() if h.count]
            if not populated:
                continue
            merged = merge_histograms(populated)
            out[f"obs_{stage}_count"] = float(merged.count)
            out[f"obs_{stage}_p50_ms"] = merged.percentile(0.5)
            out[f"obs_{stage}_p99_ms"] = merged.percentile(0.99)
            out[f"obs_{stage}_p999_ms"] = merged.percentile(0.999)
        if self.submit_ms.count:
            out["obs_submit_p999_ms"] = self.submit_ms.percentile(0.999)
        if self.timer_lag_ms.count:
            out["obs_timer_lag_p99_ms"] = self.timer_lag_ms.percentile(0.99)
        if self.batch_flush_outputs.count:
            out["obs_batch_flush_p99"] = self.batch_flush_outputs.percentile(0.99)
        if self.batch_deferrals.value:
            out["obs_batch_deferrals"] = float(self.batch_deferrals.value)
        if self.barrier_commit_ms.count:
            out["obs_barrier_commit_p99_ms"] = self.barrier_commit_ms.percentile(0.99)
        if self.app_checkpoint_ms.count:
            out["obs_app_checkpoint_p99_ms"] = self.app_checkpoint_ms.percentile(0.99)
        if self.app_transfer_bytes.value:
            out["obs_app_transfer_bytes"] = float(self.app_transfer_bytes.value)
        return out


#: The hub un-instrumented clocks resolve to: every instrument no-ops.
DISABLED_HUB = ObsHub(enabled=False)


def install_hub(clock: typing.Any, hub: ObsHub) -> ObsHub:
    """Attach a hub to a run's clock (before the group is built, so
    every component's :func:`hub_of` lookup finds it)."""
    clock.obs_hub = hub
    return hub


def hub_of(clock: typing.Any) -> ObsHub:
    """The hub riding on a clock, or :data:`DISABLED_HUB`."""
    hub = getattr(clock, "obs_hub", None)
    return hub if hub is not None else DISABLED_HUB


__all__ = [
    "DISABLED_HUB",
    "Gauge",
    "ObsHub",
    "STAGES",
    "hub_of",
    "install_hub",
]
