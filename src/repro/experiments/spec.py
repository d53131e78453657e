"""Declarative experiment specifications.

A :class:`ScenarioSpec` is a complete, *value-only* description of one
simulation run: which system to build, how large the group is, what the
workload looks like, how the network misbehaves, and which faults strike
when.  Because a spec contains no live objects -- delay models are
:class:`DelaySpec` values, faults are :class:`FaultEvent` values -- it
can be pickled across process boundaries (the campaign runner executes
specs in a :mod:`multiprocessing` pool) and serialised to JSON for the
result store.

The split mirrors the declarative style of ESSENCE'-like problem
specification: *what* to run lives here, *how* to run it lives in
:mod:`repro.experiments.runner`.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.adversary.spec import AdversarySpec
from repro.app.spec import AppSpec
from repro.crypto.provider import CryptoSpec
from repro.service.spec import ServiceSpec
from repro.net.delay import (
    ConstantDelay,
    DelayModel,
    ExponentialDelay,
    SpikeDelay,
    UniformDelay,
)

#: Systems the runner knows how to build.
SYSTEMS = ("newtop", "fs-newtop", "pbft")

#: Fault kinds the runner knows how to apply.
FAULT_KINDS = (
    "crash",
    "crash_backup",
    "crash_recover",
    "partition",
    "heal",
)


@dataclasses.dataclass(frozen=True, slots=True)
class DelaySpec:
    """Declarative description of a :class:`repro.net.DelayModel`.

    ``kind`` selects the model; only the parameters that kind uses are
    read.  ``spike`` wraps a uniform base (``low``/``high``) with spikes
    of ``spike_ms`` at probability ``spike_probability``.
    """

    kind: str = "uniform"
    value: float = 1.0  # constant
    low: float = 0.3  # uniform / spike base
    high: float = 1.2
    floor: float = 0.2  # exponential
    mean: float = 1.0
    cap: float | None = None
    spike_probability: float = 0.0  # spike
    spike_ms: float = 0.0

    def build(self) -> DelayModel:
        """Instantiate the live delay model this spec describes."""
        if self.kind == "constant":
            return ConstantDelay(self.value)
        if self.kind == "uniform":
            return UniformDelay(self.low, self.high)
        if self.kind == "exponential":
            return ExponentialDelay(self.floor, self.mean, cap=self.cap)
        if self.kind == "spike":
            return SpikeDelay(
                UniformDelay(self.low, self.high),
                spike_probability=self.spike_probability,
                spike_ms=self.spike_ms,
            )
        raise ValueError(f"unknown delay kind {self.kind!r}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "DelaySpec":
        return cls(**data)


@dataclasses.dataclass(frozen=True, slots=True)
class BatchingSpec:
    """Declarative description of the fail-signal batching layer.

    Present on a spec => the ``fs-newtop`` wrappers run the batched
    compare path (one signature/verification/countersignature per
    *batch* of outputs instead of per output; see
    :mod:`repro.core.batching` and docs/PERFORMANCE.md).  Ignored by
    ``newtop`` and ``pbft``, which have no fail-signal pairs.

    * ``max_batch`` -- outputs per batch before a size-triggered flush;
    * ``max_delay_ms`` -- hard bound on how long an open batch may
      accumulate (the latency the batched path may add per output);
    * ``max_inflight`` -- batches the pipelined sequencer keeps in
      flight per wrapper before size-flushes defer.
    """

    max_batch: int = 8
    max_delay_ms: float = 4.0
    max_inflight: int = 4

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_delay_ms <= 0:
            raise ValueError(f"max_delay_ms must be > 0, got {self.max_delay_ms}")
        if self.max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {self.max_inflight}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "BatchingSpec":
        return cls(**data)


@dataclasses.dataclass(frozen=True, slots=True)
class ShardSpec:
    """Declarative description of the keyspace-sharded deployment.

    Present on a spec => the runner builds ``shards`` independent
    FS-NewTOP groups of ``n_members / shards`` members each, plus the
    :mod:`repro.shard` router and cross-shard barrier, and the ordering
    workload becomes *keyed*: every send carries a key drawn from a
    ``keyspace``-sized key set, routed to the shard that owns it.
    A ``cross_shard_ratio`` fraction of writes become multi-key
    operations spanning two shards, sequenced by the two-phase barrier.

    ``shards=1`` is the differential control: one group, every key
    local, construction byte-identical to the unsharded path.
    Sharding is fs-newtop only (the shards *are* fail-signal groups).
    """

    shards: int = 1
    cross_shard_ratio: float = 0.0
    keyspace: int = 64

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if not 0.0 <= self.cross_shard_ratio <= 1.0:
            raise ValueError(
                f"cross_shard_ratio must be in [0,1], got {self.cross_shard_ratio}"
            )
        if self.keyspace < self.shards:
            raise ValueError(
                f"keyspace ({self.keyspace}) must cover every shard "
                f"({self.shards}) with at least one key"
            )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ShardSpec":
        return cls(**data)


@dataclasses.dataclass(frozen=True, slots=True)
class TransportSpec:
    """Declarative description of the run's transport backend.

    ``kind`` selects it (:data:`repro.transport.TRANSPORT_KINDS`):
    ``sim`` is the discrete-event simulator (the default when a spec
    carries no transport at all), ``asyncio`` runs the same protocol
    stack on wall-clock timers with per-member asyncio queues.

    * ``tcp`` -- asyncio only: route member-to-member traffic over
      localhost TCP using the canonical wire codec instead of
      in-process queues alone;
    * ``time_scale`` -- asyncio only: wall seconds per virtual second
      (``0.5`` runs the scenario's timeline at twice wall speed; host
      timer jitter is *not* scaled, so compression narrows margins);
    * ``calibrate`` -- asyncio only: measure host signing/verify/timer
      latency at startup and derive the live detection deadlines
      (:mod:`repro.transport.calibration`) instead of trusting the
      simulator's cost-model defaults.
    """

    kind: str = "sim"
    tcp: bool = False
    time_scale: float = 1.0
    calibrate: bool = True

    def __post_init__(self) -> None:
        from repro.transport.base import TRANSPORT_KINDS

        if self.kind not in TRANSPORT_KINDS:
            raise ValueError(
                f"unknown transport kind {self.kind!r}, want one of {TRANSPORT_KINDS}"
            )
        if self.time_scale <= 0:
            raise ValueError(f"time_scale must be > 0, got {self.time_scale}")
        if self.kind == "sim" and self.tcp:
            raise ValueError("tcp transport needs kind='asyncio'")

    @property
    def live(self) -> bool:
        """True for wall-clock backends (anything but the simulator)."""
        return self.kind != "sim"

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TransportSpec":
        return cls(**data)


@dataclasses.dataclass(frozen=True, slots=True)
class ObsSpec:
    """Declarative description of the run's observability layer.

    Present on a spec (and ``enabled``) => the runner installs an
    :class:`~repro.obs.spans.ObsHub` on the run's clock before the
    group is built, so every layer's instruments are live.  Absent, the
    runner's default applies: audit runs observe, measurement runs do
    not (observability must never perturb a benchmark).

    * ``http_port`` -- live transports only: bind ``GET /metrics`` on
      this port (``0`` = kernel-assigned, the default; ``None`` = no
      endpoint).  Simulator runs never bind sockets;
    * ``flight`` / ``flight_events`` -- keep a
      :class:`~repro.obs.flight.FlightRecorder` of the most recent
      ``flight_events`` trace records per category on audited runs;
    * ``flight_dir`` -- where violation bundles land.
    """

    enabled: bool = True
    http_port: int | None = 0
    flight: bool = True
    flight_events: int = 256
    flight_dir: str = "results/flight"

    def __post_init__(self) -> None:
        if self.http_port is not None and not 0 <= self.http_port <= 65535:
            raise ValueError(f"http_port must be in [0,65535], got {self.http_port}")
        if self.flight_events < 1:
            raise ValueError(
                f"flight_events must be >= 1, got {self.flight_events}"
            )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ObsSpec":
        return cls(**data)


#: The paper's benchmark LAN: lightly loaded, sub-millisecond-ish.
CALM_LAN = DelaySpec(kind="uniform", low=0.3, high=1.2)

#: A congested network: same base with frequent large delay spikes --
#: the adversary of every timeout-based suspector.
SPIKY_NET = DelaySpec(
    kind="spike", low=0.5, high=2.0, spike_probability=0.5, spike_ms=800.0
)


@dataclasses.dataclass(frozen=True, slots=True)
class FaultEvent:
    """One scheduled fault in a scenario's fault plan.

    ``kind`` is one of :data:`FAULT_KINDS`:

    * ``crash`` -- crash ``member``'s (primary) node at ``at`` ms;
    * ``crash_backup`` -- crash the node hosting ``member``'s follower
      wrapper (FS-NewTOP only);
    * ``crash_recover`` -- crash like ``crash``, then at ``rejoin_at``
      ms rebuild the member's *application* state via verified state
      transfer (needs an :class:`~repro.app.spec.AppSpec` on the
      scenario; the ordering pair itself stays excluded);
    * ``partition`` -- split the network into ``groups`` (tuples of
      member indices) at ``at`` ms;
    * ``heal`` -- remove every partition at ``at`` ms.

    Byzantine behaviour is not a fault kind: it is an
    :class:`~repro.adversary.spec.AdversarySpec` on the scenario.
    """

    at: float
    kind: str
    member: int | None = None
    groups: tuple[tuple[int, ...], ...] = ()
    rejoin_at: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}, want one of {FAULT_KINDS}")
        if self.at < 0:
            raise ValueError(f"fault time must be >= 0, got {self.at}")
        if self.kind == "crash_recover":
            if self.member is None:
                raise ValueError("crash_recover faults need a member")
            if self.rejoin_at is None or self.rejoin_at <= self.at:
                raise ValueError(
                    f"crash_recover needs rejoin_at after the crash at "
                    f"{self.at}, got {self.rejoin_at}"
                )
        elif self.rejoin_at is not None:
            raise ValueError(f"rejoin_at only applies to crash_recover, not {self.kind!r}")

    def to_dict(self) -> dict:
        return {
            "at": self.at,
            "kind": self.kind,
            "member": self.member,
            "groups": [list(g) for g in self.groups],
            "rejoin_at": self.rejoin_at,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultEvent":
        return cls(
            at=data["at"],
            kind=data["kind"],
            member=data.get("member"),
            groups=tuple(tuple(g) for g in data.get("groups", ())),
            rejoin_at=data.get("rejoin_at"),
        )


@dataclasses.dataclass(frozen=True, slots=True)
class ScenarioSpec:
    """Everything needed to reproduce one run, as plain values.

    Workload semantics (``newtop`` / ``fs-newtop``): every member
    multicasts ``messages_per_member`` messages of ``message_size``
    bytes, one per round, rounds spaced ``interval`` ms apart --
    the paper's section 4 load.  ``write_ratio`` < 1 diverts the
    remaining fraction of sends to the cheaper ``reliable`` service
    (mixed read/write traffic).

    For ``pbft`` the same aggregate load is offered as client requests:
    ``messages_per_member * n_members`` requests spaced
    ``interval / n_members`` ms apart against a cluster sized
    ``3f + 1`` with ``f = max(1, (n_members - 1) // 2)`` (the same
    fault budget a ``2f + 1``-replica FS-NewTOP group of
    ``n_members`` covers).
    """

    system: str = "fs-newtop"
    n_members: int = 4
    messages_per_member: int = 10
    interval: float = 150.0
    message_size: int = 3
    service: str = "symmetric_total"
    write_ratio: float = 1.0
    seed: int = 0
    delay: DelaySpec = CALM_LAN
    faults: tuple[FaultEvent, ...] = ()
    adversaries: tuple[AdversarySpec, ...] = ()
    batching: BatchingSpec | None = None
    shard: ShardSpec | None = None
    crypto: CryptoSpec | None = None
    crypto_scale: float = 1.0
    collapsed: bool = True
    suspectors: bool = False
    suspector_interval: float = 200.0
    suspector_timeout: float = 100.0
    suspector_max_misses: int = 2
    view_timeout: float = 500.0  # pbft only
    settle_ms: float = 120_000.0
    transport: TransportSpec | None = None
    gateway: ServiceSpec | None = None
    obs: ObsSpec | None = None
    app: AppSpec | None = None

    def __post_init__(self) -> None:
        if self.system not in SYSTEMS:
            raise ValueError(f"unknown system {self.system!r}, want one of {SYSTEMS}")
        if self.n_members < 1:
            raise ValueError(f"need at least one member, got {self.n_members}")
        if not 0.0 <= self.write_ratio <= 1.0:
            raise ValueError(f"write_ratio must be in [0,1], got {self.write_ratio}")
        if self.messages_per_member < 1:
            raise ValueError(f"need at least one message, got {self.messages_per_member}")
        if self.shard is not None:
            if self.system != "fs-newtop":
                raise ValueError(
                    f"sharding needs the fs-newtop system, got {self.system!r}"
                )
            if self.faults:
                raise ValueError(
                    "fault plans are not supported on sharded specs yet; "
                    "use adversaries instead"
                )
        if self.crypto is not None and self.system != "fs-newtop":
            raise ValueError(
                "crypto provider/codec selection applies to the "
                f"fs-newtop system only, got {self.system!r}"
            )
        if self.transport is not None and self.transport.live:
            if self.system == "pbft":
                raise ValueError(
                    "the pbft comparator runs on the simulator only; "
                    "live transports need an ordering system"
                )
        if self.gateway is not None and self.system == "pbft":
            raise ValueError(
                "the service gateway fronts the ordering systems only; "
                "pbft has no multicast surface to serve"
            )
        if self.app is not None and self.system != "fs-newtop":
            raise ValueError(
                "the KV application needs the fs-newtop system (its "
                f"checkpoints sign via the pair keystore), got {self.system!r}"
            )
        if self.app is None and any(e.kind == "crash_recover" for e in self.faults):
            raise ValueError(
                "crash_recover faults need an AppSpec: the rejoin is "
                "application-level state transfer"
            )

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    @property
    def byzantine_members(self) -> tuple[int, ...]:
        """Members needing a :class:`ByzantineFso` wrapper pre-built:
        the targets of every FaultPlan-backed adversary strategy."""
        return tuple(
            sorted({m for adversary in self.adversaries for m in adversary.flag_members()})
        )

    def replace(self, **overrides: typing.Any) -> "ScenarioSpec":
        """A copy with the given fields replaced."""
        return dataclasses.replace(self, **overrides)

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        data["delay"] = self.delay.to_dict()
        data["faults"] = [e.to_dict() for e in self.faults]
        data["adversaries"] = [a.to_dict() for a in self.adversaries]
        data["batching"] = self.batching.to_dict() if self.batching else None
        data["shard"] = self.shard.to_dict() if self.shard else None
        data["crypto"] = self.crypto.to_dict() if self.crypto else None
        data["transport"] = self.transport.to_dict() if self.transport else None
        data["gateway"] = self.gateway.to_dict() if self.gateway else None
        data["obs"] = self.obs.to_dict() if self.obs else None
        data["app"] = self.app.to_dict() if self.app else None
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        fields = dict(data)
        fields["delay"] = DelaySpec.from_dict(fields["delay"])
        fields["faults"] = tuple(FaultEvent.from_dict(e) for e in fields.get("faults", ()))
        fields["adversaries"] = tuple(
            AdversarySpec.from_dict(a) for a in fields.get("adversaries", ())
        )
        batching = fields.get("batching")
        fields["batching"] = (
            BatchingSpec.from_dict(batching) if batching is not None else None
        )
        shard = fields.get("shard")
        fields["shard"] = ShardSpec.from_dict(shard) if shard is not None else None
        crypto = fields.get("crypto")
        fields["crypto"] = (
            CryptoSpec.from_dict(crypto) if crypto is not None else None
        )
        transport = fields.get("transport")
        fields["transport"] = (
            TransportSpec.from_dict(transport) if transport is not None else None
        )
        gateway = fields.get("gateway")
        fields["gateway"] = (
            ServiceSpec.from_dict(gateway) if gateway is not None else None
        )
        obs = fields.get("obs")
        fields["obs"] = ObsSpec.from_dict(obs) if obs is not None else None
        app = fields.get("app")
        fields["app"] = AppSpec.from_dict(app) if app is not None else None
        return cls(**fields)
