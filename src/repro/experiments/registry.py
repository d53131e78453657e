"""The scenario catalogue.

Every experiment this repository knows how to run -- the paper's
Figures 6-8, the PBFT comparator, and the beyond-the-paper stress
scenarios -- is registered here as a :class:`Scenario`: a base
:class:`ScenarioSpec`, the systems to compare, and a sweep grid of
parameter overrides.  The CLI (``python -m repro run/campaign``), the
campaign runner and the benchmark harness all expand their
configurations from this registry, so there is exactly one definition
of what, say, "fig7_throughput" means.

See ``docs/SCENARIOS.md`` for the prose catalogue.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.adversary.spec import FLAG_STRATEGIES, AdversarySpec, both, intermittent, seq
from repro.app.spec import AppSpec
from repro.crypto.provider import CryptoSpec
from repro.experiments.spec import (
    SPIKY_NET,
    BatchingSpec,
    DelaySpec,
    FaultEvent,
    ScenarioSpec,
    ShardSpec,
)
from repro.service.spec import ServiceSpec


class UnknownScenarioError(ValueError):
    """Raised when a scenario name is not in the registry."""


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """One grid point: an x-axis label plus the spec fields it overrides."""

    label: typing.Any
    overrides: dict[str, typing.Any]


@dataclasses.dataclass(frozen=True)
class Scenario:
    """A named, sweepable experiment definition.

    ``sweep`` holds at least one :class:`SweepPoint`; expanding the
    scenario crosses every point with every system in ``systems``.
    ``figure`` names the paper figure the scenario reproduces (``None``
    for beyond-the-paper scenarios) and ``expected`` states the
    qualitative result a healthy run shows.
    """

    name: str
    title: str
    description: str
    base: ScenarioSpec
    systems: tuple[str, ...]
    sweep_axis: str
    sweep: tuple[SweepPoint, ...]
    figure: str | None = None
    expected: str = ""
    #: Per-system spec adjustments applied before the sweep point's
    #: overrides (which win on conflict) -- e.g. a comparator system
    #: offered a different load.
    system_overrides: dict[str, dict] = dataclasses.field(default_factory=dict)

    def labels(self) -> list:
        return [point.label for point in self.sweep]

    def spec_for(self, system: str, point: SweepPoint) -> ScenarioSpec:
        if system not in self.systems:
            raise ValueError(f"scenario {self.name!r} does not run system {system!r}")
        overrides = dict(self.system_overrides.get(system, {}))
        overrides.update(point.overrides)
        return self.base.replace(system=system, **overrides)

    def expand(
        self, systems: typing.Sequence[str] | None = None
    ) -> list[tuple[str, typing.Any, ScenarioSpec]]:
        """Every (system, x-label, spec) combination of the grid."""
        chosen = tuple(systems) if systems is not None else self.systems
        return [
            (system, point.label, self.spec_for(system, point))
            for system in chosen
            for point in self.sweep
        ]


# ----------------------------------------------------------------------
# registry machinery
# ----------------------------------------------------------------------
_REGISTRY: dict[str, Scenario] = {}


def register(scenario: Scenario) -> Scenario:
    """Add a scenario; duplicate names are a programming error."""
    if scenario.name in _REGISTRY:
        raise ValueError(f"scenario {scenario.name!r} already registered")
    _REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look up a scenario or raise :class:`UnknownScenarioError`."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise UnknownScenarioError(
            f"unknown scenario {name!r}; registered scenarios: {known}"
        ) from None


def scenario_names() -> list[str]:
    return sorted(_REGISTRY)


def scenarios() -> list[Scenario]:
    return [_REGISTRY[name] for name in scenario_names()]


def _points(axis_field: str, values: typing.Iterable) -> tuple[SweepPoint, ...]:
    return tuple(SweepPoint(label=v, overrides={axis_field: v}) for v in values)


# ----------------------------------------------------------------------
# the paper's evaluation (section 4)
# ----------------------------------------------------------------------
register(
    Scenario(
        name="fig6_latency",
        title="Figure 6: symmetric total-order latency vs group size",
        description=(
            "Groups of 2..10 members, each multicasting small (3-byte) "
            "messages at a paced 500ms interval; ordering latency of "
            "NewTOP vs FS-NewTOP."
        ),
        figure="Fig. 6",
        expected=(
            "FS-NewTOP latency above NewTOP at every size; both grow with "
            "group size; the absolute deficit widens as the group grows."
        ),
        base=ScenarioSpec(
            n_members=2,
            messages_per_member=8,
            interval=500.0,
            message_size=3,
        ),
        systems=("newtop", "fs-newtop"),
        sweep_axis="members",
        sweep=_points("n_members", range(2, 11)),
    )
)

register(
    Scenario(
        name="fig7_throughput",
        title="Figure 7: throughput vs group size (small messages)",
        description=(
            "Groups of 2..15 streaming 3-byte messages every 70ms per "
            "member; ordered messages per second for NewTOP, FS-NewTOP "
            "and the matched-fault-budget 3f+1 PBFT-style comparator "
            "(offered half the per-member load: once its view timeout "
            "starts churning under backlog, each view change re-ships "
            "every pending request, and full-load runs at large f are "
            "prohibitively slow to simulate -- the collapse is "
            "qualitative either way)."
        ),
        figure="Fig. 7",
        expected=(
            "Throughput rises from n=2 before contention wins; NewTOP "
            "peaks near the 10-thread request pool and stays on top; "
            "FS-NewTOP tracks below it; PBFT keeps pace with the "
            "offered load mid-range but collapses past the tail once "
            "its view timeout churns under backlog -- at the largest "
            "group the ordering is NewTOP >= FS-NewTOP >= PBFT."
        ),
        base=ScenarioSpec(
            n_members=2,
            messages_per_member=8,
            interval=70.0,
            message_size=3,
        ),
        systems=("newtop", "fs-newtop", "pbft"),
        sweep_axis="members",
        sweep=_points("n_members", range(2, 16)),
        system_overrides={"pbft": {"messages_per_member": 4}},
    )
)

register(
    Scenario(
        name="fig8_message_size",
        title="Figure 8: throughput vs message size (10 members)",
        description=(
            "A fixed 10-member group; message payloads swept 0..10 KB; "
            "throughput of both systems."
        ),
        figure="Fig. 8",
        expected=(
            "Throughput falls with message size for both systems; the "
            "FS-NewTOP deficit stays roughly constant (signing cost is "
            "size-insensitive apart from digesting)."
        ),
        base=ScenarioSpec(
            n_members=10,
            messages_per_member=6,
            interval=70.0,
        ),
        systems=("newtop", "fs-newtop"),
        sweep_axis="size_kb",
        sweep=tuple(
            SweepPoint(label=kb, overrides={"message_size": kb * 1024})
            for kb in range(0, 11)
        ),
    )
)

register(
    Scenario(
        name="pbft_head_to_head",
        title="E6: FS-NewTOP (4f+2 nodes) vs PBFT-style baseline (3f+1 nodes)",
        description=(
            "Six requests against f=1 deployments of both Byzantine-"
            "tolerant designs, on a calm LAN and on a spiky net whose "
            "delays exceed PBFT's view timeout."
        ),
        figure="Section 1 / E6",
        expected=(
            "Both order everything on the calm net; on the spiky net "
            "PBFT churns through view changes (its liveness timeout "
            "bites) while FS-NewTOP keeps ordering with zero signals."
        ),
        base=ScenarioSpec(
            n_members=3,
            messages_per_member=2,
            interval=450.0,
            seed=2,
            settle_ms=60_000.0,
        ),
        systems=("pbft", "fs-newtop"),
        sweep_axis="network",
        sweep=(
            SweepPoint(
                label="calm",
                overrides={
                    "delay": DelaySpec(kind="uniform", low=0.3, high=1.2),
                    "view_timeout": 500.0,
                },
            ),
            SweepPoint(
                label="spiky",
                overrides={"delay": SPIKY_NET, "view_timeout": 100.0},
            ),
        ),
    )
)

# ----------------------------------------------------------------------
# beyond the paper: stress and diversity scenarios
# ----------------------------------------------------------------------
register(
    Scenario(
        name="byzantine_flood",
        title="Byzantine flood: a faulty member attacks mid-run",
        description=(
            "A 4-member FS-NewTOP group streams messages every 60ms; at "
            "t=300ms member 0's leader wrapper turns Byzantine (the sweep "
            "selects the manifestation). The FS pair must convert the "
            "attack into an authenticated fail-signal and the survivors "
            "must keep ordering."
        ),
        expected=(
            "fail_signals > 0, survivors install a 3-member view, and "
            "ordering continues -- no Byzantine manifestation escapes "
            "the pair."
        ),
        base=ScenarioSpec(
            system="fs-newtop",
            n_members=4,
            messages_per_member=12,
            interval=60.0,
            collapsed=False,
            settle_ms=30_000.0,
        ),
        systems=("fs-newtop",),
        sweep_axis="fault",
        # Each point is labelled by the FaultPlan flag its strategy sets.
        sweep=tuple(
            SweepPoint(
                label=FLAG_STRATEGIES[kind][0],
                overrides={"adversaries": (AdversarySpec(kind=kind, at=300.0, member=0),)},
            )
            for kind in ("corrupt", "mute", "tamper_signature")
        ),
    )
)

register(
    Scenario(
        name="partition_heal",
        title="Partition and heal: a 6-member group splits in two",
        description=(
            "A NewTOP group with ping suspectors is partitioned 3|3 at "
            "t=500ms and healed at t=2500ms while every member keeps "
            "multicasting. Timeout-based suspicion converts the partition "
            "into disjoint views."
        ),
        expected=(
            "suspicions and view changes fire during the partition; each "
            "half keeps ordering internally; fewer messages reach full "
            "(all-6) completion than were sent."
        ),
        base=ScenarioSpec(
            system="newtop",
            n_members=6,
            messages_per_member=20,
            interval=150.0,
            suspectors=True,
            faults=(
                FaultEvent(at=500.0, kind="partition", groups=((0, 1, 2), (3, 4, 5))),
                FaultEvent(at=2500.0, kind="heal"),
            ),
            settle_ms=20_000.0,
        ),
        systems=("newtop",),
        sweep_axis="variant",
        sweep=(SweepPoint(label="3|3", overrides={}),),
    )
)

register(
    Scenario(
        name="churn",
        title="Member churn: staggered departures under load",
        description=(
            "An 8-member NewTOP group with suspectors loses members 7, 6 "
            "and 5 to crashes at 400/900/1400ms while the survivors keep "
            "streaming messages every 150ms."
        ),
        expected=(
            "each departure is detected and converted into a view change; "
            "the surviving 5 members keep ordering throughout."
        ),
        base=ScenarioSpec(
            system="newtop",
            n_members=8,
            messages_per_member=12,
            interval=150.0,
            suspectors=True,
            faults=(
                FaultEvent(at=400.0, kind="crash", member=7),
                FaultEvent(at=900.0, kind="crash", member=6),
                FaultEvent(at=1400.0, kind="crash", member=5),
            ),
            settle_ms=20_000.0,
        ),
        systems=("newtop",),
        sweep_axis="variant",
        sweep=(SweepPoint(label="3-crashes", overrides={}),),
    )
)

# ----------------------------------------------------------------------
# adversarial scenarios: the composable adversary engine under the
# invariant oracles (`repro audit --scenario adv_*`)
# ----------------------------------------------------------------------
#: Common base for the single-pair adversarial audits: a small
#: figure-4-layout group streaming fast enough that every misbehaviour
#: manifests repeatedly inside its window.
_ADV_BASE = ScenarioSpec(
    system="fs-newtop",
    n_members=4,
    messages_per_member=10,
    interval=60.0,
    collapsed=False,
    settle_ms=15_000.0,
)


def _register_adversarial(
    name: str,
    title: str,
    description: str,
    expected: str,
    adversaries: tuple[AdversarySpec, ...],
    base: ScenarioSpec = _ADV_BASE,
) -> None:
    register(
        Scenario(
            name=name,
            title=title,
            description=description,
            expected=expected,
            base=base.replace(adversaries=adversaries),
            systems=("fs-newtop",),
            sweep_axis="variant",
            sweep=(SweepPoint(label="audited", overrides={}),),
        )
    )


_register_adversarial(
    "adv_equivocation",
    "Adversary: equivocation / double-send",
    "Member 0's leader Compare double-sends conflicting signed "
    "candidates for every slot from t=300ms.",
    "the peer holds double-sign evidence (or an output mismatch) and "
    "fail-signals; no conflicting value reaches the environment.",
    (AdversarySpec(kind="equivocate", at=300.0, member=0),),
)

_register_adversarial(
    "adv_replay",
    "Adversary: stale-message replay",
    "Member 0's leader Compare re-sends its first signed candidate in "
    "place of every later one from t=300ms.",
    "the live comparison starves, the section 2.2 timeout fires and the "
    "pair fail-signals; stale copies pair with nothing.",
    (AdversarySpec(kind="replay", at=300.0, member=0),),
)

_register_adversarial(
    "adv_selective_mute",
    "Adversary: selective per-peer mute",
    "Member 0's leader keeps ordering but stops forwarding its "
    "single-signed candidates to its peer from t=300ms.",
    "the peer's compare timeout fires; ordering traffic alone cannot "
    "mask a silent Compare.",
    (AdversarySpec(kind="selective_mute", at=300.0, member=0),),
)

_register_adversarial(
    "adv_tamper_signature",
    "Adversary: signature tampering",
    "Member 0's leader forges its peer's signature on candidates from "
    "t=300ms (A5 says it cannot get away with it).",
    "every forged single is rejected by verification and the pair is "
    "converted into a fail-signal.",
    (AdversarySpec(kind="tamper_signature", at=300.0, member=0),),
)

_register_adversarial(
    "adv_scramble_burst",
    "Adversary: input-order scramble burst",
    "Member 0's leader processes inputs pairwise swapped during "
    "t=300..600ms while advertising the honest order.",
    "out-of-order processing surfaces as an output mismatch (or a "
    "t2 expiry) and the pair fail-signals.",
    (AdversarySpec(kind="scramble_burst", at=300.0, until=600.0, member=0),),
)

_register_adversarial(
    "adv_delay_skew",
    "Adversary: pair-LAN delay skew",
    "Everything member 0's leader sends over the pair LAN takes an "
    "extra 50ms from t=300ms -- an explicit A2 violation.",
    "the synchrony-derived compare timeouts fire and the pair "
    "fail-signals; survivors keep ordering.",
    (AdversarySpec(kind="delay_skew", at=300.0, member=0, extra_ms=50.0),),
)

_register_adversarial(
    "adv_intermittent_mute",
    "Adversary: intermittent full mute",
    "Member 0's leader LAN goes mute for half of every 200ms period "
    "between t=300ms and t=900ms.",
    "the first muted window that swallows protocol traffic is enough: "
    "the pair fail-signals despite the duty cycle.",
    (
        intermittent(
            AdversarySpec(kind="mute", member=0),
            at=300.0,
            until=900.0,
            period=200.0,
            duty=0.5,
        ),
    ),
)

_register_adversarial(
    "adv_churn_storm",
    "Adversary: churn storm under load",
    "A 5-member group loses members 4 and 3 to primary-node crashes "
    "200ms apart from t=400ms while everyone keeps streaming.",
    "crash-induced signals are accurate (only the downed pairs are "
    "named) and the 3 survivors keep delivering in agreement.",
    (AdversarySpec(kind="churn_storm", at=400.0, members=(4, 3), spacing=200.0),),
    base=_ADV_BASE.replace(n_members=5),
)

_register_adversarial(
    "adv_seq_scramble_then_corrupt",
    "Adversary: sequential multi-member attack",
    "In sequence: member 0's leader scrambles input order for 250ms "
    "from t=300ms, then member 1's replica corrupts outputs for 300ms.",
    "each attack in the sequence is converted into its own pair's "
    "fail-signal; the remaining members keep agreeing.",
    (
        seq(
            AdversarySpec(kind="scramble_burst", at=0.0, until=250.0, member=0),
            AdversarySpec(kind="corrupt", at=50.0, until=350.0, member=1),
            at=300.0,
        ),
    ),
    base=_ADV_BASE.replace(n_members=6),
)

_register_adversarial(
    "adv_both_equivocate_tamper",
    "Adversary: concurrent multi-member attack",
    "Concurrently from t=300ms: member 0's leader equivocates while "
    "member 3's leader forges signatures.",
    "both pairs are independently converted into fail-signals; A1 "
    "(at most one faulty node per pair) still holds pair-wise.",
    (
        both(
            AdversarySpec(kind="equivocate", at=0.0, member=0),
            AdversarySpec(kind="tamper_signature", at=50.0, member=3),
            at=300.0,
        ),
    ),
    base=_ADV_BASE.replace(n_members=6),
)

_register_adversarial(
    "adv_spurious_fs2",
    "Adversary: spontaneous fail-signal (fs2)",
    "A perfectly healthy wrapper of member 1 emits its fail-signal at "
    "t=500ms -- failure mode fs2, legal by definition.",
    "receivers treat the signaller as faulty and exclude it; the "
    "oracles accept the signal as accurate (it was injected).",
    (AdversarySpec(kind="spurious_signal", at=500.0, member=1),),
)

_register_adversarial(
    "adv_clean_baseline",
    "Adversary control: no adversary at all",
    "The adversarial base scenario with no attack installed -- the "
    "control run the accuracy oracle is calibrated against.",
    "zero fail-signals, full agreement: any signal here is a false "
    "signal and fails the audit.",
    (),
)

# ----------------------------------------------------------------------
# scale_*: large-N / high-load scenarios exercising the batched,
# pipelined ordering path (see docs/PERFORMANCE.md and docs/SCENARIOS.md)
# ----------------------------------------------------------------------
#: The batching configuration the scale scenarios run by default.
SCALE_BATCHING = BatchingSpec(max_batch=8, max_delay_ms=4.0, max_inflight=4)

register(
    Scenario(
        name="scale_batch_ab",
        title="Scale A/B: batched vs unbatched compare path under high load",
        description=(
            "An 8-member FS-NewTOP group streaming 3-byte messages every "
            "10ms per member -- deep into crypto saturation.  The sweep "
            "is the batching knob itself: off, then max_batch 4/8/16 "
            "with a 4ms flush window.  Identical workload and seed per "
            "cell, so the sweep isolates the amortisation win."
        ),
        expected=(
            "throughput rises and signatures_per_ordered falls from "
            "'off' to b16; zero fail-signals everywhere (batching must "
            "not break detection soundness); latency falls once the "
            "signing queue, not the flush window, dominates."
        ),
        base=ScenarioSpec(
            system="fs-newtop",
            n_members=8,
            messages_per_member=12,
            interval=10.0,
            message_size=3,
            seed=1,
            settle_ms=30_000.0,
        ),
        systems=("fs-newtop",),
        sweep_axis="batching",
        sweep=(
            SweepPoint(label="off", overrides={"batching": None}),
            SweepPoint(label="b4", overrides={"batching": BatchingSpec(max_batch=4)}),
            SweepPoint(label="b8", overrides={"batching": BatchingSpec(max_batch=8)}),
            SweepPoint(label="b16", overrides={"batching": BatchingSpec(max_batch=16)}),
        ),
    )
)

register(
    Scenario(
        name="scale_crypto_ab",
        title="Scale A/B: crypto provider and signing codec under high load",
        description=(
            "The scale_batch_ab workload (8 members, 3-byte messages "
            "every 10ms per member, batched wrappers) with the sweep on "
            "the crypto engine instead: the paper's RSA cost table, the "
            "hmac reference provider, the ed25519 provider with its "
            "measured cost table, and ed25519 plus the compact binwire "
            "signing/framing codec.  Identical workload and seed per "
            "cell, so the sweep isolates the provider/codec win."
        ),
        expected=(
            "simulated throughput rises from the rsa/hmac cells to the "
            "ed25519 cells (cheaper sign/verify costs plus amortised "
            "pair verification shrink the signing queue); the binwire "
            "cell matches ed25519's ordering exactly while cutting host "
            "time; zero fail-signals everywhere."
        ),
        base=ScenarioSpec(
            system="fs-newtop",
            n_members=8,
            messages_per_member=12,
            interval=10.0,
            message_size=3,
            seed=1,
            batching=SCALE_BATCHING,
            settle_ms=30_000.0,
        ),
        systems=("fs-newtop",),
        sweep_axis="crypto",
        sweep=(
            SweepPoint(label="rsa", overrides={"crypto": CryptoSpec(provider="rsa")}),
            SweepPoint(label="hmac", overrides={"crypto": CryptoSpec(provider="hmac")}),
            SweepPoint(
                label="ed25519",
                overrides={"crypto": CryptoSpec(provider="ed25519")},
            ),
            SweepPoint(
                label="ed25519+binwire",
                overrides={
                    "crypto": CryptoSpec(provider="ed25519", codec="binwire")
                },
            ),
        ),
    )
)

register(
    Scenario(
        name="scale_groups",
        title="Scale: large groups (n=8/16/32) with batched wrappers",
        description=(
            "Group sizes far beyond the paper's evaluation (8, 16 and 32 "
            "members), streaming small messages at a per-member 40ms "
            "interval; NewTOP vs batched FS-NewTOP.  The quadratic "
            "multicast fan-out plus per-output crypto is exactly where "
            "amortisation has to carry the wrappers."
        ),
        expected=(
            "both systems' throughput decays as n grows; batched "
            "FS-NewTOP tracks NewTOP at a roughly constant relative "
            "deficit instead of collapsing, with zero fail-signals."
        ),
        base=ScenarioSpec(
            n_members=8,
            messages_per_member=6,
            interval=40.0,
            message_size=3,
            seed=1,
            batching=SCALE_BATCHING,
            settle_ms=40_000.0,
        ),
        systems=("newtop", "fs-newtop"),
        sweep_axis="members",
        sweep=_points("n_members", (8, 16, 32)),
    )
)

register(
    Scenario(
        name="scale_high_rate",
        title="Scale: offered-rate sweep at n=8, batched wrappers",
        description=(
            "A fixed 8-member group with the per-member send interval "
            "swept 80/40/20/10ms (12.5..100 msg/s offered per member); "
            "NewTOP vs batched FS-NewTOP.  Rising rate widens batches "
            "(more outputs per 4ms flush window), so the amortisation "
            "improves exactly when it is needed."
        ),
        expected=(
            "batch_mean_size grows as the interval shrinks; FS-NewTOP "
            "throughput keeps scaling with offered load instead of "
            "flat-lining at the per-output signing ceiling."
        ),
        base=ScenarioSpec(
            n_members=8,
            messages_per_member=10,
            interval=80.0,
            message_size=3,
            seed=1,
            batching=SCALE_BATCHING,
            settle_ms=30_000.0,
        ),
        systems=("newtop", "fs-newtop"),
        sweep_axis="interval_ms",
        sweep=_points("interval", (80.0, 40.0, 20.0, 10.0)),
    )
)

# ----------------------------------------------------------------------
# scale_shard_*: keyspace-sharded multi-group deployments (repro.shard)
# ----------------------------------------------------------------------
#: Base of the sharded scale scenarios: the scale_batch_ab saturation
#: load (8 members streaming every 10ms), but keyed, so the shard
#: router can spread it over S groups of 8/S members.  Total offered
#: load is identical at every S -- the sweep isolates what sharding
#: buys (smaller groups, less multicast fan-out and crypto contention
#: per shard).
_SHARD_BASE = ScenarioSpec(
    system="fs-newtop",
    n_members=8,
    messages_per_member=12,
    interval=10.0,
    message_size=3,
    seed=1,
    batching=SCALE_BATCHING,
    settle_ms=30_000.0,
)

register(
    Scenario(
        name="scale_shard_ab",
        title="Scale A/B: S=1/2/4/8 shards over a fixed 8-member deployment",
        description=(
            "Eight members streaming keyed 3-byte messages every 10ms, "
            "deployed as S independent FS-NewTOP groups of 8/S members "
            "(S swept 1/2/4/8); shard-local traffic only.  S=1 is the "
            "differential control -- byte-identical to the unsharded "
            "keyed run."
        ),
        expected=(
            "aggregate throughput multiplies with shard count (>=2.5x "
            "at S=4 vs S=1 on the benchmark box): smaller groups spend "
            "less on quadratic multicast fan-out and per-group crypto; "
            "zero fail-signals and a clean 8-oracle audit everywhere."
        ),
        base=_SHARD_BASE,
        systems=("fs-newtop",),
        sweep_axis="shards",
        sweep=tuple(
            SweepPoint(label=f"S{s}", overrides={"shard": ShardSpec(shards=s)})
            for s in (1, 2, 4, 8)
        ),
    )
)

register(
    Scenario(
        name="scale_shard_xratio",
        title="Scale: cross-shard ratio sweep at S=4 (two-phase barrier)",
        description=(
            "The S=4 deployment of scale_shard_ab with 0%, 5% and 20% "
            "of writes turned into two-key operations spanning a "
            "rotating pair of shards, sequenced by the cross-shard "
            "barrier (reserve at every involved shard, commit at the "
            "max)."
        ),
        expected=(
            "throughput degrades gracefully as the ratio grows (each "
            "cross-shard op costs two ordered multicasts per involved "
            "shard plus the holdback); cross_shard_latency stays a "
            "small multiple of shard-local latency; the cross-shard "
            "oracle proves the global order on every cell."
        ),
        base=_SHARD_BASE.replace(shard=ShardSpec(shards=4)),
        systems=("fs-newtop",),
        sweep_axis="cross_shard_pct",
        sweep=tuple(
            SweepPoint(
                label=f"{int(ratio * 100)}%",
                overrides={
                    "shard": ShardSpec(shards=4, cross_shard_ratio=ratio)
                },
            )
            for ratio in (0.0, 0.05, 0.20)
        ),
    )
)

register(
    Scenario(
        name="scale_shard_smoke",
        title="Scale: two-shard smoke deployment (CI-sized)",
        description=(
            "A small two-shard deployment (4 members as 2x2) with a "
            "quarter of writes crossing shards -- the CI audit cell and "
            "the `repro run --shards` demo scenario."
        ),
        expected=(
            "everything ordered, zero fail-signals, all eight oracles "
            "green -- in seconds, not minutes."
        ),
        base=ScenarioSpec(
            system="fs-newtop",
            n_members=4,
            messages_per_member=6,
            interval=50.0,
            message_size=3,
            seed=1,
            shard=ShardSpec(shards=2, cross_shard_ratio=0.25, keyspace=32),
            settle_ms=15_000.0,
        ),
        systems=("fs-newtop",),
        sweep_axis="variant",
        sweep=(SweepPoint(label="2x2", overrides={}),),
    )
)

# ----------------------------------------------------------------------
# svc_*: the client-facing ordering service (repro.service) -- a
# gateway with admission control fronting the group, driven by a
# closed-loop session fleet (see docs/SERVICE.md)
# ----------------------------------------------------------------------
register(
    Scenario(
        name="svc_fleet_smoke",
        title="Service: gateway smoke fleet over two shards (CI-sized)",
        description=(
            "A 2x2 sharded deployment behind the ordering gateway; 64 "
            "closed-loop sessions submit 2 zipf-keyed operations each "
            "through admission control, while 3 streaming subscribers "
            "verify the sequence-numbered delivery feed and reconnect "
            "every 25 events.  Seconds, not minutes -- the CI smoke cell."
        ),
        expected=(
            "every session completes, zero feed gaps or cross-subscriber "
            "mismatches, zero fail-signals, all eight oracles green."
        ),
        base=ScenarioSpec(
            system="fs-newtop",
            n_members=4,
            messages_per_member=2,
            interval=50.0,
            seed=1,
            shard=ShardSpec(shards=2, keyspace=32),
            gateway=ServiceSpec(
                clients=4,
                rate_limit_per_s=500.0,
                burst=50,
                max_inflight=128,
                sessions=64,
                ops_per_session=2,
                think_ms=30.0,
                subscribers=3,
                reconnect_every=25,
            ),
            settle_ms=15_000.0,
        ),
        systems=("fs-newtop",),
        sweep_axis="variant",
        sweep=(SweepPoint(label="2x2", overrides={}),),
    )
)

register(
    Scenario(
        name="svc_fleet_1k",
        title="Service: 1000-session fleet through the gateway (e2e audit)",
        description=(
            "The end-to-end acceptance run: 1000 closed-loop sessions "
            "(2 zipf-keyed operations each) submitted through the "
            "gateway's admission control into a batched 2x4 sharded "
            "deployment, with 4 reconnecting feed subscribers.  Sized "
            "so a generous per-client budget admits everything -- "
            "shedding is svc_overload's job."
        ),
        expected=(
            "all 2000 operations admitted and sequenced, every session "
            "completes, zero feed gaps/mismatches, zero fail-signals, "
            "all eight oracles green -- on the simulator and on the "
            "asyncio transport."
        ),
        base=ScenarioSpec(
            system="fs-newtop",
            n_members=8,
            messages_per_member=2,
            interval=40.0,
            seed=1,
            batching=SCALE_BATCHING,
            shard=ShardSpec(shards=2, keyspace=64),
            gateway=ServiceSpec(
                clients=8,
                rate_limit_per_s=2000.0,
                burst=200,
                max_inflight=512,
                sessions=1000,
                ops_per_session=2,
                think_ms=40.0,
                subscribers=4,
                reconnect_every=100,
                # Ramp the fleet over five seconds (~200 arrivals/s,
                # matching the batched pipeline's drain rate) and give
                # sessions caught by the inflight cap a retry budget
                # that outlasts the drain.
                ramp_ms=5_000.0,
                retry_after_ms=250.0,
                max_retries=64,
            ),
            settle_ms=30_000.0,
        ),
        systems=("fs-newtop",),
        sweep_axis="variant",
        sweep=(SweepPoint(label="1k-sessions", overrides={}),),
    )
)

register(
    Scenario(
        name="svc_overload",
        title="Service: deliberate overload -- shed via 429, stay correct",
        description=(
            "200 aggressive sessions (5ms think time) against a tiny "
            "admission budget: 20 ops/s/client with burst 5, inflight "
            "capped at 16.  The gateway must shed the excess with 429s "
            "and retry hints while everything it *does* admit is "
            "ordered and streamed without a single violation."
        ),
        expected=(
            "substantial rate-limit and overload rejections; zero feed "
            "gaps or mismatches among admitted operations; zero "
            "fail-signals; all eight oracles green -- overload degrades "
            "admission, never correctness."
        ),
        base=ScenarioSpec(
            system="fs-newtop",
            n_members=4,
            messages_per_member=2,
            interval=50.0,
            seed=1,
            gateway=ServiceSpec(
                clients=4,
                rate_limit_per_s=20.0,
                burst=5,
                max_inflight=16,
                sessions=200,
                ops_per_session=2,
                think_ms=5.0,
                subscribers=2,
                max_retries=4,
            ),
            settle_ms=15_000.0,
        ),
        systems=("fs-newtop",),
        sweep_axis="variant",
        sweep=(SweepPoint(label="shed", overrides={}),),
    )
)

# ----------------------------------------------------------------------
# app_*: the replicated KV application riding the ordering layer
# (repro.app) -- signed checkpoints, crash-recover-rejoin and the
# state-consistency oracle (see docs/APPLICATION.md)
# ----------------------------------------------------------------------
#: Base of the application scenarios: the adversarial-audit group shape
#: with the KV application attached and a short checkpoint stride, so
#: even CI-sized runs cross several checkpoint boundaries.
_APP_BASE = ScenarioSpec(
    system="fs-newtop",
    n_members=4,
    messages_per_member=10,
    interval=60.0,
    collapsed=False,
    app=AppSpec(checkpoint_every=4),
    settle_ms=15_000.0,
)

register(
    Scenario(
        name="app_kv_smoke",
        title="Application: replicated KV smoke run (CI-sized)",
        description=(
            "A 4-member FS-NewTOP group where every totally-ordered "
            "delivery is applied to a deterministic KV store; members "
            "sign a checkpoint every 4 applied operations and gossip "
            "the certificates until each seq reaches an f+1 quorum."
        ),
        expected=(
            "identical state digests at every member and every "
            "checkpoint seq, zero fail-signals, all eight oracles "
            "green -- in seconds."
        ),
        base=_APP_BASE,
        systems=("fs-newtop",),
        sweep_axis="variant",
        sweep=(SweepPoint(label="kv", overrides={}),),
    )
)

register(
    Scenario(
        name="app_kv_recover",
        title="Application: crash, recover and rejoin via state transfer",
        description=(
            "The smoke group loses member 3's primary node at t=400ms; "
            "at t=1000ms the member rejoins by fetching the latest "
            "f+1-matching checkpoint plus the operation suffix from the "
            "most advanced peer, verifying every signature against its "
            "own keystore and replaying to catch up."
        ),
        expected=(
            "exactly one recovery completes inside the detection "
            "deadline; the rebuilt digest matches the survivors' "
            "certificates at the same seq; the crash-induced "
            "fail-signal is accurate; all eight oracles green."
        ),
        base=_APP_BASE.replace(
            faults=(
                FaultEvent(at=400.0, kind="crash_recover", member=3, rejoin_at=1000.0),
            ),
        ),
        systems=("fs-newtop",),
        sweep_axis="variant",
        sweep=(SweepPoint(label="rejoin", overrides={}),),
    )
)

register(
    Scenario(
        name="app_kv_recover_adv",
        title="Application: recovery under a concurrent churn storm",
        description=(
            "A 6-member group loses member 5 to a crash at t=400ms; its "
            "rejoin starts at t=1200ms, and the churn-storm adversary "
            "crashes member 4's primary node at t=1210ms -- inside the "
            "50ms state-transfer window.  The recoverer must still land "
            "on a verified f+1-matching checkpoint (a crashed donor's "
            "application state is intact) with zero spurious signals."
        ),
        expected=(
            "the recovery completes despite the concurrent crash; every "
            "fail-signal names a genuinely downed pair; the rebuilt "
            "digest is vouched for by surviving certificates; all eight "
            "oracles green."
        ),
        base=_APP_BASE.replace(
            n_members=6,
            faults=(
                FaultEvent(at=400.0, kind="crash_recover", member=5, rejoin_at=1200.0),
            ),
            adversaries=(
                AdversarySpec(kind="churn_storm", at=1210.0, members=(4,), spacing=200.0),
            ),
        ),
        systems=("fs-newtop",),
        sweep_axis="variant",
        sweep=(SweepPoint(label="storm", overrides={}),),
    )
)

register(
    Scenario(
        name="app_kv_soak",
        title="Application: checkpoint-retirement soak (bounded memory)",
        description=(
            "A 4-member group streaming 60 messages per member every "
            "20ms with a checkpoint every 4 applied operations -- 60 "
            "checkpoint boundaries per store.  The run exists to prove "
            "the low-water mark retires oplog/dedup/certificate state: "
            "memory must stay flat over tens of checkpoint intervals."
        ),
        expected=(
            "app_oplog_peak, app_dedup_peak and app_checkpoint_log_peak "
            "stay bounded by the retention window (not the run length); "
            "all eight oracles green."
        ),
        base=_APP_BASE.replace(
            messages_per_member=60,
            interval=20.0,
            settle_ms=30_000.0,
        ),
        systems=("fs-newtop",),
        sweep_axis="variant",
        sweep=(SweepPoint(label="soak", overrides={}),),
    )
)

register(
    Scenario(
        name="mixed_rw",
        title="Mixed read/write load: cheap reads dilute ordered writes",
        description=(
            "A 6-member group where only a fraction of sends need total "
            "order (writes); the rest go through the reliable-FIFO service "
            "(reads). The sweep lowers the write ratio from 1.0 to 0.25."
        ),
        expected=(
            "mean latency falls and throughput rises as the write ratio "
            "drops, for both systems -- ordered multicast is the "
            "expensive part."
        ),
        base=ScenarioSpec(
            n_members=6,
            messages_per_member=10,
            interval=80.0,
        ),
        systems=("newtop", "fs-newtop"),
        sweep_axis="write_ratio",
        sweep=_points("write_ratio", (1.0, 0.5, 0.25)),
    )
)
