"""Full-stack detection coverage: every FaultPlan flag, individually,
under the invariant oracles -- plus the negative controls (fault-free
runs raise no false signals; broken or undeclared detection fails the
audit)."""

import pytest

from repro.core.fso import Fso, FsoRole
from repro.adversary import FLAG_STRATEGIES, AdversarySpec
from repro.experiments import ScenarioSpec, audit_scenario
from repro.experiments.runner import build_ordering_group
from repro.invariants import InvariantMonitor, topology_of
from repro.sim import Simulator
from repro.workloads.ordering import OrderingWorkload

#: Small but busy: 3 members streaming every 40ms; faults strike at
#: t=150ms with plenty of traffic still to come.
BASE = ScenarioSpec(
    system="fs-newtop",
    n_members=3,
    messages_per_member=8,
    interval=40.0,
    collapsed=False,
    settle_ms=8_000.0,
)

ALL_FLAGS = (
    "corrupt_outputs",
    "drop_singles",
    "mute_lan",
    "scramble_order",
    "forge_signature",
    "equivocate",
    "replay_singles",
)


#: The adversary strategy that sets each flag (FLAG_STRATEGIES is 1:1).
STRATEGY_OF = {flags[0]: kind for kind, flags in FLAG_STRATEGIES.items()}


def _audit_with_flag(flag):
    spec = BASE.replace(
        adversaries=(AdversarySpec(kind=STRATEGY_OF[flag], at=150.0, member=0),)
    )
    return audit_scenario(spec, scenario=f"flag/{flag}")


@pytest.mark.parametrize("flag", ALL_FLAGS)
def test_each_flag_is_detected_and_audited_clean(flag):
    run = _audit_with_flag(flag)
    assert run.report.ok, run.report.render()
    # the misbehaviour was really converted into a fail-signal
    assert run.result.metrics["fail_signals"] >= 1.0
    # ...and the oracles saw both the activation and the detection
    assert run.report.stats["pairs_faulted"] == 1.0
    assert run.report.stats["fail_signals"] >= 1.0


def test_fault_free_run_raises_no_false_signals():
    run = audit_scenario(BASE, scenario="flag/clean")
    assert run.report.ok, run.report.render()
    assert run.result.metrics["fail_signals"] == 0.0
    assert run.report.stats["fail_signals"] == 0.0


def test_same_seed_same_report():
    first = _audit_with_flag("equivocate").report.to_dict()
    second = _audit_with_flag("equivocate").report.to_dict()
    assert first == second


def test_broken_detection_fails_the_audit(monkeypatch):
    """If fail-signalling silently stops working, the completeness
    oracle -- not a green run -- is what says so."""
    monkeypatch.setattr(Fso, "_start_signaling", lambda self, reason: None)
    run = _audit_with_flag("corrupt_outputs")
    assert not run.report.ok
    messages = " ".join(v.message for v in run.report.violations)
    assert "no fail-signal followed" in messages


def test_undeclared_misbehaviour_reads_as_false_signal():
    """A fault injected behind the oracles' backs (no activation trace)
    makes the resulting fail-signal unaccountable -- audit fails."""
    spec = BASE
    sim = Simulator(seed=spec.seed)
    sim.trace.store = False
    group = build_ordering_group(sim, spec, byzantine_members=(0,))
    monitor = InvariantMonitor(sim, topology_of(group), scenario="undeclared")
    workload = OrderingWorkload(
        sim,
        group,
        messages_per_member=spec.messages_per_member,
        interval=spec.interval,
        message_size=spec.message_size,
        service=spec.service,
        write_ratio=spec.write_ratio,
    )

    def sabotage():
        fso = group.byzantine_fso(0, FsoRole.LEADER)
        fso.faults.corrupt_outputs = True  # no go_byzantine, no trace

    sim.schedule(150.0, sabotage)
    workload.run(settle_ms=spec.settle_ms)
    report = monitor.finish()
    assert not report.ok
    messages = " ".join(v.message for v in report.violations)
    assert "false fail-signal" in messages
