"""Tests for the declarative spec layer."""

import pytest

from repro.adversary import AdversarySpec
from repro.experiments import DelaySpec, FaultEvent, ScenarioSpec
from repro.net import ConstantDelay, ExponentialDelay, SpikeDelay, UniformDelay


def test_delay_spec_builds_each_kind():
    assert isinstance(DelaySpec(kind="constant", value=2.0).build(), ConstantDelay)
    assert isinstance(DelaySpec(kind="uniform", low=0.1, high=0.5).build(), UniformDelay)
    assert isinstance(
        DelaySpec(kind="exponential", floor=0.1, mean=1.0).build(), ExponentialDelay
    )
    spike = DelaySpec(kind="spike", low=0.1, high=0.5, spike_probability=0.2, spike_ms=50.0)
    assert isinstance(spike.build(), SpikeDelay)


def test_delay_spec_rejects_unknown_kind():
    with pytest.raises(ValueError):
        DelaySpec(kind="warp").build()


def test_delay_spec_roundtrip():
    spec = DelaySpec(kind="spike", low=0.5, high=2.0, spike_probability=0.5, spike_ms=800.0)
    assert DelaySpec.from_dict(spec.to_dict()) == spec


def test_fault_event_rejects_unknown_kind():
    with pytest.raises(ValueError):
        FaultEvent(at=0.0, kind="meteor")


def test_fault_event_rejects_negative_time():
    with pytest.raises(ValueError):
        FaultEvent(at=-1.0, kind="crash", member=0)


def test_fault_event_roundtrip():
    event = FaultEvent(at=500.0, kind="partition", groups=((0, 1), (2, 3)))
    assert FaultEvent.from_dict(event.to_dict()) == event


def test_scenario_spec_rejects_unknown_system():
    with pytest.raises(ValueError):
        ScenarioSpec(system="raft")


def test_scenario_spec_rejects_bad_write_ratio():
    with pytest.raises(ValueError):
        ScenarioSpec(write_ratio=1.5)


def test_scenario_spec_roundtrip_with_faults():
    spec = ScenarioSpec(
        system="fs-newtop",
        n_members=5,
        delay=DelaySpec(kind="exponential", floor=0.1, mean=2.0, cap=10.0),
        faults=(
            FaultEvent(at=100.0, kind="partition", groups=((0, 1), (2, 3, 4))),
            FaultEvent(at=200.0, kind="heal"),
        ),
        crypto_scale=2.0,
    )
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec


def test_byzantine_members_derived_from_fault_plan():
    # Byzantine behaviour comes from adversaries only; a crash fault
    # needs no ByzantineFso wrapper.
    spec = ScenarioSpec(
        system="fs-newtop",
        faults=(FaultEvent(at=30.0, kind="crash", member=1),),
        adversaries=(
            AdversarySpec(kind="mute", at=10.0, member=2),
            AdversarySpec(kind="mute", at=20.0, member=0),
        ),
    )
    assert spec.byzantine_members == (0, 2)


def test_byzantine_is_not_a_fault_kind():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultEvent(at=10.0, kind="byzantine", member=0)


def test_replace_returns_modified_copy():
    base = ScenarioSpec(n_members=4)
    changed = base.replace(n_members=8, seed=9)
    assert changed.n_members == 8 and changed.seed == 9
    assert base.n_members == 4 and base.seed == 0
