"""Property-based serialisation round-trips for the spec messages.

Every declarative value that crosses a process or storage boundary --
``ScenarioSpec`` and its nested ``DelaySpec`` / ``FaultEvent`` /
``BatchingSpec`` / ``ShardSpec`` / ``AdversarySpec`` -- must survive
``to_dict`` -> JSON -> ``from_dict`` unchanged: the campaign runner
pickles specs into worker processes and the JSONL store re-reads them
for reports.  Hypothesis generates valid specs instead of the
hand-picked fixtures in ``test_spec.py``.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.spec import AdversarySpec
from repro.app.spec import AppSpec
from repro.experiments.spec import (
    BatchingSpec,
    DelaySpec,
    FaultEvent,
    ScenarioSpec,
    ShardSpec,
)
from repro.service.spec import ServiceSpec

DELAYS = st.one_of(
    st.builds(DelaySpec, kind=st.just("constant"), value=st.floats(0.1, 50.0)),
    st.builds(
        DelaySpec,
        kind=st.just("uniform"),
        low=st.floats(0.1, 1.0),
        high=st.floats(1.0, 10.0),
    ),
    st.builds(
        DelaySpec,
        kind=st.just("spike"),
        low=st.floats(0.1, 1.0),
        high=st.floats(1.0, 5.0),
        spike_probability=st.floats(0.0, 1.0),
        spike_ms=st.floats(0.0, 500.0),
    ),
)

BATCHING = st.one_of(
    st.none(),
    st.builds(
        BatchingSpec,
        max_batch=st.integers(1, 64),
        max_delay_ms=st.floats(0.5, 50.0),
        max_inflight=st.integers(1, 16),
    ),
)

SHARDS = st.one_of(
    st.none(),
    st.builds(
        ShardSpec,
        shards=st.integers(1, 8),
        cross_shard_ratio=st.floats(0.0, 1.0),
        keyspace=st.integers(8, 256),
    ),
)

FAULTS = st.lists(
    st.one_of(
        st.builds(
            FaultEvent,
            at=st.floats(0.0, 5000.0),
            kind=st.just("crash"),
            member=st.integers(0, 3),
        ),
        st.builds(
            FaultEvent,
            at=st.floats(0.0, 5000.0),
            kind=st.just("partition"),
            groups=st.just(((0, 1), (2, 3))),
        ),
        st.builds(FaultEvent, at=st.floats(0.0, 5000.0), kind=st.just("heal")),
    ),
    max_size=3,
).map(tuple)

ADVERSARIES = st.lists(
    st.one_of(
        st.builds(
            AdversarySpec,
            kind=st.sampled_from(("equivocate", "corrupt", "mute", "replay")),
            at=st.floats(0.0, 2000.0),
            member=st.integers(0, 3),
        ),
        st.builds(AdversarySpec, kind=st.just("shard_reorder"), at=st.floats(0.0, 2000.0)),
        st.builds(
            AdversarySpec,
            kind=st.just("churn_storm"),
            at=st.floats(0.0, 2000.0),
            members=st.lists(st.integers(0, 3), min_size=1, max_size=3).map(tuple),
            spacing=st.floats(0.0, 500.0),
        ),
    ),
    max_size=2,
).map(tuple)


GATEWAYS = st.one_of(
    st.none(),
    st.builds(
        ServiceSpec,
        clients=st.integers(1, 16),
        rate_limit_per_s=st.floats(1.0, 5000.0),
        burst=st.integers(1, 500),
        max_inflight=st.integers(1, 2048),
        retry_after_ms=st.floats(1.0, 1000.0),
        sessions=st.integers(1, 2000),
        ops_per_session=st.integers(1, 16),
        think_ms=st.floats(0.5, 500.0),
        zipf_s=st.floats(0.0, 3.0),
        keyspace=st.integers(1, 256),
        subscribers=st.integers(0, 8),
        reconnect_every=st.integers(0, 200),
        max_retries=st.integers(0, 64),
        ramp_ms=st.floats(0.0, 10_000.0),
        key_seed=st.integers(0, 2**16),
    ),
)


APPS = st.one_of(
    st.none(),
    st.builds(
        AppSpec,
        checkpoint_every=st.integers(1, 32),
        retain_checkpoints=st.integers(1, 8),
        transfer_delay_ms=st.floats(0.0, 500.0),
        recovery_deadline_ms=st.one_of(st.none(), st.floats(1.0, 10_000.0)),
    ),
)


def scenario_specs():
    return st.builds(
        ScenarioSpec,
        system=st.just("fs-newtop"),
        n_members=st.sampled_from((2, 4, 8)),
        messages_per_member=st.integers(1, 40),
        interval=st.floats(5.0, 500.0),
        message_size=st.integers(0, 4096),
        write_ratio=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**31 - 1),
        delay=DELAYS,
        faults=st.just(()),  # sharded specs reject fault plans
        adversaries=ADVERSARIES,
        batching=BATCHING,
        shard=SHARDS,
        crypto_scale=st.floats(0.1, 4.0),
        collapsed=st.booleans(),
        gateway=GATEWAYS,
        app=APPS,
    )


@given(gateway=GATEWAYS.filter(lambda g: g is not None))
@settings(max_examples=40, deadline=None)
def test_service_spec_round_trips(gateway):
    assert ServiceSpec.from_dict(json.loads(json.dumps(gateway.to_dict()))) == gateway


@given(spec=scenario_specs())
@settings(max_examples=80, deadline=None)
def test_scenario_spec_round_trips_through_json(spec):
    wire = json.loads(json.dumps(spec.to_dict()))
    assert ScenarioSpec.from_dict(wire) == spec


@given(
    spec=st.builds(
        ScenarioSpec,
        system=st.sampled_from(("newtop", "pbft")),
        n_members=st.sampled_from((2, 4, 8)),
        faults=FAULTS,
        delay=DELAYS,
    )
)
@settings(max_examples=40, deadline=None)
def test_unsharded_spec_with_faults_round_trips(spec):
    wire = json.loads(json.dumps(spec.to_dict()))
    assert ScenarioSpec.from_dict(wire) == spec


@given(shard=SHARDS.filter(lambda s: s is not None))
@settings(max_examples=40, deadline=None)
def test_shard_spec_round_trips(shard):
    assert ShardSpec.from_dict(json.loads(json.dumps(shard.to_dict()))) == shard


@given(app=APPS.filter(lambda a: a is not None))
@settings(max_examples=40, deadline=None)
def test_app_spec_round_trips(app):
    assert AppSpec.from_dict(json.loads(json.dumps(app.to_dict()))) == app


@given(
    app=APPS.filter(lambda a: a is not None),
    at=st.floats(0.0, 2000.0),
    member=st.integers(0, 3),
    gap=st.floats(1.0, 5000.0),
)
@settings(max_examples=40, deadline=None)
def test_crash_recover_fault_round_trips_with_its_rejoin_time(app, at, member, gap):
    spec = ScenarioSpec(
        system="fs-newtop",
        n_members=4,
        app=app,
        faults=(
            FaultEvent(at=at, kind="crash_recover", member=member, rejoin_at=at + gap),
        ),
    )
    wire = json.loads(json.dumps(spec.to_dict()))
    assert ScenarioSpec.from_dict(wire) == spec
