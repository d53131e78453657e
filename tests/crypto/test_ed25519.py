"""The ed25519 provider: scheme unit tests, registry gating, and the
live negative controls.

The last section is the oracle half of the provider contract: swapping
the signature engine must leave the fail-signal contract intact.  A
byzantine run under the ed25519 provider still converts forgery and
equivocation into fail-signals (no-forgery / completeness), and a clean
ed25519 run still raises zero signals (fail-signal accuracy) -- the
same negative controls ``tests/invariants`` pins for the reference
provider, re-run against the live C-backed scheme.
"""

import dataclasses
import random

import pytest

from repro.crypto import provider as provider_module
from repro.crypto.ed25519 import (
    HAVE_ED25519,
    KEY_BYTES,
    SIGNATURE_BYTES,
    Ed25519Scheme,
    Ed25519Unavailable,
    probe,
)
from repro.crypto.keystore import KeyStore
from repro.crypto.provider import (
    CryptoSpec,
    ProviderUnavailable,
    build_scheme,
    provider_available,
    provider_names,
)
from repro.crypto.costmodel import PROVIDER_COSTS, CryptoCostModel
from repro.adversary import AdversarySpec
from repro.experiments import ScenarioSpec, audit_scenario

needs_ed25519 = pytest.mark.skipif(
    not HAVE_ED25519, reason="needs the fastcrypto extra (cryptography)"
)


# ----------------------------------------------------------------------
# scheme unit tests
# ----------------------------------------------------------------------
@needs_ed25519
def test_probe_and_registry_agree():
    assert probe() is True
    assert provider_available("ed25519")
    assert "ed25519" in provider_names()
    assert isinstance(build_scheme("ed25519"), Ed25519Scheme)


@needs_ed25519
def test_generate_is_deterministic_and_raw_bytes():
    scheme = Ed25519Scheme()
    first = scheme.generate(random.Random(42))
    again = scheme.generate(random.Random(42))
    other = scheme.generate(random.Random(43))
    assert first == again
    assert first != other
    private, public = first
    assert isinstance(private, bytes) and len(private) == KEY_BYTES
    assert isinstance(public, bytes) and len(public) == KEY_BYTES


@needs_ed25519
def test_sign_verify_round_trip():
    scheme = Ed25519Scheme()
    private, public = scheme.generate(random.Random(1))
    value = scheme.sign(private, b"the message")
    assert isinstance(value, bytes) and len(value) == SIGNATURE_BYTES
    assert scheme.verify(public, b"the message", value)
    assert not scheme.verify(public, b"the messagf", value)
    assert not scheme.verify(public, b"the message", value[:-1])
    assert not scheme.verify(public, b"the message", b"\x00" * SIGNATURE_BYTES)


@needs_ed25519
def test_verify_rejects_malformed_material_without_raising():
    scheme = Ed25519Scheme()
    private, public = scheme.generate(random.Random(1))
    value = scheme.sign(private, b"m")
    assert not scheme.verify(public, b"m", 12345)  # not bytes
    assert not scheme.verify(public, b"m", None)
    assert not scheme.verify(b"short", b"m", value)  # bad public length
    assert not scheme.verify(12345, b"m", value)  # not even bytes
    __, other_public = scheme.generate(random.Random(2))
    assert not scheme.verify(other_public, b"m", value)


@needs_ed25519
def test_verify_many_is_all_or_nothing():
    scheme = Ed25519Scheme()
    private_a, public_a = scheme.generate(random.Random(1))
    private_b, public_b = scheme.generate(random.Random(2))
    good = (
        (public_a, b"one", scheme.sign(private_a, b"one")),
        (public_b, b"two", scheme.sign(private_b, b"two")),
    )
    assert scheme.verify_many(good)
    bad = (good[0], (public_b, b"two", scheme.sign(private_a, b"two")))
    assert not scheme.verify_many(bad)
    assert scheme.verify_many(())


@needs_ed25519
def test_verify_many_seeds_the_memo():
    scheme = Ed25519Scheme()
    private, public = scheme.generate(random.Random(1))
    items = tuple(
        (public, b"msg-%d" % i, scheme.sign(private, b"msg-%d" % i))
        for i in range(4)
    )
    assert scheme.verify_many(items)
    # every triple now hits the per-scheme verification memo
    for public_key, data, value in items:
        assert scheme.verify_cached(public_key, data, value)


@needs_ed25519
def test_keystore_end_to_end_with_binwire():
    store = KeyStore(Ed25519Scheme(), codec="binwire")
    first = store.new_signer("m0", random.Random(7))
    second = store.new_signer("m1", random.Random(8))
    message = second.countersign(first.sign_payload({"op": "write", "seq": 3}))
    assert store.check_double(message)
    forged = dataclasses.replace(
        message,
        second=dataclasses.replace(message.second, value=b"\x01" * 64),
    )
    assert not store.check_double(forged)


# ----------------------------------------------------------------------
# registry gating and fallback
# ----------------------------------------------------------------------
def _unavailable_ed25519(monkeypatch):
    row = provider_module._PROVIDERS["ed25519"]
    monkeypatch.setitem(
        provider_module._PROVIDERS,
        "ed25519",
        dataclasses.replace(row, available=lambda: False),
    )


def test_unavailable_provider_raises_with_extra_hint(monkeypatch):
    _unavailable_ed25519(monkeypatch)
    assert not provider_available("ed25519")
    with pytest.raises(ProviderUnavailable, match="fastcrypto"):
        build_scheme("ed25519")


def test_spec_fallback_degrades_to_default_provider(monkeypatch):
    _unavailable_ed25519(monkeypatch)
    spec = CryptoSpec(provider="ed25519", codec="binwire")
    assert spec.resolved_provider() == "hmac"
    # the fallback's cost table, not the missing provider's: simulated
    # time stays honest about what actually ran
    assert spec.cost_model() == PROVIDER_COSTS["hmac"]
    strict = CryptoSpec(provider="ed25519", fallback=False)
    with pytest.raises(ProviderUnavailable, match="forbids fallback"):
        strict.resolved_provider()


def test_scheme_construction_raises_when_backend_missing(monkeypatch):
    monkeypatch.setattr("repro.crypto.ed25519.HAVE_ED25519", False)
    with pytest.raises(Ed25519Unavailable, match="fastcrypto"):
        Ed25519Scheme()


@needs_ed25519
def test_spec_resolves_to_ed25519_when_available():
    spec = CryptoSpec(provider="ed25519", codec="binwire")
    assert spec.resolved_provider() == "ed25519"
    assert isinstance(spec.scheme(), Ed25519Scheme)
    assert spec.cost_model() == PROVIDER_COSTS["ed25519"]
    assert CryptoSpec(provider="ed25519", costs="paper").cost_model() == (
        CryptoCostModel()
    )


# ----------------------------------------------------------------------
# live negative controls: the oracles under the ed25519 provider
# ----------------------------------------------------------------------
BASE = ScenarioSpec(
    system="fs-newtop",
    n_members=3,
    messages_per_member=8,
    interval=40.0,
    collapsed=False,
    settle_ms=8_000.0,
    crypto=CryptoSpec(provider="ed25519", codec="binwire", fallback=False),
)


@needs_ed25519
@pytest.mark.parametrize("flag", ["forge_signature", "equivocate"])
def test_forgery_still_detected_under_ed25519(flag):
    kind = {"forge_signature": "tamper_signature", "equivocate": "equivocate"}[flag]
    spec = BASE.replace(adversaries=(AdversarySpec(kind=kind, at=150.0, member=0),))
    run = audit_scenario(spec, scenario=f"ed25519/{flag}")
    # the no-forgery / completeness oracles fire against real ed25519
    # signatures, not just the pure-python reference
    assert run.report.ok, run.report.render()
    assert run.result.metrics["fail_signals"] >= 1.0
    assert run.report.stats["fail_signals"] >= 1.0


@needs_ed25519
def test_clean_ed25519_run_raises_no_false_signals():
    run = audit_scenario(BASE, scenario="ed25519/clean")
    assert run.report.ok, run.report.render()
    assert run.result.metrics["fail_signals"] == 0.0
    assert run.report.stats["fail_signals"] == 0.0
