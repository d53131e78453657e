"""Calibration tests: measured host latencies -> live deadlines.

A live run's accuracy hinges on the derived delta dominating host
jitter, so the floor behaviour (``delta >= base_delta_ms``) and the
derivation chain into :class:`~repro.crypto.costmodel.CryptoCostModel`
and :class:`~repro.core.config.FsoConfig` are pinned here.  The actual
measurement runs with tiny sample counts to stay fast.
"""

import json
import logging

import pytest

from repro.core.config import FsoConfig
from repro.transport.calibration import (
    CalibrationResult,
    calibrate,
    percentile,
    probe_tcp_lag,
    probe_timer_lag,
)


# ----------------------------------------------------------------------
# percentile helper
# ----------------------------------------------------------------------
def test_percentile_nearest_rank():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 0.5) == 3.0
    assert percentile(values, 1.0) == 5.0


def test_percentile_empty_is_zero():
    assert percentile([], 0.95) == 0.0


def test_percentile_rejects_bad_quantile():
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


# ----------------------------------------------------------------------
# CalibrationResult validation and derivation
# ----------------------------------------------------------------------
def test_result_validation():
    with pytest.raises(ValueError):
        CalibrationResult(samples=-1)
    with pytest.raises(ValueError):
        CalibrationResult(safety=0.0)
    with pytest.raises(ValueError):
        CalibrationResult(delta_ms=0.0)


def test_cost_model_uses_measured_means():
    result = CalibrationResult(sign_mean_ms=0.25, verify_mean_ms=0.125)
    model = result.crypto_cost_model()
    assert model.sign_base_ms == 0.25
    assert model.verify_base_ms == 0.125


def test_cost_model_floors_zero_measurements():
    model = CalibrationResult().crypto_cost_model()
    assert model.sign_base_ms > 0.0
    assert model.verify_base_ms > 0.0


def test_fso_config_swaps_delta_and_keeps_batch_shape():
    base = FsoConfig(batch_max=8, batch_delay_ms=4.0, batch_inflight=2)
    result = CalibrationResult(delta_ms=17.5)
    derived = result.fso_config(base)
    assert derived.delta == 17.5
    assert derived.batch_max == 8
    assert derived.batch_delay_ms == 4.0
    assert derived.batch_inflight == 2


def test_fso_config_defaults_without_base():
    derived = CalibrationResult(delta_ms=9.0).fso_config()
    assert derived.delta == 9.0
    assert derived.batch_max == FsoConfig().batch_max


def test_result_json_round_trip():
    result = CalibrationResult(
        samples=4, sign_mean_ms=0.1, delta_ms=12.5, timer_lag_p95_ms=0.3
    )
    restored = CalibrationResult.from_dict(json.loads(json.dumps(result.to_dict())))
    assert restored == result


# ----------------------------------------------------------------------
# live measurement (tiny samples; still real crypto + a real loop)
# ----------------------------------------------------------------------
def test_probe_timer_lag_is_nonnegative():
    lags = probe_timer_lag(samples=3, delay_ms=1.0)
    assert len(lags) == 3
    assert all(lag >= 0.0 for lag in lags)


def test_calibrate_respects_the_delta_floor():
    result = calibrate(samples=4, timer_samples=2)
    assert result.scheme == "HmacScheme"
    assert result.samples == 4
    assert result.sign_mean_ms > 0.0
    assert result.verify_mean_ms > 0.0
    assert result.countersign_mean_ms > 0.0
    # HMAC on any sane host is microseconds; the floor must dominate.
    assert result.delta_ms >= result.base_delta_ms


def test_probe_tcp_lag_is_nonnegative():
    lags = probe_tcp_lag(samples=3, delay_ms=1.0, payload_bytes=64)
    assert len(lags) == 3
    assert all(lag >= 0.0 for lag in lags)


def test_probe_tcp_lag_shuts_down_without_asyncio_errors(caplog):
    # The echo handlers end at EOF; a cancelled handler would make the
    # stream protocol log "Exception in callback ... CancelledError".
    with caplog.at_level(logging.ERROR, logger="asyncio"):
        probe_tcp_lag(samples=3, delay_ms=1.0, payload_bytes=64)
    assert not [r for r in caplog.records if r.name == "asyncio"]


def test_calibrate_for_tcp_raises_the_floor_and_probes_loaded_lag():
    idle = calibrate(samples=2, timer_samples=2)
    loaded = calibrate(samples=2, timer_samples=2, tcp=True)
    # The TCP floor dominates the in-process one: socket servicing
    # steals the loop from timers far longer than idle jitter does.
    assert loaded.base_delta_ms >= 40.0 > idle.base_delta_ms
    assert loaded.delta_ms >= loaded.base_delta_ms
    assert loaded.tcp_lag_max_ms >= loaded.tcp_lag_p95_ms >= 0.0
    assert idle.tcp_lag_p95_ms == idle.tcp_lag_max_ms == 0.0


def test_calibrate_round_trips_through_json():
    result = calibrate(samples=2, timer_samples=2)
    restored = CalibrationResult.from_dict(json.loads(json.dumps(result.to_dict())))
    assert restored == result
