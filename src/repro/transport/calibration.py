"""Host calibration for wall-clock runs.

The paper derives its detection deadlines from *measured* quantities:
pi (max processing time) and tau (max signing/verification time) are
observed on the testbed, and the section 2.2 timeouts are built from
them plus the LAN's delta bound.  The simulator emulates those costs
with :class:`repro.crypto.costmodel.CryptoCostModel`; a live asyncio
run must instead measure the host:

* sign / verify / countersign latency of the actual signature scheme
  (these feed the cost model the CPU emulation charges, so simulated
  service time tracks real crypto time);
* event-loop timer slack (how late ``call_at`` callbacks fire), the
  wall-clock analogue of the LAN hop bound delta -- on this backend a
  "hop" is a timer firing plus a queue pump, so delta must dominate the
  host's timer jitter or every compare timeout becomes a spurious
  fail-signal.

:func:`calibrate` runs both measurements at startup and returns a
:class:`CalibrationResult`, which derives the live
:class:`~repro.crypto.costmodel.CryptoCostModel` and the
:class:`~repro.core.config.FsoConfig` delta the transport runs with.
The result is JSON round-trippable so a run's report can carry the
numbers it was calibrated against.
"""

from __future__ import annotations

import asyncio
import dataclasses
import random
import time

# The repo-wide nearest-rank percentile; re-exported because the
# calibration tests (and external callers) import it from here.
from repro.analysis.metrics import percentile
from repro.core.config import FsoConfig
from repro.crypto.costmodel import PROVIDER_COSTS, CryptoCostModel
from repro.crypto.signing import HmacScheme, Signature, SignatureScheme

#: Pair-verification factors by scheme *class name* (what
#: :class:`CalibrationResult` records): live runs keep the same
#: amortisation ratio the simulator charges for that provider, so the
#: sim/live deadline relationship is provider-independent.
_SCHEME_PAIR_FACTORS = {
    "Ed25519Scheme": PROVIDER_COSTS["ed25519"].pair_verify_factor,
}


@dataclasses.dataclass(frozen=True, slots=True)
class CalibrationResult:
    """Measured host latencies and the deadlines derived from them.

    All latencies are milliseconds.  ``delta_ms`` is the derived LAN
    bound: ``max(base_delta, safety * timer_lag_p95 + sign_p95 +
    verify_p95 + countersign_p95)`` -- generous on purpose, since an
    overestimated delta only delays detection while an underestimated
    one manufactures spurious fail-signals.
    """

    scheme: str = "HmacScheme"
    samples: int = 0
    payload_bytes: int = 0
    sign_mean_ms: float = 0.0
    sign_p95_ms: float = 0.0
    verify_mean_ms: float = 0.0
    verify_p95_ms: float = 0.0
    countersign_mean_ms: float = 0.0
    countersign_p95_ms: float = 0.0
    timer_lag_mean_ms: float = 0.0
    timer_lag_p95_ms: float = 0.0
    timer_lag_max_ms: float = 0.0
    tcp_lag_mean_ms: float = 0.0
    tcp_lag_p95_ms: float = 0.0
    tcp_lag_max_ms: float = 0.0
    base_delta_ms: float = 2.0
    safety: float = 4.0
    delta_ms: float = 2.0

    def __post_init__(self) -> None:
        if self.samples < 0:
            raise ValueError(f"samples must be >= 0, got {self.samples}")
        if self.safety <= 0:
            raise ValueError(f"safety must be > 0, got {self.safety}")
        if self.delta_ms <= 0:
            raise ValueError(f"delta_ms must be > 0, got {self.delta_ms}")

    # ------------------------------------------------------------------
    # derived run configuration
    # ------------------------------------------------------------------
    def crypto_cost_model(self) -> CryptoCostModel:
        """The cost model live runs charge: measured means, so the CPU
        emulation's virtual service times track real crypto time.  The
        pair-verification factor stays the provider's own ratio (the
        amortisation is structural, not host-dependent)."""
        return CryptoCostModel(
            sign_base_ms=max(self.sign_mean_ms, 1e-6),
            verify_base_ms=max(self.verify_mean_ms, 1e-6),
            pair_verify_factor=_SCHEME_PAIR_FACTORS.get(self.scheme, 2.0),
        )

    def fso_config(self, base: FsoConfig | None = None) -> FsoConfig:
        """The base config with the calibrated delta swapped in (batch
        shape, kappa and sigma margins are kept: pi and tau themselves
        are measured in-protocol, per output, exactly as in the sim)."""
        return dataclasses.replace(
            base if base is not None else FsoConfig(), delta=self.delta_ms
        )

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CalibrationResult":
        return cls(**data)


def _measure_op(op, samples: int) -> list[float]:
    timer = time.perf_counter
    laps = []
    for __ in range(samples):
        start = timer()
        op()
        laps.append((timer() - start) * 1000.0)
    return laps


def probe_timer_lag(
    samples: int = 24, delay_ms: float = 2.0
) -> list[float]:
    """Measure how late ``call_at`` wakeups fire on this host, in ms.

    Runs a throwaway event loop; each sample sleeps ``delay_ms`` and
    records the overshoot beyond the requested deadline.
    """
    lags: list[float] = []

    async def probe() -> None:
        loop = asyncio.get_running_loop()
        for __ in range(samples):
            target = loop.time() + delay_ms / 1000.0
            await asyncio.sleep(delay_ms / 1000.0)
            lags.append(max(0.0, (loop.time() - target) * 1000.0))

    loop = asyncio.new_event_loop()
    try:
        loop.run_until_complete(probe())
    finally:
        loop.close()
    return lags


def probe_tcp_lag(
    samples: int = 24, delay_ms: float = 2.0, payload_bytes: int = 1024
) -> list[float]:
    """Measure timer lag on a loop saturated by loopback TCP traffic.

    The idle :func:`probe_timer_lag` badly underestimates the slack a
    TCP run sees: there the same loop services socket reads, frame
    decodes and writes between timer wakeups, and on a small host the
    observed slack is an order of magnitude above the idle figure.
    This probe floods a loopback echo connection with length-prefixed
    frames while sampling ``call_at`` overshoot, reproducing that
    contention.
    """
    lags: list[float] = []

    async def probe() -> None:
        loop = asyncio.get_running_loop()
        handlers: list[asyncio.Task] = []

        async def echo(reader, writer) -> None:
            handlers.append(asyncio.current_task())
            try:
                while True:
                    header = await reader.readexactly(4)
                    body = await reader.readexactly(
                        int.from_bytes(header, "big")
                    )
                    writer.write(header + body)
                    await writer.drain()
            except (asyncio.IncompleteReadError, ConnectionError):
                pass
            finally:
                writer.close()

        server = await asyncio.start_server(echo, host="127.0.0.1", port=0)
        host, port = server.sockets[0].getsockname()[:2]
        reader, writer = await asyncio.open_connection(host, port)
        frame = len(bytes(payload_bytes)).to_bytes(4, "big") + bytes(
            payload_bytes
        )
        running = True

        async def flood() -> None:
            while running:
                writer.write(frame)
                await writer.drain()
                await reader.readexactly(len(frame))

        flooder = asyncio.ensure_future(flood())
        try:
            for __ in range(samples):
                target = loop.time() + delay_ms / 1000.0
                await asyncio.sleep(delay_ms / 1000.0)
                lags.append(max(0.0, (loop.time() - target) * 1000.0))
        finally:
            running = False
            flooder.cancel()
            try:
                await flooder
            except asyncio.CancelledError:
                pass
            # Closing the client ends each echo handler at EOF, its clean
            # exit; cancelling them instead makes asyncio's stream
            # protocol log the CancelledError on stderr.
            writer.close()
            await asyncio.gather(*handlers, return_exceptions=True)
            server.close()
            await server.wait_closed()

    loop = asyncio.new_event_loop()
    try:
        loop.run_until_complete(probe())
    finally:
        loop.close()
    return lags


#: Delta floor for served runs (a gateway fleet on the protocol's
#: loop).  The idle probe cannot see the contention a thousand
#: closed-loop sessions and their submit bursts add between timer
#: wakeups -- the same blind spot ``tcp_floor_ms`` covers for socket
#: servicing -- so a served calibration starts from this floor instead
#: of the idle ``base_delta_ms``.  Sized so t2 = 2*delta comfortably
#: absorbs the multi-hundred-millisecond stalls (allocator/GC pauses
#: under tens of thousands of live envelopes) a loaded CPython loop
#: exhibits.
SERVICE_FLOOR_MS = 100.0


def calibrate(
    scheme: SignatureScheme | None = None,
    samples: int = 48,
    payload_bytes: int = 96,
    base_delta_ms: float = 12.0,
    safety: float = 8.0,
    timer_samples: int = 24,
    tcp: bool = False,
    tcp_floor_ms: float = 40.0,
) -> CalibrationResult:
    """Measure this host and derive the live run's deadlines.

    The defaults are deliberately loose: the timer-lag probe runs on an
    *idle* loop, while the protocol run fires timers from a loop busy
    with callback chains -- observed slack there is several times the
    idle figure, and a host scheduling hiccup must not manufacture a
    fail-signal (the "accuracy" half of the fail-signal contract).

    With ``tcp=True`` the loaded :func:`probe_tcp_lag` runs as well and
    its p95 joins the derivation, and the floor rises to
    ``tcp_floor_ms``: socket servicing steals the loop from timers for
    tens of milliseconds at a time on small hosts, which the idle probe
    cannot see.
    """
    live_scheme = scheme if scheme is not None else HmacScheme()
    rng = random.Random("transport/calibration")
    private, public = live_scheme.generate(rng)
    data = bytes(rng.getrandbits(8) for __ in range(payload_bytes))

    # Warm the code paths once so the first sample is not an outlier.
    warm = live_scheme.sign(private, data)
    live_scheme.verify(public, data, warm)

    sign_ms = _measure_op(lambda: live_scheme.sign(private, data), samples)
    value = live_scheme.sign(private, data)
    verify_ms = _measure_op(
        lambda: live_scheme.verify(public, data, value), samples
    )
    # A countersignature signs (payload, first signature); emulate the
    # larger input with the first signature's bytes appended.
    counter_data = data + repr(Signature("calibration", value)).encode()
    counter_ms = _measure_op(
        lambda: live_scheme.sign(private, counter_data), samples
    )
    lag_ms = probe_timer_lag(samples=timer_samples)
    tcp_lag_ms = probe_tcp_lag(samples=timer_samples) if tcp else []

    sign_p95 = percentile(sign_ms, 0.95)
    verify_p95 = percentile(verify_ms, 0.95)
    counter_p95 = percentile(counter_ms, 0.95)
    lag_p95 = percentile(lag_ms, 0.95)
    tcp_lag_p95 = percentile(tcp_lag_ms, 0.95)
    floor = max(base_delta_ms, tcp_floor_ms) if tcp else base_delta_ms
    delta = max(
        floor,
        safety * max(lag_p95, tcp_lag_p95)
        + sign_p95
        + verify_p95
        + counter_p95,
    )
    return CalibrationResult(
        scheme=type(live_scheme).__name__,
        samples=samples,
        payload_bytes=payload_bytes,
        sign_mean_ms=sum(sign_ms) / len(sign_ms),
        sign_p95_ms=sign_p95,
        verify_mean_ms=sum(verify_ms) / len(verify_ms),
        verify_p95_ms=verify_p95,
        countersign_mean_ms=sum(counter_ms) / len(counter_ms),
        countersign_p95_ms=counter_p95,
        timer_lag_mean_ms=sum(lag_ms) / len(lag_ms) if lag_ms else 0.0,
        timer_lag_p95_ms=lag_p95,
        timer_lag_max_ms=max(lag_ms) if lag_ms else 0.0,
        tcp_lag_mean_ms=(
            sum(tcp_lag_ms) / len(tcp_lag_ms) if tcp_lag_ms else 0.0
        ),
        tcp_lag_p95_ms=tcp_lag_p95,
        tcp_lag_max_ms=max(tcp_lag_ms) if tcp_lag_ms else 0.0,
        base_delta_ms=floor,
        safety=safety,
        delta_ms=delta,
    )
