"""Runtime observability: metrics, the hub, exposition, flight recorder.

The paper's fail-signal contract is an *operational* claim -- failures
are detected and signalled within measured deadlines -- so a production
deployment needs those deadlines, stage latencies and fail-signal paths
visible while the system runs, not just in post-hoc metrics dicts.
This package is that substrate:

* :mod:`repro.obs.metrics` -- counters, gauges and log-bucketed
  histograms in a :class:`MetricsRegistry`; zero-cost when disabled
  (the ``TraceRecorder`` no-op idiom);
* :mod:`repro.obs.spans` -- the :class:`ObsHub` of pre-built
  instruments riding on the run's clock;
* :mod:`repro.obs.prom` -- Prometheus text exposition (``GET
  /metrics``) and its strict parser;
* :mod:`repro.obs.flight` -- the :class:`FlightRecorder`, bounded
  rings of recent trace records dumped as a postmortem bundle when a
  fail-signal or oracle violation fires.

Everything is clock-driven: observations are deltas of whichever clock
runs the scenario, so simulator and asyncio runs produce readings in
the same (virtual-millisecond) unit and sim mode performs zero
wall-time reads.  See docs/OBSERVABILITY.md for the operator guide.
"""

from repro.obs.flight import FlightRecorder
from repro.obs.metrics import (
    BUCKET_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_histograms,
)
from repro.obs.prom import CONTENT_TYPE, parse, render
from repro.obs.spans import (
    DISABLED_HUB,
    ObsHub,
    hub_of,
    install_hub,
)

__all__ = [
    "BUCKET_BOUNDS",
    "CONTENT_TYPE",
    "Counter",
    "DISABLED_HUB",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsHub",
    "hub_of",
    "install_hub",
    "merge_histograms",
    "parse",
    "render",
]
