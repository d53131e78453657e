"""Client-facing ordering service: gateway, admission control, fleet.

The layering, bottom-up:

* :mod:`repro.service.auth` / :mod:`repro.service.ratelimit` --
  framework-free admission primitives (API keys, token buckets);
* :mod:`repro.service.gateway` -- :class:`OrderingGateway`, the
  transport-agnostic core: authenticate, rate-limit, cap inflight,
  multicast admitted operations into the group, and turn the group's
  delivered order into a per-shard sequence-numbered delivery feed;
* :mod:`repro.service.workload` -- :class:`ServiceWorkload`, the
  closed-loop client fleet that drives a gateway in-process (the thing
  ``gateway=`` on a :class:`~repro.experiments.spec.ScenarioSpec` runs);
* :mod:`repro.service.http` -- the stdlib asyncio HTTP/1.1 + SSE front
  end ``repro serve`` binds, and the service's only HTTP server (no
  third-party dependencies).
"""

from repro.service.auth import ApiKeyRegistry, derive_key
from repro.service.gateway import (
    ACCEPTED,
    OVERLOADED,
    RATE_LIMITED,
    UNAUTHORIZED,
    DeliveryEvent,
    OrderingGateway,
    SubmitOutcome,
    Subscription,
)
from repro.service.ratelimit import RateLimiter, TokenBucket
from repro.service.spec import ServiceSpec
from repro.service.workload import ServiceWorkload

__all__ = [
    "ACCEPTED",
    "OVERLOADED",
    "RATE_LIMITED",
    "UNAUTHORIZED",
    "ApiKeyRegistry",
    "DeliveryEvent",
    "OrderingGateway",
    "RateLimiter",
    "ServiceSpec",
    "ServiceWorkload",
    "SubmitOutcome",
    "Subscription",
    "TokenBucket",
    "derive_key",
]
