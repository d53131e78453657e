"""Order statistics shared by the host-cost benchmark's workloads."""

from __future__ import annotations

import math
import typing

#: Percentiles the tail rule chooses from, lowest first.
TAIL_CANDIDATES = (0.5, 0.75, 0.9, 0.95, 0.99, 0.999)

#: Samples that must lie beyond a percentile before it is reported.
BEYOND = 10


def nearest_rank(ordered: typing.Sequence[float], q: float) -> float:
    """The ``q``-th percentile of a sorted, non-empty sample by nearest
    rank (the ``ceil(q * n)``-th smallest value, the repo's convention)."""
    if not ordered:
        raise ValueError("empty sample")
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def tail_percentile(n: int) -> float | None:
    """The highest candidate percentile with at least :data:`BEYOND`
    samples beyond it in a sample of ``n``; ``None`` if even the median
    lacks them."""
    best = None
    for q in TAIL_CANDIDATES:
        if n - max(1, math.ceil(q * n)) >= BEYOND:
            best = q
    return best


def percentile_label(q: float) -> str:
    """``0.99`` -> ``"p99"``, ``0.999`` -> ``"p99.9"``; ``"none"`` for nan."""
    if math.isnan(q):
        return "none"
    return "p" + f"{q * 100:.1f}".rstrip("0").rstrip(".")


def latency_summary(done: typing.Iterable[float], failed: int) -> dict[str, float]:
    """Median and rule-chosen tail of a latency sample.

    ``failed`` operations count as missing any latency limit: they join
    the sample as infinitely late.  Returns ``p50``, ``tail``, the tail's
    percentile ``q`` (``nan`` when the sample cannot support one) and the
    sample count ``n``.
    """
    ordered = sorted(done) + [math.inf] * failed
    n = len(ordered)
    if not n:
        return {"p50": math.nan, "tail": math.nan, "q": math.nan, "n": 0}
    q = tail_percentile(n)
    return {
        "p50": nearest_rank(ordered, 0.5),
        "tail": nearest_rank(ordered, q) if q is not None else math.nan,
        "q": q if q is not None else math.nan,
        "n": n,
    }
