"""Summary statistics for task timings and verification outcomes."""

from __future__ import annotations

import math
from dataclasses import dataclass

#: a tail percentile must leave at least this many samples above it
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    value: float
    percentile: float  # nearest-rank percentile of ``value``
    samples: int
    beyond: int        # samples strictly greater than ``value``


def tail(samples: list[float]) -> Tail:
    """Highest sample that still has ``TAIL_BEYOND`` samples strictly above it."""
    ordered = sorted(samples)
    n = len(ordered)
    for k in range(n - 1 - TAIL_BEYOND, -1, -1):
        above = sum(1 for x in ordered if x > ordered[k])
        if above >= TAIL_BEYOND:
            return Tail(ordered[k], 100.0 * (k + 1) / n, n, above)
    raise ValueError(f"{n} samples cannot leave {TAIL_BEYOND} above any of them")


@dataclass(frozen=True)
class Outcome:
    """Verification totals of a run."""

    attempted: int
    failed: int
    margin_digits: float  # math.inf when no passing value is non-zero

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted

    @property
    def pass_ratio(self) -> float:
        return 1.0 - self.fail_ratio


def outcome(verifications, margin_verifications=None) -> Outcome:
    """Count failures; take the margin over ``margin_verifications``.

    The margin is the smallest ``Verification.margin`` in the given set,
    which defaults to all verifications.
    """
    verifications = list(verifications)
    if not verifications:
        raise ValueError("no verifications were attempted")
    failed = sum(1 for v in verifications if not v.passed)
    pool = verifications if margin_verifications is None else margin_verifications
    margins = [m for m in (v.margin for v in pool) if m is not None]
    return Outcome(len(verifications), failed, min(margins, default=math.inf))
