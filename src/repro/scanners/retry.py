"""Shared retry/backoff policy for all scanners.

Real scan platforms are built around partial failure: ZMap re-probes
unresponsive targets, and QScanner/Goscanner budget a per-target
deadline rather than giving up after one timeout.  This module is the
shared equivalent for the simulated pipeline — a frozen
:class:`RetryPolicy` describing bounded exponential backoff with
deterministic jitter and an optional per-target deadline budget.

Determinism contract: backoff delays are derived from a caller-supplied
:class:`~repro.crypto.rand.DeterministicRandom` (the scanners derive a
per-target child, positioned by absolute target index), so the retry
schedule for a given (seed, target) pair is identical across runs and
identical between serial and sharded-parallel execution.  Delays are
rounded to nanosecond precision so virtual-clock arithmetic stays
bit-stable.

The default policy (``attempts=1``) disables retries entirely — the
baseline campaign's records and metrics are unchanged unless a caller
opts in (e.g. ``repro chaos --retries N``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Optional, Tuple

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter.

    ``attempts`` is the *total* attempt budget (first try included);
    ``attempts=1`` means no retries.  ``deadline`` caps the per-target
    budget in virtual seconds: a retry whose backoff delay would push
    the target past the deadline is not taken.
    """

    attempts: int = 1
    base_delay: float = 0.2  # virtual seconds before the first retry
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.25  # +/- fraction of the computed delay
    deadline: Optional[float] = None  # per-target virtual-time budget

    @property
    def enabled(self) -> bool:
        return self.attempts > 1

    def nominal_retries(self) -> int:
        """Retries owed to a target that never answers and never makes
        the scanner wait: ``attempts - 1``, or as many as the
        jitter-free schedule fits inside ``deadline``."""
        schedule = replace(self, jitter=0.0).schedule(None)
        return sum(self.within_deadline(elapsed) for elapsed in accumulate(schedule))

    def backoff(self, retry_index: int, rng) -> float:
        """Delay before retry number ``retry_index`` (1-based).

        Draws exactly one jitter sample from ``rng`` when jitter is
        configured, so sequential calls with the same generator yield
        the full deterministic schedule.
        """
        if retry_index < 1:
            raise ValueError(f"retry_index must be >= 1, got {retry_index}")
        delay = min(
            self.base_delay * self.multiplier ** (retry_index - 1), self.max_delay
        )
        if self.jitter:
            delay += self.jitter * delay * (2.0 * rng.random() - 1.0)
        # Nanosecond rounding keeps virtual-clock sums bit-stable.
        return round(max(delay, 0.0), 9)

    def schedule(self, rng) -> Tuple[float, ...]:
        """The full backoff schedule this policy would follow."""
        return tuple(self.backoff(index, rng) for index in range(1, self.attempts))

    def within_deadline(self, elapsed: float) -> bool:
        """Whether a target's budget allows spending up to ``elapsed``."""
        return self.deadline is None or elapsed <= self.deadline
