"""Per-shard circuit breakers for the fleet service.

The *node-level* breaker of the online step
(:class:`~repro.serve.fleet.FleetEstimator`) guards against one node's
flapping counters.  :class:`ShardBreaker`
guards a different failure surface: the shard *operation* itself —
stepping a shard's sub-batch, writing or restoring its snapshot.  When
a shard keeps failing operationally, its breaker opens and the service
answers that shard's nodes from the stateless baseline instead of
retrying into the same fault, then probes again (half-open) after a
cooldown.  One bad shard never takes the fleet down.
"""

from __future__ import annotations

from typing import Tuple

__all__ = ["ShardBreaker", "BREAKER_STATES"]

BREAKER_STATES: Tuple[str, ...] = ("closed", "open", "half-open")


class ShardBreaker:
    """Consecutive-failure breaker with tick-based cooldown.

    ``closed`` — operations run normally.  ``open`` — operations are
    refused (``allow()`` is False) until ``cooldown_ticks`` service
    ticks pass.  ``half-open`` — exactly one probe operation is
    allowed; success closes the breaker, failure re-opens it for a
    fresh cooldown.
    """

    def __init__(
        self, *, threshold: int = 3, cooldown_ticks: int = 5
    ) -> None:
        if threshold < 1:
            raise ValueError("threshold must be at least 1")
        if cooldown_ticks < 1:
            raise ValueError("cooldown_ticks must be at least 1")
        self.threshold = int(threshold)
        self.cooldown_ticks = int(cooldown_ticks)
        self._state = "closed"
        self._consecutive_failures = 0
        self._cooldown_left = 0
        self._trips = 0
        self._refused = 0

    @property
    def state(self) -> str:
        return self._state

    @property
    def trips(self) -> int:
        return self._trips

    @property
    def refused(self) -> int:
        """Operations refused while open (served stateless baseline)."""
        return self._refused

    def tick(self) -> None:
        """Advance the service clock; an open breaker cools toward
        half-open."""
        if self._state == "open":
            self._cooldown_left -= 1
            if self._cooldown_left <= 0:
                self._state = "half-open"

    def allow(self) -> bool:
        """May the next shard operation run?  (Counts refusals.)"""
        if self._state == "open":
            self._refused += 1
            return False
        return True

    def record_success(self) -> None:
        self._consecutive_failures = 0
        if self._state == "half-open":
            self._state = "closed"

    def record_failure(self) -> None:
        self._consecutive_failures += 1
        if self._state == "half-open" or (
            self._state == "closed"
            and self._consecutive_failures >= self.threshold
        ):
            self._state = "open"
            self._cooldown_left = self.cooldown_ticks
            self._trips += 1
