"""Graceful brownout: degrade service quality instead of collapsing.

Mission Apollo's deployment lesson (PAPERS.md) is that a shared fabric
service survives overload by *shedding quality first and work second*.
The brownout controller watches queue occupancy (and the circuit
breaker) and moves the service through three levels, with hysteresis so
the level does not flap at a threshold:

- **level 0 (normal)**: everything fresh and immediate;
- **level 1 (brownout)**: defer background maintenance (defrag ticks)
  and *coalesce* traffic-matrix updates into one batched commit per
  window -- N updates cost one commit;
- **level 2 (deep brownout)**: additionally serve telemetry queries
  from a bounded-staleness cache instead of recomputing state digests.

Entry thresholds are evaluated high-to-low and exits low-to-high, each
exit strictly below its entry (hysteresis).  The level trajectory is a
pure function of the (occupancy, breaker) observation sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.obs import NULL_OBS, Observability


#: Queue occupancy at which the ladder enters / leaves level 1 and
#: level 2.  Each exit sits strictly below its entry (hysteresis), and
#: ``ENTER_1 <= ENTER_2``, ``EXIT_1 <= EXIT_2``.
ENTER_1 = 0.5
EXIT_1 = 0.3
ENTER_2 = 0.8
EXIT_2 = 0.6


@dataclass
class BrownoutController:
    """Hysteresis ladder from queue occupancy to a degradation level.

    The thresholds are the module's ``ENTER_*`` / ``EXIT_*`` constants;
    an open circuit breaker also forces level 2 (the controller is
    unreachable -- coalesce and serve from cache).

    Args:
        pinned_level: freeze the controller at one level (the twin
            prices a pinned-level policy against adaptive brownout).
    """

    pinned_level: Optional[int] = None
    obs: Optional[Observability] = field(default=None, repr=False)
    _level: int = field(init=False, default=0)
    _transitions: List[Tuple[float, int]] = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        if self.pinned_level is not None:
            if self.pinned_level not in (0, 1, 2):
                raise ConfigurationError("pinned_level must be 0, 1, or 2")
            self._level = self.pinned_level
        if self.obs is None:
            self.obs = NULL_OBS  # type: ignore[assignment]

    @property
    def level(self) -> int:
        return self._level

    def observe(self, occupancy: float, breaker_open: bool, now_s: float) -> int:
        """Feed one observation; returns the (possibly new) level."""
        if self.pinned_level is not None:
            return self._level
        level = self._level
        if breaker_open or occupancy >= ENTER_2:
            level = 2
        elif level == 0 and occupancy >= ENTER_1:
            level = 1
        elif level == 2:
            if occupancy <= EXIT_1:
                level = 0
            elif occupancy <= EXIT_2:
                level = 1
        elif level == 1 and occupancy <= EXIT_1:
            level = 0
        if level != self._level:
            self._level = level
            self._transitions.append((now_s, level))
            self.obs.metrics.counter(
                "serve.brownout.transitions", to=str(level)
            ).inc()
            self.obs.metrics.gauge("serve.brownout.level").set(float(level))
        return self._level

    # -- what the current level means for the service ------------------- #

    @property
    def defer_maintenance(self) -> bool:
        """Level >= 1: skip defrag / compaction ticks."""
        return self._level >= 1

    @property
    def coalesce_updates(self) -> bool:
        """Level >= 1: batch traffic updates into windowed transactions."""
        return self._level >= 1

    @property
    def serve_cached_telemetry(self) -> bool:
        """Level 2: answer telemetry from the bounded-staleness cache."""
        return self._level >= 2

    @property
    def transitions(self) -> Tuple[Tuple[float, int], ...]:
        return tuple(self._transitions)
