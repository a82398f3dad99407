"""Retry budgets: retries that provably cannot amplify load.

Per-request bounded retries are not enough -- when every request of an
overloaded service retries to its personal cap, downstream load
multiplies by that cap exactly when the system can least afford it (the
classic retry storm).  A *budget* makes retries a shared, metered
resource:

- every request entering service **deposits** ``retry_ratio`` tokens;
- every retry **spends** one whole token, and a retry with no token
  available is simply not attempted.

Since the pool starts empty and never goes negative::

    retries <= retry_ratio x requests_started
    attempts = starts + retries <= (1 + retry_ratio) x admitted

so :attr:`RetryBudget.amplification_cap` ``= 1 + retry_ratio`` is a
*proof*, not a tuning goal -- it holds for any fault timeline, which is
exactly what the Hypothesis property in ``tests/serve`` asserts.  Per
request, the service additionally clamps attempts to
:data:`repro.serve.service.MAX_ATTEMPTS`.

Backoff delays come from :class:`repro.faults.resilience.RetryPolicy`
(exponential + seeded jitter), reused so the serving layer and the
transaction layer pace retries identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import ConfigurationError
from repro.obs import NULL_OBS, Observability
from typing import Optional


@dataclass
class RetryBudget:
    """The shared retry-token pool.

    Args:
        retry_ratio: tokens deposited per request entering service; the
            system-wide amplification cap is ``1 + retry_ratio``.
        pool_cap: ceiling on banked tokens, so a long quiet period
            cannot fund an unbounded later burst of retries.
    """

    retry_ratio: float = 0.5
    pool_cap: float = 50.0
    obs: Optional[Observability] = field(default=None, repr=False)
    _tokens: float = field(init=False, default=0.0)
    _deposits: int = field(init=False, default=0)
    _spends: int = field(init=False, default=0)
    _denials: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if not 0.0 <= self.retry_ratio <= 1.0:
            raise ConfigurationError("retry_ratio must be in [0, 1]")
        if self.pool_cap < 1.0:
            raise ConfigurationError("pool_cap must be at least 1")
        if self.obs is None:
            self.obs = NULL_OBS  # type: ignore[assignment]
        # Bound handles: deposit fires once per request entering service,
        # so the name+label resolution is hoisted out of the hot loop.
        metrics = self.obs.metrics
        self._deposit_counter = metrics.handle("counter", "serve.retry.deposits")
        self._granted_counter = metrics.handle("counter", "serve.retry.granted")
        self._denied_counter = metrics.handle("counter", "serve.retry.denied")

    @property
    def amplification_cap(self) -> float:
        """The provable ceiling on ``attempts / requests started``."""
        return 1.0 + self.retry_ratio

    def deposit(self) -> None:
        """Bank this request's retry allowance (once, at service start)."""
        self._tokens = min(self.pool_cap, self._tokens + self.retry_ratio)
        self._deposits += 1
        self._deposit_counter.inc()

    def try_spend(self) -> bool:
        """Authorize one retry if a whole token is banked."""
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            self._spends += 1
            self._granted_counter.inc()
            return True
        self._denials += 1
        self._denied_counter.inc()
        return False

    @property
    def tokens(self) -> float:
        return self._tokens

    @property
    def deposits(self) -> int:
        return self._deposits

    @property
    def retries_granted(self) -> int:
        return self._spends

    @property
    def retries_denied(self) -> int:
        return self._denials
