"""Tests for repro.serve.retry (the shared retry-token budget)."""

import pytest

from repro.core.errors import ConfigurationError
from repro.serve.retry import RetryBudget


class TestRetryBudget:
    def test_pool_starts_empty(self):
        budget = RetryBudget(retry_ratio=0.5)
        assert budget.tokens == 0.0
        assert not budget.try_spend()
        assert budget.retries_denied == 1

    def test_deposits_fund_whole_retries(self):
        budget = RetryBudget(retry_ratio=0.5)
        budget.deposit()
        assert not budget.try_spend()  # 0.5 tokens: not a whole retry
        budget.deposit()
        assert budget.try_spend()      # 1.0 banked
        assert not budget.try_spend()  # pool drained again
        assert budget.deposits == 2
        assert budget.retries_granted == 1
        assert budget.retries_denied == 2

    def test_pool_cap_bounds_banked_burst(self):
        budget = RetryBudget(retry_ratio=1.0, pool_cap=3.0)
        for _ in range(100):
            budget.deposit()
        assert budget.tokens == pytest.approx(3.0)
        grants = sum(budget.try_spend() for _ in range(100))
        assert grants == 3

    def test_amplification_cap(self):
        assert RetryBudget(retry_ratio=0.5).amplification_cap == pytest.approx(1.5)
        assert RetryBudget(retry_ratio=0.0).amplification_cap == pytest.approx(1.0)

    def test_zero_ratio_never_grants(self):
        budget = RetryBudget(retry_ratio=0.0)
        for _ in range(10):
            budget.deposit()
        assert not budget.try_spend()

    def test_invariant_attempts_bounded_for_any_interleaving(self):
        # attempts = deposits + grants <= (1 + ratio) * deposits, no
        # matter how deposits and spend attempts interleave.
        budget = RetryBudget(retry_ratio=0.3, pool_cap=10.0)
        attempts = 0
        for i in range(200):
            budget.deposit()
            attempts += 1
            # Greedy storm: retry as often as the budget ever allows.
            while budget.try_spend():
                attempts += 1
        assert attempts == budget.deposits + budget.retries_granted
        assert attempts <= budget.amplification_cap * budget.deposits

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"retry_ratio": -0.1},
            {"retry_ratio": 1.5},
            {"pool_cap": 0.5},
        ],
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryBudget(**kwargs)
