"""Tests for repro.serve.brownout (the hysteresis degradation ladder)."""

import pytest

from repro.core.errors import ConfigurationError
from repro.serve.brownout import BrownoutController


class TestBrownoutController:
    def test_ladder_up_and_down_with_hysteresis(self):
        ctl = BrownoutController()
        assert ctl.observe(0.4, False, 0.0) == 0
        assert ctl.observe(0.5, False, 1.0) == 1
        # Between EXIT_1 and ENTER_1: stays at 1 (hysteresis band).
        assert ctl.observe(0.4, False, 2.0) == 1
        assert ctl.observe(0.8, False, 3.0) == 2
        # Between EXIT_2 and ENTER_2: stays at 2.
        assert ctl.observe(0.7, False, 4.0) == 2
        assert ctl.observe(0.6, False, 5.0) == 1
        assert ctl.observe(0.3, False, 6.0) == 0

    def test_deep_brownout_exits_straight_to_normal_when_quiet(self):
        ctl = BrownoutController()
        ctl.observe(0.9, False, 0.0)
        assert ctl.observe(0.1, False, 1.0) == 0

    def test_breaker_open_forces_level_2(self):
        ctl = BrownoutController()
        assert ctl.observe(0.0, True, 0.0) == 2
        assert ctl.serve_cached_telemetry
        # Breaker closes, occupancy quiet: ladder walks back down.
        assert ctl.observe(0.0, False, 1.0) == 0

    def test_level_semantics(self):
        ctl = BrownoutController()
        assert not ctl.defer_maintenance and not ctl.coalesce_updates
        ctl.observe(0.5, False, 0.0)
        assert ctl.defer_maintenance and ctl.coalesce_updates
        assert not ctl.serve_cached_telemetry
        ctl.observe(0.9, False, 1.0)
        assert ctl.serve_cached_telemetry

    def test_transitions_recorded_with_timestamps(self):
        ctl = BrownoutController()
        ctl.observe(0.6, False, 1.5)
        ctl.observe(0.9, False, 2.5)
        ctl.observe(0.0, False, 3.5)
        assert ctl.transitions == ((1.5, 1), (2.5, 2), (3.5, 0))

    def test_pinned_level_never_moves(self):
        ctl = BrownoutController(pinned_level=2)
        assert ctl.observe(0.0, False, 0.0) == 2
        assert ctl.observe(1.0, True, 1.0) == 2
        assert ctl.transitions == ()

    @pytest.mark.parametrize("kwargs", [{"pinned_level": 3}])
    def test_invalid_config(self, kwargs):
        with pytest.raises(ConfigurationError):
            BrownoutController(**kwargs)
