"""Tests for the admission controllers."""

import math

import pytest

from repro.core.admission import admissible_flow_count
from repro.core.controllers import (
    CertaintyEquivalentController,
    PerfectKnowledgeController,
)
from repro.core.estimators import BandwidthEstimate
from repro.errors import ParameterError


def est(mu=1.0, sigma=0.3, n=100) -> BandwidthEstimate:
    return BandwidthEstimate(mu=mu, sigma=sigma, n=n)


class TestPerfectKnowledge:
    def test_target_is_m_star(self):
        ctrl = PerfectKnowledgeController(1.0, 0.3, 100.0, 1e-3)
        expected = admissible_flow_count(1.0, 0.3, 100.0, 1e-3)
        assert ctrl.m_star == pytest.approx(expected)
        assert ctrl.target_count(est(), 10) == pytest.approx(expected)

    def test_ignores_estimates(self):
        ctrl = PerfectKnowledgeController(1.0, 0.3, 100.0, 1e-3)
        assert ctrl.target_count(est(mu=5.0, sigma=2.0), 0) == ctrl.m_star

    def test_slack_counts_down(self):
        ctrl = PerfectKnowledgeController(1.0, 0.3, 100.0, 1e-3)
        m = int(math.floor(ctrl.m_star))
        assert ctrl.admission_slack(est(), 0) == m
        assert ctrl.admission_slack(est(), m) == 0
        assert ctrl.admission_slack(est(), m + 5) == 0  # never negative

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            PerfectKnowledgeController(-1.0, 0.3, 100.0, 1e-3)


class TestCertaintyEquivalent:
    def test_uses_estimates(self):
        ctrl = CertaintyEquivalentController(100.0, 1e-3)
        low = ctrl.target_count(est(mu=1.2), 0)
        high = ctrl.target_count(est(mu=0.8), 0)
        assert high > low

    def test_matches_closed_form(self):
        ctrl = CertaintyEquivalentController(100.0, 1e-3)
        assert ctrl.target_count(est(mu=1.0, sigma=0.3), 0) == pytest.approx(
            admissible_flow_count(1.0, 0.3, 100.0, 1e-3)
        )

    def test_nonpositive_mean_freezes_admission(self):
        ctrl = CertaintyEquivalentController(100.0, 1e-3)
        assert ctrl.target_count(est(mu=0.0), 7) == 7.0
        assert ctrl.admission_slack(est(mu=0.0), 7) == 0

    def test_min_sigma_floor(self):
        ctrl = CertaintyEquivalentController(100.0, 1e-3, min_sigma=0.5)
        floored = ctrl.target_count(est(sigma=0.0), 0)
        reference = admissible_flow_count(1.0, 0.5, 100.0, 1e-3)
        assert floored == pytest.approx(reference)

    def test_requires_exactly_one_target_form(self):
        with pytest.raises(ParameterError):
            CertaintyEquivalentController(100.0)
        with pytest.raises(ParameterError):
            CertaintyEquivalentController(100.0, 1e-3, alpha=3.0)

    def test_alpha_and_p_agree(self):
        from repro.core.gaussian import q_inverse

        via_p = CertaintyEquivalentController(100.0, 1e-3)
        via_alpha = CertaintyEquivalentController(100.0, alpha=q_inverse(1e-3))
        assert via_p.target_count(est(), 0) == pytest.approx(
            via_alpha.target_count(est(), 0)
        )

    def test_rejects_negative_min_sigma(self):
        with pytest.raises(ParameterError):
            CertaintyEquivalentController(100.0, 1e-3, min_sigma=-0.1)

    def test_p_ce_property(self):
        ctrl = CertaintyEquivalentController(100.0, 1e-4)
        assert ctrl.p_ce == pytest.approx(1e-4, rel=1e-9)


class TestAdjustedTarget:
    def test_more_conservative_than_plain(self):
        plain = CertaintyEquivalentController(100.0, 1e-3)
        adjusted = CertaintyEquivalentController.with_adjusted_target(
            100.0,
            1e-3,
            memory=10.0,
            correlation_time=1.0,
            holding_time_scaled=100.0,
            snr=0.3,
            formula="separation",
        )
        assert adjusted.target_count(est(), 0) < plain.target_count(est(), 0)
        assert adjusted.name == "adjusted-target"

    def test_large_memory_approaches_plain(self):
        plain = CertaintyEquivalentController(100.0, 1e-3)
        adjusted = CertaintyEquivalentController.with_adjusted_target(
            100.0,
            1e-3,
            memory=1e5,
            correlation_time=1.0,
            holding_time_scaled=100.0,
            snr=0.3,
            formula="separation",
        )
        # With huge memory the adjustment becomes mild (alpha_ce -> ~alpha_q).
        gap = plain.target_count(est(), 0) - adjusted.target_count(est(), 0)
        assert 0.0 <= gap < 3.0
