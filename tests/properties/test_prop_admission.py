"""Property-based tests for the admission criterion (hypothesis)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.admission import (
    AdmissionCriterion,
    admissible_flow_count,
    admissible_flow_count_alpha,
    overflow_probability_for_count,
)
from repro.core.gaussian import q_function
from repro.errors import ParameterError

positive = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
sigmas = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)
alphas = st.floats(min_value=-5.0, max_value=8.0, allow_nan=False)
targets = st.floats(min_value=1e-9, max_value=0.45)


class TestClosedFormProperties:
    @given(mu=positive, sigma=sigmas, capacity=positive, alpha=alphas)
    @settings(max_examples=200)
    def test_solves_criterion(self, mu, sigma, capacity, alpha):
        """Eqn (42) always satisfies c - m*mu = sigma*alpha*sqrt(m)."""
        m = admissible_flow_count_alpha(mu, sigma, capacity, alpha)
        assert m >= 0.0
        lhs = capacity - m * mu
        rhs = sigma * alpha * math.sqrt(m)
        assert lhs == pytest.approx(rhs, rel=1e-6, abs=1e-6 * capacity)

    @given(mu=positive, sigma=sigmas, capacity=positive, alpha=alphas)
    @settings(max_examples=200)
    def test_never_exceeds_capacity_for_positive_alpha(
        self, mu, sigma, capacity, alpha
    ):
        m = admissible_flow_count_alpha(mu, sigma, capacity, max(alpha, 0.0))
        assert m * mu <= capacity * (1.0 + 1e-9)

    @given(
        mu=positive,
        sigma=st.floats(min_value=1e-3, max_value=10.0),
        capacity=positive,
        p1=targets,
        p2=targets,
    )
    @settings(max_examples=150)
    def test_monotone_in_target(self, mu, sigma, capacity, p1, p2):
        lo, hi = sorted([p1, p2])
        m_lo = admissible_flow_count(mu, sigma, capacity, lo)
        m_hi = admissible_flow_count(mu, sigma, capacity, hi)
        assert m_hi >= m_lo - 1e-9

    @given(
        mu=positive,
        s1=st.floats(min_value=0.0, max_value=10.0),
        s2=st.floats(min_value=0.0, max_value=10.0),
        capacity=positive,
        p=targets,
    )
    @settings(max_examples=150)
    def test_monotone_in_sigma(self, mu, s1, s2, capacity, p):
        lo, hi = sorted([s1, s2])
        m_calm = admissible_flow_count(mu, lo, capacity, p)
        m_bursty = admissible_flow_count(mu, hi, capacity, p)
        assert m_bursty <= m_calm + 1e-9

    @given(
        mu=positive,
        sigma=st.floats(min_value=1e-3, max_value=10.0),
        capacity=positive,
        p=targets,
    )
    @settings(max_examples=150)
    def test_roundtrip_through_overflow(self, mu, sigma, capacity, p):
        """admission -> overflow-for-count inverts to the target."""
        m = admissible_flow_count(mu, sigma, capacity, p)
        if m < 1e-6:  # degenerate: nothing admitted
            return
        achieved = overflow_probability_for_count(mu, sigma, capacity, m)
        assert achieved == pytest.approx(p, rel=1e-5)

    @given(
        mu=positive,
        sigma=st.floats(min_value=1e-3, max_value=10.0),
        capacity=positive,
        alpha=st.floats(min_value=0.0, max_value=8.0),
        scale=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=150)
    def test_scale_invariance(self, mu, sigma, capacity, alpha, scale):
        """Rescaling all bandwidth units must leave the count unchanged."""
        base = admissible_flow_count_alpha(mu, sigma, capacity, alpha)
        scaled = admissible_flow_count_alpha(
            mu * scale, sigma * scale, capacity * scale, alpha
        )
        assert scaled == pytest.approx(base, rel=1e-9)


class TestCriterionObjectProperties:
    @given(
        capacity=positive,
        p=targets,
        mu=positive,
        sigma=st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=150)
    def test_slack_consistent_with_admits(self, capacity, p, mu, sigma):
        crit = AdmissionCriterion.from_target(capacity, p)
        count = crit.admissible_count(mu, sigma)
        n_current = int(count)  # at or just below the boundary
        assert crit.admits(mu, sigma, n_current) == (
            n_current + 1 <= count
        )
        assert crit.slack(mu, sigma, n_current) == pytest.approx(
            count - n_current
        )

    @given(
        capacity=st.floats(min_value=1e-6, max_value=1e9),
        alpha=st.floats(min_value=-40.0, max_value=40.0),
        mu=st.floats(min_value=1e-9, max_value=1e6),
        sigma=st.floats(min_value=0.0, max_value=1e6),
    )
    @settings(max_examples=500)
    def test_scalar_path_is_bit_identical_to_the_array_form(
        self, capacity, alpha, mu, sigma
    ):
        """The decision path's math-only eqn (42) equals the numpy form
        bit for bit, conjugate-root regime included: golden decision
        digests hash the target's repr."""
        crit = AdmissionCriterion(capacity=capacity, alpha=alpha)
        scalar = crit.admissible_count(mu, sigma)
        array = admissible_flow_count_alpha(mu, sigma, capacity, alpha)
        assert type(scalar) is float
        assert repr(scalar) == repr(array)

    @pytest.mark.parametrize(
        "mu, sigma, match",
        [(0.0, 1.0, "mu"), (-1.0, 1.0, "mu"), (1.0, -0.5, "sigma")],
    )
    def test_scalar_path_raises_the_array_errors(self, mu, sigma, match):
        crit = AdmissionCriterion(capacity=10.0, alpha=2.0)
        with pytest.raises(ParameterError, match=match):
            crit.admissible_count(mu, sigma)
        with pytest.raises(ParameterError, match=match):
            admissible_flow_count_alpha(mu, sigma, 10.0, 2.0)

    @given(capacity=positive, p=targets)
    @settings(max_examples=100)
    def test_target_roundtrip(self, capacity, p):
        crit = AdmissionCriterion.from_target(capacity, p)
        assert q_function(crit.alpha) == pytest.approx(p, rel=1e-8)
