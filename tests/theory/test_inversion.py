"""Tests for the robust-target inversion (Figs 6-7 machinery)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gaussian import q_function, q_inverse
from repro.errors import ConvergenceError, ParameterError
from repro.theory.inversion import (
    OVERFLOW_FORMULAS,
    adjusted_ce_alpha,
    adjusted_ce_target,
)
from repro.theory.memoryful import (
    ContinuousLoadModel,
    overflow_probability,
    overflow_probability_separation,
)

KW = dict(correlation_time=1.0, holding_time_scaled=100.0, snr=0.3)


class TestInversionConsistency:
    @pytest.mark.parametrize("formula", ["general", "separation"])
    @pytest.mark.parametrize("t_m", [1.0, 10.0, 100.0])
    def test_roundtrip(self, formula, t_m):
        """Predicted p_f at the inverted alpha must equal p_q."""
        p_q = 1e-3
        alpha_ce = adjusted_ce_alpha(p_q, memory=t_m, formula=formula, **KW)
        model = ContinuousLoadModel(memory=t_m, **KW)
        predict = OVERFLOW_FORMULAS[formula]
        assert predict(model, alpha=alpha_ce) == pytest.approx(p_q, rel=1e-6)

    def test_more_memory_needs_less_conservatism(self):
        alphas = [
            adjusted_ce_alpha(1e-3, memory=t_m, formula="separation", **KW)
            for t_m in [1.0, 10.0, 100.0, 1000.0]
        ]
        assert alphas == sorted(alphas, reverse=True)

    def test_always_more_conservative_than_target(self):
        alpha_q = q_inverse(1e-3)
        for t_m in [1.0, 100.0]:
            assert adjusted_ce_alpha(1e-3, memory=t_m, **KW) > alpha_q

    def test_large_memory_approaches_alpha_q(self):
        alpha_ce = adjusted_ce_alpha(1e-3, memory=1e6, formula="separation", **KW)
        assert alpha_ce == pytest.approx(q_inverse(1e-3), rel=0.05)

    def test_target_form_matches_alpha_form(self):
        p_ce = adjusted_ce_target(1e-3, memory=100.0, **KW)
        alpha = adjusted_ce_alpha(1e-3, memory=100.0, **KW)
        assert p_ce == pytest.approx(q_function(alpha), rel=1e-9)

    def test_paper_scale_tiny_targets(self):
        """For small T_m the required p_ce is many orders of magnitude below
        p_q (the paper reports values below 1e-10 on its largest systems)."""
        p_ce = adjusted_ce_target(
            1e-3,
            memory=0.1,
            correlation_time=1.0,
            holding_time_scaled=316.0,  # n=1000, T_h=1e4
            snr=0.3,
            formula="separation",
        )
        assert p_ce < 1e-9


class TestInversionEdgeCases:
    def test_rejects_bad_p_q(self):
        with pytest.raises(ParameterError):
            adjusted_ce_alpha(0.7, memory=10.0, **KW)
        with pytest.raises(ParameterError):
            adjusted_ce_alpha(0.0, memory=10.0, **KW)

    def test_rejects_unknown_formula(self):
        with pytest.raises(ParameterError):
            adjusted_ce_alpha(1e-3, memory=10.0, formula="nope", **KW)

    def test_aggressive_target_still_solvable(self):
        """Even extreme separation (gamma ~ 3e7) plus an aggressive p_q has
        a finite solution -- the Gaussian tail always wins eventually."""
        alpha = adjusted_ce_alpha(
            1e-9,
            memory=0.0,
            correlation_time=1e-4,
            holding_time_scaled=1e4,
            snr=0.3,
            formula="separation",
        )
        assert 10.0 < alpha < 35.0

    def test_deep_repair_regime_alpha_scales_with_sigma0(self):
        """In the deep repair regime the hitting term vanishes and the
        inversion is governed by the lag-0 term Q(alpha/sigma_0) = p_q, so
        alpha_ce ~ sigma_0 * alpha_q with sigma_0^2 = T_m/(T_c+T_m)."""
        alpha = adjusted_ce_alpha(
            1e-3,
            memory=10.0,
            correlation_time=1e7,
            holding_time_scaled=10.0,
            snr=0.3,
            formula="general",
        )
        sigma0 = (10.0 / (1e7 + 10.0)) ** 0.5
        assert alpha == pytest.approx(sigma0 * q_inverse(1e-3), rel=1e-3)

    def test_general_vs_separation_agree_when_separated(self):
        a_gen = adjusted_ce_alpha(1e-3, memory=10.0, formula="general", **KW)
        a_sep = adjusted_ce_alpha(1e-3, memory=10.0, formula="separation", **KW)
        assert a_gen == pytest.approx(a_sep, rel=0.05)


class TestControllerIntegration:
    def test_adjusted_controller_runs_with_underflowing_target(self):
        """alpha_ce ~ 7+ has p_ce ~ 1e-12; the controller must still build
        and admit a sensible count."""
        from repro.core.controllers import CertaintyEquivalentController
        from repro.core.estimators import BandwidthEstimate

        ctrl = CertaintyEquivalentController.with_adjusted_target(
            100.0,
            1e-3,
            memory=0.5,
            correlation_time=1.0,
            holding_time_scaled=100.0,
            snr=0.3,
            formula="separation",
        )
        target = ctrl.target_count(BandwidthEstimate(mu=1.0, sigma=0.3, n=90), 0)
        assert 50.0 < target < 100.0


def _int_or_float(lo: int, hi: int):
    """A design value drawn as an int, an int-valued float, or any float."""
    return st.one_of(
        st.integers(lo, hi),
        st.integers(lo, hi).map(float),
        st.floats(float(lo), float(hi), allow_nan=False),
    )


def _solve_or_error(solver, **design):
    try:
        return repr(solver(**design))
    except ConvergenceError as exc:
        return type(exc).__name__


class TestDesignMemo:
    """Each distinct design is solved once per process, to the same float."""

    @settings(max_examples=25, deadline=None)
    @given(
        p_q=st.sampled_from([1e-2, 1e-3, 1e-6]),
        memory=_int_or_float(0, 50),
        correlation_time=_int_or_float(1, 20),
        holding_time_scaled=_int_or_float(1, 100),
        snr=st.one_of(st.just(1), st.floats(0.05, 2.0)),
        formula=st.sampled_from(["general", "separation"]),
    )
    def test_cached_solver_matches_the_uncached_one(self, **design):
        as_floats = {
            key: float(value) if key != "formula" else value
            for key, value in design.items()
        }
        uncached = adjusted_ce_alpha.__wrapped__
        outcomes = {
            _solve_or_error(adjusted_ce_alpha, **design),
            _solve_or_error(adjusted_ce_alpha, **as_floats),
            _solve_or_error(uncached, **design),
            _solve_or_error(uncached, **as_floats),
        }
        assert len(outcomes) == 1, (design, outcomes)

    def test_repeat_call_returns_the_identical_float(self):
        first = adjusted_ce_alpha(1e-3, memory=7.0, **KW)
        assert adjusted_ce_alpha(1e-3, memory=7, **KW) is first

    def test_unreachable_target_raises_on_every_call(self):
        before = adjusted_ce_alpha.cache_info().misses
        for _ in range(3):
            with pytest.raises(ConvergenceError):
                adjusted_ce_alpha(
                    1e-300, memory=0.0, formula="separation", **KW
                )
        assert adjusted_ce_alpha.cache_info().misses == before + 3

    def test_gateway_builds_share_one_solve(self):
        """The seed reaches the feeds, not the design: two 4-link rcbr
        builds with different seeds invert eqn (37) once between them."""
        from repro.runtime.spec import GatewaySpec

        adjusted_ce_alpha.cache_clear()
        GatewaySpec(kind="rcbr", links=4, seed=0).build()
        GatewaySpec(kind="rcbr", links=4, seed=1).build()
        info = adjusted_ce_alpha.cache_info()
        assert (info.misses, info.hits) == (1, 7)
