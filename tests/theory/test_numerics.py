"""Differential tests: the design step's pure-Python solvers against scipy.

A served gateway solves its link design on :mod:`repro.theory.numerics`
(QUADPACK ``dqagse`` and Brent's method) and on the scalar Cephes path of
:mod:`repro.core.gaussian`, so it never imports scipy.  scipy stays a
dependency and is the reference here.  Every comparison is on ``repr``:
one bit of difference fails.
"""

from __future__ import annotations

import contextlib
import math
import sys
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, special

from repro.core import gaussian
from repro.errors import ConvergenceError
from repro.theory import hitting, inversion, memoryful, numerics
from repro.theory.hitting import first_passage_density
from repro.theory.inversion import adjusted_ce_alpha
from repro.theory.memoryful import ContinuousLoadModel, variance_function


def scipy_quad(func, a, b, *, limit=50, warn=False):
    """``scipy.integrate.quad`` behind :func:`numerics.quad`'s signature."""
    out = integrate.quad(func, a, b, limit=limit, full_output=1)
    if len(out) == 3:
        return out[0], out[1], 0
    by_text = {numerics._message(ier, limit): ier for ier in range(1, 6)}
    if warn:
        warnings.warn(out[3], integrate.IntegrationWarning, stacklevel=2)
    return out[0], out[1], by_text[out[3]]


def hitting_integrand(tc, tm, hts, snr, alpha):
    """The eqn (37) integrand and horizon, as ``boundary_crossing_probability``
    builds them."""
    model = ContinuousLoadModel(
        correlation_time=tc, holding_time_scaled=hts, snr=snr, memory=tm
    )

    def integrand(t):
        return first_passage_density(
            t, alpha=alpha, beta=model.beta, v_prime_0=2.0 / (tc + tm),
            variance_fn=lambda s: variance_function(s, model),
        )

    sigma_inf = math.sqrt(variance_function(1e12, model))
    horizon = max(1.0, 60.0 * sigma_inf / model.beta, 10.0 * alpha / model.beta)
    return integrand, horizon


#: Hitting integrands whose full-horizon quadrature ends with ier 4
#: (extrapolation roundoff) and ier 5 (divergence test).
IER_4 = dict(tc=0.054, tm=0.0, hts=29.029, snr=1.817, alpha=4.35)
IER_5 = dict(tc=0.355, tm=0.0, hts=7.08, snr=0.207, alpha=7.85)


class TestQuad:
    @pytest.mark.parametrize("design,ier", [(IER_4, 4), (IER_5, 5)])
    def test_pinned_integrands_end_with_their_ier(self, design, ier):
        integrand, horizon = hitting_integrand(**design)
        ported = numerics.quad(integrand, 0.0, horizon, limit=200)
        assert ported[2] == ier
        assert repr(ported) == repr(scipy_quad(integrand, 0.0, horizon, limit=200))

    @settings(max_examples=150, deadline=None)
    @given(
        tc=st.floats(0.03, 30.0),
        tm=st.one_of(st.just(0.0), st.floats(0.01, 100.0)),
        hts=st.floats(0.1, 30.0),
        snr=st.floats(0.03, 2.0),
        alpha=st.floats(0.5, 35.0),
        piece=st.sampled_from(["full", "left", "right"]),
        limit=st.sampled_from([200, 50, 7]),
    )
    def test_matches_scipy_on_hitting_integrands(
        self, tc, tm, hts, snr, alpha, piece, limit
    ):
        integrand, horizon = hitting_integrand(tc, tm, hts, snr, alpha)
        a, b = {
            "full": (0.0, horizon),
            "left": (0.0, horizon / 100.0),  # the split-domain retry
            "right": (horizon / 100.0, horizon),
        }[piece]
        assert repr(numerics.quad(integrand, a, b, limit=limit)) == repr(
            scipy_quad(integrand, a, b, limit=limit)
        )

    @pytest.mark.parametrize("limit", [1, 3, 50])
    @pytest.mark.parametrize(
        "func",
        [
            lambda x: 1.0 / math.sqrt(x) if x > 0 else 0.0,
            lambda x: math.log(x) if x > 0 else 0.0,
            lambda x: x ** -1.1 if x > 0 else 0.0,
            lambda x: math.sin(1.0 / x) if x else 0.0,
            lambda x: 1.0 if x > 1 / 3 else 0.0,
        ],
        ids=["inv-sqrt", "log", "divergent", "oscillating", "step"],
    )
    def test_matches_scipy_on_hard_integrands(self, func, limit):
        assert repr(numerics.quad(func, 0.0, 1.0, limit=limit)) == repr(
            scipy_quad(func, 0.0, 1.0, limit=limit)
        )

    def test_warns_with_scipys_text_at_the_caller(self):
        integrand, horizon = hitting_integrand(**IER_4)
        with warnings.catch_warnings(record=True) as ours:
            warnings.simplefilter("always")
            numerics.quad(integrand, 0.0, horizon, limit=200, warn=True)
        with warnings.catch_warnings(record=True) as theirs:
            warnings.simplefilter("always")
            integrate.quad(integrand, 0.0, horizon, limit=200)
        assert [str(w.message) for w in ours] == [str(w.message) for w in theirs]
        assert str(ours[0].message).startswith("The algorithm does not converge.")
        assert issubclass(ours[0].category, UserWarning)
        assert ours[0].filename == __file__

    def test_rejects_what_scipy_rejects(self):
        for quad in (numerics.quad, scipy_quad):
            with pytest.raises(ValueError, match="at least one subinterval"):
                quad(math.exp, 0.0, 1.0, limit=0)


def _root_outcome(solver, f, a, b, **kw):
    try:
        return repr(solver(f, a, b, **kw))
    except (ValueError, RuntimeError) as exc:
        return f"{type(exc).__name__}: {exc}"


class TestBrentq:
    @settings(max_examples=200, deadline=None)
    @given(
        root=st.floats(-10.0, 10.0),
        left=st.floats(1e-6, 20.0),
        right=st.floats(1e-6, 20.0),
        k=st.floats(0.01, 100.0),
        shape=st.sampled_from(["atan", "cubic", "exp"]),
        xtol=st.sampled_from([2e-12, 1e-10, 1e-3]),
        rtol=st.sampled_from([4 * sys.float_info.epsilon, 1e-12, 1e-6]),
    )
    def test_matches_scipy(self, root, left, right, k, shape, xtol, rtol):
        f = {
            "atan": lambda x: math.atan(k * (x - root)),
            "cubic": lambda x: (x - root) ** 3 + k * (x - root),
            "exp": lambda x: math.exp(k * (x - root) / 100.0) - 1.0,
        }[shape]
        a, b = root - left, root + right
        kw = dict(xtol=xtol, rtol=rtol)
        assert _root_outcome(numerics.brentq, f, a, b, **kw) == _root_outcome(
            optimize.brentq, f, a, b, **kw
        )

    def test_errors_match_scipy(self):
        def f(x):
            return x * x - 2.0

        # A bracket without a sign change.
        assert _root_outcome(numerics.brentq, f, 2.0, 3.0) == _root_outcome(
            optimize.brentq, f, 2.0, 3.0
        )
        # Too few iterations to converge.
        with mock.patch.object(numerics, "_MAXITER", 2):
            ours = _root_outcome(numerics.brentq, f, 0.0, 2.0)
        assert ours == _root_outcome(optimize.brentq, f, 0.0, 2.0, maxiter=2)
        assert ours.startswith("RuntimeError")
        assert numerics.brentq(f, 0.0, 2.0) == optimize.brentq(f, 0.0, 2.0)
        with pytest.raises(ValueError, match="NaN"):
            numerics.brentq(lambda x: math.nan, 0.0, 1.0)


@contextlib.contextmanager
def scipy_routines():
    """Run the design step on scipy's routines instead of the ports."""
    with contextlib.ExitStack() as stack:
        for owner, name, routine in [
            (inversion, "brentq", optimize.brentq),
            (hitting, "quad", scipy_quad),
            (gaussian, "_erfc", lambda z: float(special.erfc(z))),
            (gaussian, "_ndtri", lambda y: float(special.ndtri(y))),
        ]:
            stack.enter_context(mock.patch.object(owner, name, routine))
        yield


def _solve(**design):
    try:
        return repr(adjusted_ce_alpha.__wrapped__(**design))
    except ConvergenceError as exc:
        return type(exc).__name__


#: ``alpha = 35`` still overflows more than ``p_q``: ConvergenceError.
UNREACHABLE = dict(p_q=1e-300, memory=1.0, correlation_time=1.0,
                   holding_time_scaled=1.0, snr=0.3, formula="general")
#: ``alpha = 1e-3`` already meets ``p_q``: the solver returns ``lo``.
MET_AT_LO = dict(p_q=0.04, memory=0.0, correlation_time=1.0,
                 holding_time_scaled=0.1, snr=0.8, formula="separation")


@pytest.mark.parametrize(
    "design,outcome",
    [(UNREACHABLE, "ConvergenceError"), (MET_AT_LO, repr(1e-3))],
)
def test_design_edges(design, outcome):
    assert _solve(**design) == outcome
    with scipy_routines():
        assert _solve(**design) == outcome


@settings(max_examples=40, deadline=None)
@given(
    p_q=st.one_of(st.sampled_from([1e-2, 1e-3, 1e-6]), st.floats(1e-12, 0.3)),
    memory=st.one_of(st.just(0.0), st.floats(0.01, 200.0)),
    correlation_time=st.floats(0.05, 50.0),
    holding_time_scaled=st.floats(0.05, 200.0),
    snr=st.floats(0.02, 2.0),
    formula=st.sampled_from(["general", "separation"]),
)
def test_design_solve_matches_scipy(**design):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ported = _solve(**design)
        with scipy_routines():
            reference = _solve(**design)
    assert ported == reference, design


def test_scipy_routines_really_swap_the_solvers():
    """Guard for the differential test above: inside the context the
    design step calls scipy, outside it calls the ports."""
    with scipy_routines():
        assert hitting.quad is scipy_quad
        assert inversion.brentq is optimize.brentq
    assert hitting.quad is numerics.quad
    assert inversion.brentq is numerics.brentq
    assert memoryful.boundary_crossing_probability.__module__ == hitting.__name__
