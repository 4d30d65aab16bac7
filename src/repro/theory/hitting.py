"""Gaussian boundary-crossing (hitting) probabilities -- eqn (30).

The continuous-load analysis reduces the steady-state overflow probability
to the probability that a zero-mean Gaussian process hits the moving
boundary ``y = alpha + beta*t``:

    p = Pr{ sup_{t>=0} [ G_t - beta*t ] > alpha }

where ``G_t = Y_{-t} - Y_0`` (memoryless) or ``G_t = Z_{-t} - Y_0`` (with
estimator memory).  Following Braker's approximation for locally stationary
Gaussian processes, the first-passage density at time ``t`` is approximated
by

    f(t) ~ (1/2) v'(0) (alpha + beta*t) / sigma^3(t) * phi((alpha+beta*t)/sigma(t))

with ``sigma^2(t) = Var[G_t]`` and ``v'(0)`` its right derivative at 0;
integrating over ``t`` and adding the probability of already being above the
boundary at ``t = 0`` (zero in the memoryless case, where ``sigma(0) = 0``)
yields the estimate.  The approximation is asymptotically exact as
``alpha -> infinity``, i.e. for small target probabilities.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.core.gaussian import q_function
from repro.errors import ConvergenceError, ParameterError
from repro.theory.numerics import quad

__all__ = ["boundary_crossing_probability", "first_passage_density"]

#: Variances below this are treated as exactly zero (the integrand vanishes
#: there faster than any power, so this is purely a floating-point guard).
_VARIANCE_FLOOR = 1e-300


def first_passage_density(
    t: float,
    *,
    alpha: float,
    beta: float,
    variance_fn: Callable[[float], float],
    v_prime_0: float,
) -> float:
    """Braker first-passage density approximation at time ``t``."""
    var = variance_fn(t)
    if var <= _VARIANCE_FLOOR:
        return 0.0
    sd = math.sqrt(var)
    level = (alpha + beta * t) / sd
    if level > 40.0:  # phi underflows; integrand is numerically zero
        return 0.0
    density = math.exp(-0.5 * level * level) / math.sqrt(2.0 * math.pi)
    return 0.5 * v_prime_0 * (alpha + beta * t) / (var * sd) * density


def boundary_crossing_probability(
    *,
    alpha: float,
    beta: float,
    variance_fn: Callable[[float], float],
    v_prime_0: float | None = None,
    include_initial_term: bool = True,
    quad_limit: int = 200,
) -> float:
    """Eqn (30) (plus the time-zero term for processes with ``sigma(0) > 0``).

    Parameters
    ----------
    alpha : float
        Boundary intercept ``alpha_q`` (must be positive -- the
        approximation is a small-tail expansion).
    beta : float
        Boundary slope ``mu / (sigma * T_h_tilde)`` (positive).
    variance_fn : callable
        ``t -> Var[G_t]``; must be non-negative, non-decreasing near 0.
    v_prime_0 : float, optional
        Right derivative of the variance function at 0.  Estimated by a
        one-sided finite difference when omitted.
    include_initial_term : bool
        Add ``Q(alpha / sigma(0))`` for processes that can already exceed the
        boundary at ``t = 0`` (i.e. ``sigma(0) > 0``; automatic no-op
        otherwise).
    quad_limit : int
        Subinterval budget for :func:`repro.theory.numerics.quad`, the
        pure-Python QUADPACK ``dqagse`` that matches
        :func:`scipy.integrate.quad` bit for bit.

    Returns
    -------
    float
        The approximate hitting probability (clipped to [0, 1]).
    """
    if alpha <= 0.0:
        raise ParameterError("alpha must be positive (small-tail approximation)")
    if beta <= 0.0:
        raise ParameterError("beta must be positive")
    if v_prime_0 is None:
        eps = 1e-7
        v_prime_0 = (variance_fn(eps) - variance_fn(0.0)) / eps
    if v_prime_0 < 0.0:
        raise ParameterError("variance function must be non-decreasing at 0")

    # The integrand is concentrated where alpha + beta*t is a few sigma_inf,
    # i.e. t up to ~ (40*sigma_inf)/beta; past that phi() underflows.
    def integrand(t: float) -> float:
        return first_passage_density(
            t, alpha=alpha, beta=beta, variance_fn=variance_fn, v_prime_0=v_prime_0
        )

    sigma_inf = math.sqrt(max(variance_fn(1e12), _VARIANCE_FLOOR))
    horizon = max(1.0, 60.0 * sigma_inf / beta, 10.0 * alpha / beta)
    value, _, ier = quad(integrand, 0.0, horizon, limit=quad_limit)
    if ier:
        # quad reported difficulty (a nonzero dqagse status); retry on a
        # split domain before failing.  Trouble in the retry surfaces as
        # an IntegrationWarning with scipy's text.
        left = quad(integrand, 0.0, horizon / 100.0, limit=quad_limit, warn=True)[0]
        right = quad(
            integrand, horizon / 100.0, horizon, limit=quad_limit, warn=True
        )[0]
        value = left + right
        if not math.isfinite(value):
            raise ConvergenceError("boundary-crossing quadrature failed")

    if include_initial_term:
        var0 = variance_fn(0.0)
        if var0 > _VARIANCE_FLOOR:
            value += q_function(alpha / math.sqrt(var0))
    return float(min(max(value, 0.0), 1.0))
