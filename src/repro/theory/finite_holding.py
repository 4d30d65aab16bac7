"""Impulsive load with finite holding times (Section 3.2 of the paper).

After the single admission burst at time 0, flows depart at exponential rate
``1/T_h``.  On the critical time-scale ``T_h_tilde = T_h/sqrt(n)`` the
departure process restores the ``sqrt(n)`` safety margin, and the overflow
probability at time ``t`` is eqn (21):

    p_f(t) = Q( [ (mu/sigma) * t/T_h_tilde + alpha_q ] / sqrt(2(1-rho(t))) )

The curve is 0 at ``t = 0`` (perfect short-term correlation), rises as the
bandwidths decorrelate, and falls again once enough flows have departed; its
peak sits at a time of order ``min(T_c, T_h_tilde)``.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.core.gaussian import q_function, q_inverse
from repro.errors import ParameterError

__all__ = [
    "exponential_autocorrelation",
    "overflow_probability_at",
    "overflow_probability_curve",
    "peak_overflow",
]


def exponential_autocorrelation(correlation_time: float) -> Callable[[float], float]:
    """The paper's reference autocorrelation ``rho(t) = exp(-|t|/T_c)``."""
    if correlation_time <= 0.0:
        raise ParameterError("correlation_time must be positive")

    def rho(t: float) -> float:
        return math.exp(-abs(t) / correlation_time)

    return rho


def overflow_probability_at(
    t,
    *,
    p_q: float,
    snr: float,
    holding_time_scaled: float,
    rho: Callable[[float], float],
):
    """Eqn (21): overflow probability at elapsed time ``t`` after the burst.

    Parameters
    ----------
    t : float or array_like
        Elapsed time(s) since the admission burst (non-negative).
    p_q : float
        Target overflow probability (defines ``alpha_q``).
    snr : float
        Per-flow coefficient of variation ``sigma/mu``.
    holding_time_scaled : float
        The critical time-scale ``T_h_tilde = T_h / sqrt(n)``.
    rho : callable
        Autocorrelation function of an individual flow, ``rho(0) = 1``.
    """
    if snr <= 0.0 or holding_time_scaled <= 0.0:
        raise ParameterError("snr and holding_time_scaled must be positive")
    alpha_q = q_inverse(p_q)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr < 0.0):
        raise ParameterError("t must be non-negative")
    out = np.empty_like(t_arr)
    for i, ti in enumerate(t_arr):
        variance = 2.0 * (1.0 - rho(ti))
        drift = ti / (snr * holding_time_scaled) + alpha_q
        if variance <= 0.0:
            out[i] = 0.0 if drift > 0.0 else 0.5
        else:
            out[i] = q_function(drift / math.sqrt(variance))
    return out if np.ndim(t) else float(out[0])


def overflow_probability_curve(
    times,
    *,
    p_q: float,
    snr: float,
    holding_time_scaled: float,
    correlation_time: float,
) -> np.ndarray:
    """Convenience wrapper: eqn (21) on a time grid with exponential rho."""
    rho = exponential_autocorrelation(correlation_time)
    return np.asarray(
        overflow_probability_at(
            times,
            p_q=p_q,
            snr=snr,
            holding_time_scaled=holding_time_scaled,
            rho=rho,
        )
    )


def peak_overflow(
    *,
    p_q: float,
    snr: float,
    holding_time_scaled: float,
    correlation_time: float,
) -> tuple[float, float]:
    """Locate the worst time and value of the eqn (21) curve.

    Returns
    -------
    (t_peak, p_peak) : tuple of float
        Argmax and max of the overflow-probability curve.  Solved by bounded
        scalar maximization over ``[0, 20 * max(T_c, T_h_tilde)]`` -- beyond
        which the curve is provably decreasing (both the drift term and the
        departures push the Q-argument up linearly).
    """
    from scipy import optimize

    rho = exponential_autocorrelation(correlation_time)
    horizon = 20.0 * max(correlation_time, holding_time_scaled)

    def neg_curve(t: float) -> float:
        return -overflow_probability_at(
            float(t),
            p_q=p_q,
            snr=snr,
            holding_time_scaled=holding_time_scaled,
            rho=rho,
        )

    result = optimize.minimize_scalar(neg_curve, bounds=(0.0, horizon), method="bounded")
    return float(result.x), float(-result.fun)
