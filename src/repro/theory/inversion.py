"""Inverting the overflow formulas for the robust target ``p_ce``.

The paper's robust MBAC recipe (Section 5.2, Figs 6-7): given the QoS target
``p_q`` and the system parameters ``(T_m, T_c, T_h_tilde, sigma/mu)``, solve

    p_f(alpha_ce; T_m, T_c, T_h_tilde, snr) = p_q

for the *adjusted* certainty-equivalent parameter ``alpha_ce`` (equivalently
``p_ce = Q(alpha_ce)``), then run the plain certainty-equivalent controller
with ``p_ce`` in place of ``p_q``.  The left-hand side is any of the theory
formulas (the general integral (37) or the closed form (38)); both are
strictly decreasing in ``alpha``, so a bracketed root-finder is reliable.

For small ``T_m`` the required ``p_ce`` can be astronomically small (the
paper reports values below 1e-10), so the search is carried out in ``alpha``
space where everything stays well-scaled.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

from repro.core.gaussian import q_function
from repro.errors import ConvergenceError, ParameterError
from repro.theory.memoryful import (
    ContinuousLoadModel,
    overflow_probability,
    overflow_probability_separation,
)
from repro.theory.numerics import brentq

__all__ = ["adjusted_ce_alpha", "adjusted_ce_target", "OVERFLOW_FORMULAS"]

#: Formula registry for the inversion (and for experiments that sweep both).
OVERFLOW_FORMULAS: dict[str, Callable[..., float]] = {
    "general": overflow_probability,
    "separation": overflow_probability_separation,
}

_ALPHA_MAX = 35.0  # Q(35) ~ 1e-268; far beyond any practical target.

#: Distinct designs :func:`adjusted_ce_alpha` remembers.  A gateway build
#: needs one per link design, a classed build one per class; the online
#: re-inversion adds one per measured snr, so the bound keeps a long soak
#: flat.
_DESIGN_CACHE_SIZE = 128


def adjusted_ce_alpha(
    p_q: float,
    *,
    memory: float,
    correlation_time: float,
    holding_time_scaled: float,
    snr: float,
    formula: str = "general",
) -> float:
    """Solve for ``alpha_ce`` such that the predicted ``p_f`` equals ``p_q``.

    The root depends only on these arguments, so each distinct design is
    solved once per process: a small LRU memoizes the result, and a
    repeat call returns the identical float.  The solver computes in
    floats, so numerically equal arguments (``memory=1`` and
    ``memory=1.0``) are one design with one entry.  Errors are not
    memoized: an unreachable target raises on every call.
    ``adjusted_ce_alpha.__wrapped__`` is the uncached solver, and
    ``cache_info()`` / ``cache_clear()`` expose the memo.

    Parameters
    ----------
    p_q : float
        QoS target overflow probability, in (0, 1/2).
    memory, correlation_time, holding_time_scaled, snr : float
        Model parameters (see :class:`ContinuousLoadModel`).
    formula : {"general", "separation"}
        Which overflow formula to invert: the numerically integrated
        eqn (37) or the closed form (38).

    Returns
    -------
    float
        ``alpha_ce = Q^{-1}(p_ce)``.

    Raises
    ------
    ConvergenceError
        If even the most conservative representable target
        (``alpha = 35``) cannot reach ``p_q`` -- the irreducible
        bandwidth-fluctuation term of eqn (37) exceeds the target, meaning
        no certainty-equivalent parameter can deliver this QoS at this
        memory size.
    """
    return _solve(
        p_q,
        memory=memory,
        correlation_time=correlation_time,
        holding_time_scaled=holding_time_scaled,
        snr=snr,
        formula=formula,
    )


@functools.lru_cache(maxsize=_DESIGN_CACHE_SIZE)
def _solve(
    p_q: float,
    *,
    memory: float,
    correlation_time: float,
    holding_time_scaled: float,
    snr: float,
    formula: str = "general",
) -> float:
    """One bracketed root search; memoized by :func:`adjusted_ce_alpha`."""
    p_q, memory = float(p_q), float(memory)
    correlation_time = float(correlation_time)
    holding_time_scaled, snr = float(holding_time_scaled), float(snr)
    if not 0.0 < p_q < 0.5:
        raise ParameterError("p_q must lie in (0, 0.5)")
    try:
        predict = OVERFLOW_FORMULAS[formula]
    except KeyError:
        raise ParameterError(f"unknown formula {formula!r}") from None
    model = ContinuousLoadModel(
        correlation_time=correlation_time,
        holding_time_scaled=holding_time_scaled,
        snr=snr,
        memory=memory,
    )

    def gap(alpha: float) -> float:
        return math.log(max(predict(model, alpha=alpha), 1e-320)) - math.log(p_q)

    lo = 1e-3
    hi = _ALPHA_MAX
    gap_lo, gap_hi = gap(lo), gap(hi)
    if gap_hi > 0.0:
        raise ConvergenceError(
            "target p_q unreachable: predicted overflow exceeds the target "
            "even at the most conservative representable p_ce; increase "
            "memory T_m or relax p_q"
        )
    if gap_lo <= 0.0:
        # Even a near-null safety margin already satisfies the target (deep
        # repair regime); return the least conservative bracket endpoint.
        return lo
    return float(brentq(gap, lo, hi, xtol=1e-10, rtol=1e-12))


adjusted_ce_alpha.__wrapped__ = _solve.__wrapped__
adjusted_ce_alpha.cache_info = _solve.cache_info
adjusted_ce_alpha.cache_clear = _solve.cache_clear


def adjusted_ce_target(
    p_q: float,
    *,
    memory: float,
    correlation_time: float,
    holding_time_scaled: float,
    snr: float,
    formula: str = "general",
) -> float:
    """``p_ce = Q(alpha_ce)`` -- the adjusted target to configure the MBAC with.

    See :func:`adjusted_ce_alpha` for parameters.  Note that for small
    memory this can underflow to 0.0 in double precision; controllers should
    prefer :func:`adjusted_ce_alpha` + :class:`repro.core.admission.AdmissionCriterion`
    in that regime (the criterion is parameterized by ``alpha`` directly).
    """
    return q_function(
        adjusted_ce_alpha(
            p_q,
            memory=memory,
            correlation_time=correlation_time,
            holding_time_scaled=holding_time_scaled,
            snr=snr,
            formula=formula,
        )
    )
