"""The Gaussian certainty-equivalent admission criterion.

This is the heart of the paper's MBAC: given (estimated or known) per-flow
mean ``mu`` and standard deviation ``sigma``, link capacity ``c`` and a
target overflow probability ``p``, the admissible number of flows ``m``
solves

    Q( (c - m*mu) / (sigma*sqrt(m)) ) = p                      (eqns 4/6/22)

whose closed-form solution is eqn (42) of the paper:

    m = [ ( sqrt(sigma^2 alpha^2 + 4 c mu) - sigma*alpha ) / (2 mu) ]^2

with ``alpha = Q^{-1}(p)``.  The same formula serves the perfect-knowledge
controller (with the true parameters) and every measurement-based controller
(with estimates), which is exactly the paper's "certainty equivalence".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.gaussian import q_function, q_inverse
from repro.errors import ParameterError

__all__ = [
    "admissible_flow_count",
    "admissible_flow_count_alpha",
    "overflow_probability_for_count",
    "AdmissionCriterion",
]


def admissible_flow_count_alpha(mu, sigma, capacity, alpha):
    """Closed-form admissible flow count, eqn (42), parameterized by alpha.

    Parameters
    ----------
    mu : float or array_like
        Per-flow mean bandwidth (must be positive).
    sigma : float or array_like
        Per-flow bandwidth standard deviation (non-negative).
    capacity : float or array_like
        Link capacity ``c`` (positive).
    alpha : float or array_like
        ``Q^{-1}`` of the target overflow probability.  ``alpha`` may be
        negative (targets above 1/2), in which case the criterion admits
        *beyond* the capacity-in-means point.

    Returns
    -------
    float or numpy.ndarray
        The (real-valued) number of flows satisfying the criterion with
        equality.  Callers that need an integer take ``floor``.
    """
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    capacity = np.asarray(capacity, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    if np.any(mu <= 0.0):
        raise ParameterError("mu must be positive")
    if np.any(sigma < 0.0):
        raise ParameterError("sigma must be non-negative")
    if np.any(capacity <= 0.0):
        raise ParameterError("capacity must be positive")
    # x = sqrt(m) is the positive root of mu x^2 + s_alpha x - c = 0.
    # The textbook form (root - s_alpha)/(2 mu) cancels catastrophically
    # once s_alpha^2 dominates 4 c mu; the conjugate form
    # 2c / (root + s_alpha) is exact there.  Switch only deep in that
    # regime (both forms agree to ~1e-10 relative at the boundary) so
    # results stay bit-identical to the historical form everywhere
    # else -- committed golden decision digests depend on that.
    s_alpha = sigma * alpha
    four_c_mu = 4.0 * capacity * mu
    root = np.sqrt(s_alpha * s_alpha + four_c_mu)
    cancels = (s_alpha > 0.0) & (four_c_mu < 1e-6 * s_alpha * s_alpha)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.where(
            cancels,
            2.0 * capacity / (root + s_alpha),
            (root - s_alpha) / (2.0 * mu),
        )
    m = x * x
    return m if m.ndim else float(m)


def _admissible_count_scalar(mu, sigma, capacity, alpha):
    """Eqn (42) on Python floats: the one-decision form of the above.

    Same checks, branches and operation order as
    :func:`admissible_flow_count_alpha`, so the result is bit-identical
    (IEEE ``+ - * /`` and ``sqrt`` are correctly rounded in both), but
    without the array dispatch that dominates a single evaluation.
    """
    if mu <= 0.0:
        raise ParameterError("mu must be positive")
    if sigma < 0.0:
        raise ParameterError("sigma must be non-negative")
    if capacity <= 0.0:
        raise ParameterError("capacity must be positive")
    s_alpha = sigma * alpha
    four_c_mu = 4.0 * capacity * mu
    root = math.sqrt(s_alpha * s_alpha + four_c_mu)
    if s_alpha > 0.0 and four_c_mu < 1e-6 * s_alpha * s_alpha:
        x = 2.0 * capacity / (root + s_alpha)
    else:
        x = (root - s_alpha) / (2.0 * mu)
    return x * x


def admissible_flow_count(mu, sigma, capacity, p_target):
    """Admissible flow count for a target overflow probability ``p_target``.

    Thin wrapper over :func:`admissible_flow_count_alpha` using
    ``alpha = Q^{-1}(p_target)``.
    """
    return admissible_flow_count_alpha(mu, sigma, capacity, q_inverse(p_target))


def overflow_probability_for_count(mu, sigma, capacity, m):
    """Gaussian-approximation overflow probability with ``m`` flows admitted.

    This is the function ``p_f(mu, sigma, m) = Q((c - m*mu)/(sigma*sqrt(m)))``
    used in the paper's sensitivity analysis (Section 3.1).  For ``m == 0``
    the overflow probability is 0 by convention (no traffic); for
    ``sigma == 0`` it degenerates to an indicator on ``m*mu > c``.
    """
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    capacity = np.asarray(capacity, dtype=float)
    m = np.asarray(m, dtype=float)
    if np.any(m < 0.0):
        raise ParameterError("m must be non-negative")
    with np.errstate(divide="ignore", invalid="ignore"):
        arg = (capacity - m * mu) / (sigma * np.sqrt(m))
    out = np.where(
        m == 0.0,
        0.0,
        np.where(np.isfinite(arg), q_function(arg), (m * mu > capacity).astype(float)),
    )
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class AdmissionCriterion:
    """A reusable, pre-solved admission criterion for one link and target.

    Freezing ``capacity`` and ``alpha`` lets controllers evaluate the
    criterion on every event with two multiplies and a square root instead
    of re-deriving ``alpha`` from ``p_target`` each time.

    Attributes
    ----------
    capacity : float
        Link capacity ``c``.
    alpha : float
        ``Q^{-1}(p_target)``; the paper's ``alpha_q`` (or ``alpha_ce`` when
        the controller runs with an adjusted conservative target).
    """

    capacity: float
    alpha: float

    def __post_init__(self) -> None:
        if self.capacity <= 0.0:
            raise ParameterError("capacity must be positive")

    @classmethod
    def from_target(cls, capacity: float, p_target: float) -> "AdmissionCriterion":
        """Build a criterion from a target overflow probability."""
        return cls(capacity=float(capacity), alpha=q_inverse(p_target))

    @property
    def p_target(self) -> float:
        """The overflow-probability target this criterion encodes."""
        return q_function(self.alpha)

    def admissible_count(self, mu: float, sigma: float) -> float:
        """Real-valued admissible flow count for estimates ``(mu, sigma)``.

        Scalar fast path: bit-identical to
        :func:`admissible_flow_count_alpha` on the same inputs.
        """
        return _admissible_count_scalar(
            float(mu), float(sigma), float(self.capacity), float(self.alpha)
        )

    def admits(self, mu: float, sigma: float, current_flows: int) -> bool:
        """Whether one more flow may be admitted given current occupancy.

        The test is ``current_flows + 1 <= m(mu, sigma)`` -- i.e. the system
        is always filled to the limit determined by the criterion, matching
        the paper's continuous (infinite) load model.
        """
        return current_flows + 1 <= self.admissible_count(mu, sigma)

    def slack(self, mu: float, sigma: float, current_flows: int) -> float:
        """How many more flows the criterion would admit (may be negative)."""
        return self.admissible_count(mu, sigma) - current_flows
