"""Admission controllers.

A controller maps the current measurement state to a *target flow count*
``M_t`` -- the number of flows the controller believes the link can carry at
the target QoS (the paper's "estimated admissible number of flows",
eqn (22)).  Under the continuous (infinite) load model the engine then keeps
``N_t = min(N_t, floor(M_t))`` from below: whenever ``N_t < floor(M_t)`` new
flows are admitted immediately, and excess flows are never evicted -- they
leave only by natural departure.

Three controllers realize the paper's schemes:

* :class:`PerfectKnowledgeController` -- eqn (4), the benchmark with known
  ``(mu, sigma)``; admits the deterministic count ``m*``.
* :class:`CertaintyEquivalentController` -- eqns (6)/(22): plug the
  *estimates* into the same criterion.  Composed with a
  :class:`~repro.core.estimators.MemorylessEstimator` this is the paper's
  memoryless MBAC; with an
  :class:`~repro.core.estimators.ExponentialMemoryEstimator` it is the
  MBAC-with-memory of Section 4.3.
* the *adjusted-target* scheme -- the same controller run with the
  conservative ``p_ce`` obtained by inverting the theory
  (:func:`repro.theory.inversion.adjusted_ce_target`); built via
  :func:`CertaintyEquivalentController.with_adjusted_target`.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

from repro.core.admission import AdmissionCriterion
from repro.core.estimators import BandwidthEstimate
from repro.errors import ParameterError

__all__ = [
    "AdmissionController",
    "PerfectKnowledgeController",
    "CertaintyEquivalentController",
]


class AdmissionController(ABC):
    """Maps measurement state to a target number of flows."""

    #: Human-readable scheme name (used in experiment reports).
    name: str = "controller"

    @abstractmethod
    def target_count(self, estimate: BandwidthEstimate, n_current: int) -> float:
        """Real-valued target flow count ``M_t``.

        Parameters
        ----------
        estimate : BandwidthEstimate
            The current output of the measurement process.
        n_current : int
            Number of flows currently in the system (some controllers --
            e.g. measured-sum -- are occupancy-dependent).
        """

    def admission_slack(self, estimate: BandwidthEstimate, n_current: int) -> int:
        """Number of flows to admit right now (never negative)."""
        target = self.target_count(estimate, n_current)
        return max(0, int(math.floor(target)) - n_current)


class PerfectKnowledgeController(AdmissionController):
    """The paper's perfect-knowledge admission controller (eqn (4)).

    Admits the fixed count ``m* = m(mu, sigma; c, alpha_q)`` regardless of
    measurements.  Its steady-state overflow probability equals the target
    ``p_q`` exactly (in the Gaussian heavy-traffic approximation).
    """

    name = "perfect"

    def __init__(self, mu: float, sigma: float, capacity: float, p_target: float) -> None:
        if mu <= 0.0 or sigma < 0.0:
            raise ParameterError("invalid true parameters")
        self.criterion = AdmissionCriterion.from_target(capacity, p_target)
        self.mu = float(mu)
        self.sigma = float(sigma)
        self._m_star = self.criterion.admissible_count(self.mu, self.sigma)

    @property
    def m_star(self) -> float:
        """The deterministic admissible count ``m*``."""
        return self._m_star

    def target_count(self, estimate: BandwidthEstimate, n_current: int) -> float:
        return self._m_star


class CertaintyEquivalentController(AdmissionController):
    """Certainty-equivalent Gaussian MBAC (eqns (6)/(22)).

    The measured ``(mu_hat, sigma_hat)`` are treated as if they were the true
    parameters; the memory behaviour is entirely determined by whichever
    estimator feeds it.

    Parameters
    ----------
    capacity : float
        Link capacity ``c``.
    p_target : float, optional
        The certainty-equivalent target ``p_ce`` (equal to the QoS target
        ``p_q`` for the plain scheme, or smaller for the robust adjusted
        scheme).  Exactly one of ``p_target`` and ``alpha`` must be given.
    alpha : float, optional
        ``Q^{-1}(p_target)`` directly -- needed when the adjusted target is
        so conservative that ``p_ce`` underflows double precision.
    min_sigma : float, optional
        Floor on the standard-deviation estimate, guarding against the
        degenerate ``sigma_hat = 0`` that occurs when all sampled rates
        coincide.  Defaults to 0 (no floor).
    """

    name = "certainty-equivalent"

    def __init__(
        self,
        capacity: float,
        p_target: float | None = None,
        *,
        alpha: float | None = None,
        min_sigma: float = 0.0,
    ) -> None:
        if (p_target is None) == (alpha is None):
            raise ParameterError("provide exactly one of p_target or alpha")
        if min_sigma < 0.0:
            raise ParameterError("min_sigma must be non-negative")
        if alpha is None:
            self.criterion = AdmissionCriterion.from_target(capacity, p_target)
        else:
            self.criterion = AdmissionCriterion(capacity=float(capacity), alpha=float(alpha))
        self.min_sigma = float(min_sigma)

    @property
    def p_ce(self) -> float:
        """The certainty-equivalent target overflow probability in use."""
        return self.criterion.p_target

    def target_count(self, estimate: BandwidthEstimate, n_current: int) -> float:
        mu = estimate.mu
        if mu <= 0.0:
            # A non-positive mean estimate can only arise transiently (e.g.
            # truncated marginals with one flow); be maximally conservative.
            return float(n_current)
        sigma = max(estimate.sigma, self.min_sigma)
        return self.criterion.admissible_count(mu, sigma)

    @classmethod
    def with_adjusted_target(
        cls,
        capacity: float,
        p_q: float,
        *,
        memory: float,
        correlation_time: float,
        holding_time_scaled: float,
        snr: float,
        formula: str = "general",
        min_sigma: float = 0.0,
    ) -> "CertaintyEquivalentController":
        """Build the robust scheme: invert the theory for ``p_ce``.

        Arguments mirror :func:`repro.theory.inversion.adjusted_ce_alpha`;
        ``snr`` is the per-flow coefficient of variation ``sigma/mu``.  The
        controller is built directly from ``alpha_ce`` so that targets far
        below double-precision underflow (the paper reports ``p_ce`` below
        1e-10, and smaller values arise for tiny ``T_m``) remain exact.
        """
        from repro.theory.inversion import adjusted_ce_alpha

        alpha_ce = adjusted_ce_alpha(
            p_q,
            memory=memory,
            correlation_time=correlation_time,
            holding_time_scaled=holding_time_scaled,
            snr=snr,
            formula=formula,
        )
        controller = cls(capacity, alpha=alpha_ce, min_sigma=min_sigma)
        controller.name = "adjusted-target"
        return controller
