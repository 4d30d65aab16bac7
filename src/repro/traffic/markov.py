"""K-state Markov-modulated fluid sources.

Appendix B of the paper notes that its functional-CLT condition B.6 holds
when each flow is a K-state continuous-time Markov fluid; this module
provides that class of sources for the event-driven engine, with exact
stationary moments and an exact (matrix-exponential) autocorrelation so the
theory formulas can be fed the true time-scales of a non-RCBR workload.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ParameterError
from repro.traffic.base import FlowProcess, TrafficSource

__all__ = ["MarkovFluidSource", "MarkovFluidFlow"]


class MarkovFluidFlow(FlowProcess):
    """One Markov-fluid flow: jumps between states per the CTMC."""

    __slots__ = ("rate", "_state", "_source")

    def __init__(self, source: "MarkovFluidSource", rng: np.random.Generator):
        self._source = source
        self._state = int(rng.choice(source.n_states, p=source.stationary))
        self.rate = source.rates[self._state]

    @property
    def state(self) -> int:
        """Current CTMC state index."""
        return self._state

    def time_to_next_change(self, rng: np.random.Generator) -> float:
        hold = self._source.hold_rates[self._state]
        if hold <= 0.0:  # absorbing state: never changes again
            return math.inf
        return rng.exponential(1.0 / hold)

    def apply_change(self, rng: np.random.Generator) -> None:
        probs = self._source.jump_probs[self._state]
        self._state = int(rng.choice(self._source.n_states, p=probs))
        self.rate = self._source.rates[self._state]


class MarkovFluidSource(TrafficSource):
    """Fluid source driven by a continuous-time Markov chain.

    Parameters
    ----------
    generator : array_like, shape (K, K)
        CTMC generator matrix ``Q`` (rows sum to 0, off-diagonals >= 0).
    rates : array_like, shape (K,)
        Bandwidth emitted in each state (non-negative).

    Notes
    -----
    The stationary distribution ``pi`` solves ``pi Q = 0``; the stationary
    autocovariance is ``C(t) = pi . (r * (e^{Qt} r)) - mu^2`` and the
    source's nominal ``correlation_time`` is the integral time-scale
    ``int_0^inf rho(t) dt`` evaluated from the spectral decomposition.
    """

    def __init__(self, generator, rates) -> None:
        q = np.asarray(generator, dtype=float)
        r = np.asarray(rates, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ParameterError("generator must be square")
        k = q.shape[0]
        if r.shape != (k,):
            raise ParameterError("rates must have one entry per state")
        if np.any(r < 0.0):
            raise ParameterError("rates must be non-negative")
        off_diag = q - np.diag(np.diag(q))
        if np.any(off_diag < -1e-12):
            raise ParameterError("off-diagonal generator entries must be >= 0")
        if np.max(np.abs(q.sum(axis=1))) > 1e-9:
            raise ParameterError("generator rows must sum to zero")
        self.generator = q
        self.rates = r
        self.n_states = k
        self.stationary = self._stationary_distribution(q)
        self.hold_rates = -np.diag(q)
        self.jump_probs = np.zeros_like(q)
        for i in range(k):
            if self.hold_rates[i] > 0.0:
                self.jump_probs[i] = np.clip(off_diag[i], 0.0, None) / self.hold_rates[i]
                self.jump_probs[i, i] = 0.0
                self.jump_probs[i] /= self.jump_probs[i].sum()
        self._mean = float(self.stationary @ r)
        second = float(self.stationary @ (r * r))
        self._var = max(0.0, second - self._mean**2)
        if self._mean <= 0.0:
            raise ParameterError("stationary mean rate must be positive")

    @staticmethod
    def _stationary_distribution(q: np.ndarray) -> np.ndarray:
        k = q.shape[0]
        # Solve pi Q = 0, sum(pi) = 1 as an augmented least-squares system.
        a = np.vstack([q.T, np.ones((1, k))])
        b = np.zeros(k + 1)
        b[-1] = 1.0
        pi, *_ = np.linalg.lstsq(a, b, rcond=None)
        pi = np.clip(pi, 0.0, None)
        total = pi.sum()
        if total <= 0.0:
            raise ParameterError("generator has no valid stationary distribution")
        return pi / total

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def std(self) -> float:
        return math.sqrt(self._var)

    @property
    def peak_rate(self) -> float:
        return float(self.rates.max())

    @property
    def correlation_time(self) -> float | None:
        """Integral time-scale ``int_0^inf rho(t) dt`` (None for CBR)."""
        if self._var == 0.0:
            return None
        # int_0^inf (pi.(r * e^{Qt} r) - mu^2) dt: integrate the centered
        # semigroup.  Using the deviation matrix via linear solve on the
        # centered rates: int e^{Qt} r_c dt solves Q x = -r_c + pi-projection.
        r_c = self.rates - self._mean
        # Solve Q x = -r_c subject to pi.x = 0 (Q is singular).
        k = self.n_states
        a = np.vstack([self.generator, self.stationary[None, :]])
        b = np.concatenate([-r_c, [0.0]])
        x, *_ = np.linalg.lstsq(a, b, rcond=None)
        integral = float(self.stationary @ (r_c * x))
        return max(integral, 0.0) / self._var

    def autocorrelation(self, t):
        """Exact stationary autocorrelation via the matrix exponential."""
        from scipy import linalg

        if self._var == 0.0:
            raise ParameterError("constant-rate source has no autocorrelation")
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.empty_like(t_arr)
        for i, ti in enumerate(t_arr):
            p_t = linalg.expm(self.generator * abs(ti))
            second = float(self.stationary @ (self.rates * (p_t @ self.rates)))
            out[i] = (second - self._mean**2) / self._var
        return out if np.ndim(t) else float(out[0])

    def new_flow(self, rng: np.random.Generator) -> MarkovFluidFlow:
        return MarkovFluidFlow(self, rng)

    @classmethod
    def two_state(
        cls, *, rate_low: float, rate_high: float, up_rate: float, down_rate: float
    ) -> "MarkovFluidSource":
        """Two-state fluid: low->high at ``up_rate``, high->low at ``down_rate``.

        The autocorrelation is exactly ``exp(-(up_rate+down_rate) t)``.
        """
        if up_rate <= 0.0 or down_rate <= 0.0:
            raise ParameterError("transition rates must be positive")
        generator = np.array(
            [[-up_rate, up_rate], [down_rate, -down_rate]], dtype=float
        )
        return cls(generator, [rate_low, rate_high])

    @classmethod
    def birth_death(
        cls,
        *,
        n_sources: int,
        peak: float,
        up_rate: float,
        down_rate: float,
    ) -> "MarkovFluidSource":
        """Superposition of ``n_sources`` i.i.d. on-off mini-sources.

        The classical Anick-Mitra-Sondhi style model: state ``k`` means
        ``k`` mini-sources are on, emitting ``k * peak / n_sources`` in
        total (so the flow's peak rate is ``peak`` regardless of
        ``n_sources``).  Transitions are birth-death:
        ``k -> k+1`` at rate ``(n-k)*up_rate``, ``k -> k-1`` at
        ``k*down_rate``.  The stationary state count is
        ``Binomial(n, up/(up+down))``; larger ``n_sources`` gives a
        smoother (more Gaussian) per-flow rate distribution at the same
        mean and time-scales.
        """
        if n_sources < 1:
            raise ParameterError("n_sources must be at least 1")
        if peak <= 0.0 or up_rate <= 0.0 or down_rate <= 0.0:
            raise ParameterError("peak and transition rates must be positive")
        k = n_sources
        generator = np.zeros((k + 1, k + 1))
        for state in range(k + 1):
            if state < k:
                generator[state, state + 1] = (k - state) * up_rate
            if state > 0:
                generator[state, state - 1] = state * down_rate
            generator[state, state] = -generator[state].sum()
        rates = np.arange(k + 1) * (peak / k)
        return cls(generator, rates)
