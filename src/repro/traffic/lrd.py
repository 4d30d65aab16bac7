"""Synthetic long-range-dependent video traffic ("Starwars-like").

Substitute for the MPEG-1 Starwars trace of Figures 11-12 (see DESIGN.md
section 5): an exact fractional-Gaussian-noise series (Davies-Harte) is
mapped through a marginal transform to a non-negative VBR rate trace with a
configurable Hurst exponent, mean and coefficient of variation, then
(optionally) smoothed into the piecewise-CBR form the paper feeds to the
bufferless link.

Two marginal transforms are provided:

* ``"clipped-gaussian"`` (default): ``rate = max(mean*(1 + cv*g), floor)``.
  Preserves the fGn autocorrelation essentially exactly at moderate CV
  (clipping at CV 0.3 touches ~4e-4 of samples).
* ``"lognormal"``: ``rate = exp(m + s*g)``; heavier-tailed, closer to real
  frame-size marginals, at the cost of mildly distorting the correlation
  (a monotone transform preserves LRD and the Hurst exponent).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError
from repro.traffic.trace import Trace, TraceSource, rcbr_smooth

__all__ = ["synthetic_video_trace", "starwars_like_source"]

#: Hurst exponent reported for the Starwars trace by Garrett & Willinger /
#: Beran et al. (the references the paper cites for its LRD claim).
DEFAULT_HURST = 0.85


def synthetic_video_trace(
    *,
    n_segments: int,
    segment_time: float,
    mean: float = 1.0,
    cv: float = 0.3,
    hurst: float = DEFAULT_HURST,
    marginal: str = "clipped-gaussian",
    rng: np.random.Generator | None = None,
) -> Trace:
    """Generate an LRD VBR rate trace.

    Parameters
    ----------
    n_segments : int
        Number of constant-rate segments (>= 64 for a meaningful LRD
        structure).
    segment_time : float
        Duration of each segment.
    mean, cv : float
        Target mean rate and coefficient of variation.
    hurst : float
        Hurst exponent in (0.5, 1) for long-range dependence.
    marginal : {"clipped-gaussian", "lognormal"}
        Marginal transform (see module docstring).
    rng : numpy.random.Generator, optional
        Randomness source (seeded default if omitted).
    """
    if n_segments < 64:
        raise ParameterError("n_segments must be at least 64")
    if not 0.5 <= hurst < 1.0:
        raise ParameterError("hurst must lie in [0.5, 1) for video-like LRD")
    if mean <= 0.0 or cv <= 0.0:
        raise ParameterError("mean and cv must be positive")
    # Imported here: the process samplers are not on any decision path,
    # and ``repro.traffic`` is imported by every shard process.
    from repro.processes.fgn import fgn

    rng = rng if rng is not None else np.random.default_rng(0)
    g = fgn(n_segments, hurst, rng)
    if marginal == "clipped-gaussian":
        floor = 1e-3 * mean
        rates = np.maximum(mean * (1.0 + cv * g), floor)
    elif marginal == "lognormal":
        s = np.sqrt(np.log(1.0 + cv * cv))
        m = np.log(mean) - 0.5 * s * s
        rates = np.exp(m + s * g)
    else:
        raise ParameterError(f"unknown marginal transform {marginal!r}")
    return Trace(rates=rates, segment_time=float(segment_time))


def starwars_like_source(
    *,
    n_segments: int = 1 << 15,
    segment_time: float = 0.04,
    renegotiation_period: float | None = 1.0,
    mean: float = 1.0,
    cv: float = 0.3,
    hurst: float = DEFAULT_HURST,
    marginal: str = "clipped-gaussian",
    rng: np.random.Generator | None = None,
) -> TraceSource:
    """A ready-to-simulate LRD video source in the paper's Fig 11/12 style.

    Defaults mirror the experimental setup: 40 ms frames smoothed into
    1-time-unit piecewise-CBR segments, mean rate 1 and CV 0.3 so the
    results are directly comparable to the RCBR experiments.

    Set ``renegotiation_period=None`` to play the raw frame-level trace.
    """
    trace = synthetic_video_trace(
        n_segments=n_segments,
        segment_time=segment_time,
        mean=mean,
        cv=cv,
        hurst=hurst,
        marginal=marginal,
        rng=rng,
    )
    if renegotiation_period is not None:
        trace = rcbr_smooth(trace, renegotiation_period)
    return TraceSource(trace)
