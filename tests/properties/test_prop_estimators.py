"""Property-based tests for the estimators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimators import (
    ExponentialMemoryEstimator,
    MemorylessEstimator,
    SlidingWindowEstimator,
    cross_section,
)

rate_lists = st.lists(
    st.floats(min_value=0.0, max_value=100.0), min_size=2, max_size=40
)
segments = st.lists(
    st.tuples(
        st.floats(min_value=0.01, max_value=5.0),  # duration
        st.floats(min_value=0.1, max_value=10.0),  # mean level
    ),
    min_size=1,
    max_size=20,
)


class TestCrossSectionProperties:
    @given(rates=rate_lists)
    def test_moment_consistency(self, rates):
        cs = cross_section(rates)
        arr = np.asarray(rates)
        assert cs.mean == pytest.approx(arr.mean(), rel=1e-9, abs=1e-12)
        assert cs.variance >= 0.0
        assert cs.second_moment >= cs.mean**2 - 1e-9

    @given(
        rates=st.lists(
            st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=400
        )
    )
    def test_moments_are_bit_identical_to_ndarray_mean(self, rates):
        """The bare ufunc reductions reproduce ``ndarray.mean`` exactly
        (same pairwise sums), which the decision digests depend on."""
        cs = cross_section(rates)
        arr = np.asarray(rates, dtype=float)
        assert cs.mean == float(arr.mean())
        assert cs.second_moment == float(np.mean(arr * arr))

    @given(rates=rate_lists, shift=st.floats(min_value=0.0, max_value=50.0))
    def test_variance_shift_invariant(self, rates, shift):
        base = cross_section(rates).variance
        shifted = cross_section([r + shift for r in rates]).variance
        assert shifted == pytest.approx(base, rel=1e-6, abs=1e-7)


class TestExponentialFilterProperties:
    @given(segs=segments, memory=st.floats(min_value=0.05, max_value=50.0))
    @settings(max_examples=100)
    def test_output_within_signal_hull(self, segs, memory):
        """The filtered mean always lies in [min, max] of the levels seen."""
        est = ExponentialMemoryEstimator(memory)
        t = 0.0
        levels = []
        for duration, level in segs:
            est.advance(t)
            est.observe(cross_section([level, level]))
            levels.append(level)
            t += duration
        est.advance(t)
        mu = est.estimate().mu
        assert min(levels) - 1e-9 <= mu <= max(levels) + 1e-9

    @given(segs=segments, memory=st.floats(min_value=0.05, max_value=50.0))
    @settings(max_examples=100)
    def test_linearity_in_signal(self, segs, memory):
        """Filtering k*signal gives k*filtered-signal (mean component)."""

        def run(scale: float) -> float:
            est = ExponentialMemoryEstimator(memory)
            t = 0.0
            for duration, level in segs:
                est.advance(t)
                est.observe(cross_section([level * scale] * 3))
                t += duration
            est.advance(t)
            return est.estimate().mu

        assert run(2.0) == pytest.approx(2.0 * run(1.0), rel=1e-9, abs=1e-9)

    @given(
        level_a=st.floats(min_value=0.1, max_value=10.0),
        level_b=st.floats(min_value=0.1, max_value=10.0),
        memory=st.floats(min_value=0.1, max_value=20.0),
        dt=st.floats(min_value=0.01, max_value=100.0),
    )
    def test_exact_two_level_relaxation(self, level_a, level_b, memory, dt):
        est = ExponentialMemoryEstimator(memory)
        est.observe(cross_section([level_a] * 2))
        est.advance(0.0)
        est.observe(cross_section([level_b] * 2))
        est.advance(dt)
        decay = math.exp(-dt / memory)
        expected = level_b * (1.0 - decay) + level_a * decay
        assert est.estimate().mu == pytest.approx(expected, rel=1e-9)


class TestSlidingWindowProperties:
    @given(segs=segments, window=st.floats(min_value=0.1, max_value=20.0))
    @settings(max_examples=100)
    def test_output_within_hull(self, segs, window):
        est = SlidingWindowEstimator(window)
        t = 0.0
        levels = []
        for duration, level in segs:
            est.advance(t)
            est.observe(cross_section([level, level]))
            levels.append(level)
            t += duration
        est.advance(t)
        mu = est.estimate().mu
        assert min(levels) - 1e-9 <= mu <= max(levels) + 1e-9

    @given(segs=segments)
    @settings(max_examples=60)
    def test_huge_window_is_global_time_average(self, segs):
        est = SlidingWindowEstimator(window=1e9)
        t = 0.0
        weighted, total = 0.0, 0.0
        for duration, level in segs:
            est.advance(t)
            est.observe(cross_section([level, level]))
            weighted += level * duration
            total += duration
            t += duration
        est.advance(t)
        assert est.estimate().mu == pytest.approx(weighted / total, rel=1e-9)


class TestMemorylessProperties:
    @given(rates=rate_lists)
    def test_is_identity_on_current_section(self, rates):
        est = MemorylessEstimator()
        cs = cross_section(rates)
        est.observe(cs)
        out = est.estimate()
        assert out.mu == cs.mean
        assert out.sigma == pytest.approx(math.sqrt(cs.variance))
