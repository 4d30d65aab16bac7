"""Tests for the Gaussian tail toolkit."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import special

from repro.core import gaussian
from repro.core.gaussian import (
    log_q_function,
    phi,
    q_function,
    q_inverse,
    q_ratio_approx,
)
from repro.errors import ParameterError


def _around(*points):
    """Each point and its two floating-point neighbours."""
    return [
        x
        for point in points
        for x in (
            math.nextafter(point, -math.inf), point, math.nextafter(point, math.inf)
        )
    ]


#: Cephes ``erfc``'s branch edges: ``erf`` below |z| = 1, the P/Q
#: rational form below 8, R/S above, and underflow past sqrt(MAXLOG).
ERFC_EDGES = _around(1.0, 8.0, math.sqrt(gaussian._MAXLOG))
#: Cephes ``ndtri``'s branch edges: the central form between exp(-2) and
#: 1 - exp(-2), the P1/Q1 tail down to exp(-32), P2/Q2 below.
NDTRI_EDGES = _around(
    gaussian._EXPM2, 1.0 - gaussian._EXPM2, math.exp(-2.0), 1.0 - math.exp(-2.0),
    math.exp(-32.0), 0.5, 1e-300,
)


class TestPhi:
    def test_peak_value(self):
        assert phi(0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi))

    def test_symmetry(self):
        assert phi(1.7) == pytest.approx(phi(-1.7))

    def test_integrates_to_one(self):
        x = np.linspace(-10, 10, 20001)
        assert np.trapezoid(phi(x), x) == pytest.approx(1.0, abs=1e-9)

    def test_array_shape(self):
        out = phi(np.zeros((3, 4)))
        assert out.shape == (3, 4)

    def test_scalar_returns_float(self):
        assert isinstance(phi(0.5), float)


class TestQFunction:
    def test_at_zero(self):
        assert q_function(0.0) == pytest.approx(0.5)

    def test_known_value(self):
        # Q(1.96) ~ 0.025 (the classical two-sided 95% point)
        assert q_function(1.959963984540054) == pytest.approx(0.025, rel=1e-9)

    def test_complement(self):
        x = 0.83
        assert q_function(x) + q_function(-x) == pytest.approx(1.0)

    def test_monotone_decreasing(self):
        xs = np.linspace(-5, 5, 101)
        qs = q_function(xs)
        assert np.all(np.diff(qs) < 0)

    def test_deep_tail_accuracy(self):
        # Q(10) = 7.619...e-24 (reference value from high-precision tables)
        assert q_function(10.0) == pytest.approx(7.61985e-24, rel=1e-4)

    def test_array(self):
        out = q_function([0.0, 1.0])
        assert out.shape == (2,)


class TestLogQ:
    def test_matches_direct_in_bulk(self):
        for x in [0.0, 1.0, 3.0, 8.0]:
            assert log_q_function(x) == pytest.approx(math.log(q_function(x)), rel=1e-10)

    def test_finite_in_deep_tail(self):
        # Direct Q(40) underflows double precision entirely.
        val = log_q_function(40.0)
        assert math.isfinite(val)
        # log Q(x) ~ -x^2/2 - log(x sqrt(2pi))
        expected = -0.5 * 40.0**2 - math.log(40.0 * math.sqrt(2 * math.pi))
        assert val == pytest.approx(expected, rel=1e-3)


class TestQInverse:
    @pytest.mark.parametrize("p", [0.4, 0.1, 1e-3, 1e-9, 0.9])
    def test_roundtrip(self, p):
        assert q_function(q_inverse(p)) == pytest.approx(p, rel=1e-10)

    def test_half_maps_to_zero(self):
        assert q_inverse(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_boundaries(self):
        with pytest.raises(ParameterError):
            q_inverse(0.0)
        with pytest.raises(ParameterError):
            q_inverse(1.0)
        with pytest.raises(ParameterError):
            q_inverse(-0.1)

    def test_array_roundtrip(self):
        ps = np.array([0.3, 0.01, 1e-5])
        np.testing.assert_allclose(q_function(q_inverse(ps)), ps, rtol=1e-10)

    def test_alpha_for_paper_target(self):
        # alpha_q for p_q = 1e-3 is ~3.09 (used throughout the paper).
        assert q_inverse(1e-3) == pytest.approx(3.0902, abs=1e-3)


class TestQRatioApprox:
    def test_close_to_q_in_tail(self):
        # phi(x)/x over Q(x) -> 1 as x grows.
        for x, tol in [(3.0, 0.15), (6.0, 0.05), (10.0, 0.02)]:
            assert q_ratio_approx(x) / q_function(x) == pytest.approx(1.0, abs=tol)

    def test_is_upper_bound(self):
        xs = np.linspace(0.5, 10.0, 50)
        assert np.all(q_ratio_approx(xs) >= q_function(xs))

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            q_ratio_approx(0.0)


class TestScalarPathIsScipyBitForBit:
    """A Python scalar takes the pure-Python Cephes port, an array takes
    ``scipy.special``: the two must agree to the last bit."""

    def test_dense_grids(self):
        """Every branch, densely: a coefficient one ulp off flips a few
        hundred of these roundings."""
        xs = np.linspace(-40.0, 40.0, 80001)
        assert [repr(q_function(x)) for x in xs.tolist()] == [
            repr(q) for q in q_function(xs).tolist()
        ]
        ps = np.concatenate(
            [np.linspace(0.0, 1.0, 40001)[1:-1], np.logspace(-320.0, -1.0, 20001)]
        )
        assert [repr(q_inverse(p)) for p in ps.tolist()] == [
            repr(alpha) for alpha in q_inverse(ps).tolist()
        ]

    @given(x=st.floats() | st.floats(-60.0, 60.0) | st.sampled_from(ERFC_EDGES))
    @example(x=-0.0)
    def test_q_function(self, x):
        for z in (x, x * math.sqrt(2.0)):
            assert repr(q_function(z)) == repr(float(q_function(np.array([z]))[0]))

    @given(
        z=st.floats()
        | st.floats(-30.0, 30.0)
        | st.sampled_from(ERFC_EDGES + [-e for e in ERFC_EDGES])
    )
    def test_erfc(self, z):
        assert repr(gaussian._erfc(z)) == repr(float(special.erfc(z)))

    @given(
        p=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
        | st.floats(1e-320, 1e-5)
        | st.sampled_from(NDTRI_EDGES)
    )
    @example(p=0.5)
    @example(p=1e-300)
    @example(p=math.exp(-2.0))
    @example(p=1.0 - math.exp(-2.0))
    def test_q_inverse(self, p):
        assert repr(q_inverse(p)) == repr(float(q_inverse(np.array([p]))[0]))
        assert repr(gaussian._ndtri(p)) == repr(float(special.ndtri(p)))

    def test_half_keeps_scipys_signed_zero(self):
        assert repr(q_inverse(0.5)) == repr(float(q_inverse(np.array([0.5]))[0]))

    def test_scalars_return_floats(self):
        assert type(q_function(1)) is float
        assert type(q_function(np.float64(1.0))) is float
        assert type(q_inverse(np.float64(0.25))) is float

    def test_scalar_path_rejects_what_the_array_path_rejects(self):
        for p in (0.0, 1.0, -0.1, 1.5, 0, 1):
            with pytest.raises(ParameterError):
                q_inverse(p)
