"""Gaussian tail toolkit.

The paper's admission criterion, all of its theory formulas, and its
simulation fall-back estimator are phrased in terms of the standard normal
density ``phi``, the complementary cdf ``Q`` (eqns (1)-(2) of the paper) and
the inverse tail ``Q^{-1}``.  This module is the single source of truth for
those functions so every other module agrees on conventions.

Everything accepts scalars or numpy arrays and returns matching shapes.
``scipy.special`` is imported inside the functions that use it: a cluster
shard imports this module but only evaluates eqn (42), so it never loads
scipy (``tests/test_import_graph.py``).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError

__all__ = [
    "phi",
    "q_function",
    "q_inverse",
    "q_ratio_approx",
    "log_q_function",
]

_SQRT2 = np.sqrt(2.0)
_SQRT_2PI = np.sqrt(2.0 * np.pi)


def phi(x):
    """Standard normal probability density, eqn (1) of the paper.

    Parameters
    ----------
    x : float or array_like
        Evaluation point(s).

    Returns
    -------
    float or numpy.ndarray
        ``exp(-x^2/2) / sqrt(2*pi)``.
    """
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x) / _SQRT_2PI
    return out if out.ndim else float(out)


def q_function(x):
    """Complementary cdf of the standard normal, eqn (2) of the paper.

    ``Q(x) = P(N(0,1) > x)``.  Implemented via :func:`scipy.special.erfc`
    which stays accurate far into the tail (``Q(40) ~ 1e-350``).
    """
    from scipy import special

    x = np.asarray(x, dtype=float)
    out = 0.5 * special.erfc(x / _SQRT2)
    return out if out.ndim else float(out)


def log_q_function(x):
    """Natural logarithm of :func:`q_function`, accurate in the deep tail.

    For ``x > 8`` the direct value underflows to subnormals long before the
    logarithm stops being meaningful, so we switch to ``log(erfcx)`` which
    factors out the ``exp(-x^2/2)`` decay analytically.
    """
    from scipy import special

    x = np.asarray(x, dtype=float)
    # erfc(z) = erfcx(z) * exp(-z^2) with z = x / sqrt(2)
    z = x / _SQRT2
    out = np.log(0.5) + np.log(special.erfcx(z)) - z * z
    return out if out.ndim else float(out)


def q_inverse(p):
    """Inverse of :func:`q_function` on (0, 1).

    ``alpha = Q^{-1}(p)`` is the paper's ``alpha_q`` when ``p`` is the target
    overflow probability ``p_q``.

    Raises
    ------
    ParameterError
        If any ``p`` lies outside the open interval (0, 1).
    """
    from scipy import special

    arr = np.asarray(p, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ParameterError(f"q_inverse requires 0 < p < 1, got {p!r}")
    out = _SQRT2 * special.erfcinv(2.0 * arr)
    return out if out.ndim else float(out)


def q_ratio_approx(x):
    """The classical tail approximation ``Q(x) ~ phi(x)/x``.

    The paper uses this repeatedly (e.g. to pass between eqns (33) and (34)).
    Exposed so tests and theory modules can reproduce the paper's algebra
    exactly rather than mixing approximations.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ParameterError("q_ratio_approx is only meaningful for x > 0")
    out = np.exp(-0.5 * x * x) / (_SQRT_2PI * x)
    return out if out.ndim else float(out)
