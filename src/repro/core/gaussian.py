"""Gaussian tail toolkit.

The paper's admission criterion, all of its theory formulas, and its
simulation fall-back estimator are phrased in terms of the standard normal
density ``phi``, the complementary cdf ``Q`` (eqns (1)-(2) of the paper) and
the inverse tail ``Q^{-1}``.  This module is the single source of truth for
those functions so every other module agrees on conventions.

Everything accepts scalars or numpy arrays and returns matching shapes.
A Python scalar goes through pure-Python ports of the Cephes ``erfc`` and
``ndtri`` that ``scipy.special`` wraps, so a served gateway's design step
never loads scipy (``tests/test_import_graph.py``); an array goes through
``scipy.special``, imported inside the function.  Both paths give the
same bits (``tests/core/test_gaussian.py``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ParameterError

__all__ = [
    "phi",
    "q_function",
    "q_inverse",
    "q_ratio_approx",
    "log_q_function",
]

_SQRT2 = math.sqrt(2.0)
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

    ``Q(x) = P(N(0,1) > x)``.  Implemented via Cephes ``erfc`` (the
    routine behind :func:`scipy.special.erfc`), which stays accurate far
    into the tail (``Q(37) ~ 5.7e-300``; zero past ``x ~ 37.7``).
    """
    if isinstance(x, (int, float)):
        return 0.5 * _erfc(float(x) / _SQRT2)
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
    if isinstance(p, (int, float)):
        if p <= 0.0 or p >= 1.0:
            raise ParameterError(f"q_inverse requires 0 < p < 1, got {p!r}")
        # scipy's erfcinv(y) is -ndtri(0.5 * y) * sqrt(1/2) on (0, 2),
        # and 0.5 * (2.0 * p) == p exactly.
        return _SQRT2 * (-_ndtri(float(p)) * _SQRT1_2)
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


# --- Cephes ``erf``/``erfc`` (ndtr.c) and ``ndtri`` (ndtri.c), scalar ---
# Transcribed operation for operation, so each result is bit-identical to
# the scipy.special ufunc built from the same source.

_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX)
_SQRT1_2 = 7.07106781186547524401e-1
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXPM2 = 0.13533528323661269189  # exp(-2)

# erfc, 1 <= |x| < 8
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1,
    7.46321056442269912687e0, 4.86371970985681366614e1,
    1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_ERFC_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1,
    3.54937778887819891062e2, 9.75708501743205489753e2,
    1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
# erfc, |x| >= 8
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0,
    5.01905042251180477414e0, 6.16021097993053585195e0,
    7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    2.26052863220117276590e0, 9.39603524938001434673e0,
    1.20489539808096656605e1, 1.70814450747565897222e1,
    9.60896809063285878198e0, 3.36907645100081516050e0,
)
# erf, |x| <= 1
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1,
    2.23200534594684319226e3, 7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_ERF_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2,
    4.59432382970980127987e3, 2.26290000613890934246e4,
    4.92673942608635921086e4,
)
# ndtri, |y - 0.5| <= 3/8
_NDTRI_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1,
    -5.66762857469070293439e1, 1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_NDTRI_Q0 = (
    1.95448858338141759834e0, 4.67627912898881538453e0,
    8.63602421390890590575e1, -2.25462687854119370527e2,
    2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
# ndtri, sqrt(-2 log y) in [2, 8)
_NDTRI_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1,
    5.71628192246421288162e1, 4.40805073893200834700e1,
    1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_NDTRI_Q1 = (
    1.57799883256466749731e1, 4.53907635128879210584e1,
    4.13172038254672030440e1, 1.50425385692907503408e1,
    2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
# ndtri, sqrt(-2 log y) >= 8
_NDTRI_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0,
    3.93881025292474443415e0, 1.33303460815807542389e0,
    2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_NDTRI_Q2 = (
    6.02427039364742014255e0, 3.67983563856160859403e0,
    1.37702099489081330271e0, 2.16236993594496635890e-1,
    1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)


def _polevl(x: float, coef: tuple) -> float:
    """Horner evaluation, leading coefficient first (Cephes ``polevl``)."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: tuple) -> float:
    """As :func:`_polevl` with an implicit leading 1 (Cephes ``p1evl``)."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x: float) -> float:
    """Cephes ``erf`` on |x| < 1, the only range :func:`_erfc` asks of it."""
    if x < 0.0:
        return -_erf(-x)
    z = x * x
    return x * _polevl(z, _ERF_T) / _p1evl(z, _ERF_U)


def _erfc(a: float) -> float:
    """Cephes ``erfc``; a NaN falls through every test and comes out NaN."""
    x = -a if a < 0.0 else a
    if x < 1.0:
        return 1.0 - _erf(a)
    z = -a * a
    if z < -_MAXLOG:  # exp(z) underflows
        return 2.0 if a < 0 else 0.0
    z = math.exp(z)
    if x < 8.0:
        p = _polevl(x, _ERFC_P)
        q = _p1evl(x, _ERFC_Q)
    else:
        p = _polevl(x, _ERFC_R)
        q = _p1evl(x, _ERFC_S)
    # z >= exp(-MAXLOG) keeps y > 0, so Cephes's y == 0 exit never runs.
    y = (z * p) / q
    return 2.0 - y if a < 0 else y


def _ndtri(y0: float) -> float:
    """Cephes ``ndtri``, the inverse standard normal cdf, on 0 < y0 < 1."""
    negate = True
    y = y0
    if y > 1.0 - _EXPM2:
        y = 1.0 - y
        negate = False
    if y > _EXPM2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _NDTRI_P0) / _p1evl(y2, _NDTRI_Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:  # y > exp(-32)
        x1 = z * _polevl(z, _NDTRI_P1) / _p1evl(z, _NDTRI_Q1)
    else:
        x1 = z * _polevl(z, _NDTRI_P2) / _p1evl(z, _NDTRI_Q2)
    x = x0 - x1
    return -x if negate else x
