"""Pure-Python ports of the two scalar solvers the design step uses.

The robust design (Section 5.2) integrates eqn (37) with QUADPACK's
adaptive Gauss-Kronrod routine ``dqagse`` and inverts it with Brent's
root finder.  :func:`quad` and :func:`brentq` reproduce
``scipy.integrate.quad`` (finite limits, no weight, no break points) and
``scipy.optimize.brentq`` bit for bit: same evaluation points, same
floating-point operations in the same order, hence the same value, error
estimate and status.  A served gateway builds its links through them
without importing scipy; ``tests/theory/test_numerics.py`` pins them to
scipy, which stays the reference.

The QUADPACK routines keep the Fortran control flow, so each line can
be read against ``dqagse``, ``dqk21``, ``dqpsrt`` and ``dqelg``; the
work lists of ``dqagse``, ``dqpsrt`` and ``dqelg`` keep Fortran's 1-based
indices (index 0 is unused), and ``dqk21`` indexes its tables from 0.
"""

from __future__ import annotations

import math
import sys
import warnings
from typing import Callable

__all__ = ["IntegrationWarning", "brentq", "quad"]

_EPMACH = sys.float_info.epsilon  # d1mach(4)
_UFLOW = sys.float_info.min  # d1mach(1)
_OFLOW = sys.float_info.max  # d1mach(2)
_LIMEXP = 50  # dqelg's table length; rlist2 holds _LIMEXP + 2 entries
_EPS = 1.49e-8  # scipy.integrate.quad's default epsabs and epsrel
_MAXITER = 100  # scipy.optimize.brentq's default maxiter

# 21-point Kronrod abscissae and weights and the embedded 10-point Gauss
# weights on (-1, 1), positive half only (Fullerton's 80-digit values).
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)


class IntegrationWarning(UserWarning):
    """:func:`quad` stopped short of its tolerance (scipy's warning text)."""


def _message(ier: int, limit: int) -> str:
    """``scipy.integrate.quad``'s text for status ``ier`` (1-5)."""
    return {
        1: f"The maximum number of subdivisions ({limit}) has been achieved.\n  "
           f"If increasing the limit yields no improvement it is advised to "
           f"analyze \n  the integrand in order to determine the difficulties.  "
           f"If the position of a \n  local difficulty can be determined "
           f"(singularity, discontinuity) one will \n  probably gain from "
           f"splitting up the interval and calling the integrator \n  on the "
           f"subranges.  Perhaps a special-purpose integrator should be used.",
        2: "The occurrence of roundoff error is detected, which prevents \n  "
           "the requested tolerance from being achieved.  "
           "The error may be \n  underestimated.",
        3: "Extremely bad integrand behavior occurs at some points of the\n  "
           "integration interval.",
        4: "The algorithm does not converge.  Roundoff error is detected\n  "
           "in the extrapolation table.  It is assumed that the requested "
           "tolerance\n  cannot be achieved, and that the returned result "
           "(if full_output = 1) is \n  the best which can be obtained.",
        5: "The integral is probably divergent, or slowly convergent.",
    }[ier]


def quad(
    func: Callable[[float], float],
    a: float,
    b: float,
    *,
    limit: int = 50,
    warn: bool = False,
) -> tuple[float, float, int]:
    """Integrate ``func`` over ``[a, b]`` (``a <= b``) with QUADPACK ``dqagse``.

    The tolerances are scipy's defaults (``epsabs = epsrel = 1.49e-8``).
    Returns ``(value, abserr, ier)``: ``ier`` is 0 on success and 1-5 as
    ``scipy.integrate.quad`` reports it (subdivision limit, roundoff,
    bad integrand, extrapolation roundoff, divergence).  With ``warn``
    a nonzero ``ier`` also issues scipy's message as an
    :class:`IntegrationWarning` attributed to the caller, as
    ``scipy.integrate.quad`` does without ``full_output``.
    """
    if limit < 1:
        raise ValueError(
            "Invalid 'limit' argument. There must be at least one subinterval"
        )
    result, abserr, ier = _dqagse(func, float(a), float(b), _EPS, _EPS, limit)
    if ier and warn:
        warnings.warn(_message(ier, limit), IntegrationWarning, stacklevel=2)
    return result, abserr, ier


def _dqk21(f, a, b):
    """21-point Gauss-Kronrod rule: ``(result, abserr, resabs, resasc)``."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    fv1 = [0.0] * 11
    fv2 = [0.0] * 11
    resg = 0.0
    fc = f(centr)
    resk = _WGK[10] * fc
    resabs = abs(resk)
    for j in range(1, 6):
        jtw = 2 * j - 1  # Fortran jtw = 2*j, 0-based
        absc = hlgth * _XGK[jtw]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[jtw] = fval1
        fv2[jtw] = fval2
        fsum = fval1 + fval2
        resg = resg + _WG[j - 1] * fsum
        resk = resk + _WGK[jtw] * fsum
        resabs = resabs + _WGK[jtw] * (abs(fval1) + abs(fval2))
    for j in range(1, 6):
        jtwm1 = 2 * j - 2  # Fortran jtwm1 = 2*j-1, 0-based
        absc = hlgth * _XGK[jtwm1]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[jtwm1] = fval1
        fv2[jtwm1] = fval2
        fsum = fval1 + fval2
        resk = resk + _WGK[jtwm1] * fsum
        resabs = resabs + _WGK[jtwm1] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _dqpsrt(limit, last, maxerr, elist, iord, nrmax):
    """Keep ``iord`` sorted by descending error; ``(maxerr, errmax, nrmax)``."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        if nrmax != 1:
            for _ in range(nrmax - 1):
                isucc = iord[nrmax - 1]
                if errmax <= elist[isucc]:
                    break
                iord[nrmax] = isucc
                nrmax -= 1
        jupbn = last
        if last > limit // 2 + 2:
            jupbn = limit + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                # Insert errmax, then errmin bottom-up.
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                    break
                iord[k + 1] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _dqelg(n, epstab, res3la, nres):
    """Wynn's epsilon algorithm: ``(n, result, abserr, nres)``."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _OFLOW
    num = n
    k1 = n
    for i in range(1, newelm + 1):
        k2 = k1 - 1
        k3 = k1 - 2
        res = epstab[k1 + 2]
        e0 = epstab[k3]
        e1 = epstab[k2]
        e2 = res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * _EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * _EPMACH
        if not (err2 > tol2 or err3 > tol3):
            # e0, e1 and e2 agree to machine accuracy: converged.
            return n, res, max(err2 + err3, 5.0 * _EPMACH * abs(res)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * _EPMACH
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        if not epsinf > 1e-4:
            n = i + i - 1
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 = k1 - 2
        error = err2 + abs(res - e2) + err3
        if error > abserr:
            continue
        abserr = error
        result = res
    # Shift the table.
    if n == _LIMEXP:
        n = 2 * (_LIMEXP // 2) - 1
    ib = 2 if num % 2 == 0 else 1
    for _ in range(newelm + 1):
        epstab[ib] = epstab[ib + 2]
        ib += 2
    if num != n:
        indx = num - n + 1
        for i in range(1, n + 1):
            epstab[i] = epstab[indx]
            indx += 1
    if nres < 4:
        res3la[nres] = result
        abserr = _OFLOW
    else:
        abserr = (
            abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
        )
        res3la[1] = res3la[2]
        res3la[2] = res3la[3]
        res3la[3] = result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def _dqagse(f, a, b, epsabs, epsrel, limit):
    """QUADPACK ``dqagse``: ``(result, abserr, ier)``, ier renumbered."""
    alist = [0.0] * (limit + 1)
    blist = [0.0] * (limit + 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    rlist2 = [0.0] * (_LIMEXP + 3)
    res3la = [0.0] * 4
    alist[1] = a
    blist[1] = b

    # First approximation to the integral.
    ier = 0
    ierro = 0
    result, abserr, defabs, resabs = _dqk21(f, a, b)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    last = 1
    rlist[1] = result
    elist[1] = abserr
    iord[1] = 1
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, ier

    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    iroff1 = iroff2 = iroff3 = 0
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * defabs else -1
    small = erlarg = ertest = correc = 0.0

    # Bisect the subinterval with the nrmax-th largest error estimate.
    for last in range(2, limit + 1):
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, resabs, defab1 = _dqk21(f, a1, b1)
        area2, error2, resabs, defab2 = _dqk21(f, a2, b2)

        # Improve the previous approximations and test for accuracy.
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if defab1 != error1 and defab2 != error2:
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12)
                    or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))

        # Roundoff, the subdivision limit, a bad integrand point.
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if (max(abs(a1), abs(b2))
                <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW)):
            ier = 4

        # Append the newly created intervals to the list.
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax, nrmax = _dqpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            return _sum_of_intervals(rlist, last, errsum, ier)
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # Is the interval to be bisected next the smallest one?
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if ierro != 3 and erlarg > ertest:
            # The smallest interval has the largest error: before
            # extrapolating, bisect the larger intervals first.
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue

        # Perform extrapolation.
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _dqelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break

        # Prepare bisection of the smallest interval.
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # Set the final result and error estimate.
    if abserr == _OFLOW:
        return _sum_of_intervals(rlist, last, errsum, ier)
    if ier + ierro != 0:
        if ierro == 3:
            abserr = abserr + correc
        if ier == 0:
            ier = 3
        if result != 0.0 and area != 0.0:
            if abserr / abs(result) > errsum / abs(area):
                return _sum_of_intervals(rlist, last, errsum, ier)
        elif abserr > errsum:
            return _sum_of_intervals(rlist, last, errsum, ier)
        elif area == 0.0:
            return result, abserr, _renumber(ier)
    # Test on divergence.
    if ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01:
        return result, abserr, _renumber(ier)
    if area == 0.0:  # C's result/area is +-inf or nan here
        diverges = result != 0.0 or errsum > 0.0
    else:
        ratio = result / area
        diverges = 0.01 > ratio or ratio > 100.0 or errsum > abs(area)
    return result, abserr, _renumber(6 if diverges else ier)


def _sum_of_intervals(rlist, last, errsum, ier):
    """dqagse's exit that sums the subinterval results."""
    result = 0.0
    for k in range(1, last + 1):
        result = result + rlist[k]
    return result, errsum, _renumber(ier)


def _renumber(ier: int) -> int:
    """dqagse's internal codes 3-6 become the reported 2-5."""
    return ier - 1 if ier > 2 else ier


def brentq(
    f: Callable[[float], float],
    a: float,
    b: float,
    *,
    xtol: float = 2e-12,
    rtol: float = 4 * sys.float_info.epsilon,
) -> float:
    """A root of ``f`` in ``[a, b]`` by Brent's method, as ``scipy.optimize.brentq``.

    ``f(a)`` and ``f(b)`` must differ in sign.  Raises ``ValueError`` on a
    bad bracket or a NaN value of ``f``, and ``RuntimeError`` after
    scipy's default 100 iterations, with scipy's messages.
    """

    def call(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(
                f"The function value at x={x} is NaN; solver cannot continue."
            )
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_MAXITER):
        if (fpre != 0 and fcur != 0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre = scur
                scur = stry
            else:
                # bisect
                spre = sbis
                scur = sbis
        else:
            # bisect
            spre = sbis
            scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {_MAXITER} iterations.")
