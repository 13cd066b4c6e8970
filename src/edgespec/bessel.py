"""Modified Bessel functions I_nu, K_nu with computable error bounds.

The evaluator combines four branches:

* an ascending power series for I (small argument),
* Temme's series / Steed's continued fraction CF2 for K, and Steed's CF1
  plus a Wronskian completion for large-argument I, at moderate orders,
* Hankel's large-argument expansions (DLMF 10.40.1-2) for x >> nu^2, taken
  per element where their remainder bounds (DLMF 10.40(ii)-(iii), 10.40.10
  with chi(l) of 10.40.11 for I) reach a few units of roundoff,
* large-order uniform asymptotic expansions with explicit error bounds
  obtained from total variations of the coefficient polynomials U_j,
  which the module builds exactly in ``fractions`` (no computer algebra).

All core routines are vectorized over (order, argument) pairs: each branch
loop runs once per call over every pair that takes it, whatever its order,
and a per-order constant is computed once per distinct order, so a value
has the same bits whichever orders share its call.  Results are carried in
log scale internally so that products such as ``I_nu(beta*y) * K_nu(beta*x)``
stay computable for extreme parameters.
``log_bessel_ik`` returns both functions; the scalar ``bessel_i`` and
``bessel_k`` evaluate only the one they return, except where a branch
(CF1 plus the Wronskian, Hankel, uniform) computes both from shared terms.
Every iterative loop stops each element at its own convergence test, so a
value does not depend on the batch it is computed in, and raises
``NumericalError`` when it reaches its iteration cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.polynomial.polynomial import (polyadd, polyder, polyint, polymul,
                                         polyroots, polyval)

from .errors import DomainError, NumericalError, OverflowModeError

_EPS = np.finfo(float).eps
# log of the largest double, about 709.78: an unscaled value is refused
# once its log plus the log's error bound passes it
_LOG_MAX = math.log(np.finfo(float).max)
# log of the smallest normal double, about -708.4: below it an unscaled
# value is subnormal or 0.0, and its relative error bound no longer holds
_LOG_MIN = math.log(np.finfo(float).tiny)

# Order threshold for the uniform asymptotic branch and argument threshold
# for the ascending series; below the threshold, series plus continued
# fractions (run at reduced order, then recurred upward) cover every x.
# The Temme/Steed machinery stays accurate at any moderate order, while the
# 4-term asymptotic error decays like nu^-4; the crossover is placed where
# the asymptotic bound drops below the 1e-10 recurrence-branch budget.
ASYMPTOTIC_MIN_ORDER = 250.0
SERIES_MAX_ARG = 10.0
# Below the order threshold K comes from Temme's series up to this argument
# and from Steed's continued fraction above it.
TEMME_MAX_ARG = 2.0
ASYMPTOTIC_TERMS = 4

# Relative accuracy validated for the series / continued-fraction branches
# against an arbitrary-precision oracle (see tests).
_RECURRENCE_ERR = 1e-10

# The Hankel branch takes an element once its truncation bound is at most
# four units of roundoff, the unit of the representation floor that every
# branch adds to its bound.
_HANKEL_TOL = 4.0 * _EPS

# Branch codes returned by log_bessel_ik, one per branch.
SERIES_TEMME, SERIES_CF2, CF1_WRONSKIAN, HANKEL, UNIFORM = range(5)
# The method label bessel_i and bessel_k report for each branch code.
_METHOD_LABELS = {
    "I": ("series", "series", "recurrence", "hankel", "uniform_asymptotic"),
    "K": ("temme", "cf2", "cf2", "hankel", "uniform_asymptotic"),
}


@dataclass(frozen=True)
class BesselEval:
    """Value of I_nu or K_nu together with a guaranteed relative error bound.

    From ``bessel_i``/``bessel_k`` with ``scaled=True``, ``value`` is
    I_nu(x)*exp(-nu*eta(x/nu)) or K_nu(x)*exp(+nu*eta(x/nu)) respectively.
    """

    value: float
    err_bound: float
    method: str


def _check_order(nu: float) -> float:
    nu = float(nu)
    if not math.isfinite(nu) or nu <= 0.0:
        raise DomainError(f"order must be a positive finite real, got {nu}")
    try:
        # the uniform branch's error bounds divide by this power
        nu ** ASYMPTOTIC_TERMS
    except OverflowError:
        raise DomainError(f"order {nu} is too large: nu^{ASYMPTOTIC_TERMS} "
                          "overflows") from None
    return nu


def olver_eta(x):
    """eta(x) = sqrt(1+x^2) + log(x / (1 + sqrt(1+x^2))), elementwise.

    Strictly increasing, and eta(x) - log(x) is strictly increasing as well.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0) or not np.all(np.isfinite(x)):
        raise DomainError("olver_eta requires x > 0")
    p = np.hypot(1.0, x)
    out = p + np.log(x) - np.log1p(p)
    if out.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# Olver coefficient polynomials U_j and their variations
# ---------------------------------------------------------------------------

def _exact_sign(poly, q) -> int:
    """Sign of the polynomial with Fraction coefficients poly at rational q."""
    v = polyval(Fraction(q), poly)
    return (v > 0) - (v < 0)


def _double(bits: int) -> float:
    """The double whose IEEE bit pattern is bits; for positive doubles the
    bit patterns are ordered as the values are."""
    return float(np.int64(bits).view(np.float64))


def _nearest_double_root(poly, guess: float) -> float:
    """The double nearest the root of poly within 8 ulp of guess in (0, 1).

    An exact sign change of poly across guess -+ 8 ulp certifies the root;
    bisection on the bit patterns narrows the bracket to two neighbouring
    doubles, and the sign at their exact midpoint picks the nearer one.
    """
    lo, hi = (int(np.float64(guess).view(np.int64)) + k for k in (-8, 8))
    s_lo = _exact_sign(poly, _double(lo))
    if s_lo * _exact_sign(poly, _double(hi)) >= 0:
        raise NumericalError(f"no certified root of U_j' near {guess!r}")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        s = _exact_sign(poly, _double(mid))
        if s == 0:
            return _double(mid)
        lo, hi = (mid, hi) if s == s_lo else (lo, mid)
    a, b = _double(lo), _double(hi)
    nearer_b = _exact_sign(poly, (Fraction(a) + Fraction(b)) / 2) == s_lo
    return b if nearer_b else a


@lru_cache(maxsize=1)
def _olver_table():
    """U_0..U_ASYMPTOTIC_TERMS with their variation profiles, built once.

    The recurrence

    U_{j+1}(p) = p^2 (1-p^2) U_j'(p) / 2 + (1/8) int_0^p (1 - 5 t^2) U_j(t) dt

    runs exactly, on Fraction coefficients.  The critical points of each
    U_j in (0, 1) are the real roots there of U_j' with its factor p^m
    divided out (so no multiple root at 0 splits into spurious ones):
    numpy's companion-matrix roots, one Newton step in floating point, then
    the nearest double by exact sign tests.  That every critical point is
    found is checked against exact root isolation in the tests.  Entry j is
    (coeffs, pts, vals, cum, exact): the float coefficients of U_j in
    ascending powers of p; the breakpoints 0, those critical points and 1;
    U_j at them, each evaluated exactly and rounded once; the cumulative
    variation of U_j from 0, whose last entry is its total variation on
    (0, 1); and the Fraction coefficients of U_j, ascending.
    """
    lift = np.array([0, 0, Fraction(1, 2), 0, Fraction(-1, 2)], dtype=object)
    damp = np.array([Fraction(1, 8), 0, Fraction(-5, 8)], dtype=object)
    polys = [np.array([Fraction(1)], dtype=object)]
    while len(polys) <= ASYMPTOTIC_TERMS:
        u = polys[-1]
        polys.append(polyadd(polymul(lift, polyder(u)),
                             polyint(polymul(damp, u))))
    table = []
    for u in polys:
        du = polyder(u)
        crit = []
        if du.any():
            du = du[np.flatnonzero(du)[0]:]
            fdu = du.astype(float)
            for r in polyroots(fdu):
                if r.imag == 0.0 and 0.0 < r.real < 1.0:
                    q = r.real - polyval(r.real, fdu) / polyval(
                        r.real, polyder(fdu))
                    crit.append(_nearest_double_root(du, q))
        pts = np.array([0.0, *sorted(crit), 1.0])
        coeffs = u.astype(float)
        vals = np.array([float(polyval(Fraction(q), u)) for q in pts])
        cum = np.concatenate([[0.0], np.cumsum(np.abs(np.diff(vals)))])
        for arr in (coeffs, pts, vals, cum):
            arr.flags.writeable = False
        table.append((coeffs, pts, vals, cum, tuple(u)))
    return tuple(table)


def _variation_from_zero(j: int, p):
    """Total variation of U_j over (0, p) for p in (0, 1], vectorized."""
    coeffs, pts, vals, cum, _ = _olver_table()[j]
    idx = np.clip(np.searchsorted(pts, p, side="right") - 1, 0, len(pts) - 2)
    return cum[idx] + np.abs(polyval(p, coeffs) - vals[idx])


def _log_floor(log_v):
    """Representation floor: exp() of a large log magnitude loses |log|*eps."""
    return (np.abs(log_v) + 16.0) * 4.0 * _EPS


# ---------------------------------------------------------------------------
# Branch implementations (vectorized over (order, argument) pairs)
# ---------------------------------------------------------------------------
#
# Each routine takes the order nu either as a Python float, shared by every
# element, or as a float array with one order per element of x.  The loops
# are written once for both: the arithmetic broadcasts, and a per-order
# constant computed with ``math`` (lgamma, sin, powers, logs) comes from
# _per_order, once per distinct order, so an element's value has the same
# bits whichever orders share its call.

def _at(v, sel):
    """The elements sel of a per-element array; a shared scalar passes."""
    return v[sel] if isinstance(v, np.ndarray) else v


def _span(v):
    """(least, largest) of a per-element array; a shared scalar twice."""
    if isinstance(v, np.ndarray):
        return v.min(initial=np.inf), v.max(initial=-np.inf)
    return v, v


def _per_order(fn, nu):
    """fn(nu) for a shared order; for per-element orders, fn evaluated once
    per distinct order and gathered to the elements (one array per entry
    when fn returns a tuple)."""
    if not isinstance(nu, np.ndarray):
        return fn(nu)
    vals, inv = np.unique(nu, return_inverse=True)
    table = np.array([fn(float(v)) for v in vals])
    return tuple(table[inv].T) if table.ndim == 2 else table[inv]


def _unconverged(loop: str, nu, x: np.ndarray, resid: np.ndarray):
    """NumericalError for a loop at its cap, naming the worst element; nu,
    x and resid are its open elements (nu may be one shared order)."""
    j = int(np.argmax(resid))
    return NumericalError(
        f"{loop} reached its iteration cap at nu={float(_at(nu, j))!r}: "
        f"worst x={float(x[j])!r} left residual {float(resid[j]):.3e}")


# The loops below carry only their unconverged elements: idx holds their
# positions in x, and an element leaves, with its results written out, at the
# step where its own convergence test passes.

def _log_i_series(nu, x: np.ndarray):
    """log I_nu(x) by the ascending series; terms are positive, no cancellation."""
    s_out = np.empty_like(x)
    err = np.empty_like(x)
    idx = np.arange(x.size)
    t = np.ones_like(x)
    s = np.ones_like(x)
    q = 0.25 * x * x
    nus = nu
    for k in range(1, 400):
        t = t * q / (k * (nus + k))
        s = s + t
        ratio = q / ((k + 1) * (nus + k + 1))
        done = (t <= _EPS * s) & (ratio < 0.5)
        if done.any():
            trunc = t[done] * ratio[done] / np.maximum(1e-300, 1.0 - ratio[done])
            err[idx[done]] = trunc / s[done] + (k + 10) * _EPS
            s_out[idx[done]] = s[done]
            keep = ~done
            idx, t, s, q = idx[keep], t[keep], s[keep], q[keep]
            nus = _at(nus, keep)
        if not idx.size:
            break
    else:
        raise _unconverged("ascending series for I", nus, x[idx], t / s)
    lgamma = _per_order(lambda v: math.lgamma(v + 1.0), nu)
    log_i = nu * np.log(0.5 * x) - lgamma + np.log(s_out)
    return log_i, err


# Taylor coefficients of 1/Gamma(1+z), Abramowitz & Stegun 6.1.34.
_RGAMMA_COEF = (
    1.0000000000000000e0, 5.7721566490153286e-1, -6.5587807152025388e-1,
    -4.2002635034095236e-2, 1.6653861138229149e-1, -4.2197734555544337e-2,
    -9.6219715278769736e-3, 7.2189432466630995e-3, -1.1651675918590651e-3,
    -2.1524167411495097e-4, 1.2805028238811619e-4, -2.0134854780788239e-5,
    -1.2504934821426707e-6, 1.1330272319816959e-6, -2.0563384169776071e-7,
)


def _temme_gammas(mu: float):
    """gam1=(1/G(1-mu)-1/G(1+mu))/(2 mu), gam2=(1/G(1-mu)+1/G(1+mu))/2, 1/G(1+-mu)."""
    rp = 0.0
    rm = 0.0
    for c in reversed(_RGAMMA_COEF):
        rp = rp * mu + c
        rm = rm * (-mu) + c
    # rp = 1/Gamma(1+mu), rm = 1/Gamma(1-mu); the series is accurate on [-1/2, 1/2]
    gam2 = 0.5 * (rm + rp)
    if abs(mu) < 1e-8:
        # limit of (rm - rp)/(2 mu): minus the odd part of the series
        gam1 = 0.0
        for k in range(1, len(_RGAMMA_COEF), 2):
            gam1 -= _RGAMMA_COEF[k] * mu ** (k - 1)
    else:
        gam1 = (rm - rp) / (2.0 * mu)
    return gam1, gam2, rp, rm


def _reduced_order(nu: float):
    """(nl, mu): nl = round(nu), mu = nu - nl in [-1/2, 1/2]."""
    nl = math.floor(nu + 0.5)
    return nl, nu - nl


def _temme_constants(nu: float):
    """(nl, mu, gam1, gam2, 1/G(1+mu), 1/G(1-mu), pi mu / sin(pi mu))."""
    nl, mu = _reduced_order(nu)
    pimu = math.pi * mu
    fact = pimu / math.sin(pimu) if abs(pimu) > 1e-15 else 1.0
    return (nl, mu, *_temme_gammas(mu), fact)


def _log_k_temme(nu, x: np.ndarray):
    """log K_mu, log K_{mu+1} with mu = nu - round(nu) in [-1/2, 1/2]; x <= 2."""
    nl, mu, gam1, gam2, inv_gpl, inv_gmi, fact = _per_order(
        _temme_constants, nu)
    x2 = 0.5 * x
    d = -np.log(x2)
    e = mu * d
    fact2 = np.where(np.abs(e) > 1e-15, np.sinh(e) / np.where(e == 0, 1.0, e), 1.0)
    ff = fact * (gam1 * np.cosh(e) + gam2 * fact2 * d)
    ksum = ff.copy()
    ee = np.exp(e)
    p = 0.5 * ee / inv_gpl
    q = 0.5 / (ee * inv_gmi)
    c = np.ones_like(x)
    dd = x2 * x2
    ksum1 = p.copy()
    mus = mu
    mu2 = mu * mu
    k0 = np.empty_like(x)
    k1 = np.empty_like(x)
    idx = np.arange(x.size)
    for i in range(1, 300):
        ff = (i * ff + p + q) / (i * i - mu2)
        c = c * dd / i
        p = p / (i - mus)
        q = q / (i + mus)
        dl = c * ff
        ksum = ksum + dl
        ksum1 = ksum1 + c * (p - i * ff)
        done = np.abs(dl) < np.abs(ksum) * _EPS
        if done.any():
            k0[idx[done]] = ksum[done]
            k1[idx[done]] = ksum1[done]
            keep = ~done
            idx, ff, c, p, q, ksum, ksum1, dd, dl = (
                v[keep] for v in (idx, ff, c, p, q, ksum, ksum1, dd, dl))
            mus, mu2 = _at(mus, keep), _at(mu2, keep)
        if not idx.size:
            break
    else:
        raise _unconverged("Temme series for K", _at(nu, idx), x[idx],
                           np.abs(dl / ksum))
    lk0 = np.log(k0)
    lk1 = np.log(k1) + np.log(2.0 / x)
    return _k_recur_up(mu, nl, x, lk0, lk1)


def _log_k_cf2(nu, x: np.ndarray):
    """log K_mu, log K_{mu+1} via Steed's continued fraction; x >= 2."""
    nl, mu = _per_order(_reduced_order, nu)
    mu2 = mu * mu
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = d.copy()
    delh = d.copy()
    q1 = np.zeros_like(x)
    q2 = np.ones_like(x)
    a1 = 0.25 - mu2
    q = np.full_like(x, a1)
    c = np.full_like(x, a1)
    a = -a1
    s = 1.0 + q * delh
    h_out = np.empty_like(x)
    s_out = np.empty_like(x)
    idx = np.arange(x.size)
    for i in range(2, 20000):
        a = a - 2.0 * (i - 1)
        c = -a * c / i
        qnew = (q1 - b * q2) / a
        q1 = q2
        q2 = qnew
        q = q + c * qnew
        b = b + 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h = h + delh
        dels = q * delh
        s = s + dels
        done = np.abs(dels) < np.abs(s) * _EPS
        if done.any():
            h_out[idx[done]] = h[done]
            s_out[idx[done]] = s[done]
            keep = ~done
            idx, b, d, h, delh, q1, q2, q, c, s, dels = (
                v[keep] for v in (idx, b, d, h, delh, q1, q2, q, c, s, dels))
            a = _at(a, keep)
        if not idx.size:
            break
    else:
        raise _unconverged("Steed's CF2 for K", _at(nu, idx), x[idx],
                           np.abs(dels / s))
    h = a1 * h_out
    # K_mu = sqrt(pi/(2x)) e^{-x} / s
    lk0 = 0.5 * np.log(math.pi / (2.0 * x)) - x - np.log(s_out)
    lk1 = lk0 + np.log((mu + x + 0.5 - h) / x)
    return _k_recur_up(mu, nl, x, lk0, lk1)


def _k_recur_up(mu, nl, x: np.ndarray, lk0, lk1):
    """Upward order recurrence in log scale: stable since K grows with order.

    Element j takes nl[j] steps: the loop runs to the largest count, and
    from the smallest one on a mask keeps the values of each element whose
    own count is reached.
    """
    least, most = _span(nl)
    for i in range(int(most)):
        fac = 2.0 * (mu + i + 1.0) / x
        lk2 = lk1 + np.log(fac + np.exp(lk0 - lk1))
        if i < least:
            lk0, lk1 = lk1, lk2
        else:
            up = i < nl
            lk0, lk1 = np.where(up, lk1, lk0), np.where(up, lk2, lk1)
    return lk0, lk1


def _cf1_ratio(nu, x: np.ndarray):
    """Continued fraction for I_{nu+1}(x) / I_nu(x) (modified Lentz)."""
    tiny = 1e-300
    f = np.full_like(x, tiny)
    c = f.copy()
    d = np.zeros_like(x)
    f_out = np.empty_like(x)
    idx = np.arange(x.size)
    xs = x
    nus = nu
    for i in range(1, 20000):
        b = 2.0 * (nus + i) / xs
        d = b + d
        d = np.where(np.abs(d) < tiny, tiny, d)
        c = b + 1.0 / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        d = 1.0 / d
        delta = c * d
        f = f * delta
        done = np.abs(delta - 1.0) < _EPS
        if done.any():
            f_out[idx[done]] = f[done]
            keep = ~done
            idx, f, c, d, xs, delta = (
                v[keep] for v in (idx, f, c, d, xs, delta))
            nus = _at(nus, keep)
        if not idx.size:
            break
    else:
        raise _unconverged("Steed's CF1 for I", nus, xs, np.abs(delta - 1.0))
    return f_out


def _log_ik_hankel(nu, x: np.ndarray):
    """Hankel's expansions for x >> nu^2, per element where their bound allows.

    With a_k = (4nu^2 - 1^2)(4nu^2 - 3^2)...(4nu^2 - (2k-1)^2) / (k! 8^k):

    * K_nu(x) = (pi/2x)^(1/2) e^-x (sum_{k<l} a_k x^-k + R_l) (DLMF 10.40.2),
      |R_l| <= 2 |a_l| x^-l exp(|nu^2 - 1/4| / x) (10.40.10 on the positive
      real axis), and |R_l| <= |a_l| x^-l once l >= nu - 1/2 (10.40(ii));
    * I_nu(x) = e^x (2 pi x)^(-1/2) (sum_{k<l} (-1)^k a_k x^-k + R'_l)
      - sin(nu pi) K_nu(x) / pi, the first part being -K_nu(x e^(pi i))/(pi i)
      (10.34.2), so |R'_l| <= 2 chi(l) |a_l| x^-l exp(|nu^2 - 1/4| pi / 2x)
      (10.40.10-11 at ph z = pi, chi(l) = pi^(1/2) Gamma(l/2 + 1) /
      Gamma(l/2 + 1/2)), and the K part adds at most
      e^-2x |sin(nu pi)| (|sum_K| + |R_l|) in the same units.

    An element is taken at the first l where both relative bounds are at
    most _HANKEL_TOL.  It is left to the continued fractions once its terms
    stop decreasing first, and never enters when |a_1| >= x.  Returns
    (take, vals): vals has the rows log_i, log_k, err_i, err_k for the
    taken elements in order.
    """
    n = x.size
    out = np.empty((4, n))
    take = np.zeros(n, dtype=bool)
    mu = 4.0 * nu * nu
    idx = np.flatnonzero(abs(mu - 1.0) < 8.0 * x)
    xs, nus, mu = x[idx], _at(nu, idx), _at(mu, idx)
    c = abs(nus * nus - 0.25)
    # the K bound drops its factor grow_k from l >= nu - 1/2 on; a mask is
    # needed only at the l between the least and the largest nu - 1/2
    lo, hi = _span(nus - 0.5)
    grow_k = 2.0 * np.exp(c / xs)
    grow_i = 2.0 * np.exp(0.5 * math.pi * c / xs)
    tail = (_per_order(lambda v: abs(math.sin(math.pi * v)), nus)
            * np.exp(-2.0 * xs))
    t = np.ones_like(xs)      # a_{k-1} x^(1-k)
    s_i = np.zeros_like(xs)   # sum_{1 <= j < k} (-1)^j a_j x^-j
    s_k = np.zeros_like(xs)   # sum_{1 <= j < k} a_j x^-j
    k = 0
    # Every element leaves: its terms a_k x^-k stop decreasing by k ~ 2x + 2nu.
    while idx.size:
        k += 1
        t_next = t * ((mu - (2 * k - 1) ** 2) / (8.0 * k)) / xs
        a = np.abs(t_next)
        chi = math.exp(0.5 * math.log(math.pi) + math.lgamma(0.5 * k + 1.0)
                       - math.lgamma(0.5 * k + 0.5))
        if k < lo:
            b_k = a * grow_k
        elif k >= hi:
            b_k = a
        else:
            b_k = np.where(k >= nus - 0.5, a, a * grow_k)
        b_i = a * chi * grow_i + tail * (np.abs(1.0 + s_k) + b_k)
        ok = ((b_k <= _HANKEL_TOL * (1.0 + s_k - b_k))
              & (b_i <= _HANKEL_TOL * (1.0 + s_i - b_i)))
        done = ok | ~(a < np.abs(t))
        if done.any():
            j = idx[ok]
            take[j] = True
            xo = xs[ok]
            out[0, j] = xo - 0.5 * np.log(2.0 * math.pi * xo) + np.log1p(s_i[ok])
            out[1, j] = 0.5 * np.log(0.5 * math.pi / xo) - xo + np.log1p(s_k[ok])
            out[2, j] = b_i[ok] / (1.0 + s_i[ok] - b_i[ok])
            out[3, j] = b_k[ok] / (1.0 + s_k[ok] - b_k[ok])
            keep = ~done
            idx, xs, t_next, s_i, s_k, grow_k, grow_i, tail = (
                v[keep] for v in (idx, xs, t_next, s_i, s_k, grow_k, grow_i,
                                  tail))
            nus, mu = _at(nus, keep), _at(mu, keep)
        s_i = s_i + (-t_next if k % 2 else t_next)
        s_k = s_k + t_next
        t = t_next
    return take, out[:, take]


def _olver_constants(nu: float):
    """nu^0..nu^ASYMPTOTIC_TERMS, then the bound b_inf of _olver_bounds and
    the order's terms log(2 pi nu) and log(pi / 2nu) of the expansions."""
    n = ASYMPTOTIC_TERMS
    table = _olver_table()
    v1_tot, vn_tot = table[1][3][-1], table[n][3][-1]
    b_inf = 2.0 * math.exp(2.0 * v1_tot / nu) * vn_tot / nu ** n
    return (*[nu ** j for j in range(n + 1)], b_inf,
            math.log(2.0 * math.pi * nu), math.log(0.5 * math.pi / nu))


def _olver_bounds(nu, p, consts):
    """(b_i, b_k, b_inf): error-term bounds of the uniform expansions.

    b_i and b_k bound the error terms of the I- and K-expansions with
    n = ASYMPTOTIC_TERMS terms at p = (1+(x/nu)^2)^{-1/2}, from the
    variations of U_1 and of the first omitted polynomial U_n over (p, 1)
    resp. (0, p); b_inf is b_i's limit as p -> 0.  ``consts`` are the
    order's _olver_constants.
    """
    n = ASYMPTOTIC_TERMS
    nu_n, b_inf = consts[n], consts[n + 1]
    table = _olver_table()
    v1_tot, vn_tot = table[1][3][-1], table[n][3][-1]
    v1_0p = _variation_from_zero(1, p)
    vn_0p = _variation_from_zero(n, p)
    # near p = 1 a variation from zero can round above the total
    v1_p1 = np.maximum(v1_tot - v1_0p, 0.0)
    vn_p1 = np.maximum(vn_tot - vn_0p, 0.0)
    b_i = 2.0 * np.exp(2.0 * v1_p1 / nu) * vn_p1 / nu_n
    b_k = 2.0 * np.exp(2.0 * v1_0p / nu) * vn_0p / nu_n
    return b_i, b_k, b_inf


def _log_ik_olver(nu, x: np.ndarray, eta=None):
    """Uniform large-order asymptotics with total-variation error bounds.

    Returns (log_i, log_k, err_i, err_k); the errors are truncation bounds
    without the representation floor.  ``eta`` is olver_eta(x / nu), when
    the caller has it.
    """
    table = _olver_table()
    consts = _per_order(_olver_constants, nu)
    log_2pi_nu, log_pi_2nu = consts[-2:]
    z = x / nu
    p = 1.0 / np.hypot(1.0, z)
    if eta is None:
        eta = olver_eta(z)
    su_i = np.zeros_like(x)
    su_k = np.zeros_like(x)
    for j in range(ASYMPTOTIC_TERMS):
        uj = polyval(p, table[j][0]) / consts[j]
        su_i += uj
        su_k += (-1.0) ** j * uj
    b_i, b_k, b_inf = _olver_bounds(nu, p, consts)
    log_i = nu * eta - 0.5 * log_2pi_nu + 0.5 * np.log(p) + np.log(su_i)
    log_k = -nu * eta + 0.5 * log_pi_2nu + 0.5 * np.log(p) + np.log(su_k)
    err_i = (b_i + np.abs(su_i) * b_inf) / np.maximum(np.abs(su_i) - b_i, 1e-300)
    err_k = b_k / np.maximum(np.abs(su_k) - b_k, 1e-300)
    return log_i, log_k, err_i, err_k


def _check_args(nu, x):
    """Orders and arguments, validated and broadcast against each other.

    ``nu`` is one order or an array of orders that broadcasts against x.
    Its least and largest orders are validated, so a bad one raises
    DomainError naming it: the least is NaN or <= 0 if any order is, the
    largest infinite or too large for nu^ASYMPTOTIC_TERMS if any is.
    Returns (nu, x, shape): nu a Python float when every element has the
    same order, else a float array with one order per element of x; x a
    1-d float array; shape the shape of the outputs, the broadcast shape
    made at least 1-d.
    """
    nu = np.asarray(nu, dtype=float)
    # an empty array has no extremes to validate
    least = largest = None
    if nu.size:
        least, largest = _check_order(nu.min()), _check_order(nu.max())
    x = np.asarray(x, dtype=float)
    if nu.ndim:
        nu, x = np.broadcast_arrays(nu, x)
    shape = x.shape or (1,)
    x = x.reshape(-1)
    if np.any(x <= 0.0) or not np.all(np.isfinite(x)):
        raise DomainError("argument must be positive and finite")
    if least is not None and least == largest:
        return least, x, shape
    return nu.reshape(-1), x, shape


def _log_ik_moderate(nu, x: np.ndarray, want_i: bool, want_k: bool):
    """(rows log I, log K, err_i, err_k; branch codes) for orders below
    ASYMPTOTIC_MIN_ORDER; the rows of a side not asked for may be unfilled.

    Up to SERIES_MAX_ARG the two sides are independent: I alone runs only
    the I series, K alone only Temme's series or CF2.  Above it K alone
    skips CF1, while Hankel and the CF2 values that CF1's Wronskian needs
    compute both sides, which share their terms.
    """
    out = np.empty((4, x.size))
    out[2:] = _RECURRENCE_ERR
    series = x <= SERIES_MAX_ARG
    temme = x <= TEMME_MAX_ARG
    method = np.where(temme, SERIES_TEMME,
                      np.where(series, SERIES_CF2, CF1_WRONSKIAN))
    hankel = np.zeros(x.shape, dtype=bool)
    if want_i and series.any():
        out[::2, series] = _log_i_series(_at(nu, series), x[series])
    if want_k and temme.any():
        out[1, temme] = _log_k_temme(_at(nu, temme), x[temme])[0]
    if not series.all():
        # in the Hankel region its truncation bound replaces _RECURRENCE_ERR
        large = ~series
        take, vals = _log_ik_hankel(_at(nu, large), x[large])
        hankel[large] = take
        out[:, hankel] = vals
        method[hankel] = HANKEL
    wr = ~series & ~hankel & want_i
    cf2 = (~temme & ~hankel & want_k) | wr
    if cf2.any():
        lk0, lk1 = _log_k_cf2(_at(nu, cf2), x[cf2])
        out[1, cf2] = lk0
        # CF1 plus the Wronskian I_nu K_{nu+1} + I_{nu+1} K_nu = 1/x:
        # I_nu = 1 / (x (K_{nu+1} + r K_nu)), r = I_{nu+1} / I_nu
        if wr.any():
            w = wr[cf2]
            xw, lk0, lk1 = x[wr], lk0[w], lk1[w]
            r = _cf1_ratio(_at(nu, wr), xw)
            out[0, wr] = (-np.log(xw)
                          - (lk1 + np.log1p(r * np.exp(lk0 - lk1))))
    return out, method


def _log_bessel(nu, x: np.ndarray, sides: str, eta=None):
    """log_bessel_ik on checked arguments, filling the sides ("I", "K") asked.

    ``nu`` is one order shared by every element or one order per element
    of the 1-d x.  The elements of order >= ASYMPTOTIC_MIN_ORDER take the
    uniform branch and the others the moderate-order branches, in the same
    call.  Branch codes do not depend on ``sides``; the log and error of a
    side not asked for are None.  ``eta``, olver_eta(x / nu) per element
    when the caller has it, spares the uniform branch computing it again.
    """
    want_i, want_k = "I" in sides, "K" in sides
    least, largest = _span(nu)
    # a call within one group needs no gather and scatter
    if largest < ASYMPTOTIC_MIN_ORDER:
        out, method = _log_ik_moderate(nu, x, want_i, want_k)
    elif least >= ASYMPTOTIC_MIN_ORDER:
        # the uniform branch computes both sides whatever is asked
        out = _log_ik_olver(nu, x, eta)
        method = np.full(x.shape, UNIFORM)
    else:
        # rows log I, log K, err_i, err_k
        out = np.empty((4, x.size))
        method = np.empty(x.shape, dtype=int)
        uniform = nu >= ASYMPTOTIC_MIN_ORDER
        out[:, uniform] = _log_ik_olver(nu[uniform], x[uniform],
                                        _at(eta, uniform))
        method[uniform] = UNIFORM
        rest = ~uniform
        out[:, rest], method[rest] = _log_ik_moderate(nu[rest], x[rest],
                                                      want_i, want_k)
    log_i, log_k, err_i, err_k = out
    # a side not asked for may hold unfilled np.empty entries: no floor
    if want_i:
        err_i += _log_floor(log_i)
    else:
        log_i = err_i = None
    if want_k:
        err_k += _log_floor(log_k)
    else:
        log_k = err_k = None
    return log_i, log_k, err_i, err_k, method


def log_bessel_ik(nu: float, x, offset=0):
    """(log I, log K, err_i, err_k, branch codes) over (order, argument) pairs.

    Element j is evaluated at order nu + offset[j] and argument x[j], where
    ``offset`` is a non-negative int array (or int) that broadcasts against
    x; the outputs have the broadcast shape, at least 1-d.  An order <= 0
    or non-finite raises DomainError naming it.  Branch codes: UNIFORM for
    orders >= ASYMPTOTIC_MIN_ORDER; below it SERIES_TEMME
    (x <= TEMME_MAX_ARG), SERIES_CF2 (x <= SERIES_MAX_ARG), HANKEL where
    Hankel's expansion reaches its tolerance and CF1_WRONSKIAN for the
    other x > SERIES_MAX_ARG; bessel_i and bessel_k name the branch from
    its code.  Both sides are computed.  Each routine runs at most once per
    call, over all its pairs whatever their orders: the uniform branch over
    the large orders; below them the I series over x <= SERIES_MAX_ARG,
    Temme's K series over x <= TEMME_MAX_ARG, Hankel over
    x > SERIES_MAX_ARG, CF2 over the other K values, and CF1 plus the
    Wronskian over the other I values.  Each value depends on its own
    order and argument alone, not on the batch it is computed in.
    """
    offset = np.asarray(offset)
    if offset.dtype.kind not in "iu" or np.any(offset < 0):
        raise DomainError("order offsets must be non-negative integers")
    nu, x, shape = _check_args(_check_order(nu) + offset, x)
    return tuple(v.reshape(shape) for v in _log_bessel(nu, x, "IK"))


def _bessel_eval(kind: str, nu: float, x: float, scaled: bool) -> BesselEval:
    """Shared body of bessel_i (kind "I") and bessel_k (kind "K").

    Only the side ``kind`` is evaluated, to the same bits as log_bessel_ik.
    The bound d on the log's error, returned as exp()'s relative error,
    needs e^d' - 1 <= d for the true error d'.  The floor (|log| + 16) 4 eps
    is twice the exponent's rounding, so d' <= d/2 where it dominates, and
    e^(d/2) - 1 <= d for all d < 1.  A bound d >= 1 certifies no digit
    (scaled, nu = 1e16, x = 1: two exponents near 4e17 cancel) and raises
    DomainError.  An unscaled value outside the normal doubles raises
    OverflowModeError, on overflow and on underflow alike (I_300(1) is
    about 1.6e-705).  The ceiling is log(DBL_MAX) less the bound d, so a
    value that the bound allows to overflow is refused, and math.exp never
    overflows (log(DBL_MAX) rounds down, and exp of it is finite).  A
    non-scalar order or argument raises DomainError naming its shape.
    """
    if np.ndim(nu) or np.ndim(x):
        raise DomainError(
            f"{kind}_nu(x) takes a scalar order and argument, got shapes "
            f"{np.shape(nu)} and {np.shape(x)}")
    nu, xs, _ = _check_args(nu, x)
    # the scale exponent nu eta(x/nu); the uniform branch reuses eta
    eta = olver_eta(xs / nu) if scaled else None
    li, lk, ei, ek, meth = _log_bessel(nu, xs, kind, eta)
    if kind == "I":
        log_v, err, sign = float(li[0]), float(ei[0]), -1.0
    else:
        log_v, err, sign = float(lk[0]), float(ek[0]), 1.0
    if err >= 1.0:
        raise DomainError(
            f"{kind}_nu(x) at nu={nu}, x={x} has error bound {err:.3g} "
            ">= 1, which certifies no digit")
    method = _METHOD_LABELS[kind][int(meth[0])]
    if scaled:
        scale = nu * float(eta[0])
        return BesselEval(math.exp(log_v + sign * scale), err, method)
    if log_v + err > _LOG_MAX:
        raise OverflowModeError(
            f"{kind}_{nu}({x}) overflows double precision; use scaled=True")
    if log_v < _LOG_MIN:
        raise OverflowModeError(
            f"{kind}_{nu}({x}) underflows double precision; use scaled=True")
    return BesselEval(math.exp(log_v), err, method)


def bessel_i(nu: float, x: float, scaled: bool = False) -> BesselEval:
    """I_nu(x) (or I_nu(x) * exp(-nu eta(x/nu)) when scaled) with error bound.

    ``method`` is "series" (x <= SERIES_MAX_ARG), "hankel" (Hankel's
    large-argument expansion, where its bound reaches a few ulps),
    "recurrence" (CF1 plus the Wronskian, the other x > SERIES_MAX_ARG) or
    "uniform_asymptotic" (nu >= ASYMPTOTIC_MIN_ORDER).  No K routine runs
    for "series"; "recurrence" also runs CF2 for K_nu and K_{nu+1}, and
    Hankel and the uniform branch give I and K from shared terms.  Raises
    DomainError when the error bound would be >= 1.
    """
    return _bessel_eval("I", nu, x, scaled)


def bessel_k(nu: float, x: float, scaled: bool = False) -> BesselEval:
    """K_nu(x) (or K_nu(x) * exp(+nu eta(x/nu)) when scaled) with error bound.

    ``method`` is "temme" (x <= TEMME_MAX_ARG), "hankel" (Hankel's
    large-argument expansion, where its bound reaches a few ulps), "cf2"
    (Steed's continued fraction, the other x > TEMME_MAX_ARG) or
    "uniform_asymptotic" (nu >= ASYMPTOTIC_MIN_ORDER).  "temme" and "cf2"
    run no I routine; Hankel and the uniform branch give I and K from
    shared terms.  Raises DomainError when the error bound would be >= 1.
    """
    return _bessel_eval("K", nu, x, scaled)


def wronskian_residual(nus, xs) -> float:
    """Worst |x (I_nu(x) K_{nu+1}(x) + I_{nu+1}(x) K_nu(x)) - 1| on nus x xs.

    The Wronskian identity holds exactly, so the residual measures the
    evaluator's combined error at orders nu and nu + 1.  All the orders
    and their nu + 1 are evaluated in one pass.  An empty ``xs`` raises
    DomainError: a residual over no argument would pass unmeasured.
    """
    xs = np.asarray(xs, dtype=float)
    if not xs.size:
        raise DomainError("a check needs at least one argument x")
    nus = np.asarray(nus, dtype=float).reshape(-1, 1)
    nu, x, shape = _check_args([nus, nus + 1.0], xs)
    (li0, li1), (lk0, lk1) = (v.reshape(shape)
                              for v in _log_bessel(nu, x, "IK")[:2])
    prod = np.exp(li0 + lk1) + np.exp(li1 + lk0)
    return float(np.max(np.abs(xs * prod - 1.0), initial=0.0))


def uniform_asymptotic_excess(mus, xs):
    """[(worst error / bound, largest bound)] of the uniform branch, one
    pair per order in ``mus``, over the arguments ``xs``.

    The uniform expansion, evaluated at each order whatever
    ASYMPTOTIC_MIN_ORDER says and with the representation floor added to
    its bounds, is checked against ``log_bessel_ik``'s branches, several
    orders of magnitude more accurate below ASYMPTOTIC_MIN_ORDER, for I and
    for K; the expansion stays within its computed bounds at an order when
    its first value is at most 1.  Every (order, argument) pair goes
    through one pass of each evaluator, as in ``wronskian_residual``, and
    an order's pair has the same bits as when that order is checked alone.
    No order gives []; an empty ``xs`` raises DomainError.
    """
    xs = np.asarray(xs, dtype=float)
    if not xs.size:
        raise DomainError("a check needs at least one argument x")
    mus = np.asarray(mus, dtype=float).reshape(-1, 1)
    if not mus.size:
        return []
    nu, x, shape = _check_args(mus, xs)
    li_r, lk_r = _log_bessel(nu, x, "IK")[:2]
    li_a, lk_a, ei, ek = _log_ik_olver(nu, x)
    ei += _log_floor(li_a)
    ek += _log_floor(lk_a)
    excess = np.maximum(np.abs(np.expm1(li_a - li_r)) / ei,
                        np.abs(np.expm1(lk_a - lk_r)) / ek).reshape(shape)
    bound = np.maximum(ei, ek).reshape(shape)
    return [(float(r.max()), float(b.max())) for r, b in zip(excess, bound)]
