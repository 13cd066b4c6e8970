"""Modified Bessel functions I_nu, K_nu with computable error bounds.

The evaluator combines four branches:

* an ascending power series for I (small argument),
* Temme's series / Steed's continued fraction CF2 for K, and Steed's CF1
  plus a Wronskian completion for large-argument I, at moderate orders,
* Hankel's large-argument expansions (DLMF 10.40.1-2) for x >> nu^2, taken
  per element where their remainder bounds (DLMF 10.40(ii)-(iii), 10.40.10
  with chi(l) of 10.40.11 for I) reach a few units of roundoff,
* large-order uniform asymptotic expansions with explicit error bounds
  obtained from total variations of the coefficient polynomials U_j.

All core routines are vectorized over the argument ``x`` for a fixed order
``nu``; results are carried in log scale internally so that products such as
``I_nu(beta*y) * K_nu(beta*x)`` stay computable for extreme parameters.
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
from functools import lru_cache

import numpy as np
import sympy as sp
from numpy.polynomial.polynomial import polyval

from .errors import DomainError, NumericalError, OverflowModeError

_EPS = np.finfo(float).eps
_LOG_MAX = 700.0

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

@lru_cache(maxsize=1)
def _olver_table():
    """U_0..U_ASYMPTOTIC_TERMS with their variation profiles, built once.

    sympy runs the recurrence over the rationals,

    U_{j+1}(p) = p^2 (1-p^2) U_j'(p) / 2 + (1/8) int_0^p (1 - 5 t^2) U_j(t) dt,

    and isolates the critical points of each U_j in (0, 1) to within 1e-18
    by exact root isolation.  Entry j is (coeffs, pts, vals, cum, exact):
    the float coefficients of U_j in ascending powers of p; the breakpoints
    0, those critical points and 1; U_j at them, each evaluated exactly and
    rounded once; the cumulative variation of U_j from 0, whose last entry
    is its total variation on (0, 1); and U_j itself as a sympy Poly over QQ.
    """
    p, qq = sp.Symbol("p"), sp.QQ
    # p^2 (1 - p^2) / 2 and (1 - 5 p^2) / 8 from their coefficients, highest
    # power first: sympy expression arithmetic would first import its tensor
    # module, about 0.1 s
    lift = sp.Poly([qq(-1, 2), 0, qq(1, 2), 0, 0], p, domain=qq)
    damp = sp.Poly([qq(-5, 8), 0, qq(1, 8)], p, domain=qq)
    polys = [sp.Poly([1], p, domain=qq)]
    while len(polys) <= ASYMPTOTIC_TERMS:
        u = polys[-1]
        polys.append(lift * u.diff(p) + (damp * u).integrate(p))
    table = []
    for u in polys:
        crit = [(lo + hi) / 2 for (lo, hi), _ in
                u.diff(p).intervals(eps=1e-18, inf=0, sup=1)]
        qs = [0] + [q for q in crit if 0 < q < 1] + [1]
        coeffs = np.array([float(c) for c in reversed(u.all_coeffs())])
        pts = np.array([float(q) for q in qs])
        vals = np.array([float(u.eval(q)) for q in qs])
        cum = np.concatenate([[0.0], np.cumsum(np.abs(np.diff(vals)))])
        for arr in (coeffs, pts, vals, cum):
            arr.flags.writeable = False
        table.append((coeffs, pts, vals, cum, u))
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
# Branch implementations (vectorized over x, scalar order)
# ---------------------------------------------------------------------------

def _unconverged(loop: str, nu: float, x: np.ndarray, resid: np.ndarray):
    """NumericalError for a loop at its cap; x and resid are its open elements."""
    j = int(np.argmax(resid))
    return NumericalError(
        f"{loop} reached its iteration cap at nu={nu!r}: worst x={float(x[j])!r}"
        f" left residual {float(resid[j]):.3e}")


# The loops below carry only their unconverged elements: idx holds their
# positions in x, and an element leaves, with its results written out, at the
# step where its own convergence test passes.

def _log_i_series(nu: float, x: np.ndarray):
    """log I_nu(x) by the ascending series; terms are positive, no cancellation."""
    s_out = np.empty_like(x)
    err = np.empty_like(x)
    idx = np.arange(x.size)
    t = np.ones_like(x)
    s = np.ones_like(x)
    q = 0.25 * x * x
    for k in range(1, 400):
        t = t * q / (k * (nu + k))
        s = s + t
        ratio = q / ((k + 1) * (nu + k + 1))
        done = (t <= _EPS * s) & (ratio < 0.5)
        if done.any():
            trunc = t[done] * ratio[done] / np.maximum(1e-300, 1.0 - ratio[done])
            err[idx[done]] = trunc / s[done] + (k + 10) * _EPS
            s_out[idx[done]] = s[done]
            keep = ~done
            idx, t, s, q = idx[keep], t[keep], s[keep], q[keep]
        if not idx.size:
            break
    else:
        raise _unconverged("ascending series for I", nu, x[idx], t / s)
    log_i = nu * np.log(0.5 * x) - math.lgamma(nu + 1.0) + np.log(s_out)
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


def _log_k_temme(nu: float, x: np.ndarray):
    """log K_mu, log K_{mu+1} with mu = nu - round(nu) in [-1/2, 1/2]; x <= 2."""
    nl = int(math.floor(nu + 0.5))
    mu = nu - nl
    gam1, gam2, inv_gpl, inv_gmi = _temme_gammas(mu)
    x2 = 0.5 * x
    pimu = math.pi * mu
    fact = pimu / math.sin(pimu) if abs(pimu) > 1e-15 else 1.0
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
    mu2 = mu * mu
    k0 = np.empty_like(x)
    k1 = np.empty_like(x)
    idx = np.arange(x.size)
    for i in range(1, 300):
        ff = (i * ff + p + q) / (i * i - mu2)
        c = c * dd / i
        p = p / (i - mu)
        q = q / (i + mu)
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
        if not idx.size:
            break
    else:
        raise _unconverged("Temme series for K", nu, x[idx],
                           np.abs(dl / ksum))
    lk0 = np.log(k0)
    lk1 = np.log(k1) + np.log(2.0 / x)
    return _k_recur_up(mu, nl, x, lk0, lk1)


def _log_k_cf2(nu: float, x: np.ndarray):
    """log K_mu, log K_{mu+1} via Steed's continued fraction; x >= 2."""
    nl = int(math.floor(nu + 0.5))
    mu = nu - nl
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
        a -= 2.0 * (i - 1)
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
        if not idx.size:
            break
    else:
        raise _unconverged("Steed's CF2 for K", nu, x[idx], np.abs(dels / s))
    h = a1 * h_out
    # K_mu = sqrt(pi/(2x)) e^{-x} / s
    lk0 = 0.5 * np.log(math.pi / (2.0 * x)) - x - np.log(s_out)
    lk1 = lk0 + np.log((mu + x + 0.5 - h) / x)
    return _k_recur_up(mu, nl, x, lk0, lk1)


def _k_recur_up(mu: float, nl: int, x: np.ndarray, lk0, lk1):
    """Upward order recurrence in log scale: stable since K grows with order."""
    for i in range(nl):
        fac = 2.0 * (mu + i + 1.0) / x
        lk2 = lk1 + np.log(fac + np.exp(lk0 - lk1))
        lk0, lk1 = lk1, lk2
    return lk0, lk1


def _cf1_ratio(nu: float, x: np.ndarray):
    """Continued fraction for I_{nu+1}(x) / I_nu(x) (modified Lentz)."""
    tiny = 1e-300
    f = np.full_like(x, tiny)
    c = f.copy()
    d = np.zeros_like(x)
    f_out = np.empty_like(x)
    idx = np.arange(x.size)
    xs = x
    for i in range(1, 20000):
        b = 2.0 * (nu + i) / xs
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
        if not idx.size:
            break
    else:
        raise _unconverged("Steed's CF1 for I", nu, xs, np.abs(delta - 1.0))
    return f_out


def _log_ik_hankel(nu: float, x: np.ndarray):
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
    (take, log_i, log_k, err_i, err_k), the last four for the taken elements
    in order.
    """
    n = x.size
    out = np.empty((4, n))
    take = np.zeros(n, dtype=bool)
    mu = 4.0 * nu * nu
    c = abs(nu * nu - 0.25)
    idx = np.flatnonzero(abs(mu - 1.0) < 8.0 * x)
    xs = x[idx]
    grow_k = 2.0 * np.exp(c / xs)
    grow_i = 2.0 * np.exp(0.5 * math.pi * c / xs)
    tail = abs(math.sin(math.pi * nu)) * np.exp(-2.0 * xs)
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
        b_k = a if k >= nu - 0.5 else a * grow_k
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
        s_i = s_i + (-t_next if k % 2 else t_next)
        s_k = s_k + t_next
        t = t_next
    li, lk, ei, ek = out[:, take]
    return take, li, lk, ei, ek


def _olver_bounds(nu: float, p):
    """(b_i, b_k, b_inf): error-term bounds of the uniform expansions.

    b_i and b_k bound the error terms of the I- and K-expansions with
    n = ASYMPTOTIC_TERMS terms at p = (1+(x/nu)^2)^{-1/2}, from the
    variations of U_1 and of the first omitted polynomial U_n over (p, 1)
    resp. (0, p); b_inf is b_i's limit as p -> 0.
    """
    n = ASYMPTOTIC_TERMS
    table = _olver_table()
    v1_tot, vn_tot = table[1][3][-1], table[n][3][-1]
    v1_0p = _variation_from_zero(1, p)
    vn_0p = _variation_from_zero(n, p)
    # near p = 1 a variation from zero can round above the total
    v1_p1 = np.maximum(v1_tot - v1_0p, 0.0)
    vn_p1 = np.maximum(vn_tot - vn_0p, 0.0)
    b_i = 2.0 * np.exp(2.0 * v1_p1 / nu) * vn_p1 / nu ** n
    b_k = 2.0 * np.exp(2.0 * v1_0p / nu) * vn_0p / nu ** n
    b_inf = 2.0 * math.exp(2.0 * v1_tot / nu) * vn_tot / nu ** n
    return b_i, b_k, b_inf


def _log_ik_olver(nu: float, x: np.ndarray):
    """Uniform large-order asymptotics with total-variation error bounds.

    Returns (log_i, log_k, err_i, err_k); the errors are truncation bounds
    without the representation floor.
    """
    table = _olver_table()
    z = x / nu
    p = 1.0 / np.hypot(1.0, z)
    eta = olver_eta(z)
    su_i = np.zeros_like(x)
    su_k = np.zeros_like(x)
    for j in range(ASYMPTOTIC_TERMS):
        uj = polyval(p, table[j][0]) / nu ** j
        su_i += uj
        su_k += (-1.0) ** j * uj
    b_i, b_k, b_inf = _olver_bounds(nu, p)
    log_i = nu * eta - 0.5 * math.log(2.0 * math.pi * nu) + 0.5 * np.log(p) + np.log(su_i)
    log_k = -nu * eta + 0.5 * math.log(0.5 * math.pi / nu) + 0.5 * np.log(p) + np.log(su_k)
    err_i = (b_i + np.abs(su_i) * b_inf) / np.maximum(np.abs(su_i) - b_i, 1e-300)
    err_k = b_k / np.maximum(np.abs(su_k) - b_k, 1e-300)
    return log_i, log_k, err_i, err_k


def _check_args(nu: float, x):
    """The order and the arguments as a 1-d float array, both validated."""
    nu = _check_order(nu)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x <= 0.0) or not np.all(np.isfinite(x)):
        raise DomainError("argument must be positive and finite")
    return nu, x


def _log_bessel(nu: float, x: np.ndarray, sides: str):
    """log_bessel_ik on checked arguments, filling the sides ("I", "K") asked.

    Branch codes do not depend on ``sides``.  Up to SERIES_MAX_ARG the two
    sides are independent: I alone runs only the I series, K alone only
    Temme's series or CF2.  Above it K alone skips CF1, while Hankel, the
    CF2 values that CF1's Wronskian needs and the uniform branch compute
    both sides, which share their terms.  The log and error of a side not
    asked for are None.
    """
    want_i, want_k = "I" in sides, "K" in sides
    if nu >= ASYMPTOTIC_MIN_ORDER:
        log_i, log_k, err_i, err_k = _log_ik_olver(nu, x)
        method = np.full(x.shape, UNIFORM)
    else:
        log_i = np.empty_like(x)
        log_k = np.empty_like(x)
        err_i = np.full_like(x, _RECURRENCE_ERR)
        err_k = np.full_like(x, _RECURRENCE_ERR)
        series = x <= SERIES_MAX_ARG
        temme = x <= TEMME_MAX_ARG
        method = np.where(temme, SERIES_TEMME,
                          np.where(series, SERIES_CF2, CF1_WRONSKIAN))
        hankel = np.zeros(x.shape, dtype=bool)
        if want_i and series.any():
            log_i[series], err_i[series] = _log_i_series(nu, x[series])
        if want_k and temme.any():
            log_k[temme] = _log_k_temme(nu, x[temme])[0]
        if not series.all():
            # in the Hankel region its truncation bound replaces
            # _RECURRENCE_ERR
            take, *vals = _log_ik_hankel(nu, x[~series])
            hankel[~series] = take
            log_i[hankel], log_k[hankel], err_i[hankel], err_k[hankel] = vals
            method[hankel] = HANKEL
        wr = ~series & ~hankel & want_i
        cf2 = (~temme & ~hankel & want_k) | wr
        if cf2.any():
            lk0, lk1 = _log_k_cf2(nu, x[cf2])
            log_k[cf2] = lk0
            # CF1 plus the Wronskian I_nu K_{nu+1} + I_{nu+1} K_nu = 1/x:
            # I_nu = 1 / (x (K_{nu+1} + r K_nu)), r = I_{nu+1} / I_nu
            if wr.any():
                w = wr[cf2]
                xw, lk0, lk1 = x[wr], lk0[w], lk1[w]
                r = _cf1_ratio(nu, xw)
                log_i[wr] = (-np.log(xw)
                             - (lk1 + np.log1p(r * np.exp(lk0 - lk1))))
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


def log_bessel_ik(nu: float, x):
    """(log I_nu, log K_nu, err_i, err_k, branch codes) vectorized over x.

    Branch codes: SERIES_TEMME (x <= TEMME_MAX_ARG), SERIES_CF2
    (x <= SERIES_MAX_ARG), HANKEL where Hankel's expansion reaches its
    tolerance, CF1_WRONSKIAN for the other x > SERIES_MAX_ARG, and UNIFORM
    for nu >= ASYMPTOTIC_MIN_ORDER; bessel_i and bessel_k name the branch
    from its code.  Both sides are computed.  Below ASYMPTOTIC_MIN_ORDER
    each routine runs at most once per call: the I series over
    x <= SERIES_MAX_ARG, Temme's K series over x <= TEMME_MAX_ARG, Hankel
    over x > SERIES_MAX_ARG, CF2 over the other K values, and CF1 plus the
    Wronskian over the other I values.  Each value depends on its own
    argument alone, not on the batch it is computed in.
    """
    nu, x = _check_args(nu, x)
    return _log_bessel(nu, x, "IK")


def _scale_exponent(nu: float, x: np.ndarray):
    return nu * olver_eta(np.asarray(x, dtype=float) / nu)


def _bessel_eval(kind: str, nu: float, x: float, scaled: bool) -> BesselEval:
    """Shared body of bessel_i (kind "I") and bessel_k (kind "K").

    Only the side ``kind`` is evaluated, to the same bits as log_bessel_ik.
    """
    nu, xs = _check_args(nu, x)
    li, lk, ei, ek, meth = _log_bessel(nu, xs, kind)
    if kind == "I":
        log_v, err, sign = float(li[0]), float(ei[0]), -1.0
    else:
        log_v, err, sign = float(lk[0]), float(ek[0]), 1.0
    method = _METHOD_LABELS[kind][int(meth[0])]
    if scaled:
        scale = float(_scale_exponent(nu, np.array([x]))[0])
        return BesselEval(math.exp(log_v + sign * scale), err, method)
    if log_v > _LOG_MAX:
        raise OverflowModeError(
            f"{kind}_{nu}({x}) overflows double precision; use scaled=True")
    return BesselEval(math.exp(log_v), err, method)


def bessel_i(nu: float, x: float, scaled: bool = False) -> BesselEval:
    """I_nu(x) (or I_nu(x) * exp(-nu eta(x/nu)) when scaled) with error bound.

    ``method`` is "series" (x <= SERIES_MAX_ARG), "hankel" (Hankel's
    large-argument expansion, where its bound reaches a few ulps),
    "recurrence" (CF1 plus the Wronskian, the other x > SERIES_MAX_ARG) or
    "uniform_asymptotic" (nu >= ASYMPTOTIC_MIN_ORDER).  No K routine runs
    for "series"; "recurrence" also runs CF2 for K_nu and K_{nu+1}, and
    Hankel and the uniform branch give I and K from shared terms.
    """
    return _bessel_eval("I", nu, x, scaled)


def bessel_k(nu: float, x: float, scaled: bool = False) -> BesselEval:
    """K_nu(x) (or K_nu(x) * exp(+nu eta(x/nu)) when scaled) with error bound.

    ``method`` is "temme" (x <= TEMME_MAX_ARG), "hankel" (Hankel's
    large-argument expansion, where its bound reaches a few ulps), "cf2"
    (Steed's continued fraction, the other x > TEMME_MAX_ARG) or
    "uniform_asymptotic" (nu >= ASYMPTOTIC_MIN_ORDER).  "temme" and "cf2"
    run no I routine; Hankel and the uniform branch give I and K from
    shared terms.
    """
    return _bessel_eval("K", nu, x, scaled)


def wronskian_residual(nus, xs) -> float:
    """Worst |x (I_nu(x) K_{nu+1}(x) + I_{nu+1}(x) K_nu(x)) - 1| on nus x xs.

    The Wronskian identity holds exactly, so the residual measures the
    evaluator's combined error at orders nu and nu + 1.
    """
    xs = np.asarray(xs, dtype=float)
    worst = 0.0
    for nu in nus:
        li0, lk0, *_ = log_bessel_ik(nu, xs)
        li1, lk1, *_ = log_bessel_ik(nu + 1.0, xs)
        prod = np.exp(li0 + lk1) + np.exp(li1 + lk0)
        worst = max(worst, float(np.max(np.abs(xs * prod - 1.0))))
    return worst


def uniform_asymptotic_excess(mu: float, xs):
    """(worst error / bound, largest bound) of the uniform branch at order mu.

    The uniform expansion, evaluated at mu whatever ASYMPTOTIC_MIN_ORDER
    says and with the representation floor added to its bounds, is checked
    against ``log_bessel_ik``, several orders of magnitude more accurate
    below ASYMPTOTIC_MIN_ORDER, for I and for K; the expansion stays within
    its computed bounds when the first value is at most 1.
    """
    li_r, lk_r, *_ = log_bessel_ik(mu, xs)
    li_a, lk_a, ei, ek = _log_ik_olver(mu, np.asarray(xs, dtype=float))
    ei += _log_floor(li_a)
    ek += _log_floor(lk_a)
    excess = max(float(np.max(np.abs(np.expm1(li_a - li_r)) / ei)),
                 float(np.max(np.abs(np.expm1(lk_a - lk_r)) / ek)))
    return excess, max(float(ei.max()), float(ek.max()))
