"""Tests for the modified Bessel evaluator.

Reference values were frozen from a 30-digit mpmath run; log-scale values
are compared absolutely (log error ~ relative error of the function value).
"""

import math
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy as sp

from edgespec import bessel
from edgespec.bessel import (CF1_WRONSKIAN, HANKEL, SERIES_CF2, SERIES_TEMME,
                             UNIFORM, BesselEval, _cf1_ratio,
                             _olver_bounds, _olver_table, bessel_i, bessel_k,
                             log_bessel_ik,
                             olver_eta, uniform_asymptotic_excess,
                             wronskian_residual)
from edgespec.errors import DomainError, NumericalError, OverflowModeError

# (nu, x, I_nu(x), K_nu(x)) -- mpmath besseli/besselk, dps=30
POINT_ORACLE = [
    (2.0, 1.0, 0.135747669767038281, None),
    (2.0, 2.0, None, 0.253759754566055863),
    (5.0, 1.0, 0.000271463155956971875, 360.960589601240701),
    (2.5, 3.0, 1.51533944668196514, 0.0840606319741173827),
]

# (nu, x, log I, log K) for points where the plain value under/overflows
LOG_ORACLE = [
    (100.0, 50.0, -35.8378338238783042, 30.4279386819363359),
    (1.6, 0.001, -12.5188557026624674, 11.3557045724144321),
    (3.0, 200.0, 196.409973225314698, -202.401547139561067),
]


@pytest.mark.parametrize("nu,x,ref_i,ref_k", POINT_ORACLE)
def test_point_values(nu, x, ref_i, ref_k):
    if ref_i is not None:
        ev = bessel_i(nu, x)
        assert abs(ev.value - ref_i) <= max(ev.err_bound, 1e-12) * ref_i
    if ref_k is not None:
        ev = bessel_k(nu, x)
        assert abs(ev.value - ref_k) <= max(ev.err_bound, 1e-12) * ref_k


@pytest.mark.parametrize("nu,x,log_i,log_k", LOG_ORACLE)
def test_log_values(nu, x, log_i, log_k):
    li, lk, ei, ek, _ = log_bessel_ik(nu, np.array([x]))
    assert abs(li[0] - log_i) <= max(ei[0], 1e-11)
    assert abs(lk[0] - log_k) <= max(ek[0], 1e-11)


def test_error_bound_fields_positive():
    # x = 50 is Hankel's once |a_1(nu)| = |4nu^2 - 1|/8 < 50 and its bound
    # reaches a few ulps; at nu = 40 the terms grow and CF1 runs
    codes = {
        0.7: [SERIES_TEMME, SERIES_TEMME, HANKEL],
        3.0: [SERIES_TEMME, SERIES_TEMME, HANKEL],
        40.0: [SERIES_TEMME, SERIES_TEMME, CF1_WRONSKIAN],
        300.0: [UNIFORM, UNIFORM, UNIFORM],
    }
    for nu, want in codes.items():
        _, _, ei, ek, meth = log_bessel_ik(nu, np.array([0.01, 1.0, 50.0]))
        assert np.all(ei > 0.0) and np.all(ek > 0.0)
        assert meth.tolist() == want


def test_wronskian_identity_grid():
    # x (I_nu K_{nu+1} + I_{nu+1} K_nu) = 1 exactly
    nus = np.exp(np.linspace(math.log(0.5), math.log(50.0), 12))
    xs = np.exp(np.linspace(math.log(1e-3), math.log(1e3), 12))
    assert wronskian_residual(nus, xs) <= 1e-10


def test_scaled_mode_no_overflow():
    ev_i = bessel_i(1e4, 1e6, scaled=True)
    ev_k = bessel_k(1e4, 1e6, scaled=True)
    assert math.isfinite(ev_i.value) and ev_i.value > 0.0
    assert math.isfinite(ev_k.value) and ev_k.value > 0.0
    # the scaled pair multiplies back to I*K; cross-check against the
    # large-argument product expansion I_nu K_nu ~ 1/(2 sqrt(nu^2+x^2))
    li, lk, *_ = log_bessel_ik(1e4, np.array([1e6]))
    prod = math.exp(float(li[0] + lk[0]))
    assert ev_i.value * ev_k.value == pytest.approx(prod, rel=1e-12)
    approx = 1.0 / (2.0 * math.hypot(1e4, 1e6))
    assert abs(prod - approx) <= 1e-4 * approx


def test_unscaled_overflow_raises():
    with pytest.raises(OverflowModeError):
        bessel_i(2.0, 800.0)
    with pytest.raises(OverflowModeError):
        bessel_k(2.0, 1e-300)


def test_unscaled_values_up_to_the_largest_double():
    # log I_2(705) = 700.80 is below log(DBL_MAX) = 709.78
    ev = bessel_i(2.0, 705.0)
    exact = float(mpmath.besseli(2, 705))
    assert 1e304 < ev.value < 1e305
    assert abs(ev.value - exact) <= ev.err_bound * exact
    # the ceiling is log(DBL_MAX) less the log's error bound: bisect to the
    # first double x past it, which raises the typed error (not exp()'s
    # OverflowError), while the double before it is returned
    ceiling = math.log(np.finfo(float).max)

    def past(x):
        log_i, _, err_i, _, _ = log_bessel_ik(2.0, x)
        return float(log_i[0] + err_i[0]) > ceiling

    lo, hi = 705.0, 720.0
    while np.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if past(mid) else (mid, hi)
    assert math.isfinite(bessel_i(2.0, lo).value)
    with pytest.raises(OverflowModeError, match="overflows"):
        bessel_i(2.0, hi)


@pytest.mark.parametrize("fn,nu,x", [(bessel_i, 300.0, 1.0),
                                     (bessel_i, 2.0, 1e-200),
                                     (bessel_k, 2.0, 800.0)])
def test_unscaled_underflow_raises(fn, nu, x):
    # I_300(1) is about 1.6e-705: unscaled it would be 0.0 with a tight
    # relative bound; scaled it is an ordinary number
    with pytest.raises(OverflowModeError, match="underflows"):
        fn(nu, x)
    ev = fn(nu, x, scaled=True)
    assert 0.0 < ev.value < math.inf and ev.err_bound < 1e-10


def test_domain_errors():
    with pytest.raises(DomainError):
        bessel_i(-1.0, 1.0)
    with pytest.raises(DomainError):
        bessel_k(2.0, 0.0)
    with pytest.raises(DomainError):
        log_bessel_ik(2.0, np.array([1.0, -3.0]))


@pytest.mark.parametrize("fn", [bessel_i, bessel_k, log_bessel_ik])
def test_order_whose_power_overflows_rejected(fn):
    # the uniform branch divides by nu^ASYMPTOTIC_TERMS, which overflows at
    # nu = 1e80: a DomainError, not a bare OverflowError
    with pytest.raises(DomainError):
        fn(1e80, 1.0)


def _exact_u(exact):
    """U_j as a sympy Poly over QQ, from the table's Fraction coefficients."""
    return sp.Poly([sp.Rational(c.numerator, c.denominator)
                    for c in reversed(exact)], sp.Symbol("p"), domain=sp.QQ)


def _exact_breakpoints(u):
    """0, sympy's real roots of U_j' in (0, 1), each as a rational within
    1e-50 of the root, and 1."""
    roots = [r for r in u.diff(u.gen).real_roots() if 0 < r < 1]
    return [sp.Integer(0), *(sp.Rational(r.evalf(50)) for r in roots),
            sp.Integer(1)]


def test_u_polynomials_exact():
    u0, u1, u2 = (entry[-1] for entry in _olver_table()[:3])
    assert all(isinstance(c, Fraction) for c in u0 + u1 + u2)
    assert u0 == (1,)
    # U_1(p) = (3p - 5p^3)/24, ascending powers
    assert u1 == (0, Fraction(1, 8), 0, Fraction(-5, 24))
    # U_2(p) = (81p^2 - 462p^4 + 385p^6)/1152
    assert u2 == (0, 0, Fraction(81, 1152), 0, Fraction(-462, 1152), 0,
                  Fraction(385, 1152))


def test_olver_table_total_variations():
    # A sampled variation never exceeds the true one, so a missed critical
    # point shows as a table total below this dense-grid estimate.
    p = np.linspace(0.0, 1.0, 200001)
    for *_, cum, exact in _olver_table():
        coeffs = [float(c) for c in reversed(_exact_u(exact).all_coeffs())]
        vals = np.polynomial.polynomial.polyval(p, coeffs)
        dense = float(np.sum(np.abs(np.diff(vals))))
        assert cum[-1] >= dense * (1.0 - 1e-12)
        assert abs(cum[-1] - dense) <= 1e-9 * dense


def test_olver_table_matches_exact_variation():
    # Total variation from the exact real roots of U_j' in (0, 1), each
    # U_j value exact; the table may differ by rounding only.
    for j, (*_, cum, exact) in enumerate(_olver_table()):
        u = _exact_u(exact)
        vals = [u.eval(q) for q in _exact_breakpoints(u)]
        total = sum(abs(b - a) for a, b in zip(vals, vals[1:]))
        ref = float(total)
        assert abs(cum[-1] - ref) <= 4 * np.spacing(ref), j


def test_olver_breakpoints_match_exact_roots():
    # the same critical points as sympy's exact root isolation, each within
    # 2 ulp; U_j there rounded once, and the variations from those values
    for j, (_, pts, vals, cum, exact) in enumerate(_olver_table()):
        u = _exact_u(exact)
        qs = _exact_breakpoints(u)
        assert len(pts) == len(qs), j
        ref_pts = np.array([float(q) for q in qs])
        assert np.all(np.abs(pts - ref_pts) <= 2 * np.spacing(ref_pts)), j
        ref_vals = np.array([float(u.eval(q)) for q in qs])
        assert np.array_equal(vals, ref_vals), j
        ref_cum = np.concatenate([[0.0],
                                  np.cumsum(np.abs(np.diff(ref_vals)))])
        assert np.array_equal(cum, ref_cum), j


def test_eta_monotone():
    x = np.linspace(0.05, 30.0, 200)
    e = olver_eta(x)
    assert np.all(np.diff(e) > 0.0)
    assert np.all(np.diff(e - np.log(x)) > 0.0)
    with pytest.raises(DomainError):
        olver_eta(0.0)


def test_olver_branch_within_bounds():
    # the asymptotic branch checked against the series/CF branch, which is
    # several orders of magnitude more accurate at these orders
    xs = np.exp(np.linspace(math.log(0.5), math.log(400.0), 17))
    for mu in (10.0, 20.0, 40.0):
        excess, _ = uniform_asymptotic_excess(mu, xs)
        assert excess <= 1.0


def test_asymptotic_bounds_scale():
    # x = nu/2 at both orders, so p = (1 + (x/nu)^2)^(-1/2) is shared
    p = 1.0 / math.hypot(1.0, 0.5)
    b10 = max(_olver_bounds(10.0, p)[:2])
    b20 = max(_olver_bounds(20.0, p)[:2])
    ratio = b10 / b20
    assert 8.0 <= ratio <= 32.0  # nu^-4 scaling within a factor of 2


def test_method_reporting():
    assert bessel_i(2.0, 1.0).method == "series"
    assert bessel_i(2.0, 15.0).method == "recurrence"
    assert bessel_i(2.0, 50.0).method == "hankel"
    assert bessel_i(2.0, 1e9, scaled=True).method == "hankel"
    assert bessel_i(300.0, 1.0, scaled=True).method == "uniform_asymptotic"
    assert bessel_k(2.0, 1.0).method == "temme"
    assert bessel_k(2.0, 5.0).method == "cf2"
    assert bessel_k(2.0, 15.0).method == "cf2"
    assert bessel_k(2.0, 50.0).method == "hankel"
    assert bessel_k(300.0, 1.0, scaled=True).method == "uniform_asymptotic"
    assert isinstance(bessel_i(2.0, 1.0), BesselEval)
    for (nu, x), methods in THRESHOLD_METHODS.items():
        got = tuple(fn(nu, x, scaled=True).method
                    for fn in (bessel_i, bessel_k))
        assert got == methods, (nu, x)


def test_cf1_cap_raises():
    # CF1 needs about 6 sqrt(x) steps, far beyond its cap at x = 1e9
    with pytest.raises(NumericalError, match="nu=2.0"):
        _cf1_ratio(2.0, np.array([1e9]))


@pytest.mark.parametrize("nu,xs", [
    (2.0, [0.01, 1.0, 3.0, 5.0, 12.0, 15.0, 50.0, 1e3, 1e9]),
    (2.5, [0.3, 7.0, 11.0, 40.0, 3e7]),
    (40.0, [1.0, 9.0, 50.0, 500.0, 1e5]),
    (300.0, [1.0, 1e3, 1e6]),
])
def test_values_independent_of_batch(nu, xs):
    xs = np.array(xs)
    batch = log_bessel_ik(nu, xs)
    if nu < 250.0:
        assert {SERIES_TEMME, SERIES_CF2, CF1_WRONSKIAN, HANKEL} <= set(
            batch[4].tolist())
    for j, x in enumerate(xs):
        alone = log_bessel_ik(nu, np.array([x]))
        for part_batch, part_alone in zip(batch, alone):
            assert np.array_equal(part_batch[j:j + 1], part_alone)


# Orders on both sides of ASYMPTOTIC_MIN_ORDER, integer (Temme's mu = 0),
# half-integer and neither; arguments on both sides of 2 and 10, in the
# window (10, 17.3) where Hankel gives way to CF1, and beyond it
MIXED_ORDERS = [0.3, 1.0, 2.0, 2.5, 3.0, 7.5, 40.0, 249.0, 250.0, 300.5,
                1000.0]
MIXED_XS = [1e-3, 0.5, 2.0, 2.5, 5.0, 10.0, 10.5, 12.0, 15.0, 17.2, 17.4,
            50.0, 1e3, 1e5]


def _bitwise_equal(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_mixed_orders_equal_per_order_calls():
    xs = np.array(MIXED_XS)
    nu, x, shape = bessel._check_args(np.array(MIXED_ORDERS)[:, None], xs)
    assert shape == (len(MIXED_ORDERS), xs.size) and np.ndim(nu) == 1
    mixed = [v.reshape(shape) for v in bessel._log_bessel(nu, x, "IK")]
    assert set(mixed[4].ravel().tolist()) == {
        SERIES_TEMME, SERIES_CF2, CF1_WRONSKIAN, HANKEL, UNIFORM}
    for i, order in enumerate(MIXED_ORDERS):
        for part_mixed, part_alone in zip(mixed, log_bessel_ik(order, xs)):
            assert _bitwise_equal(part_mixed[i], part_alone), order
    # the public face: orders nu + offset, here 2, 3, 7, 249, 250 and 302
    offset = np.array([0, 1, 5, 247, 248, 300])[:, None]
    mixed = log_bessel_ik(2.0, xs, offset)
    assert mixed[0].shape == (offset.size, xs.size)
    for i, off in enumerate(offset[:, 0]):
        for part_mixed, part_alone in zip(mixed, log_bessel_ik(2.0 + off, xs)):
            assert _bitwise_equal(part_mixed[i], part_alone), off


def test_mixed_orders_name_the_bad_one():
    # one bad order among good ones raises DomainError naming it
    for bad, text in ((-1.0, "got -1.0"), (0.0, "got 0.0"),
                      (math.nan, "got nan"), (1e80, "1e\\+80")):
        with pytest.raises(DomainError, match=text):
            wronskian_residual([2.0, bad, 3.0], [1.0, 5.0])
    for offset in (np.array([0, -1]), np.array([0.0, 1.0])):
        with pytest.raises(DomainError, match="offsets"):
            log_bessel_ik(2.0, [1.0, 5.0], offset)
    # no order at all measures nothing: the residual is 0.0
    assert wronskian_residual([], [1.0, 5.0]) == 0.0
    # a loop at its cap names the order of its worst element
    with pytest.raises(NumericalError, match="nu=3.0: worst x=1000000000.0"):
        _cf1_ratio(np.array([2.0, 3.0]), np.array([1e3, 1e9]))


# (nu, x) in every branch: I series/K Temme, I series/K CF2, CF1 plus the
# Wronskian/K CF2 (at two orders), Hankel, uniform
BRANCH_POINTS = [(2.0, 1.0), (2.0, 5.0), (2.0, 15.0), (40.0, 50.0),
                 (2.0, 50.0), (300.0, 500.0)]


@pytest.mark.parametrize("scaled", [False, True])
def test_scalar_calls_equal_log_bessel_ik(scaled):
    # bessel_i and bessel_k evaluate one side alone; that side must carry
    # the same bits as the two-sided log_bessel_ik
    methods = set()
    for nu, x in BRANCH_POINTS:
        li, lk, ei, ek, _ = log_bessel_ik(nu, np.array([x]))
        scale = float(nu * olver_eta(np.array([x]) / nu)[0]) if scaled else 0.0
        for fn, log_v, err, sign in ((bessel_i, li, ei, -1.0),
                                     (bessel_k, lk, ek, 1.0)):
            ev = fn(nu, x, scaled=scaled)
            methods.add(ev.method)
            assert ev.value == math.exp(float(log_v[0]) + sign * scale)
            assert ev.err_bound == float(err[0])
    assert methods == {"series", "temme", "cf2", "recurrence", "hankel",
                       "uniform_asymptotic"}


def test_scalar_calls_run_only_their_side(monkeypatch):
    calls = Counter()
    for name in ("_log_i_series", "_log_k_temme", "_log_k_cf2",
                 "_cf1_ratio"):
        def counted(*args, _fn=getattr(bessel, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(bessel, name, counted)

    def routines(call, *args):
        calls.clear()
        call(*args)
        return set(calls)

    assert routines(bessel_i, 2.0, 1.0) == {"_log_i_series"}
    assert routines(bessel_k, 2.0, 1.0) == {"_log_k_temme"}
    assert routines(bessel_k, 2.0, 5.0) == {"_log_k_cf2"}
    assert routines(bessel_k, 40.0, 50.0) == {"_log_k_cf2"}
    # CF1's Wronskian reads CF2's K values
    assert routines(bessel_i, 40.0, 50.0) == {"_log_k_cf2", "_cf1_ratio"}
    assert routines(log_bessel_ik, 40.0, np.array([1.0, 5.0, 50.0])) == {
        "_log_i_series", "_log_k_temme", "_log_k_cf2", "_cf1_ratio"}


def test_scaled_value_computes_eta_once(monkeypatch):
    # the scale exponent nu eta(x/nu) and the uniform branch share one eta
    calls = []

    def counted(x, _fn=bessel.olver_eta):
        calls.append(x)
        return _fn(x)

    monkeypatch.setattr(bessel, "olver_eta", counted)
    for fn, nu, x in ((bessel_k, 300.0, 1e3), (bessel_i, 300.0, 500.0),
                      (bessel_k, 2.0, 5.0)):
        calls.clear()
        fn(nu, x, scaled=True)
        assert len(calls) == 1
        calls.clear()
        log_bessel_ik(nu, x)
        assert len(calls) == (nu >= bessel.ASYMPTOTIC_MIN_ORDER)


# ---------------------------------------------------------------------------
# Oracle gate: every evaluation within its own err_bound against mpmath
# ---------------------------------------------------------------------------

ORACLE_DIGITS = (40, 120)
ORACLE_AGREE = 1e-25
# I_nu at these points broke its bound while CF1 ran into its cap
DEFECT_POINTS = [(2.0, 1e8), (2.0, 1e9), (0.3, 3e7)]
# the branch boundaries x = 2, x = 10 and nu = 250
BOUNDARY_POINTS = [(0.5, 2.0), (5.0, 2.0), (50.0, 2.0), (0.5, 10.0),
                   (5.0, 10.0), (50.0, 10.0), (250.0, 1.0), (250.0, 1e3)]
SWITCH_ORDERS = (0.05, 0.5, 2.0, 12.0, 100.0, 249.0)
# (I, K) methods just below and above x = 2 and x = 10, where the scalar
# calls' one-sided evaluation splits
THRESHOLD_METHODS = {
    (nu, x): methods
    for nu in (0.5, 5.0)
    for x, methods in (
        (2.0 * (1.0 - 1e-9), ("series", "temme")),
        (2.0 * (1.0 + 1e-9), ("series", "cf2")),
        (10.0 * (1.0 - 1e-9), ("series", "cf2")),
        (10.0 * (1.0 + 1e-9), ("recurrence", "cf2")),
    )
}


def _mp_scaled(nu, x):
    """Scaled (I, K) from mpmath at two precisions that must agree.

    mpmath's besselk can return garbage at large non-integer orders, so one
    precision is never trusted, nor a value that is not positive.
    """
    vals = []
    for digits in ORACLE_DIGITS:
        with mpmath.workdps(digits):
            n, z = mpmath.mpf(nu), mpmath.mpf(x)
            t = z / n
            p = mpmath.sqrt(1 + t * t)
            scale = n * (p + mpmath.log(t / (1 + p)))
            vals.append((mpmath.besseli(n, z) * mpmath.exp(-scale),
                         mpmath.besselk(n, z) * mpmath.exp(scale)))
    (i40, k40), (i120, k120) = vals
    assert min(i40, k40, i120, k120) > 0, f"oracle not positive at {nu, x}"
    assert abs(i40 / i120 - 1) < ORACLE_AGREE and \
        abs(k40 / k120 - 1) < ORACLE_AGREE, f"oracle disagrees at {nu, x}"
    return float(i120), float(k120)


def _switch_points(nu):
    """The last CF1 argument and the first Hankel argument on a 1% x-grid."""
    xs = np.geomspace(10.5, 1e6, 1000)
    codes = log_bessel_ik(nu, xs)[4]
    j = int(np.argmax(codes == HANKEL))
    assert codes[j - 1] == CF1_WRONSKIAN and codes[j] == HANKEL
    return [(nu, float(xs[j - 1])), (nu, float(xs[j]))]


def _gate_points():
    rng = np.random.default_rng(20240611)
    nus = np.exp(rng.uniform(math.log(0.05), math.log(600.0), 40))
    xs = np.exp(rng.uniform(math.log(1e-6), math.log(1e9), 40))
    pts = [*DEFECT_POINTS, *BOUNDARY_POINTS, *THRESHOLD_METHODS]
    for nu in SWITCH_ORDERS:
        pts += _switch_points(nu)
    return pts + [(float(n), float(x)) for n, x in zip(nus, xs)]


def test_oracle_gate_no_bound_violations():
    violations = []
    methods = set()
    for nu, x in _gate_points():
        want = _mp_scaled(nu, x)
        for fn, ref in zip((bessel_i, bessel_k), want):
            ev = fn(nu, x, scaled=True)
            methods.add(ev.method)
            err = abs(ev.value - ref) / ref
            if not err <= ev.err_bound:
                violations.append((fn.__name__, nu, x, err, ev.err_bound))
    assert methods == {"series", "temme", "cf2", "recurrence", "hankel",
                       "uniform_asymptotic"}
    assert violations == []


# scaled points whose err_bound lies in [1e-3, 1), where the
# representation floor of a huge exponent dominates it
LOOSE_BOUND_POINTS = [(2.0, 3e14), (2.0, 1e15), (1e12, 1.0), (1e13, 1.0)]


@pytest.mark.parametrize("nu,x", LOOSE_BOUND_POINTS)
def test_loose_bounds_still_hold(nu, x):
    for fn, ref in zip((bessel_i, bessel_k), _mp_scaled(nu, x)):
        ev = fn(nu, x, scaled=True)
        assert 1e-3 <= ev.err_bound < 1.0
        assert abs(ev.value - ref) / ref <= ev.err_bound


@pytest.mark.parametrize("fn", [bessel_i, bessel_k])
@pytest.mark.parametrize("scaled", [False, True])
def test_bound_of_one_or_more_raises(fn, scaled):
    # at nu = 1e16 the scaled exponents near 4e17 cancel to nothing (bound
    # 324); at 1e14 the bound is 2.8; at 1e12 it is 0.024
    for nu in (1e16, 1e14):
        with pytest.raises(DomainError, match="error bound"):
            fn(nu, 1.0, scaled=scaled)
    assert fn(1e12, 1.0, scaled=True).err_bound == pytest.approx(
        0.024, rel=0.05)


@pytest.mark.parametrize("mu", [40.0, 250.0, 600.0])
def test_asymptotic_bounds_nonnegative(mu):
    # near p = 1 a variation from zero can round above the total variation
    xs = np.logspace(-6, 9, 300)
    b_i, b_k, _ = _olver_bounds(mu, 1.0 / np.hypot(1.0, xs / mu))
    assert np.all(b_i >= 0.0) and np.all(b_k >= 0.0)
