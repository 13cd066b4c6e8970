"""Tests for the modified Bessel evaluator.

Reference values were frozen from a 30-digit mpmath run; log-scale values
are compared absolutely (log error ~ relative error of the function value).
"""

import math
from collections import Counter

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


def test_domain_errors():
    with pytest.raises(DomainError):
        bessel_i(-1.0, 1.0)
    with pytest.raises(DomainError):
        bessel_k(2.0, 0.0)
    with pytest.raises(DomainError):
        log_bessel_ik(2.0, np.array([1.0, -3.0]))


def test_u_polynomials_exact():
    u0, u1, u2 = (entry[-1] for entry in _olver_table()[:3])
    assert u2.domain == sp.QQ
    assert u0.all_coeffs() == [1]
    # U_1(p) = (3p - 5p^3)/24
    assert u1.all_coeffs() == [sp.Rational(-5, 24), 0, sp.Rational(1, 8), 0]
    # U_2(p) = (81p^2 - 462p^4 + 385p^6)/1152
    assert u2.all_coeffs() == [sp.Rational(385, 1152), 0,
                               sp.Rational(-462, 1152), 0,
                               sp.Rational(81, 1152), 0, 0]


def test_olver_table_total_variations():
    # A sampled variation never exceeds the true one, so a missed critical
    # point shows as a table total below this dense-grid estimate.
    p = np.linspace(0.0, 1.0, 200001)
    for *_, cum, exact in _olver_table():
        coeffs = [float(c) for c in reversed(exact.all_coeffs())]
        vals = np.polynomial.polynomial.polyval(p, coeffs)
        dense = float(np.sum(np.abs(np.diff(vals))))
        assert cum[-1] >= dense * (1.0 - 1e-12)
        assert abs(cum[-1] - dense) <= 1e-9 * dense


def test_olver_table_matches_exact_variation():
    # Total variation from the exact real roots of U_j' in (0, 1), each
    # U_j value taken to 40 digits; the table may differ by rounding only.
    for j, (*_, cum, exact) in enumerate(_olver_table()):
        p = exact.gen
        roots = [r for r in exact.diff(p).real_roots() if 0 < r < 1]
        vals = [exact.as_expr().subs(p, q).evalf(40) for q in [0, *roots, 1]]
        total = sum(abs(b - a) for a, b in zip(vals, vals[1:]))
        ref = float(total)
        assert abs(cum[-1] - ref) <= 4 * np.spacing(ref), j


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
    assert bessel_i(300.0, 1.0).method == "uniform_asymptotic"
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


@pytest.mark.parametrize("mu", [40.0, 250.0, 600.0])
def test_asymptotic_bounds_nonnegative(mu):
    # near p = 1 a variation from zero can round above the total variation
    xs = np.logspace(-6, 9, 300)
    b_i, b_k, _ = _olver_bounds(mu, 1.0 / np.hypot(1.0, xs / mu))
    assert np.all(b_i >= 0.0) and np.all(b_k >= 0.0)
