"""Desk-scale acceptance suite: one test (and one printed verdict line) per
criterion.

Where a criterion runs the computation of a CLI suite (criteria 1, 4, 7 and
9), it reads that suite's records and adds only what the records do not
check; criteria 3, 6 and 8 run other grids or trial counts than the CLI.

Criteria 1 and 2 measure the weighted Nystrom norms of X^-2 K and of its
edge derivatives against their exact values.  The free operators are Mellin
convolutions, so their L^2 norms are suprema of explicit symbols
(`kernels.mellin_symbol`, closed forms in `kernels.exact_weighted_norm`);
the Schur rate (nu^2 - 9/4)^-1 is only an upper bound and is kept as a
ceiling.
"""

import math
import sys

import numpy as np

from edgespec.bessel import uniform_asymptotic_excess, wronskian_residual
from edgespec.cli import RunConfig, run_suite
from edgespec.clifford import build_clifford, symbolic_square_identity
from edgespec.grids import build_grid, log_gauss_rule
from edgespec.kernels import (ConeKernel, decay_estimate_check,
                              exact_weighted_norm, free_schur_integrals,
                              mellin_symbol)
from edgespec.model import (FiberSpectrum, a_identity, check_witt,
                            uniform_bound_sweep)
from edgespec.parametrix import (mapping_bounds, random_section,
                                 smooth_section)
from edgespec.scales import (TENSOR_CHECK_TOL, intersection_scale_check,
                             random_generator, random_psd_block,
                             same_scale_demo, tensor_positivity_check,
                             tensor_power_error)

NU_SET = (1.6, 2.0, 3.0, 5.0, 10.0)


def _verdict(n, ok, detail):
    # written past pytest's capture so every criterion leaves a visible line
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}",
          file=sys.__stdout__)
    return ok


def test_criterion_1_free_schur_bound():
    """Nystrom norm of X^-2 K within [0.9, 1 + 1e-6] x (nu^2-1)^-1 and below
    the Schur ceiling 1.05 (nu^2-9/4)^-1; exact row/column integrals match
    quadrature to 1e-8.

    The weighted operator is diagonalized by the Mellin transform, with
    symbol maximized at the weight exponent -1/2, so its exact norm is
    (nu^2-1)^-1.  The Schur rate (nu^2-9/4)^-1 overestimates it, by a
    factor 5 at nu = 1.6, so a floor taken from the Schur rate (the former
    0.5 (nu^2-9/4)^-1) lies above the exact norm whenever nu < sqrt(3.5).
    Truncation to the window [1e-4, 1e3] approaches the norm from below
    (the extremal profile x^{-1/2} is only marginally square integrable):
    0.6146 against 0.6410 at nu = 1.6, a 4.1% deficit where a first-order
    estimate for a window of log-length ln(1e7) predicts 5.6%.
    """
    ok = True
    worst = ""
    ratios = []
    for nu in NU_SET:
        row, _ = free_schur_integrals(nu)
        exact = exact_weighted_norm(nu, 0)
        # schur.weighted_norm (measured <= its bound, which must be
        # (1 + 1e-6) exact) and schur.col_integral (quadrature within 1e-8
        # of the closed form)
        records = {r.check: r for r in run_suite("schur", RunConfig(nu=nu))}
        norm = records["schur.weighted_norm"]
        measured = norm.measured
        ratios.append(measured / exact)
        failed = [r.check for r in records.values() if not r.passed]
        if norm.bound != (1.0 + 1e-6) * exact:
            failed.append(f"schur.weighted_norm bound {norm.bound!r}")
        if failed or not (0.9 * exact <= measured <= 1.05 * row):
            ok = False
            worst = (f"nu={nu}: failing {failed}, measured {measured:.4f} "
                     f"against [{0.9 * exact:.4f}, {(1.0 + 1e-6) * exact:.4f}]"
                     f" (exact norm (nu^2-1)^-1 = {exact:.4f}, Schur "
                     f"ceiling {1.05 * row:.4f})")
    assert _verdict(1, ok, worst or (
        f"measured/exact in [{min(ratios):.4f}, {max(ratios):.4f}], "
        "integrals match to 1e-8"))


def test_criterion_2_bessel_schur_uniformity():
    """Norms normalized by their exact values uniform (max <= 1.1 x median)
    across (nu, beta), and never above the exact values (q <= 1 + 1e-6).

    q_a = ||(X d/dx)^a X^-2 K_beta|| / n_a(nu), with n_a = sup |m_a| the
    exact norm of the free operator (`exact_weighted_norm`, checked here
    against a direct maximization of |m_a| on a fine tau grid to 1e-9).  For
    beta > 0 the norm equals n_a, by dilation (see `exact_weighted_norm`).
    """
    spectrum = FiberSpectrum(tuple(nu - 0.5 for nu in NU_SET))
    rep = uniform_bound_sweep(spectrum, (0.1, 1.0, 10.0))
    closed_err = 0.0
    for nu in NU_SET:
        exact = [exact_weighted_norm(nu, a) for a in range(3)]
        coarse = np.linspace(0.0, 10.0 * nu, 20001)
        step = coarse[1]
        for a in range(3):
            peak = coarse[np.argmax(np.abs(mellin_symbol(a, nu, coarse)))]
            fine = np.linspace(max(0.0, peak - 2 * step), peak + 2 * step,
                               20001)
            direct = float(np.max(np.abs(mellin_symbol(a, nu, fine))))
            closed_err = max(closed_err, abs(direct - exact[a]) / exact[a])
    ok = closed_err <= 1e-9
    cols = []
    for a in range(3):
        q = np.array([r[f"norm{a}"] / exact_weighted_norm(r["nu"], a)
                      for r in rep["rows"]])
        spread = float(q.max() / np.median(q))
        ok = ok and spread <= 1.1 and q.max() <= 1.0 + 1e-6
        cols.append(f"q{a} in [{q.min():.4f}, {q.max():.4f}] spread "
                    f"{spread:.3f}")
    assert _verdict(2, ok, "; ".join(cols)
                    + f"; closed forms vs direct max {closed_err:.1e}")


def test_criterion_3_bessel_accuracy():
    """Wronskian residual <= 1e-10 on a 50x50 log grid; 4-term uniform
    asymptotics within their computed bounds, bounds scaling as mu^-4."""
    nus = np.exp(np.linspace(math.log(0.5), math.log(50.0), 50))
    xs = np.exp(np.linspace(math.log(1e-3), math.log(1e3), 50))
    worst = wronskian_residual(nus, xs)
    ok = worst <= 1e-10
    bounds = {}
    xg = np.exp(np.linspace(math.log(0.5), math.log(400.0), 25))
    mus = (10.0, 20.0, 40.0)
    for mu, (excess, bounds[mu]) in zip(mus,
                                        uniform_asymptotic_excess(mus, xg)):
        ok = ok and excess <= 1.0
    for a, b in ((10.0, 20.0), (20.0, 40.0)):
        ok = ok and 8.0 <= bounds[a] / bounds[b] <= 32.0
    assert _verdict(3, ok, f"worst Wronskian residual {worst:.2e}, "
                    f"bound ratios {bounds[10.0] / bounds[20.0]:.1f}, "
                    f"{bounds[20.0] / bounds[40.0]:.1f}")


def test_criterion_4_model_round_trip():
    """Manufactured-solution residual <= 1e-2 at N = 400, order >= 1.8."""
    ok = True
    details = []
    for nu in (1.6, 2.1, 5.0):
        for beta in (0.0, 1.0):
            # model.round_trip: residual <= 1e-2 on [1e-2, 1e2]
            [r400], [r800] = (
                run_suite("model", RunConfig(nu=nu, beta=beta, grid_n=n))
                for n in (400, 800))
            res = {400: r400.measured, 800: r800.measured}
            order = math.log2(res[400] / res[800])
            ok = ok and r400.passed and order >= 1.8
            details.append(f"({nu},{beta}): {res[400]:.1e}/o{order:.2f}")
    assert _verdict(4, ok, " ".join(details))


def test_criterion_5_decay_estimates():
    """sup over x in [2, 100] of |Ku| x^{1+delta} nu / ||u|| bounded by a
    single constant over nu in {2, 5, 10} (delta = 1/2)."""
    ys, ws = log_gauss_rule(128, 1e-6, 1.0)
    u = np.ones(ys.size)
    unorm = math.sqrt(float(ws @ u ** 2))
    delta = 0.5
    worst = 0.0
    for nu in (2.0, 5.0, 10.0):
        for kern in (ConeKernel(nu), ConeKernel(nu, 1.0)):
            for x in np.exp(np.linspace(math.log(2.0), math.log(100.0), 15)):
                val, _ = decay_estimate_check(kern, ys, ws, u, float(x))
                worst = max(worst, val * x ** (1 + delta) * nu / unorm)
    ok = worst <= 0.5
    assert _verdict(5, ok, f"fitted decay constant {worst:.4f} <= 0.5")


def test_criterion_6_parametrix():
    """Right-inverse residual <= 1e-8 for 20 random supported inputs;
    fitted envelope constant stable to 5% between N = 200 and N = 400."""
    rng = np.random.default_rng(20240617)
    grid = build_grid(200, 1e-2, 1e2)
    ok = True
    worst_res = 0.0
    for trial in range(20):
        u = random_section(grid, 16, 1, 2 - trial % 2, rng)
        rep = mapping_bounds(u, (2.1,), grid)
        worst_res = max(worst_res, rep.residual_rel)
    ok = ok and worst_res <= 1e-8
    changes = []
    for n_c in (2, 1):
        cs = {}
        for n in (200, 400):
            g = build_grid(n, 1e-2, 1e2)
            y = np.arange(16) * 2 * np.pi / 16
            prof = 1.0 + 0.5 * np.cos(y) + 0.25 * np.sin(2 * y)
            rep = mapping_bounds(smooth_section(g, prof, n_c), (2.1,), g)
            cs[n] = rep.fitted_c
        change = abs(cs[400] - cs[200]) / cs[200]
        changes.append(change)
        ok = ok and change <= 0.05
    assert _verdict(6, ok, f"worst residual {worst_res:.1e}, fitted-C "
                    f"changes {changes[0]:.2%}/{changes[1]:.2%}")


def test_criterion_7_clifford_exact():
    """All structure identities in exact arithmetic, zero tolerance."""
    _, _, _, gamma, s_sign, t_sign = build_clifford()
    eye = np.eye(4)
    # the gb records: anticommutators and commutator exactly zero
    ok = all(r.passed for r in run_suite("gb", RunConfig()))
    ok = ok and np.array_equal(gamma @ gamma, -eye)
    ok = ok and np.array_equal(gamma.T, -gamma)
    ok = ok and np.array_equal(gamma.T @ gamma, eye)
    lhs, rhs = symbolic_square_identity()
    ok = ok and lhs == rhs
    assert _verdict(7, ok, "commutators, gamma^2 = -I, skew-adjointness, "
                    "orthogonality, symbolic square identity all exact")


def test_criterion_8_scales_lab():
    """Tensor powers to 1e-10; 200 randomized positivity/sandwich trials;
    boundary fingerprint ratio >= 10 for the first 3 eigenfunctions."""
    rng = np.random.default_rng(20240617)
    g1, g2 = random_generator(5, rng), random_generator(4, rng)
    ok = tensor_power_error(g1, g2) <= TENSOR_CHECK_TOL
    sandwich = intersection_scale_check(g1, g2, s=1.3, theta=0.4, trials=200)
    ok = ok and sandwich["violations"] == 0
    a = random_psd_block(3, 2, rng)
    b = random_psd_block(3, 2, rng)
    pos = tensor_positivity_check(a, b, trials=200)
    ok = ok and pos["passes"]
    ratio = same_scale_demo(a=1.0, n=400)["fingerprint_ratio"]
    ok = ok and ratio >= 10.0
    assert _verdict(8, ok, f"sandwich violations {sandwich['violations']}, "
                    f"lambda_min {pos['lambda_min_monotone']:.2e}, "
                    f"fingerprint ratios >= {ratio:.1f}")


def test_criterion_9_witt_checker():
    """The witt records pass {+-1.6} and fail {+-1.0} and {+-0.9}; floor
    arithmetic exact over the rationals."""
    from fractions import Fraction
    passed = [r.passed for spectrum in ((1.6, -1.6), (1.0, -1.0), (0.9, -0.9))
              for r in run_suite("witt", RunConfig(spectrum=spectrum))]
    ok = passed == [True, False, False]
    rep = check_witt(FiberSpectrum((Fraction(8, 5), Fraction(-8, 5))))
    ok = ok and rep.implied_nu_floor == Fraction(21, 10)
    ok = ok and rep.delta == Fraction(3, 5)
    lhs, rhs = a_identity(Fraction(8, 5))
    ok = ok and lhs == rhs
    assert _verdict(9, ok, "spectral gap verdicts and exact floor arithmetic")
