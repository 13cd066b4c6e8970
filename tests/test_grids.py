import math
import re
import tracemalloc

import numpy as np
import pytest

from edgespec.errors import (ConfigurationError, DomainError, NumericalError,
                             WittViolationError)
from edgespec.grids import (band_lu_factor, build_grid, fd_assemble_model,
                            log_gauss_rule, nystrom_assemble, operator_norm)
from edgespec import grids, kernels
from edgespec.kernels import (ConeKernel, WeightedAction, kernel_factors,
                              weighted_kernel_from_factors,
                              weighted_kernel_matrix)
from edgespec.model import (ACTIONS, FiberSpectrum, uniform_bound_sweep)
from test_parametrix import _dense_from_band


def test_trapezoid_weights_telescope():
    g = build_grid(200, 1e-3, 1e2)
    assert float(np.sum(g.weights)) == pytest.approx(1e2 - 1e-3, rel=1e-14)
    assert g.nodes[0] == 1e-3 and g.nodes[-1] == 1e2
    assert g.n == 200


def test_gauss_panels_integrate_powers():
    nodes, weights = log_gauss_rule(256, 0.1, 10.0)
    for p in (0.0, 1.0, 2.5, -1.3):
        exact = ((10.0 ** (p + 1) - 0.1 ** (p + 1)) / (p + 1)
                 if p != -1.0 else math.log(100.0))
        assert float(weights @ nodes ** p) == pytest.approx(
            exact, rel=1e-12)


def test_grid_validation():
    with pytest.raises(ConfigurationError):
        build_grid(8)
    with pytest.raises(ConfigurationError):
        build_grid(100, 1.0, 0.5)
    with pytest.raises(ConfigurationError):
        log_gauss_rule(8, 0.1, 10.0)
    with pytest.raises(ConfigurationError):
        log_gauss_rule(100, 1.0, 0.5)
    with pytest.raises(ConfigurationError):
        log_gauss_rule(100, 0.0, 1.0)


@pytest.mark.parametrize("lo, hi", [(1e-2, math.inf), (1e-2, math.nan),
                                    (math.nan, 1e2), (-math.inf, 1e2)])
def test_window_ends_must_be_finite(lo, hi):
    # an infinite end once gave NaN nodes and 10 000 NaN power steps
    for make in (build_grid, log_gauss_rule):
        with pytest.raises(ConfigurationError,
                           match=r"window \[.*x_max < inf"):
            make(100, lo, hi)


def test_operator_norm_diagonal_exact(monkeypatch):
    g = build_grid(50, 0.1, 10.0)
    d = np.diag(np.linspace(0.2, 3.7, g.n))
    assert operator_norm(d, g.weights) == pytest.approx(3.7, rel=1e-7)
    assert operator_norm(np.zeros((g.n, g.n)), g.weights) == 0.0
    # a loop that hits its cap raises instead of returning its estimate
    monkeypatch.setattr(grids, "POWER_ITER_MAX", 2)
    with pytest.raises(NumericalError):
        operator_norm(d, g.weights)


def test_operator_norm_of_known_singular_values():
    # M = W^-1/2 U diag(s) V^T W^1/2 has weighted singular values s
    rng = np.random.default_rng(11)
    g = build_grid(60, 1e-2, 10.0)
    u, _ = np.linalg.qr(rng.normal(size=(g.n, g.n)))
    v, _ = np.linalg.qr(rng.normal(size=(g.n, g.n)))
    s = np.concatenate(([2.5], np.linspace(1.2, 0.01, g.n - 1)))
    sw = np.sqrt(g.weights)
    m = (u * s) @ v.T * sw[None, :] / sw[:, None]
    assert operator_norm(m, g.weights) == pytest.approx(2.5, rel=1e-7)


@pytest.mark.parametrize("kern", [ConeKernel(2.0), ConeKernel(2.0, 10.0)])
@pytest.mark.parametrize("action", ACTIONS)
def test_diagonal_cell_integrals_match_dense_rows(kern, action):
    # reference: the dense node x sub-node matrix, keeping node i's own cell
    g = build_grid(120, 1e-4, 1e3)
    x = g.nodes
    mids = 0.5 * (x[:-1] + x[1:])
    lo = np.concatenate(([x[0]], mids))
    hi = np.concatenate((mids, [x[-1]]))
    gl_x, gl_w = np.polynomial.legendre.leggauss(16)
    half = 0.5 * (hi - lo)
    ys = 0.5 * (hi + lo)[:, None] + half[:, None] * gl_x[None, :]
    ws = half[:, None] * gl_w[None, :]
    vals = weighted_kernel_matrix(kern, action, x, ys.ravel())
    ref = np.array([vals[i, 16 * i:16 * (i + 1)] @ ws[i] for i in range(g.n)])
    [m] = nystrom_assemble(kern, (action,), g)
    got = np.diag(m)
    assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-13


def test_sweep_cell_shares_bessel_factors(monkeypatch):
    # one Bessel cell evaluates orders nu, nu+1, nu+2 on the N nodes in one
    # call and order nu on the 16 N diagonal-cell points in another, for
    # all three actions
    n = 40
    calls = []

    def counting(nu, x, offset=0):
        calls.append(np.size(x))
        return bessel_ik(nu, x, offset)

    bessel_ik = kernels.log_bessel_ik
    monkeypatch.setattr(kernels, "log_bessel_ik", counting)
    uniform_bound_sweep(FiberSpectrum((2.5,)), [1.3], grid_n=n)
    assert calls == [3 * n, 16 * n]
    monkeypatch.undo()

    # each shared-factor operator is the one built per action, bit for bit
    kern = ConeKernel(3.0, 1.3)
    g = build_grid(n, 1e-4, 1e3)
    x = g.nodes
    mids = 0.5 * (x[:-1] + x[1:])
    lo = np.concatenate(([x[0]], mids))
    hi = np.concatenate((mids, [x[-1]]))
    gl_x, gl_w = np.polynomial.legendre.leggauss(16)
    half = 0.5 * (hi - lo)
    ys = 0.5 * (hi + lo)[:, None] + half[:, None] * gl_x[None, :]
    ws = half[:, None] * gl_w[None, :]
    for act, m in zip(ACTIONS, nystrom_assemble(kern, ACTIONS, g)):
        # the factors of this action alone: orders nu..nu+a
        fx = kernel_factors(kern, x, act.edge_derivatives + 1).reshape(-1, 1)
        alone = weighted_kernel_matrix(kern, act, x, x) * g.weights
        np.fill_diagonal(alone, np.sum(weighted_kernel_from_factors(
            kern, act, fx, kernel_factors(kern, ys)) * ws, axis=1))
        assert np.array_equal(m, alone)
        # the flushed Lanczos read-out agrees with the plain loop to
        # rounding
        assert operator_norm(m, g.weights) == pytest.approx(
            _numpy_power_norm(m, g.weights)[0], rel=1e-12)
    # x factors of too few orders for the action
    with pytest.raises(ConfigurationError):
        weighted_kernel_from_factors(
            kern, ACTIONS[2], kernel_factors(kern, x, 2).reshape(-1, 1),
            kernel_factors(kern, x).reshape(1, -1))
    with pytest.raises(ConfigurationError):
        nystrom_assemble(kern, (), g)


@pytest.mark.parametrize("nu, beta, x_min, what", [
    (2.0, 1e300, 1e-4, "is zero"),
    (1e20, 1.0, 1e-4, "is zero"),
    (1e100, 0.0, 1e-4, "is zero"),
    (2.0, 0.0, 1e-320, "non-finite"),
])
def test_nystrom_matrix_that_measures_nothing_is_refused(nu, beta, x_min,
                                                         what):
    # every entry underflows, or one overflows: a norm of such a matrix
    # passes its bound without measuring the operator
    g = build_grid(64, x_min, 1e3)
    window = re.escape(f"nu={nu}, beta={beta}, action (w, a) = (-2, 0) "
                       f"on [{x_min}, 1000.0]")
    with pytest.raises(DomainError, match=f"{window} .*{what}"):
        nystrom_assemble(ConeKernel(nu, beta), ACTIONS, g)


def _numpy_power_norm(m, weights):
    """(norm, steps) of the plain power iteration: no flush, no jumps."""
    sw = np.sqrt(weights)
    a = sw[:, None] * m / sw[None, :]
    b = a.T @ a
    z = sw / np.linalg.norm(sw)
    lam = 0.0
    for it in range(10_000):
        bz = b @ z
        lam_new = float(bz @ z)
        z = bz / math.sqrt(float(bz @ bz))
        if it > 0 and abs(lam_new - lam) <= 1e-8 * lam_new:
            return math.sqrt(lam_new), it + 1
        lam = lam_new
    raise AssertionError("reference power iteration did not converge")


def _stops_where_the_plain_loop_does(monkeypatch, m, weights):
    """operator_norm(m) is the plain loop's value, and its step cap counts
    the plain loop's steps: a cap of exactly those steps passes, one less
    raises."""
    norm, steps = _numpy_power_norm(m, weights)
    assert operator_norm(m, weights) == pytest.approx(norm, rel=1e-14)
    with monkeypatch.context() as patch:
        patch.setattr(grids, "POWER_ITER_MAX", steps)
        assert operator_norm(m, weights) == pytest.approx(norm, rel=1e-14)
        patch.setattr(grids, "POWER_ITER_MAX", steps - 1)
        with pytest.raises(NumericalError, match=f"in {steps - 1} steps"):
            operator_norm(m, weights)
    return steps


def test_operator_norm_reproduces_the_plain_loop(monkeypatch):
    # X^-2 K at (nu, beta) = (3, 0.1) stops after 119 steps; its first edge
    # derivative needs 7568, far more than the Lanczos dimension
    g = build_grid(400, 1e-4, 1e3)
    kern = ConeKernel(3.0, 0.1)
    fast, slow = nystrom_assemble(kern, ACTIONS[:2], g)
    fast_steps = _stops_where_the_plain_loop_does(monkeypatch, fast,
                                                  g.weights)
    slow_steps = _stops_where_the_plain_loop_does(monkeypatch, slow,
                                                  g.weights)
    assert fast_steps < 5000 < slow_steps
    monkeypatch.setattr(grids, "POWER_ITER_MAX", 1000)
    with pytest.raises(NumericalError, match="in 1000 steps"):
        operator_norm(slow, g.weights)


@pytest.mark.parametrize("nu, beta", [(1.6, 0.1), (10.0, 1.0), (2.0, 0.0)])
def test_operator_norm_stops_with_the_plain_loop_on_small_grids(
        monkeypatch, nu, beta):
    g = build_grid(64, 1e-4, 1e3)
    for m in nystrom_assemble(ConeKernel(nu, beta), ACTIONS, g):
        _stops_where_the_plain_loop_does(monkeypatch, m, g.weights)


def test_operator_norm_stops_with_the_plain_loop_on_special_spectra(
        monkeypatch):
    # the identity (Lanczos breaks down at once), a rank-one matrix and a
    # top singular value of multiplicity two
    rng = np.random.default_rng(5)
    g = build_grid(64, 1e-2, 10.0)
    u, _ = np.linalg.qr(rng.normal(size=(g.n, g.n)))
    v, _ = np.linalg.qr(rng.normal(size=(g.n, g.n)))
    s = np.linspace(2.0, 0.01, g.n)
    s[1] = s[0]
    sw = np.sqrt(g.weights)
    doubled = (u * s) @ v.T * sw[None, :] / sw[:, None]
    rank_one = np.outer(rng.random(g.n), rng.random(g.n))
    steps = [_stops_where_the_plain_loop_does(monkeypatch, m, g.weights)
             for m in (np.eye(g.n), rank_one, doubled)]
    assert steps[:2] == [2, 3]


def test_operator_norm_memory_is_two_gram_matrices():
    # the scaled copy and the Gram matrix B, a Lanczos basis sized to the
    # dimension reached (56 rows here) and no dense power of B
    g = build_grid(400, 1e-4, 1e3)
    [m] = nystrom_assemble(ConeKernel(3.0, 0.1), ACTIONS[1:2], g)
    tracemalloc.start()
    try:
        operator_norm(m, g.weights)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 8 * g.n ** 2


def test_operator_norm_scale_is_exact():
    # a power-of-two factor scales the norm bit for bit, also where the
    # Gram matrix of the unscaled entries would leave the doubles
    rng = np.random.default_rng(4)
    g = build_grid(60, 1e-2, 10.0)
    m = rng.normal(size=(g.n, g.n))
    norm = operator_norm(m, g.weights)
    for p in (-600, 600):
        assert operator_norm(m * 2.0 ** p, g.weights) == norm * 2.0 ** p


def test_nystrom_free_norm_matches_mellin_value():
    # the weighted free-kernel operator x^-2 K has exact norm (nu^2 - 1)^-1
    # on the full half-line (Mellin transform diagonalizes it)
    # truncation approaches the norm from below (the extremal profile
    # x^{-1/2} is only marginally square integrable)
    nu = 3.0
    g = build_grid(400, 1e-5, 1e5)
    [op] = nystrom_assemble(ConeKernel(nu), (WeightedAction(-2, 0),), g)
    exact = 1.0 / (nu * nu - 1.0)
    measured = operator_norm(op, g.weights)
    assert measured <= exact * (1.0 + 1e-6)
    assert measured == pytest.approx(exact, rel=1e-2)


def test_fd_model_manufactured_solution_order():
    # L u = g for u = x^{5/2} exp(-x); residual of the FD operator against
    # the analytic g decays at second order in the log spacing
    nu, beta = 2.0, 0.0
    errs = {}
    for n in (200, 400):
        g = build_grid(n, 1e-1, 10.0)
        x = g.nodes
        u = x ** 2.5 * np.exp(-x)
        # -u'' + (nu^2 - 1/4)/x^2 u with u = x^{5/2} e^{-x}
        rhs = (-(2.5 * 1.5 * x ** 0.5 - 2 * 2.5 * x ** 1.5 + x ** 2.5)
               * np.exp(-x) + (nu * nu - 0.25) * x ** 0.5 * np.exp(-x))
        op = fd_assemble_model(nu, beta, g, 1)
        resid = op @ u - rhs
        sl = slice(n // 10, -n // 10)
        errs[n] = float(np.max(np.abs(resid[sl])) / np.max(np.abs(rhs[sl])))
    order = math.log2(errs[200] / errs[400])
    assert errs[400] <= 1e-3
    assert order >= 1.8


def test_fd_model_validation():
    # both orders share the Witt floor and the coarse-grid guard; a model
    # operator has 1 or 2 components
    g = build_grid(400)
    coarse = build_grid(16, 1e-4, 1e3)
    for n_c in (1, 2):
        with pytest.raises(WittViolationError):
            fd_assemble_model(1.2, 0.0, g, n_c)
        with pytest.raises(ConfigurationError):
            fd_assemble_model(2.0, 0.0, coarse, n_c)
    with pytest.raises(ConfigurationError):
        fd_assemble_model(2.0, 0.0, g, 3)


def _dense_t_derivatives(g):
    # the reference: d/dt and d^2/dt^2 as dense N x N matrices, one-sided
    # at the two boundary rows
    h, n = g.log_step, g.n
    d1, d2 = np.zeros((n, n)), np.zeros((n, n))
    i = np.arange(1, n - 1)
    d1[i, i - 1], d1[i, i + 1] = -0.5 / h, 0.5 / h
    d1[0, :3] = np.array([-1.5, 2.0, -0.5]) / h
    d1[-1, -3:] = np.array([0.5, -2.0, 1.5]) / h
    hh = h * h
    d2[i, i - 1], d2[i, i], d2[i, i + 1] = 1.0 / hh, -2.0 / hh, 1.0 / hh
    d2[0, :4] = np.array([2.0, -5.0, 4.0, -1.0]) / hh
    d2[-1, -4:] = np.array([-1.0, 4.0, -5.0, 2.0]) / hh
    return d1, d2


def test_fd_first_order_matches_block_formula():
    # the n_c = 2 band equals the block formula in mu = nu - 1/2 built from
    # a dense d/dx, and M(nu, -xi) = -sigma M(nu, xi) sigma,
    # sigma = diag(I, -I), bit for bit
    g = build_grid(64, 1e-2, 1e2)
    d1, _ = _dense_t_derivatives(g)
    dx, eye = d1 / g.nodes[:, None], np.eye(g.n)
    sigma = np.r_[np.ones(g.n), -np.ones(g.n)]
    for nu in (1.6, 2.1, 3.2):
        mu_over_x = np.diag((nu - 0.5) / g.nodes)
        for xi in (0.0, 3.0, -5.0, 0.37):
            band = fd_assemble_model(nu, xi, g, 2)
            assert band.w == 5
            m = _dense_from_band(band, 2)
            block = np.block([[xi * eye, -(dx - mu_over_x)],
                              [dx + mu_over_x, -xi * eye]])
            assert np.array_equal(m, block)
            assert np.array_equal(
                _dense_from_band(fd_assemble_model(nu, -xi, g, 2), 2),
                -(sigma[:, None] * m * sigma[None, :]))


def test_fd_assemble_model_matches_formula():
    # the band equals -(1/x^2)(D2 - D1) + diag((nu^2 - 1/4)/x^2 + beta^2)
    # built dense, bit for bit
    g = build_grid(64, 1e-2, 1e2)
    d1, d2 = _dense_t_derivatives(g)
    inv_x2 = 1.0 / g.nodes ** 2
    for nu, beta in ((1.6, 0.0), (2.1, 1.0), (3.5, 7.0)):
        m = -inv_x2[:, None] * (d2 - d1)
        m[np.diag_indices_from(m)] += (nu * nu - 0.25) * inv_x2 + beta * beta
        band = fd_assemble_model(nu, beta, g, 1)
        assert band.w == 3
        assert np.array_equal(_dense_from_band(band, 1), m)


def test_fd_bands_are_linear_in_memory():
    # N = 2000 dense mode matrices would take 122 MiB (2N x 2N) and 31 MiB
    # (N x N); the bands and their LU factors take well under 1 MiB each
    g = build_grid(2000, 1e-2, 1e2)
    tracemalloc.start()
    try:
        band_lu_factor(fd_assemble_model(2.1, 1.0, g, 2))
        band_lu_factor(fd_assemble_model(2.1, 1.0, g, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
