import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from edgespec import kernels
from edgespec.errors import (ConfigurationError, DomainError,
                             PreconditionError, WittViolationError)
from edgespec.grids import (build_grid, fd_assemble_model,
                            free_column_quadrature, log_gauss_rule)
from edgespec.kernels import (IDENTITY_ACTION, ConeKernel, WeightedAction,
                              decay_estimate_check, exact_weighted_norm,
                              free_schur_integrals, kernel_factors,
                              weighted_kernel_from_factors,
                              weighted_kernel_matrix)
from edgespec.model import (ACTIONS, solve_scalar, uniform_bound_sweep,
                            verify_square_identity)
from edgespec.parametrix import EdgeFunction, parametrix_apply


def _value(kern, action, x, y):
    """The weighted kernel at one point (x, y)."""
    return weighted_kernel_matrix(kern, action, [x], [y])[0, 0]


def test_kernel_construction_validation():
    # beta = 0 is the free kernel and beta > 0 the Bessel kernel; a negative
    # or NaN beta is neither
    free = ConeKernel(2.0, 0.0)
    assert _value(free, IDENTITY_ACTION, 1.0, 1.0) == 0.25
    assert ConeKernel(2.0, 1.0).beta == 1.0
    for beta in (-1.0, math.nan):
        with pytest.raises(ConfigurationError):
            ConeKernel(2.0, beta)


def _parametrix(nu):
    grid = build_grid(64, 1e-2, 1e2)
    return parametrix_apply(EdgeFunction(np.ones((grid.n, 2, 1, 2))), (nu,),
                            grid)


def _sweep(nu):
    # FiberSpectrum rejects a NaN eigenvalue itself; a stand-in with the
    # same nu_values reaches the sweep's own floor check
    return uniform_bound_sweep(SimpleNamespace(nu_values=lambda: (nu,)),
                               (1.0,), grid_n=32)


WITT_FLOOR_CALLS = {
    "ConeKernel": ConeKernel,
    "solve_scalar": lambda nu: solve_scalar(
        nu, 0.0, np.ones(32), build_grid(32, 1e-1, 10.0)),
    "fd_assemble_model": lambda nu: fd_assemble_model(
        nu, 0.0, build_grid(32, 1e-1, 10.0), 1),
    "fd_assemble_model_first_order": lambda nu: fd_assemble_model(
        nu, 1.0, build_grid(32, 1e-1, 10.0), 2),
    "parametrix_apply": _parametrix,
    "free_schur_integrals": free_schur_integrals,
    "exact_weighted_norm": lambda nu: exact_weighted_norm(nu, 0),
    "uniform_bound_sweep": _sweep,
    "verify_square_identity": lambda nu: verify_square_identity(
        nu, 1.0, np.ones((2, 32)), build_grid(32, 1e-1, 10.0)),
}


@pytest.mark.parametrize("name", sorted(WITT_FLOOR_CALLS))
def test_one_witt_floor(name):
    # every layer refuses nu = 3/2 and NaN and takes any nu above 3/2
    call = WITT_FLOOR_CALLS[name]
    for nu in (1.5, math.nan):
        with pytest.raises(WittViolationError):
            call(nu)
    call(1.52)


def test_free_kernel_point_value():
    k = ConeKernel(2.0)
    assert _value(k, IDENTITY_ACTION, 1.0, 1.0) == pytest.approx(
        0.25, rel=1e-14)


def test_kernel_symmetry():
    pts = [(0.3, 1.7), (2.0, 0.01), (5.0, 5.0), (100.0, 0.2)]
    for kern in (ConeKernel(2.5), ConeKernel(2.5, 1.3)):
        for x, y in pts:
            forward = _value(kern, IDENTITY_ACTION, x, y)
            back = _value(kern, IDENTITY_ACTION, y, x)
            assert forward == pytest.approx(back, rel=1e-12)


def test_bessel_kernel_point_value():
    # sqrt(2) I_2(1) K_2(2), mpmath dps=30
    k = ConeKernel(2.0, 1.0)
    assert _value(k, IDENTITY_ACTION, 2.0, 1.0) == pytest.approx(
        0.048715832289423085, rel=1e-10)


def test_free_weighted_derivative_closed_form():
    # on the y < x branch, (x d/dx)[x^-2 k] = (-nu - 3/2) x^-2 k
    nu = 2.0
    k = ConeKernel(nu)
    base = _value(k, WeightedAction(-2, 0), 3.0, 1.0)
    once = _value(k, WeightedAction(-2, 1), 3.0, 1.0)
    assert once == pytest.approx((-nu - 1.5) * base, rel=1e-13)


@pytest.mark.parametrize("kern", [ConeKernel(2.5), ConeKernel(2.5, 1.0)])
@pytest.mark.parametrize("weight,nder", [(0, 1), (-2, 1), (-2, 2)])
def test_derivative_kernels_match_finite_differences(kern, weight, nder):
    x, y = 3.0, 1.0  # safely away from the diagonal
    h = 1e-4

    def f(z):
        return z ** weight * _value(kern, IDENTITY_ACTION, z, y)

    if nder == 1:
        fd = x * (f(x * (1 + h)) - f(x * (1 - h))) / (2 * h * x)
    else:
        lf = [math.log(f(x * math.exp(s * h))) for s in (-1, 0, 1)]
        # (x d/dx)^2 in log coordinates: d^2/dt^2 of f(e^t)
        v = [math.exp(l) for l in lf]
        fd = (v[0] - 2 * v[1] + v[2]) / h ** 2
    analytic = _value(kern, WeightedAction(weight, nder), x, y)
    assert analytic == pytest.approx(fd, rel=1e-6)


def test_free_schur_integrals_closed_form():
    row, col = free_schur_integrals(2.0)
    assert row == pytest.approx(1.0 / 1.75, rel=1e-15)
    assert col == pytest.approx(1.0 / 3.75, rel=1e-15)
    with pytest.raises(WittViolationError):
        free_schur_integrals(1.5)
    # large-order limit
    row, _ = free_schur_integrals(1e6)
    assert row * 1e12 == pytest.approx(1.0, rel=1e-10)


def test_schur_integrals_match_quadrature():
    # column integral int x^-2 k(x, 1) dx, split at the branch kink
    for nu in (1.6, 2.0, 3.0, 5.0, 10.0):
        _, col = free_schur_integrals(nu)
        assert free_column_quadrature(nu) == pytest.approx(col, rel=1e-8)


def test_column_quadrature_resolves_large_orders():
    # the integrand's layer at x = 1 is 1/nu wide in ln x; panels fixed in x
    # missed it (relative error 3.8e-8 at nu = 300, 1.0 at 1e5)
    for nu in (300.0, 1e3, 1e4, 1e6):
        _, col = free_schur_integrals(nu)
        assert free_column_quadrature(nu) == pytest.approx(col, rel=1e-8)


def _product_pair(nu, x, y):
    """(|K_nu(x) I_nu(y)|, (1/nu)(y/x)^nu) for y <= x, read off the kernels.

    Both kernels carry the factor (xy)^{1/2}: the Bessel kernel at beta = 1
    divided by it is the product, twice the free kernel divided by it is the
    claimed bound.
    """
    root = math.sqrt(x * y)
    kb = _value(ConeKernel(nu, 1.0), IDENTITY_ACTION, x, y)
    kf = _value(ConeKernel(nu), IDENTITY_ACTION, x, y)
    return kb / root, 2.0 * kf / root


def test_product_bound_values():
    # I_5(1) K_5(1), mpmath dps=30
    lhs, rhs = _product_pair(5.0, 1.0, 1.0)
    assert lhs == pytest.approx(0.0979875008292421248, rel=1e-10)
    assert rhs == pytest.approx(0.2, rel=1e-15)


def test_product_bound_uniform_in_order():
    ratios = []
    for nu in (2.0, 5.0, 10.0, 20.0, 50.0):
        lhs, rhs = _product_pair(nu, 2.0, 1.0)
        ratios.append(lhs / rhs)
    assert max(ratios) <= 2.0  # single modest constant across the sweep


def test_product_bound_small_ratio_limit():
    vals = []
    for y in (0.5, 0.1, 1e-3, 1e-6):
        lhs, rhs = _product_pair(2.0, 1.0, y)
        vals.append(lhs / rhs)
    assert max(vals) <= 2.0


def test_decay_estimate_exact_power_integral():
    # free kernel, nu = 2, u = 1 on [0, 1], x = 4:
    # Ku = (1/4) x^{-3/2} int_0^1 y^{5/2} dy = 1/112
    nodes, weights = log_gauss_rule(128, 1e-8, 1.0)
    u = np.ones(nodes.size)
    val, deriv = decay_estimate_check(ConeKernel(2.0), nodes, weights, u, 4.0)
    assert val == pytest.approx(1.0 / 112.0, rel=1e-8)
    assert deriv == pytest.approx(1.5 / 112.0, rel=1e-8)


def test_decay_estimate_preconditions():
    grid = build_grid(32, 1e-3, 1.0)
    u = np.ones(grid.n)
    kern = ConeKernel(2.0)
    with pytest.raises(PreconditionError):
        decay_estimate_check(kern, grid.nodes, grid.weights, u, 0.5)
    wide = build_grid(32, 1e-3, 2.0)
    with pytest.raises(PreconditionError):
        decay_estimate_check(kern, wide.nodes, wide.weights,
                             np.ones(wide.n), 4.0)
    assert decay_estimate_check(kern, grid.nodes, grid.weights,
                                0.0 * u, 4.0) == (0.0, 0.0)


def test_bessel_kernel_dominated_by_free_envelope():
    # |K_nu(bx) I_nu(by)| <= C (1/nu)(y/x)^nu for y <= x
    nu, beta, x = 3.0, 1.0, 10.0
    kb = ConeKernel(nu, beta)
    kf = ConeKernel(nu)
    for y in (0.1, 1.0, 5.0, 9.0):
        ratio = (_value(kb, IDENTITY_ACTION, x, y)
                 / _value(kf, IDENTITY_ACTION, x, y))
        assert ratio <= 2.0 * nu  # envelope with a modest constant


def test_extreme_parameters_no_overflow():
    k = ConeKernel(2.0, 10.0)
    m = weighted_kernel_matrix(k, WeightedAction(-2, 2),
                               np.array([1e-4, 1.0, 1e3]),
                               np.array([1e-4, 1.0, 1e3]))
    assert np.all(np.isfinite(m))
    # deep underflow clamps to zero rather than raising
    v = _value(ConeKernel(100.0), IDENTITY_ACTION, 1e3, 1e-3)
    assert v == 0.0
    with pytest.raises(DomainError):
        _value(k, IDENTITY_ACTION, -1.0, 1.0)


@pytest.mark.parametrize("kern", [ConeKernel(2.5), ConeKernel(2.5, 1.3)])
@pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan, math.inf])
def test_kernel_points_positive_and_finite(kern, bad):
    # both kernels refuse the same points, on either side (the free kernel
    # once gave NaN at x = NaN and 0.0 at x = inf)
    with pytest.raises(DomainError, match="positive and finite"):
        kernel_factors(kern, [1.0, bad])
    for x, y in ((bad, 1.0), (1.0, bad)):
        with pytest.raises(DomainError):
            _value(kern, IDENTITY_ACTION, x, y)


@pytest.mark.parametrize("kern", [ConeKernel(2.5), ConeKernel(2.5, 1.3)])
@pytest.mark.parametrize("orders", [0, -1, 1.5])
def test_kernel_factor_orders_are_ints_from_one(kern, orders):
    # the Bessel kernel once raised an IndexError, numpy's ValueError and a
    # TypeError; the free kernel ignored the count
    with pytest.raises(ConfigurationError, match="orders >= 1"):
        kernel_factors(kern, [1.0, 2.0], orders)


@pytest.mark.parametrize("kern", [ConeKernel(2.5), ConeKernel(2.5, 1.3)])
@pytest.mark.parametrize("action", ACTIONS)
def test_weighted_kernel_pairs_equal_matrix_entries(kern, action):
    rng = np.random.default_rng(3)
    x = 10.0 ** rng.uniform(-4.0, 3.0, size=40)
    y = 10.0 ** rng.uniform(-4.0, 3.0, size=40)
    y[:5] = x[:5]  # on the diagonal, where the two branches meet
    # the pairs (x_i, y_i), as the Nystrom diagonal pass evaluates them
    pairs = weighted_kernel_from_factors(
        kern, action, kernel_factors(kern, x, action.edge_derivatives + 1),
        kernel_factors(kern, y))
    assert pairs.shape == (40,)
    full = weighted_kernel_matrix(kern, action, x, y)
    assert np.array_equal(pairs, np.diag(full))
    # a value does not depend on the batch it is computed in
    assert _value(kern, action, x[7], y[7]) == full[7, 7]


@pytest.mark.parametrize("a", [0, 1, 2])
def test_bessel_matrix_calls_each_order_once(monkeypatch, a):
    calls = []

    def counting(nu, x, offset=0):
        orders = nu + np.broadcast_to(offset, np.shape(x))
        calls.append(sorted(set(orders.ravel().tolist())))
        return bessel_ik(nu, x, offset)

    bessel_ik = kernels.log_bessel_ik
    monkeypatch.setattr(kernels, "log_bessel_ik", counting)
    xs = np.geomspace(1e-3, 1e2, 30)
    weighted_kernel_matrix(ConeKernel(2.5, 1.0),
                           WeightedAction(-2, a), xs, xs)
    # orders nu..nu+a at beta x in one call, order nu at beta y in another
    assert calls == [[2.5 + j for j in range(a + 1)], [2.5]]


@pytest.mark.parametrize("kern", [ConeKernel(3.0), ConeKernel(3.0, 1.0)])
def test_combine_holds_no_square_temporary(kern):
    # the combine builds its result in place: beside the N x N result it
    # holds the two branch masks (N^2 / 4 doubles) and nothing of size
    # N^2 in doubles, so one N = 400 combine stays within N^2 doubles more
    n = 400
    x = build_grid(n, 1e-4, 1e3).nodes
    action = WeightedAction(-2, 2)
    fx = kernel_factors(kern, x, 3).reshape(-1, 1)
    fy = kernel_factors(kern, x).reshape(1, -1)
    tracemalloc.start()
    try:
        m = weighted_kernel_from_factors(kern, action, fx, fy)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert m.shape == (n, n)
    assert peak - m.nbytes <= n * n * 8
