import math
from fractions import Fraction

import numpy as np
import pytest

from edgespec.errors import ConfigurationError, WittViolationError
from edgespec.grids import build_grid
from edgespec.kernels import require_witt_order
from edgespec.model import (FiberSpectrum, a_identity, check_witt,
                            round_trip_residual, solve_scalar,
                            verify_square_identity)


def test_witt_pass_and_fail():
    assert check_witt(FiberSpectrum((1.6, -1.6))).passes
    assert not check_witt(FiberSpectrum((1.0, -1.0))).passes  # boundary fails
    assert not check_witt(FiberSpectrum((0.9, -0.9, 2.0))).passes
    rep = check_witt(FiberSpectrum((1.6, -1.6)))
    assert rep.min_abs == 1.6
    assert rep.implied_nu_floor == pytest.approx(2.1)
    assert rep.delta == pytest.approx(0.6)


def test_witt_exact_fraction_arithmetic():
    spec = FiberSpectrum((Fraction(8, 5), Fraction(-8, 5)))
    rep = check_witt(spec)
    assert rep.implied_nu_floor == Fraction(21, 10)
    assert rep.delta == Fraction(3, 5)


def test_witt_verdict_is_the_floor():
    # check_witt passes exactly the spectra whose order floor the operators
    # accept, at the boundary |s| = 1 in floats, integers and Fractions
    tiny = Fraction(1, 10 ** 30)
    for s in (1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), 1, 2,
              Fraction(1), Fraction(1) - tiny, Fraction(1) + tiny):
        try:
            require_witt_order(abs(s) + Fraction(1, 2))
            accepted = True
        except WittViolationError:
            accepted = False
        assert check_witt(FiberSpectrum((s,))).passes == accepted, s


def test_a_identity_exact():
    for s in (Fraction(8, 5), Fraction(-3, 2), Fraction(0), Fraction(7, 3)):
        lhs, rhs = a_identity(s)
        assert lhs == rhs  # exact rational equality
    lhs, rhs = a_identity(-2.25)
    assert lhs == pytest.approx(rhs, rel=1e-15)


def test_fiber_spectrum_nu_values():
    spec = FiberSpectrum((1.6, -1.6, 2.5, -4.0))
    assert spec.nu_values() == (2.1, 3.0, 4.5)
    with pytest.raises(ConfigurationError):
        FiberSpectrum(())
    with pytest.raises(ConfigurationError):
        FiberSpectrum((1.0, math.inf))


def test_model_block_validation():
    # a model cell is (nu, beta = |xi|); test_one_witt_floor checks nu
    grid = build_grid(32, 1e-1, 10.0)
    for bad in (-1.0, math.nan):
        with pytest.raises(ConfigurationError):
            solve_scalar(2.0, bad, np.ones(grid.n), grid)
        with pytest.raises(ConfigurationError):
            verify_square_identity(2.0, bad, np.ones((2, grid.n)), grid)


@pytest.mark.parametrize("nu,beta", [(1.6, 0.0), (2.1, 1.0), (5.0, 1.0)])
def test_solve_scalar_round_trip(nu, beta):
    assert round_trip_residual(nu, beta, build_grid(400, 1e-2, 1e2)) <= 2e-3


def test_block_square_matches_scalar_squares():
    grid = build_grid(400, 1e-1, 10.0)
    t = np.log(grid.nodes)
    u = np.vstack([np.exp(-t ** 2), np.exp(-(t - 0.5) ** 2)])
    rep = verify_square_identity(2.1, 1.0, u, grid)
    assert rep["relative"] <= 5e-2  # first-order composition vs direct
    # and the discrepancy shrinks under refinement
    fine = build_grid(800, 1e-1, 10.0)
    tf = np.log(fine.nodes)
    uf = np.vstack([np.exp(-tf ** 2), np.exp(-(tf - 0.5) ** 2)])
    rep2 = verify_square_identity(2.1, 1.0, uf, fine)
    assert rep2["relative"] <= 0.6 * rep["relative"]


def test_square_identity_shape_checks():
    grid = build_grid(64, 1e-1, 10.0)
    with pytest.raises(ConfigurationError):
        verify_square_identity(2.0, 1.0, np.ones(grid.n), grid)
    with pytest.raises(ConfigurationError):
        verify_square_identity(2.0, 1.0, np.full((2, grid.n), np.nan), grid)
    rep = verify_square_identity(2.0, 1.0, np.ones((2, grid.n)), grid)
    assert set(rep) == {"max_discrepancy", "relative", "interior_nodes"}
