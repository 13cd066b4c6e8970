"""Model Bessel operators, their explicit inverses and the Witt checker.

The fiber operator S is modeled by its (finite, truncated) eigenvalue list.
Each eigenvalue s contributes nu = |s| + 1/2, and the squared model operator
reduces over the corresponding fiber to the scalar Bessel operator

    -d^2/dx^2 + x^{-2}(nu^2 - 1/4) + beta^2,    beta = |xi|,

inverted by the cone kernels of :mod:`edgespec.kernels`.  The first-order
model reduces to a 2x2 block in mu = nu - 1/2.  Both finite-difference
model operators, with their formulas, come from the one builder
``grids.fd_assemble_model``.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigurationError
from .grids import (X_MAX_DEFAULT, X_MIN_DEFAULT, HalfLineGrid, build_grid,
                    fd_assemble_model, nystrom_assemble, operator_norm)
from .kernels import (WITT_FLOOR, ConeKernel, WeightedAction,
                      require_witt_order, weighted_kernel_matrix)


@dataclass(frozen=True)
class FiberSpectrum:
    """Truncated spectrum of the fiber operator S."""

    eigenvalues: tuple

    def __post_init__(self):
        if len(self.eigenvalues) == 0:
            raise ConfigurationError("fiber spectrum must be nonempty")
        if not all(math.isfinite(float(s)) for s in self.eigenvalues):
            raise ConfigurationError("fiber eigenvalues must be finite")

    def nu_values(self):
        """Distinct Bessel orders nu = |s| + 1/2, sorted."""
        return tuple(sorted({abs(float(s)) + 0.5 for s in self.eigenvalues}))


@dataclass(frozen=True)
class WittReport:
    passes: bool
    min_abs: float
    implied_nu_floor: float
    delta: float


def _half_like(s):
    return Fraction(1, 2) if isinstance(s, Fraction) else 0.5


def check_witt(spectrum: FiberSpectrum) -> WittReport:
    """Spectral Witt condition: the implied order floor min|s| + 1/2 lies
    above ``WITT_FLOOR``, by the comparison ``kernels.require_witt_order``
    makes (so |s| = 1 fails); delta is the clearance above it.  This reports
    and raises nothing; ``require_witt_order`` is what operators enforce.
    """
    mags = [abs(s) for s in spectrum.eigenvalues]
    min_abs = min(mags)
    floor = min_abs + _half_like(min_abs)
    delta = floor - WITT_FLOOR
    return WittReport(passes=floor > float(WITT_FLOOR),
                      min_abs=min_abs,
                      implied_nu_floor=floor,
                      delta=delta)


def a_identity(s):
    """Both sides of (|s| + 1/2)^2 - 1/4 = s^2 + |s|; exact for Fractions."""
    half = _half_like(s)
    quarter = half * half
    lhs = (abs(s) + half) ** 2 - quarter
    rhs = s * s + abs(s)
    return lhs, rhs


def solve_scalar(nu: float, beta: float, g, grid: HalfLineGrid):
    """f = K g by Nystrom application of the inverse kernel of (nu, beta).

    The finite-difference model operator applied to f reproduces g to O(h^2)
    on the grid interior.
    """
    g = np.asarray(g, dtype=float)
    m = weighted_kernel_matrix(ConeKernel(nu, beta), WeightedAction(0, 0),
                               grid.nodes, grid.nodes)
    return m @ (grid.weights * g)


def round_trip_residual(nu: float, beta: float, grid: HalfLineGrid) -> float:
    """Relative interior residual of g -> f = K g -> L_h f against g.

    g = exp(-(ln x)^2); K is applied by ``solve_scalar`` and L_h is
    ``fd_assemble_model``, so the residual is the FD truncation error,
    O(h^2).  Measured in the weighted L^2 norm on ``interior_slice`` nodes.
    """
    g = np.exp(-np.log(grid.nodes) ** 2)
    f = solve_scalar(nu, beta, g, grid)
    resid = fd_assemble_model(nu, beta, grid, 1) @ f - g
    sl = interior_slice(grid.n)
    w = grid.weights[sl]
    return math.sqrt(float(w @ resid[sl] ** 2) / float(w @ g[sl] ** 2))


def interior_slice(n: int):
    """Central 80% of the nodes, excluding boundary-closure artifacts."""
    skip = int(round(0.5 * (1.0 - 0.8) * n))
    return slice(skip, n - skip)


def interior_discrepancy(approx, exact):
    """Max and relative gap of two (components, N) arrays on interior nodes."""
    sl = interior_slice(exact.shape[1])
    diff = np.max(np.abs(approx[:, sl] - exact[:, sl]))
    scale = max(np.max(np.abs(exact[:, sl])), 1e-300)
    return {"max_discrepancy": float(diff), "relative": float(diff / scale)}


def verify_square_identity(nu: float, beta: float, u, grid: HalfLineGrid):
    """Compare (2x2 block applied twice) with the direct scalar squares.

    The block is the band ``fd_assemble_model(nu, beta, grid, 2)``, applied
    to a finite (2, N) section u in its node-major layout (node i,
    component c at 2i + c).  The references come from the same builder's
    scalar L = ``fd_assemble_model(nu, beta, grid, 1)``: L u[0] for the
    upper square, since mu(mu + 1) = nu^2 - 1/4, and L u[1] - 2 mu x^-2 u[1]
    for the lower one, since mu(mu - 1) = mu(mu + 1) - 2 mu.  ``beta`` =
    |xi| must lie in [0, inf), as in ``ConeKernel``.  Composing
    centered first differences is only O(h) accurate against the
    second-order scalar assembly; the report carries the interior max
    discrepancy so callers can record the refinement order.
    """
    if not 0.0 <= beta < math.inf:
        raise ConfigurationError(
            f"beta must be nonnegative and finite, got {beta}")
    u = np.asarray(u, dtype=float)
    if u.shape != (2, grid.n) or not np.all(np.isfinite(u)):
        raise ConfigurationError("expected a finite (2, N) section")
    block = fd_assemble_model(nu, beta, grid, 2)
    scalar = fd_assemble_model(nu, beta, grid, 1)
    twice = (block @ (block @ u.T.reshape(-1))).reshape(grid.n, 2).T
    direct = np.vstack([
        scalar @ u[0],
        scalar @ u[1] - 2.0 * (nu - 0.5) / grid.nodes ** 2 * u[1],
    ])
    return {**interior_discrepancy(twice, direct),
            "interior_nodes": grid.n - 2 * interior_slice(grid.n).start}


ACTIONS = (WeightedAction(-2, 0), WeightedAction(-2, 1), WeightedAction(-2, 2))


def uniform_bound_sweep(spectrum: FiberSpectrum, betas, grid_n: int = 400,
                        x_min: float = X_MIN_DEFAULT,
                        x_max: float = X_MAX_DEFAULT):
    """Norm table of X^-2 K and its edge derivatives across (nu, beta).

    Every order must pass ``require_witt_order``; the smallest is checked
    before any assembly.  Each (nu, beta) cell is one ``nystrom_assemble``
    call for its three actions, so each Bessel factor is evaluated once per
    cell.  Each row carries the three estimated norms; criterion 2 of the
    acceptance suite divides them by ``kernels.exact_weighted_norm``.
    """
    require_witt_order(min(spectrum.nu_values()))
    grid = build_grid(grid_n, x_min, x_max)
    rows = []
    for nu in spectrum.nu_values():
        for beta in betas:
            norms = [operator_norm(m, grid.weights) for m in
                     nystrom_assemble(ConeKernel(nu, beta), ACTIONS, grid)]
            rows.append({
                "nu": nu, "beta": float(beta),
                "norm0": norms[0], "norm1": norms[1], "norm2": norms[2],
                # Schur-normalized norms: the benchmark's sweep check
                # compares them and rebuilds its own summary from them
                "ratio0": norms[0] * (nu * nu - 2.25),
                "ratio1": norms[1] * nu,
                "ratio2": norms[2],
            })
    return {"rows": rows}
