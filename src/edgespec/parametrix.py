"""FFT-based right inverses of the frozen-coefficient edge operators.

The edge R_+ x R_y is replaced by R_+ x (y-torus of period 2 pi) with b = 1,
so the Fourier conjugation is an exact FFT over at most 64 integer modes
xi_k.  Per mode the operator reduces to the model system on the half-line:

    first order:  [[xi, -(d/dx - mu/x)], [d/dx + mu/x, -xi]]   (2x2 per fiber)
    second order: -d^2/dx^2 + x^{-2}(nu^2 - 1/4) + xi^2        (scalar per fiber)

and the inverse is a dense LU solve of the same finite-difference matrix
that defines the discrete residual, making the right-inverse property exact
to solver tolerance.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .errors import ConfigurationError, NumericalError, PreconditionError
from .grids import HalfLineGrid, fd_assemble_model, fd_first_order
from .kernels import require_witt_order

Y_PERIOD = 2.0 * math.pi
MAX_Y_MODES = 64


@dataclass(frozen=True)
class EdgeFunction:
    """Samples on the (x-node, y-node, fiber, component) lattice.

    The y-nodes are equally spaced on the torus of period ``Y_PERIOD``.
    """

    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples)
        if s.ndim != 4:
            raise ConfigurationError(
                "samples must be (x, y, fiber, component) indexed")
        n_y = s.shape[1]
        if n_y & (n_y - 1) or n_y == 0 or n_y > MAX_Y_MODES:
            raise ConfigurationError(
                f"y-grid size must be a power of two <= {MAX_Y_MODES}")
        if not np.all(np.isfinite(s)):
            raise ConfigurationError("samples must be finite")
        object.__setattr__(self, "samples", s)

    @property
    def n_y(self):
        return self.samples.shape[1]


@dataclass(frozen=True)
class ParametrixReport:
    residual_rel: float
    w11_bound: float
    per_mode_decay: tuple
    xi_modes: tuple
    fitted_c: float


def _xi_modes(n_y):
    # integer frequencies on the 2 pi torus
    return np.fft.fftfreq(n_y, d=1.0 / n_y)


def _mode_matrix(nu, xi, grid, order):
    if order == "first":
        return fd_first_order(nu - 0.5, xi, grid)
    if order == "second":
        return fd_assemble_model(nu, abs(xi), grid).matrix
    raise ConfigurationError(f"unknown order {order!r}")


def _check_setup(u: EdgeFunction, nus, grid: HalfLineGrid, order):
    for nu in nus:
        require_witt_order(nu)
    s = np.asarray(u.samples, dtype=complex)
    n_x, _, n_f, n_c = s.shape
    if n_x != grid.n:
        raise ConfigurationError("x-sample count does not match the grid")
    if n_f != len(nus):
        raise ConfigurationError("fiber count does not match the order list")
    want = 2 if order == "first" else 1
    if n_c != want:
        raise ConfigurationError(
            f"{order}-order parametrix expects {want} components, got {n_c}")
    return s


def _solve_modes(s, nus, grid: HalfLineGrid, order):
    """Per-mode LU solves of the samples ``_check_setup`` returned; returns
    (Qu-hat, xi modes, per-mode input and output norms, residual sums)."""
    n_y = s.shape[1]
    u_hat = np.fft.fft(s, axis=1)
    q_hat = np.empty_like(u_hat)
    xis = _xi_modes(n_y)
    w = grid.weights
    n = grid.n
    resid_num = 0.0
    resid_den = 0.0
    mode_in = np.zeros(n_y)
    mode_out = np.zeros(n_y)
    for f, nu in enumerate(nus):
        lu_cache = {}
        for k, xi in enumerate(xis):
            key = xi if order == "first" else abs(xi)
            if key not in lu_cache:
                m = _mode_matrix(nu, xi, grid, order)
                try:
                    lu_cache[key] = (lu_factor(m), m)
                except Exception as exc:
                    raise NumericalError(
                        f"singular mode matrix at (nu={nu}, xi={xi})") from exc
            lu, m = lu_cache[key]
            rhs = u_hat[:, k, f, :].T.reshape(-1)
            sol_r = lu_solve(lu, rhs.real)
            sol_i = lu_solve(lu, rhs.imag)
            sol = sol_r + 1j * sol_i
            r = m @ sol - rhs
            wide = np.tile(w, rhs.size // n)
            resid_num += float(wide @ np.abs(r) ** 2)
            resid_den += float(wide @ np.abs(rhs) ** 2)
            q_hat[:, k, f, :] = sol.reshape(-1, n).T
            mode_in[k] += float(wide @ np.abs(rhs) ** 2)
            mode_out[k] += float(wide @ np.abs(sol) ** 2)
    return q_hat, xis, mode_in, mode_out, resid_num, resid_den


def parametrix_apply(u: EdgeFunction, nus, grid: HalfLineGrid,
                     order: str = "first") -> EdgeFunction:
    """Qu (order "first") or Q^2 u (order "second") by exact mode-wise solves."""
    q_hat, *_ = _solve_modes(_check_setup(u, nus, grid, order), nus, grid,
                             order)
    out = np.fft.ifft(q_hat, axis=1)
    if np.isrealobj(u.samples):
        out = out.real
    return EdgeFunction(out)


def _edge_l2(s, grid):
    w = grid.weights
    dy = Y_PERIOD / s.shape[1]
    return math.sqrt(float(np.sum(w[:, None, None, None]
                                  * np.abs(s) ** 2)) * dy)


def mapping_bounds(u: EdgeFunction, nus, grid: HalfLineGrid,
                   order: str = "first") -> ParametrixReport:
    """Weighted mapping norms and per-mode decay ratios of the parametrix.

    The input must be supported in x <= 1: a nonzero sample at a grid node
    x > 1 raises PreconditionError before any mode is solved.  Asserting the
    continuum statement is done by the caller via the fitted constant
    C = max_k ratio_k (1+|xi_k|)^order, which must be stable under grid
    refinement.
    """
    s = _check_setup(u, nus, grid, order)
    if np.any(s[grid.nodes > 1.0] != 0.0):
        raise PreconditionError(
            "mapping bounds require x-support inside [0, 1]")
    (q_hat, xis, mode_in, mode_out,
     resid_num, resid_den) = _solve_modes(s, nus, grid, order)
    if resid_den == 0.0:
        raise PreconditionError("mapping bounds need a nonzero input")
    qu = np.fft.ifft(q_hat, axis=1)
    power = 1 if order == "first" else 2
    x_weight = grid.nodes.astype(float) ** (-power)
    u_norm = _edge_l2(s, grid)
    w_bound = _edge_l2(x_weight[:, None, None, None] * qu, grid)
    active = mode_in > 1e-28 * mode_in.max()
    ratios = np.sqrt(mode_out[active] / mode_in[active])
    envelope = (1.0 + np.abs(xis[active])) ** (-power)
    return ParametrixReport(
        residual_rel=math.sqrt(resid_num / resid_den),
        w11_bound=w_bound / u_norm,
        per_mode_decay=tuple(ratios),
        xi_modes=tuple(xis[active]),
        fitted_c=float(np.max(ratios / envelope)),
    )
