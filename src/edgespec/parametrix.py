"""FFT-based right inverses of the frozen-coefficient edge operators.

The edge R_+ x R_y is replaced by R_+ x (y-torus of period 2 pi) with b = 1,
so the Fourier conjugation is an exact FFT over at most 64 integer modes
xi_k.  Per mode and fiber the operator reduces to the model system on the
half-line: ``grids.fd_assemble_model(nu, xi, grid, n_c)`` with the
section's component count n_c, 2 for the first-order block and 1 for the
second-order scalar.

The inverse is a banded LU solve of the same finite-difference matrix that
defines the discrete residual, making the right-inverse property exact to
solver tolerance.  The unknowns are taken in node-major order, (node i,
component c) at n_c i + c, so each mode costs O(N) work, and the residual
is a sum over the band's diagonals.  The modes +xi and -xi share one
factorization: the first-order matrix is odd in xi up to its grading,
M(-xi) = -sigma M(xi) sigma with sigma = diag(1, -1), and the second-order
one depends on xi^2 only.  The signs go onto the -|xi| modes before the
solves and come off after them, so each fiber factors one block-diagonal
band over its distinct |xi|.  The mapping norms are per-mode sums
(Parseval).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError, PreconditionError
# The benchmark's tracer looks the factorization and the solve up by these
# two names until the library records its own spans (ROADMAP item 1).
from .grids import band_lu_factor as lu_factor
from .grids import band_lu_solve as lu_solve
from .grids import HalfLineGrid, fd_assemble_model
from .kernels import require_witt_order

Y_PERIOD = 2.0 * math.pi
MAX_Y_MODES = 64
# Rows of one block-diagonal band: a fiber's |xi| blocks share one LU call
# up to this length, so that at large N (2N rows per first-order block,
# 25600 at N = 12800) the band holds one block, as an unbatched solve would
_BAND_ROWS = 2 ** 14


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
    # the dual frequencies of the y-torus: integers times 2 pi / Y_PERIOD,
    # which is exactly 1.0
    return np.fft.fftfreq(n_y, d=1.0 / n_y) * (2.0 * math.pi / Y_PERIOD)


def _check_setup(u: EdgeFunction, nus, grid: HalfLineGrid):
    for nu in nus:
        require_witt_order(nu)
    s = np.asarray(u.samples)
    n_x, _, n_f, n_c = s.shape
    if n_x != grid.n:
        raise ConfigurationError("x-sample count does not match the grid")
    if n_f != len(nus):
        raise ConfigurationError("fiber count does not match the order list")
    if n_c not in (1, 2):
        raise ConfigurationError(
            f"a section has 2 components (first order) or 1, got {n_c}")
    return s


def random_section(grid: HalfLineGrid, n_y, n_fibers, n_c, rng):
    """Normal draws on the nodes 0.05 < x < 0.8, zero elsewhere."""
    s = np.zeros((grid.n, n_y, n_fibers, n_c))
    mask = (grid.nodes > 0.05) & (grid.nodes < 0.8)
    s[mask] = rng.normal(size=(int(mask.sum()), n_y, n_fibers, n_c))
    return EdgeFunction(s)


def smooth_section(grid: HalfLineGrid, profile, n_c):
    """One fiber of n_c equal components: a smooth x-bump times ``profile``.

    The bump is exp(-1/((t - ln 0.05)(ln 0.8 - t))), t = ln x, on the nodes
    0.05 < x < 0.8 and zero elsewhere; ``profile`` holds the samples on the
    y-nodes.  With the same bump on every y-mode, per-mode decay ratios
    isolate the frequency dependence of the mode solves.
    """
    x, t = grid.nodes, np.log(grid.nodes)
    bump = np.where((x > 0.05) & (x < 0.8),
                    np.exp(-1.0 / np.clip((t - np.log(0.05))
                                          * (np.log(0.8) - t),
                                          1e-12, None)), 0.0)
    prof = np.asarray(profile, dtype=float)
    return EdgeFunction(bump[:, None, None, None] * prof[None, :, None, None]
                        * np.ones((1, 1, 1, n_c)))


def _solve_modes(s, nus, grid: HalfLineGrid):
    """Banded LU solves of the samples ``_check_setup`` returned, per fiber
    and |xi|; returns the transforms of u, Qu and the residual, and the xi
    modes.

    By the symmetry in the module docstring (sigma per node), M(-xi) y = b
    is M(|xi|) (s_q y) = s_b b with s_b = -sigma, s_q = sigma (first order)
    or 1 (second order), and its residual is s_b times that of M(|xi|).
    The -|xi| modes of the right-hand sides take s_b before the solves,
    those of the solutions s_q and of the residuals s_b after them.  Each
    fiber builds one block-diagonal band over the distinct |xi|
    (``fd_assemble_model`` with an array of xi) and makes one
    ``lu_factor``, one ``lu_solve`` and one residual product M y - b on
    the real view of complex right-hand sides indexed (block, node,
    component, side): four columns, Re and Im of the +|xi| mode, then of
    the -|xi| mode (zero where xi = 0 or the Nyquist -n_y/2 has no
    partner).  A sign flip is exact and pivoting compares absolute values,
    so every mode gets the values of its own signed solve; only an exact
    zero of the residual may change its sign.  A band longer than
    ``_BAND_ROWS`` rows is split into several such calls.
    """
    n_x, n_y, _, n_c = s.shape
    u_hat = np.fft.fft(s, axis=1)
    q_hat, r_hat = np.empty_like(u_hat), np.empty_like(u_hat)
    xis = _xi_modes(n_y)
    levels, block = np.unique(np.abs(xis), return_inverse=True)
    neg = xis < 0
    side = neg.astype(int)
    # s_b = -sigma negates component 0, s_q = sigma component 1 (n_c = 2)
    flip_b, flip_q = slice(0, n_c - 1), slice(1, None)
    b_hat = u_hat.copy()
    b_hat[:, neg, :, flip_b] = -b_hat[:, neg, :, flip_b]
    rows = n_x * n_c
    per_call = max(1, _BAND_ROWS // rows)
    for f, nu in enumerate(nus):
        for lo in range(0, len(levels), per_call):
            chunk = levels[lo:lo + per_call]
            band = fd_assemble_model(nu, chunk, grid, n_c)
            try:
                lu = lu_factor(band)
            except NumericalError as exc:
                m = chunk[exc.pivot // rows]
                raise NumericalError(
                    f"singular mode matrix at (nu={nu}, xi=±{m:g})") from exc
            ks = np.flatnonzero((block >= lo) & (block < lo + per_call))
            # each mode's place among the (block, node, component, side)
            at = (block[ks] - lo, slice(None), slice(None), side[ks])
            b = np.zeros((len(chunk), n_x, n_c, 2), dtype=complex)
            b[at] = b_hat[:, ks, f, :].transpose(1, 0, 2)
            b = b.view(float).reshape(-1, 4)
            # dgbtrs returns Fortran order; the complex view needs C order
            y = np.ascontiguousarray(lu_solve(lu, b))
            for out, cols in ((q_hat, y), (r_hat, band @ y - b)):
                c = cols.view(complex).reshape(len(chunk), n_x, n_c, 2)
                out[:, ks, f, :] = c[at].transpose(1, 0, 2)
    q_hat[:, neg, :, flip_q] = -q_hat[:, neg, :, flip_q]
    r_hat[:, neg, :, flip_b] = -r_hat[:, neg, :, flip_b]
    return u_hat, q_hat, r_hat, xis


def _mode_sums(a_hat, x_weight):
    # sum over x, fibers and components of x_weight |a_hat|^2, per y-mode
    return np.einsum("i,ikfc->k", x_weight, np.abs(a_hat) ** 2)


def parametrix_apply(u: EdgeFunction, nus, grid: HalfLineGrid) -> EdgeFunction:
    """Qu (2 components) or Q^2 u (1 component) by exact mode-wise solves;
    Qu of a real section is complex (the first-order symbol is odd in xi)."""
    _, q_hat, _, _ = _solve_modes(_check_setup(u, nus, grid), nus, grid)
    out = np.fft.ifft(q_hat, axis=1)
    if np.isrealobj(u.samples) and u.samples.shape[3] == 1:
        out = out.real
    return EdgeFunction(out)


def mapping_bounds(u: EdgeFunction, nus, grid: HalfLineGrid
                   ) -> ParametrixReport:
    """Weighted mapping norms and per-mode decay ratios of the parametrix.

    The power is p = 1 for a 2-component section, p = 2 for 1 component.
    The input must be supported in x <= 1: a nonzero sample at a grid node
    x > 1 raises PreconditionError before any mode is solved.
    ``w11_bound`` = ||x^-p Qu|| / ||u||.  Numpy's FFT gives
    sum_y |q|^2 = n_y^-1 sum_k |q-hat_k|^2 and the factor cancels in the
    ratio, so both norms are per-mode sums (Parseval).  The caller asserts
    the continuum statement via the fitted constant
    C = max_k ratio_k (1+|xi_k|)^p, which must be stable under refinement.
    """
    s = _check_setup(u, nus, grid)
    if np.any(s[grid.nodes > 1.0] != 0.0):
        raise PreconditionError(
            "mapping bounds require x-support inside [0, 1]")
    u_hat, q_hat, r_hat, xis = _solve_modes(s, nus, grid)
    w = grid.weights
    mode_in, mode_out = _mode_sums(u_hat, w), _mode_sums(q_hat, w)
    u_sq = float(mode_in.sum())
    if u_sq == 0.0:
        raise PreconditionError("mapping bounds need a nonzero input")
    power = 3 - s.shape[3]
    qx_sq = float(_mode_sums(q_hat, w * grid.nodes ** (-2 * power)).sum())
    active = mode_in > 1e-28 * mode_in.max()
    ratios = np.sqrt(mode_out[active] / mode_in[active])
    envelope = (1.0 + np.abs(xis[active])) ** (-power)
    return ParametrixReport(
        residual_rel=math.sqrt(float(_mode_sums(r_hat, w).sum()) / u_sq),
        w11_bound=math.sqrt(qx_sq / u_sq),
        per_mode_decay=tuple(ratios),
        xi_modes=tuple(xis[active]),
        fitted_c=float(np.max(ratios / envelope)),
    )
