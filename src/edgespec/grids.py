"""Half-line grids, quadrature, Nystrom/finite-difference assembly, norms.

This module is the one home of the finite-difference stencils, and
``fd_assemble_model`` is their one builder: the model and parametrix layers
take both model operators, the first-order block and the second-order
scalar, from it.  Stencils are built as bands; no dense FD matrix is
formed.  The stencil table holds d/dt and d^2/dt^2 by diagonals, and the
builder places its node blocks straight into the LAPACK band storage of
``BandMatrix``, which ``band_lu_factor`` and ``band_lu_solve`` factor and
solve in O(N).

Everything lives on a truncated half-line [x_min, x_max]: ``build_grid``
gives log-uniform nodes with trapezoid weights, and ``log_gauss_rule`` gives
log-Gauss panels for the quadratures that need them.  In the variable
t = ln x the edge derivative (x d/dx) is plain d/dt and the model operator
-d^2/dx^2 becomes -x^{-2}(d_t^2 - d_t).  Nystrom assembly returns plain
matrices acting on grid samples; ``operator_norm`` measures them in the
metric of the grid weights.

``nystrom_assemble`` is the one way from a kernel to its Nystrom matrices:
it takes the actions of one kernel, evaluates the kernel factors at the
nodes and at the diagonal-cell points once, and returns one matrix per
action.  Its diagonal pass evaluates the kernel only at the pairs it keeps.

``operator_norm`` returns the value at which a power iteration on the Gram
matrix B = A^T A stops, without running its steps and without forming B:
each Lanczos step applies B as two matrix-vector products with A.  Each
step's estimate
lambda_s = mu_(2s+1) / mu_(2s) is a ratio of Krylov moments
mu_p = z_0^T B^p z_0, and j Lanczos steps give a tridiagonal T_j whose
Gauss rule reproduces every moment of degree <= 2j - 1 (Golub and Meurant,
*Matrices, Moments and Quadrature with Applications*, 2010, ch. 6).  So the
stopping rule is evaluated on T_j's eigenvalues and weights.  The result is
taken when its stopping step s* is below j (then it is exact up to
rounding), or when two successive checks agree on s* and on the value.
The 45 sweep norms need Lanczos dimensions of 16 to 136, where the
iteration runs up to 7567 steps.  The value is the power iteration's, not
the top singular value, because the stored reference values pin it.
Entries below sqrt(tiny) of the scaled A are flushed to zero first, which
moves the norm by at most N sqrt(tiny) = N 1.5e-154 relative and keeps
subnormal doubles, several times slower to multiply, out of the products.

``tridiagonal_eigenpairs`` gives the lowest eigenpairs of a symmetric
tridiagonal matrix by bisection and inverse iteration, in O(n) per pair;
the boundary fingerprint of ``scales.same_scale_demo`` takes its three
from it.

The module needs only numpy on import; scipy's LAPACK routines are
imported inside the functions that call them: the band LU in
``band_lu_factor`` and ``band_lu_solve``, on the first parametrix solve,
and the tridiagonal eigen-solve in ``tridiagonal_eigenpairs``, on the
first fingerprint.  ``edgespec all`` loads scipy for both; importing the
package, measuring a norm and the benchmark's set-up do not.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, NumericalError
from .kernels import (ConeKernel, WeightedAction, kernel_factors,
                      require_witt_order, weighted_kernel_from_factors,
                      weighted_kernel_matrix)

X_MIN_DEFAULT = 1e-4
X_MAX_DEFAULT = 1e3
GAUSS_PANEL_NODES = 32
# Gauss nodes per quadrature cell of the Nystrom diagonal pass
DIAG_CELL_NODES = 16

POWER_ITER_TOL = 1e-8
POWER_ITER_MAX = 10_000
# operator_norm: Lanczos steps per check of the stopping rule, the relative
# agreement of two checks that ends the run, and the log-weight below the
# largest at which a Ritz value's share of the moments is dropped
_CHECK_EVERY = 8
_AGREE = 1e-13
_NEGLIGIBLE = 80.0
# entries below this are flushed to zero: the product of two entries at
# least this large is a normal double
_FLUSH = math.sqrt(np.finfo(float).tiny)


@dataclass(frozen=True)
class HalfLineGrid:
    """Log-uniform nodes on [nodes[0], nodes[-1]] with trapezoid weights."""

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def n(self):
        return self.nodes.size

    @property
    def log_step(self):
        """Uniform spacing in t = ln x."""
        t = np.log(self.nodes)
        return float(t[1] - t[0])


def _check_window(n: int, x_min: float, x_max: float):
    if n < 16:
        raise ConfigurationError("grid size must be at least 16")
    if not (0.0 < x_min < x_max < math.inf):
        raise ConfigurationError(
            f"window [{x_min}, {x_max}]: need 0 < x_min < x_max < inf")


def build_grid(n: int, x_min: float = X_MIN_DEFAULT,
               x_max: float = X_MAX_DEFAULT) -> HalfLineGrid:
    """n log-uniform nodes on [x_min, x_max], endpoints included, with
    trapezoid weights in x (sum of weights = x_max - x_min exactly)."""
    _check_window(n, x_min, x_max)
    nodes = np.exp(np.linspace(math.log(x_min), math.log(x_max), n))
    nodes[0], nodes[-1] = x_min, x_max
    w = np.empty(n)
    w[1:-1] = 0.5 * (nodes[2:] - nodes[:-2])
    w[0] = 0.5 * (nodes[1] - nodes[0])
    w[-1] = 0.5 * (nodes[-1] - nodes[-2])
    return HalfLineGrid(nodes, w)


def log_gauss_rule(n: int, lo: float, hi: float):
    """(nodes, weights) of Gauss-Legendre panels in t = ln x on [lo, hi].

    GAUSS_PANEL_NODES nodes per panel, about n nodes in total; the weights
    integrate in x, so sum(weights * f(nodes)) approximates the integral of
    f over [lo, hi].
    """
    _check_window(n, lo, hi)
    panels = max(1, round(n / GAUSS_PANEL_NODES))
    gl_x, gl_w = np.polynomial.legendre.leggauss(GAUSS_PANEL_NODES)
    edges = np.linspace(math.log(lo), math.log(hi), panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = np.exp((mid[:, None] + half[:, None] * gl_x).ravel())
    # dx = x dt turns the t-panel weights into weights for dx-integrals
    return nodes, (half[:, None] * gl_w).ravel() * nodes


def _diagonal_cells(x: np.ndarray):
    """(points, weights): DIAG_CELL_NODES Gauss points per node's weight
    cell, one row per node, with their weights."""
    mids = 0.5 * (x[:-1] + x[1:])
    lo = np.concatenate(([x[0]], mids))
    hi = np.concatenate((mids, [x[-1]]))
    gl_x, gl_w = np.polynomial.legendre.leggauss(DIAG_CELL_NODES)
    half = 0.5 * (hi - lo)
    ys = 0.5 * (hi + lo)[:, None] + half[:, None] * gl_x[None, :]
    return ys, half[:, None] * gl_w[None, :]


def nystrom_assemble(kernel: ConeKernel, actions,
                     grid: HalfLineGrid) -> list:
    """Nystrom matrices M_ij = (weighted kernel)(x_i, x_j) w_j off the
    diagonal, one per action in ``actions``, in order.

    Each diagonal entry is the product integral of the kernel over its
    quadrature cell with a DIAG_CELL_NODES-point Gauss rule.  Derivative
    kernels with beta > 0 concentrate in a band of width 1/beta around the
    diagonal; once the node spacing exceeds that width the plain rule
    inflates the diagonal by the unresolved spike, while the cell integral
    remains faithful.

    The kernel factors at the nodes (rows and columns) and at the cell
    points are evaluated once and shared by every action: for beta > 0,
    one log_bessel_ik call over the orders nu..nu+a_max at the N nodes
    (a_max the largest edge-derivative count) and order nu at the
    DIAG_CELL_NODES * N cell points.  An empty ``actions`` raises
    ConfigurationError.  A matrix with a non-finite entry, or with every
    entry zero, has no norm worth reporting: it raises DomainError naming
    (nu, beta) and the window.
    """
    actions = tuple(actions)
    if not actions:
        raise ConfigurationError("nystrom_assemble needs at least one action")
    x = grid.nodes
    orders = 1 + max(act.edge_derivatives for act in actions)
    cell_points, cell_weights = _diagonal_cells(x)
    nodes, cells = kernel_factors(kernel, x, orders, cell_points)
    rows = nodes.reshape(-1, 1)
    out = []
    for act in actions:
        m = weighted_kernel_matrix(kernel, act, x, x, nodes, nodes)
        m *= grid.weights[None, :]
        cell_vals = weighted_kernel_from_factors(kernel, act, rows, cells)
        np.fill_diagonal(m, np.sum(cell_vals * cell_weights, axis=1))
        # two scans, no temporary: min and max are finite only if every
        # entry is, and both are zero only if every entry is
        lo, hi = float(m.min()), float(m.max())
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo == hi == 0.0:
            what = "is zero" if lo == hi == 0.0 else "has a non-finite entry"
            raise DomainError(
                f"the Nystrom matrix of nu={kernel.nu}, beta={kernel.beta}, "
                f"action (w, a) = ({act.weight_power}, "
                f"{act.edge_derivatives}) on [{x[0]}, {x[-1]}] {what}: its "
                f"norm would measure nothing")
        out.append(m)
    return out


def free_column_quadrature(nu: float) -> float:
    """Column integral of x^-2 k(x, 1) over x in (0, infinity), by quadrature.

    In t = ln x the integrand is e^{(nu - 1/2) t} for x < 1 and
    e^{-(nu + 1/2) t} for x > 1 (times the closed form), so 1024-node
    log-Gauss panels on [e^{-T/(nu - 1/2)}, 1] and [1, e^{T/(nu + 1/2)}],
    split at the branch kink x = y = 1, resolve its layer of width 1/nu at
    every order and drop tails of relative size e^{-T}, T = 40.
    ``free_schur_integrals`` gives the closed form (nu^2 - 1/4)^-1.
    """
    kern = ConeKernel(nu)
    total = 0.0
    for lo, hi in ((math.exp(-40.0 / (nu - 0.5)), 1.0),
                   (1.0, math.exp(40.0 / (nu + 0.5)))):
        nodes, weights = log_gauss_rule(1024, lo, hi)
        vals = weighted_kernel_matrix(kern, WeightedAction(-2, 0), nodes,
                                      [1.0])[:, 0]
        total += float(vals @ weights)
    return total


def _t_stencils(grid: HalfLineGrid):
    """(D1, D2): second-order d/dt and d^2/dt^2 on the log-uniform grid, by
    diagonals: d[3 + k, i] = D[i, i + k].

    One-sided second-order stencils at the two boundary rows; no ghost
    points (Dirichlet-type closure for decaying solutions).  Those rows set
    the reach: D1 reaches 2 nodes off the diagonal, D2 reaches 3.
    """
    h = grid.log_step
    n = grid.n
    d1 = np.zeros((7, n))
    d2 = np.zeros((7, n))
    d1[2, 1:-1], d1[4, 1:-1] = -0.5 / h, 0.5 / h
    d1[3:6, 0] = np.array([-1.5, 2.0, -0.5]) / h
    d1[1:4, -1] = np.array([0.5, -2.0, 1.5]) / h
    hh = h * h
    d2[2, 1:-1], d2[3, 1:-1], d2[4, 1:-1] = 1.0 / hh, -2.0 / hh, 1.0 / hh
    d2[3:7, 0] = np.array([2.0, -5.0, 4.0, -1.0]) / hh
    d2[0:4, -1] = np.array([-1.0, 4.0, -5.0, 2.0]) / hh
    return d1, d2


@dataclass(frozen=True)
class BandMatrix:
    """A square matrix with w sub- and w super-diagonals in the band
    storage of LAPACK's dgbtrf: a[i, j] = ab[2w + i - j, j].  The first w
    rows of ``ab`` hold no entries; they are the room that the fill-in of
    partial pivoting takes.  ``band @ y`` multiplies a vector or a column
    stack y from the band.
    """

    ab: np.ndarray
    w: int

    def __matmul__(self, y):
        # a sum over diagonals: a[i, i + k] = ab[2w - k, i + k]
        w, n = self.w, self.ab.shape[1]
        out = np.zeros_like(y)
        for k in range(-w, w + 1):
            lo, hi = max(k, 0), n + min(k, 0)
            out[lo - k:hi - k] += (self.ab[2 * w - k, lo:hi] * y[lo:hi].T).T
        return out


def _band(blocks, reach: int) -> BandMatrix:
    """The band of a matrix of n_c x n_c node blocks, in node-major order.

    ``blocks[c][d]`` holds block (c, d) by diagonals, as ``_t_stencils``
    gives them: blocks[c][d][3 + k, i] couples (node i, component c) to
    (node i + k, component d), for |k| <= reach.  Unknown (node i,
    component c) sits at n_c i + c, so that entry lies n_c k + d - c places
    off the diagonal and the band has w = n_c (reach + 1) - 1.
    """
    n_c = len(blocks)
    n = blocks[0][0].shape[1]
    w = n_c * (reach + 1) - 1
    ab = np.zeros((3 * w + 1, n_c * n))
    for c in range(n_c):
        for d in range(n_c):
            for k in range(-reach, reach + 1):
                lo, hi = max(k, 0), n + min(k, 0)  # block columns i + k
                ab[2 * w - n_c * k + c - d, n_c * lo + d:n_c * hi:n_c] = (
                    blocks[c][d][3 + k, lo - k:hi - k])
    return BandMatrix(ab, w)


def fd_assemble_model(nu: float, xi: float, grid: HalfLineGrid,
                      n_c: int) -> BandMatrix:
    """Band of the FD matrix of the order-nu model operator at frequency xi,
    the one builder of both orders.  With mu = nu - 1/2 and d/dx = x^{-1} D1:

        n_c = 2:  [[xi, -(d/dx - mu/x)], [d/dx + mu/x, -xi]]   (first order)
        n_c = 1:  -d^2/dx^2 + x^{-2}(nu^2 - 1/4) + xi^2       (second order)

    The first order is 2N x 2N in node-major order; D1 reaches 2 nodes, so
    w = 5.  xi is signed, and the square is
    diag(-d^2/dx^2 + mu(mu+1)/x^2 + xi^2, -d^2/dx^2 + mu(mu-1)/x^2 + xi^2).
    The second order is N x N; D2 reaches 3 nodes, so w = 3.  Both orders
    refuse a nu that fails ``require_witt_order`` and a log spacing above
    0.25; any other n_c raises ConfigurationError.
    """
    if n_c not in (1, 2):
        raise ConfigurationError(
            f"a model operator has 1 or 2 components, got {n_c}")
    require_witt_order(nu)
    h = grid.log_step
    if h > 0.25:
        raise ConfigurationError(
            f"log spacing {h:.3f} too coarse to resolve the 1/x^2 potential")
    d1, d2 = _t_stencils(grid)
    if n_c == 2:
        plus = d1 / grid.nodes
        minus = -plus
        mu_over_x = (nu - 0.5) / grid.nodes
        # -(dx_ii - mu/x_i) == mu/x_i - dx_ii: IEEE rounding is sign-symmetric
        plus[3] += mu_over_x
        minus[3] += mu_over_x
        top, bottom = np.zeros_like(d1), np.zeros_like(d1)
        top[3], bottom[3] = xi, -xi
        return _band([[top, minus], [plus, bottom]], 2)
    inv_x2 = 1.0 / grid.nodes ** 2
    m = -inv_x2 * (d2 - d1)
    m[3] += (nu * nu - 0.25) * inv_x2 + xi * xi
    return _band([[m]], 3)


def band_lu_factor(a: BandMatrix):
    """(lu, piv, w): the LU factors of ``a`` with partial pivoting in
    dgbtrf's layout, for ``band_lu_solve``.  Raises NumericalError on an
    exactly zero pivot.  scipy is imported here, on the first solve, so
    importing the package and measuring norms do not load it."""
    from scipy.linalg.lapack import dgbtrf
    lu, piv, info = dgbtrf(a.ab, a.w, a.w)
    if info > 0:
        raise NumericalError(f"singular band matrix: zero pivot U[{info - 1}, "
                             f"{info - 1}]")
    return lu, piv, a.w


def band_lu_solve(factors, b: np.ndarray) -> np.ndarray:
    """The solution of a x = b for every column of b (dgbtrs), from the
    ``band_lu_factor`` factors of a."""
    from scipy.linalg.lapack import dgbtrs
    lu, piv, w = factors
    x, _ = dgbtrs(lu, w, w, b, piv)
    return x


def tridiagonal_eigenpairs(d, e, count: int):
    """(values, vectors): the ``count`` lowest eigenvalues, ascending, of
    the symmetric tridiagonal matrix with diagonal d and off-diagonal e,
    and orthonormal eigenvectors as the columns of vectors.

    Bisection finds the values and inverse iteration the vectors (LAPACK
    dstebz and dstein, through scipy's ``eigh_tridiagonal``), in O(count n)
    time and memory; no n x n matrix is formed.  Each value is found to
    within eps times the matrix's 1-norm.  Raises ConfigurationError unless
    len(e) == len(d) - 1, 1 <= count <= len(d) and every entry is finite,
    and NumericalError when inverse iteration does not converge.  scipy is
    imported here, as in ``band_lu_factor``.
    """
    d = np.asarray(d, dtype=float)
    e = np.asarray(e, dtype=float)
    if d.ndim != 1 or e.shape != (d.size - 1,):
        raise ConfigurationError(
            f"need a diagonal d and an off-diagonal of len(d) - 1, got "
            f"shapes {d.shape} and {e.shape}")
    if not 1 <= count <= d.size:
        raise ConfigurationError(
            f"count must lie in 1..{d.size}, got {count}")
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise ConfigurationError("tridiagonal entries must be finite")
    from scipy.linalg import LinAlgError, eigh_tridiagonal
    try:
        return eigh_tridiagonal(d, e, select="i",
                                select_range=(0, count - 1))
    except LinAlgError as exc:
        raise NumericalError(f"tridiagonal eigenpairs: {exc}") from None


def _power_stop(theta: np.ndarray, tau: np.ndarray, lam0: float):
    """(step, lam): the first step s in 1, ..., cap - 1 at which the power
    iteration's stopping rule fires, with its estimate lambda_s, where

        lambda_s = sum tau theta^(2s+1) / sum tau theta^(2s)

    for s >= 1 and lambda_0 = lam0, and cap is POWER_ITER_MAX.  If the
    rule fires at no such step, step is None and lam is lambda_(cap-1).

    The sums run in log space over blocks of steps, relative to the
    largest theta and to each step's largest term.  At a block's start a
    term below e^-_NEGLIGIBLE of the largest, whose theta is no larger
    than the largest term's, is dropped: its share can only fall.
    """
    # eigh orders theta ascending, so the top is the last kept value and
    # the values above a term's are the ones after it
    keep = (theta > 0.0) & (tau > 0.0)
    top = float(theta[keep][-1])
    r = theta[keep] / top
    log_r, log_w = np.log(r), np.log(tau[keep])
    cap = POWER_ITER_MAX
    lam, s = lam0, 1
    while s < cap:
        lw = log_w + (2.0 * s) * log_r
        lead = int(lw.argmax())
        live = lw >= lw[lead] - _NEGLIGIBLE
        live[lead:] = True
        r, log_r, log_w = r[live], log_r[live], log_w[live]
        # at least s steps, so that the blocks double, and about 2048 terms
        steps = np.arange(float(s), s + min(max(s, 2048 // r.size), cap - s))
        terms = np.multiply.outer(2.0 * log_r, steps)
        terms += log_w[:, None]
        terms -= terms.max(axis=0)
        # a term below e^-_NEGLIGIBLE of its step's largest moves no bit of
        # the sums; clipped there, exp makes no subnormal, which costs it
        # some fifty times a normal result
        terms = np.exp(np.maximum(terms, -_NEGLIGIBLE, out=terms), out=terms)
        lams = (r @ terms) / terms.sum(axis=0)
        lams *= top
        fired = np.flatnonzero(np.abs(np.diff(lams, prepend=lam))
                               <= POWER_ITER_TOL * lams)
        if fired.size:
            return s + int(fired[0]), float(lams[fired[0]])
        lam, s = float(lams[-1]), s + steps.size
    return None, lam


def operator_norm(m: np.ndarray, weights: np.ndarray) -> float:
    """Largest singular value of the matrix m in the inner product of the
    quadrature weights, W = diag(weights), as the power iteration measures
    it.

    The power iteration on M*M (metric adjoint M* = W^{-1} M^T W) from the
    all-ones vector, run as z = W^{1/2} v on the Gram matrix B = A^T A of
    A = W^{1/2} M W^{-1/2}, stops at the first step s >= 1 whose
    lambda_s = z_s^T B z_s differs from lambda_(s-1) by at most
    POWER_ITER_TOL relative, and raises NumericalError if no step below
    POWER_ITER_MAX does.  The value is its sqrt(lambda_s), not the top
    singular value: the stored benchmark reference values pin that number,
    which lies below the top singular value by up to 1.6e-5 relative (a
    certified norm is an open item of ROADMAP.md).

    Moments.  With z_0 the unit start vector, lambda_s = mu_(2s+1) /
    mu_(2s) for the Krylov moments mu_p = z_0^T B^p z_0.  j steps of
    Lanczos on B from z_0 (with full reorthogonalization) give a
    tridiagonal T_j = Y Theta Y^T whose Gauss rule, nodes theta and
    weights tau = Y[0]^2, reproduces every mu_p with p <= 2j - 1 exactly
    (in exact arithmetic).  So the stopping step s* and lambda_s* are read
    off sum tau theta^p (``_power_stop``) without running the steps.  At
    every _CHECK_EVERY-th Lanczos step the rule is evaluated on T_j, and
    the result is taken when
      * s* < j: every moment it used is exact, so it is the iteration's
        up to rounding;
      * or two successive checkpoints agree on s* and on lambda_s* to
        _AGREE relative: a check, not a proof;
      * or Lanczos breaks down (beta = 0) or reaches j = N, where T_j holds
        every moment.

    B is never formed: each Lanczos step applies it as (A v) A, two
    matrix-vector products, so one call holds A, the Lanczos basis and no
    other N x N array.

    Flush.  A is first scaled by a power of two (exactly) so that its
    largest entry lies in [1, 2), and its entries below sqrt(tiny) =
    1.5e-154 are set to zero.  So A holds no subnormal, and its product
    with any factor of at least sqrt(tiny) is a normal double: the
    products make no subnormal from A's tiny entries, which would cost
    the processor several times as much as a normal number.  The change E
    has ||E||_2 <= ||E||_F < N sqrt(tiny) <= N sqrt(tiny) ||A||_2, and the
    top singular value moves by at most ||E||_2 (Weyl), far below the
    rounding of the products.

    A matrix that is empty or not square, or weights that are not one
    positive, finite value per row, raise ConfigurationError; a weighted
    matrix with a non-finite entry raises DomainError.
    """
    m = np.asarray(m)
    weights = np.asarray(weights, float)
    n = m.shape[0] if m.ndim == 2 else 0
    if n == 0 or m.shape != (n, n) or weights.shape != (n,):
        raise ConfigurationError(
            f"operator_norm needs a square matrix and one weight per row, "
            f"got shapes {m.shape} and {weights.shape}")
    if not np.all((weights > 0.0) & (weights < np.inf)):
        raise ConfigurationError("quadrature weights must be positive and "
                                 "finite")
    sw = np.sqrt(weights)
    a = m * sw[:, None]
    a /= sw
    # min and max are finite only if every entry is
    hi, lo = float(a.max()), float(a.min())
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise DomainError("operator_norm: the weighted matrix has a "
                          "non-finite entry")
    # scaling by 2^(1 - e) rounds nothing
    e = math.frexp(max(hi, -lo))[1]
    np.ldexp(a, 1 - e, out=a)
    small = a < _FLUSH
    small &= a > -_FLUSH
    a[small] = 0.0
    del small  # freed before the Lanczos basis grows
    # the Lanczos basis, one row per vector, doubled when full
    v = np.empty((min(n, 2 * _CHECK_EVERY), n))
    v[0] = sw / np.linalg.norm(sw)  # v = 1 / ||1||_W
    alpha, beta, last = [], [], None
    for j in range(1, n + 1):
        # B v = A^T (A v), as two matrix-vector products
        w = (a @ v[j - 1]) @ a
        alpha.append(float(w @ v[j - 1]))
        if j == 1 and float(w @ w) == 0.0:
            return 0.0  # B z_0 = 0: the iteration stops at step 0
        w -= alpha[-1] * v[j - 1]
        if j > 1:
            w -= beta[-1] * v[j - 2]
        # full reorthogonalization: Gram-Schmidt against the basis, twice
        for _ in range(2):
            w -= (v[:j] @ w) @ v[:j]
        beta_j = math.sqrt(float(w @ w))
        done = beta_j == 0.0 or j == n
        if done or j % _CHECK_EVERY == 0:
            t = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
            theta, y = np.linalg.eigh(t)
            step, lam = _power_stop(theta, y[0] ** 2, alpha[0])
            stop = POWER_ITER_MAX if step is None else step
            if (done or stop < j or (last is not None and last[0] == stop
                                     and abs(lam - last[1]) <= _AGREE * lam)):
                break
            last = (stop, lam)
        beta.append(beta_j)
        if j == len(v):
            v = np.concatenate((v, np.empty((min(j, n - j), n))))
        v[j] = w / beta_j
    if step is None:
        raise NumericalError(
            f"power iteration did not converge in {POWER_ITER_MAX} steps; "
            f"last eigenvalue estimate {np.ldexp(lam, 2 * e - 2):.6e}")
    return float(np.ldexp(math.sqrt(lam), e - 1))
