"""Finite-dimensional laboratory for interpolation scales of Hilbert spaces.

Scales H^s are realized as fractional powers of symmetric positive-definite
generators with smallest eigenvalue >= 1, so every scale inequality becomes
a statement about matrix powers computed spectrally.  Block-matrix tensor
positivity mirrors the operator-matrix arguments used for the tensor-product
scales.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError
from .grids import tridiagonal_eigenpairs

DEFAULT_SEED = 20_240_617
SYMMETRY_TOL = 1e-12
POSITIVITY_SLACK = 1e-10
TENSOR_DIM_LIMIT = 4096
# largest tensor_power_error that the tensor-power checks accept
TENSOR_CHECK_TOL = 1e-10


@dataclass(frozen=True)
class ScaleGenerator:
    """Symmetric positive-definite generator with lambda_min >= 1."""

    lam: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.lam, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ConfigurationError("generator must be a square matrix")
        if np.max(np.abs(m - m.T)) > SYMMETRY_TOL * max(1.0, np.max(np.abs(m))):
            raise ConfigurationError("generator must be symmetric")
        evals = np.linalg.eigvalsh(m)
        if evals[0] < 1.0 - POSITIVITY_SLACK:
            raise ConfigurationError(
                f"generator must satisfy lambda_min >= 1, got {evals[0]}")
        object.__setattr__(self, "lam", m)

    @property
    def dim(self):
        return self.lam.shape[0]

    @cached_property
    def eig(self):
        """(eigenvalues, orthonormal eigenvectors), computed once."""
        return np.linalg.eigh(self.lam)

    def power(self, s: float):
        """Lambda^s by spectral calculus."""
        evals, vecs = self.eig
        return (vecs * np.clip(evals, 0.0, None) ** s) @ vecs.T


def random_generator(d: int, rng) -> ScaleGenerator:
    """Generator G G^T + (d + 1) I for a d x d standard normal draw G."""
    g = rng.normal(size=(d, d))
    return ScaleGenerator(g @ g.T + (d + 1.0) * np.eye(d))


TENSOR_CHECK_ORDERS = (0.3, 0.5, 1.0, 1.7, 2.0)


def tensor_power_error(g1: ScaleGenerator, g2: ScaleGenerator) -> float:
    """Worst relative error of (Lambda1 (x) Lambda2)^s = Lambda1^s (x) Lambda2^s.

    The Kronecker product must itself be a valid ScaleGenerator.  The error
    is the maximum over the orders in TENSOR_CHECK_ORDERS of the entrywise
    error, relative to max(1, largest entry of the right-hand side).
    """
    if g1.dim * g2.dim > TENSOR_DIM_LIMIT:
        raise ConfigurationError(
            f"tensor dimension {g1.dim * g2.dim} exceeds {TENSOR_DIM_LIMIT}")
    out = ScaleGenerator(np.kron(g1.lam, g2.lam))
    errs = []
    for s in TENSOR_CHECK_ORDERS:
        lhs = out.power(s)
        rhs = np.kron(g1.power(s), g2.power(s))
        errs.append(np.max(np.abs(lhs - rhs)) / max(1.0, np.max(np.abs(rhs))))
    return float(np.max(errs))


def intersection_scale_check(g1: ScaleGenerator, g2: ScaleGenerator,
                             s: float, theta: float, trials: int,
                             seed: int = DEFAULT_SEED):
    """Randomized check of the intersection-scale norm equivalences.

    With Lambda = Lambda1 (x) I + I (x) Lambda2 (commuting summands,
    simultaneously diagonalized), verifies per random vector x:

      1/2 (||(L1^s (x) I) x||^2 + ||(I (x) L2^s) x||^2)
          <= ||Lambda^s x||^2 <= 2^{2s} (same half-sum) * 2,

    and the theta-containment ||(L1^{ts} (x) L2^{(1-t)s}) x|| <= ||Lambda^s x||.
    """
    if s < 0.0 or not (0.0 <= theta <= 1.0):
        raise ConfigurationError("need s >= 0 and theta in [0, 1]")
    (e1, v1), (e2, v2) = g1.eig, g2.eig
    joint_b = np.repeat(e1, g2.dim)
    joint_c = np.tile(e2, g1.dim)
    basis = np.kron(v1, v2)
    rng = np.random.default_rng(seed)
    worst = 0.0
    violations = 0
    for _ in range(trials):
        x = rng.normal(size=g1.dim * g2.dim)
        z2 = (basis.T @ x) ** 2
        half_sum = float(np.sum(z2 * (joint_b ** (2 * s) + joint_c ** (2 * s))))
        mid = float(np.sum(z2 * (joint_b + joint_c) ** (2 * s)))
        cross = float(np.sum(z2 * joint_b ** (2 * theta * s)
                             * joint_c ** (2 * (1 - theta) * s)))
        slack = POSITIVITY_SLACK * max(mid, half_sum, 1.0)
        checks = (0.5 * half_sum - mid,
                  mid - 2.0 ** (2 * s) * half_sum,
                  cross - mid)
        worst = max(worst, max(checks))
        if max(checks) > slack:
            violations += 1
    return {"trials": trials, "violations": violations,
            "worst_margin": worst}


@dataclass(frozen=True)
class BlockMatrix:
    """n x n array of d x d blocks a_ij, stored as an (n, n, d, d) array."""

    blocks: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.blocks, dtype=float)
        if b.ndim != 4 or b.shape[0] != b.shape[1] or b.shape[2] != b.shape[3]:
            raise ConfigurationError("blocks must form an (n, n, d, d) array")
        object.__setattr__(self, "blocks", b)

    @property
    def n(self):
        return self.blocks.shape[0]

    @property
    def d(self):
        return self.blocks.shape[2]

    def dense(self):
        """The underlying nd x nd matrix."""
        n, d = self.n, self.d
        return self.blocks.transpose(0, 2, 1, 3).reshape(n * d, n * d)

    @classmethod
    def from_dense(cls, m, d):
        m = np.asarray(m, dtype=float)
        n = m.shape[0] // d
        return cls(m.reshape(n, d, n, d).transpose(0, 2, 1, 3))


def _require_psd(m, what):
    lam_min = float(np.linalg.eigvalsh(m)[0])
    if lam_min < -POSITIVITY_SLACK * max(1.0, np.max(np.abs(m))):
        raise ConfigurationError(f"{what} must be PSD, lambda_min={lam_min}")
    return lam_min


def blockwise_tensor(a: BlockMatrix, b: BlockMatrix):
    """The block matrix (a_ij (x) b_ij)_ij."""
    if a.n != b.n:
        raise ConfigurationError("block counts must agree")
    n, dd = a.n, a.d * b.d
    out = np.einsum("ijab,ijcd->ijacbd", a.blocks, b.blocks)
    return BlockMatrix(out.reshape(n, n, dd, dd))


def random_psd_block(n, d, rng):
    g = rng.normal(size=(n * d, n * d))
    return BlockMatrix.from_dense(g @ g.T / (n * d), d)


def tensor_positivity_check(a: BlockMatrix, b: BlockMatrix, trials: int,
                            seed: int = DEFAULT_SEED):
    """Positivity of blockwise tensors of PSD block matrices.

    Checks (i) the blockwise tensor (a_ij (x) b_ij) is PSD, (ii) the summed
    matrix sum_ij a_ij (x) b_ij is PSD, and (iii) monotonicity: for random
    PSD dominators c >= a, d >= b the blockwise-tensor difference stays PSD.
    """
    _require_psd(a.dense(), "first block matrix")
    _require_psd(b.dense(), "second block matrix")
    tens = blockwise_tensor(a, b)
    lam_tensor = float(np.linalg.eigvalsh(tens.dense())[0])
    summed = tens.blocks.sum(axis=(0, 1))
    lam_sum = float(np.linalg.eigvalsh(summed)[0])
    rng = np.random.default_rng(seed)
    lam_mono = math.inf
    for _ in range(trials):
        c = BlockMatrix(a.blocks + random_psd_block(a.n, a.d, rng).blocks)
        d = BlockMatrix(b.blocks + random_psd_block(b.n, b.d, rng).blocks)
        diff = blockwise_tensor(c, d).dense() - tens.dense()
        lam_mono = min(lam_mono, float(np.linalg.eigvalsh(diff)[0]))
    ok = all(v >= -POSITIVITY_SLACK for v in (lam_tensor, lam_sum, lam_mono))
    return {"lambda_min_tensor": lam_tensor, "lambda_min_sum": lam_sum,
            "lambda_min_monotone": lam_mono, "trials": trials, "passes": ok}


def same_scale_demo(a: float, n: int = 400):
    """Boundary-condition fingerprint distinguishing two equal-domain scales.

    Discretizes the off-diagonal first-order pair (d/dx + a, -d/dx + a) on
    [0, pi] on a staggered grid: f2 on the n+1 integer nodes, f1 on the
    n midpoints, with only the f1(0) = 0 condition built in.  The f2-block
    of the square is B^T B; its low eigenvectors satisfy the a-dependent
    natural condition f2'(0) + a f2(0) = 0 without it ever being imposed.

    B has the two bands p = -1/h + a/2 and q = 1/h + a/2, so B^T B is
    tridiagonal: diagonal p^2 + q^2 with end entries p^2 and q^2, and
    off-diagonal pq.  Its three lowest eigenpairs come from
    ``grids.tridiagonal_eigenpairs`` in O(n), with neither B nor B^T B
    formed.

    Returns per-eigenfunction boundary residuals |f2'(0) + a f2(0)| and
    |f2'(0)|, both normalized by the sup norm, and ``fingerprint_ratio``,
    the least ratio of the second to the first over the eigenfunctions.
    """
    if n < 16:
        raise ConfigurationError("need at least 16 cells")
    h = math.pi / n
    # B maps f2 (nodes 0..n) to midpoint values of (d/dx + a) f2:
    # (B f)_i = p f_i + q f_(i+1)
    p, q = -1.0 / h + 0.5 * a, 1.0 / h + 0.5 * a
    diag = np.full(n + 1, p * p + q * q)
    diag[0], diag[-1] = p * p, q * q
    evals, vecs = tridiagonal_eigenpairs(diag, np.full(n, p * q), 3)
    out = []
    for k in range(3):
        v = vecs[:, k]
        sup = float(np.max(np.abs(v)))
        f0 = float(v[0])
        fp0 = float((-1.5 * v[0] + 2.0 * v[1] - 0.5 * v[2]) / h)
        out.append({
            "eigenvalue": float(evals[k]),
            "resid_a_condition": abs(fp0 + a * f0) / sup,
            "resid_zero_condition": abs(fp0) / sup,
        })
    ratio = min(f["resid_zero_condition"] / max(f["resid_a_condition"], 1e-300)
                for f in out)
    return {"a": a, "n": n, "eigenfunctions": out, "fingerprint_ratio": ratio}
