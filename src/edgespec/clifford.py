"""Exact Clifford algebra of the Gauss-Bonnet model-edge operator.

All matrices live over the Gaussian rationals (sympy exact arithmetic), so
every identity below is checked with zero tolerance:

    sigma1 = [[0,-1],[1,0]],  sigma2 = [[0,i],[i,0]],  omega = i sigma1 sigma2,
    Gamma  = sigma1 (x) omega,
    s_sign = omega  (x) omega  = diag(1,-1,-1,1),
    t_sign = sigma1 (x) sigma1  (antidiagonal (1,-1,-1,1)).

The model-edge operator is D = Gamma (d/dx + X^{-1} S) + T with S = s_sign * a
and T = t_sign * d for commuting fiber scalars a (eigenvalue of A) and d
(eigenvalue of D^Y); its square collapses to
-d^2/dx^2 + X^{-2} S(S+1) + T^2.
"""

from dataclasses import dataclass

import numpy as np
import sympy as sp

from .errors import ConfigurationError
from .grids import fd_dx, fd_scalar
from .model import interior_discrepancy


def build_clifford():
    """(sigma1, sigma2, omega, gamma, s_sign, t_sign) as exact sympy matrices."""
    sigma1 = sp.Matrix([[0, -1], [1, 0]])
    sigma2 = sp.Matrix([[0, sp.I], [sp.I, 0]])
    omega = sp.I * sigma1 * sigma2
    gamma = sp.Matrix(sp.kronecker_product(sigma1, omega))
    s_sign = sp.Matrix(sp.kronecker_product(omega, omega))
    t_sign = sp.Matrix(sp.kronecker_product(sigma1, sigma1))
    return sigma1, sigma2, omega, gamma, s_sign, t_sign


def grading_operator():
    """diag(I2, -I2), the form-degree parity on the 4-component fiber."""
    return sp.Matrix(sp.kronecker_product(sp.Matrix([[1, 0], [0, -1]]),
                                          sp.eye(2)))


def commutator_report():
    """The three structure relations as exact matrices (all zero).

    Returns (Gamma S + S Gamma, Gamma T + T Gamma, T S - S T) computed on
    the 4x4 sign-matrix tensor factors; A and D^Y enter as commuting scalars
    and drop out of the relations.
    """
    _, _, _, gamma, s_sign, t_sign = build_clifford()
    anti_gs = gamma * s_sign + s_sign * gamma
    anti_gt = gamma * t_sign + t_sign * gamma
    comm_ts = t_sign * s_sign - s_sign * t_sign
    return anti_gs, anti_gt, comm_ts


class OperatorPoly:
    """Operator polynomial sum_{k,j} X^{-k} M_{kj} d^j with matrix coefficients.

    Multiplication uses the exact commutation rule
    d^i X^{-b} = sum_m C(i,m) (-b)(-b-1)...(-b-m+1) X^{-b-m} d^{i-m}.
    """

    def __init__(self, terms=None):
        self.terms = {}
        for key, mat in (terms or {}).items():
            if not mat.is_zero_matrix:
                self.terms[key] = sp.Matrix(mat)

    @classmethod
    def single(cls, k, j, mat):
        return cls({(k, j): sp.Matrix(mat)})

    def __add__(self, other):
        out = dict(self.terms)
        for key, mat in other.terms.items():
            out[key] = out.get(key, sp.zeros(*mat.shape)) + mat
        return OperatorPoly(out)

    def __sub__(self, other):
        return self + OperatorPoly(
            {k: -m for k, m in other.terms.items()})

    def __mul__(self, other):
        out = {}
        for (a, i), ma in self.terms.items():
            for (b, j), mb in other.terms.items():
                coef = mb
                # push d^i through X^{-b}
                for m in range(i + 1):
                    c = sp.binomial(i, m)
                    fall = sp.Integer(1)
                    for r in range(m):
                        fall *= (-b - r)
                    key = (a + b + m, i - m + j)
                    term = (c * fall) * (ma * coef)
                    out[key] = out.get(key, sp.zeros(*term.shape)) + term
        return OperatorPoly(out)

    def simplify(self):
        return OperatorPoly({k: sp.simplify(m) for k, m in self.terms.items()})

    def __eq__(self, other):
        return (self - other).simplify().terms == {}

    def __repr__(self):
        return "OperatorPoly(" + ", ".join(
            f"X^-{k} d^{j}: {m.tolist()}"
            for (k, j), m in sorted(self.terms.items())) + ")"


def symbolic_square_identity():
    """Exact expansion of D^2 for D = Gamma(d + X^{-1}S) + T.

    Returns (lhs, rhs) operator polynomials over the 4x4 fiber with symbolic
    commuting scalars a, d; lhs == rhs certifies
    D^2 = -d^2 + X^{-2} S(S+1) + T^2 at the coefficient level.
    """
    a, d = sp.symbols("a d", positive=True)
    _, _, _, gamma, s_sign, t_sign = build_clifford()
    s_mat = a * s_sign
    t_mat = d * t_sign
    eye = sp.eye(4)
    dop = (OperatorPoly.single(0, 1, gamma)
           + OperatorPoly.single(1, 0, gamma * s_mat)
           + OperatorPoly.single(0, 0, t_mat))
    lhs = dop * dop
    rhs = (OperatorPoly.single(0, 2, -eye)
           + OperatorPoly.single(2, 0, s_mat * (s_mat + eye))
           + OperatorPoly.single(0, 0, t_mat * t_mat))
    return lhs, rhs


@dataclass(frozen=True)
class ModelEdgeDirac:
    """Finite-fiber Gauss-Bonnet edge operator data.

    a_spectrum and dy_spectrum are the eigenvalues of the commuting diagonal
    fiber operators A and D^Y, listed per shared eigenbasis index.
    """

    a_spectrum: tuple
    dy_spectrum: tuple

    def __post_init__(self):
        if len(self.a_spectrum) != len(self.dy_spectrum):
            raise ConfigurationError("A and D^Y spectra must align")
        if len(self.a_spectrum) == 0:
            raise ConfigurationError("fiber spectra must be nonempty")


def _dense(mat):
    return np.array(sp.matrix2numpy(mat, dtype=complex).real, dtype=float)


def assemble_dirac(model: ModelEdgeDirac, grid, fiber_index: int = 0):
    """Dense 4N x 4N finite-difference matrix of D on one fiber line.

    D = Gamma (d/dx + X^{-1} a s_sign) + d t_sign for the chosen fiber pair
    (a, d); centered differences with one-sided boundary rows.
    """
    a = float(model.a_spectrum[fiber_index])
    d = float(model.dy_spectrum[fiber_index])
    _, _, _, gamma, s_sign, t_sign = build_clifford()
    g = _dense(gamma)
    s = a * _dense(s_sign)
    t = d * _dense(t_sign)
    inv_x = np.diag(1.0 / grid.nodes)
    return (np.kron(g, fd_dx(grid)) + np.kron(g @ s, inv_x)
            + np.kron(t, np.eye(grid.n)))


def dirac_square_structure(model: ModelEdgeDirac, u, grid,
                           fiber_index: int = 0):
    """Interior discrepancy between D_h(D_h u) and the closed-form square.

    The closed form is the diagonal operator
    -d^2/dx^2 + X^{-2}(a^2 I + a s_sign) + d^2 I applied componentwise.
    """
    u = np.asarray(u, dtype=float)
    n = grid.n
    if u.shape != (4, n):
        raise ConfigurationError("expected a (4, N) section")
    a = float(model.a_spectrum[fiber_index])
    d = float(model.dy_spectrum[fiber_index])
    dm = assemble_dirac(model, grid, fiber_index)
    twice = (dm @ (dm @ u.reshape(4 * n))).reshape(4, n)
    signs = np.diag(_dense(build_clifford()[4]))
    direct = np.vstack([fd_scalar(a * a + a * signs[c], d, grid) @ u[c]
                        for c in range(4)])
    return interior_discrepancy(twice, direct)
