"""Exact Clifford algebra of the Gauss-Bonnet model-edge operator.

The generators are numpy complex128 arrays with entries in {0, -1, 1, -i, i}:

    sigma1 = [[0,-1],[1,0]],  sigma2 = [[0,i],[i,0]],  omega = i sigma1 sigma2,
    Gamma  = sigma1 (x) omega,
    s_sign = omega  (x) omega  = diag(1,-1,-1,1),
    t_sign = sigma1 (x) sigma1  (antidiagonal (1,-1,-1,1)).

A product of two of these 4x4 matrices has Gaussian-integer entries of
modulus at most 4, and a sum of two products at most 8.  Doubles hold such
integers exactly, so every floating-point operation on them is exact and
every identity below is checked with zero tolerance in complex128.

The model-edge operator is D = Gamma (d/dx + X^{-1} S) + T with S = s_sign * a
and T = t_sign * d for commuting fiber scalars a (eigenvalue of A) and d
(eigenvalue of D^Y); its square collapses to
-d^2/dx^2 + X^{-2} S(S+1) + T^2.  ``symbolic_square_identity`` checks that
with sympy, the one place the package imports it.

The module is exact only: no rounding and no discretization.  The
numerical square check of the first-order model is
``model.verify_square_identity``, on the one finite-difference builder
``grids.fd_assemble_model``.
"""

import numpy as np


def build_clifford():
    """(sigma1, sigma2, omega, gamma, s_sign, t_sign) as complex128 arrays."""
    sigma1 = np.array([[0, -1], [1, 0]], dtype=complex)
    sigma2 = np.array([[0, 1j], [1j, 0]])
    omega = 1j * sigma1 @ sigma2
    gamma = np.kron(sigma1, omega)
    s_sign = np.kron(omega, omega)
    t_sign = np.kron(sigma1, sigma1)
    return sigma1, sigma2, omega, gamma, s_sign, t_sign


def commutator_report():
    """The three structure relations as exact matrices (all zero).

    Returns (Gamma S + S Gamma, Gamma T + T Gamma, T S - S T) computed on
    the 4x4 sign-matrix tensor factors; A and D^Y enter as commuting scalars
    and drop out of the relations.
    """
    _, _, _, gamma, s_sign, t_sign = build_clifford()
    anti_gs = gamma @ s_sign + s_sign @ gamma
    anti_gt = gamma @ t_sign + t_sign @ gamma
    comm_ts = t_sign @ s_sign - s_sign @ t_sign
    return anti_gs, anti_gt, comm_ts


def symbolic_square_identity():
    """Both sides of D^2 = -d^2/dx^2 + X^{-2} S(S+1) + T^2 on a generic section.

    D = Gamma (d/dx + S/x) + T acts on a column of four undetermined
    functions of x, with symbolic commuting scalars a, d.  Returns the
    expanded (D(Du), right-hand side applied to it); a differential operator
    is fixed by its action on generic functions, so lhs == rhs certifies the
    identity.  Gamma, S and T are real, and enter as integer sympy matrices.
    """
    import sympy as sp  # only here: the rest of the package runs without it

    x = sp.Symbol("x", positive=True)
    a, d = sp.symbols("a d", positive=True)
    gamma, s_sign, t_sign = (sp.Matrix(m.real.astype(int))
                             for m in build_clifford()[3:])
    s_mat = a * s_sign
    t_mat = d * t_sign
    u = sp.Matrix([sp.Function(f"u{k}")(x) for k in range(4)])

    def dirac(v):
        return gamma * (v.diff(x) + s_mat * v / x) + t_mat * v

    lhs = dirac(dirac(u)).expand()
    rhs = (-u.diff(x, 2) + s_mat * (s_mat + sp.eye(4)) * u / x ** 2
           + t_mat * t_mat * u).expand()
    return lhs, rhs
