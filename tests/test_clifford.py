import numpy as np
import sympy as sp
from sympy.core.function import AppliedUndef

from edgespec.clifford import (build_clifford, commutator_report,
                               symbolic_square_identity)

EYE = np.eye(4)
ZERO = np.zeros((4, 4))


def test_generators_exact():
    sigma1, sigma2, omega, gamma, s_sign, t_sign = build_clifford()
    assert all(m.dtype == np.complex128 for m in build_clifford())
    assert np.array_equal(omega, np.diag([1, -1]))
    assert np.array_equal(s_sign, np.diag([1, -1, -1, 1]))
    assert np.array_equal(gamma @ gamma, -EYE)
    assert np.array_equal(gamma.T, -gamma)  # skew-adjoint
    assert np.array_equal(gamma.T @ gamma, EYE)  # orthogonal
    assert np.array_equal(t_sign @ t_sign, EYE)
    assert np.array_equal(s_sign @ s_sign, EYE)


def test_structure_relations_exactly_zero():
    for mat in commutator_report():
        assert np.array_equal(mat, ZERO)


def test_grading_anticommutes_with_gamma():
    _, _, _, gamma, _, t_sign = build_clifford()
    g = np.diag([1, 1, -1, -1])  # form-degree parity on the fiber
    assert np.array_equal(gamma @ g + g @ gamma, ZERO)
    assert np.array_equal(t_sign @ g + g @ t_sign, ZERO)


def test_symbolic_square_identity():
    lhs, rhs = symbolic_square_identity()
    assert lhs == rhs


def test_square_identity_rejects_wrong_rhs():
    # rebuild the right-hand side from the section and scalars lhs carries;
    # S(S-1) in place of S(S+1) must compare unequal
    lhs, rhs = symbolic_square_identity()
    u = sp.Matrix(sorted(lhs.atoms(AppliedUndef), key=str))
    x = u[0].args[0]
    a, d = sorted(lhs.free_symbols - {x}, key=str)
    _, _, _, _, s_sign, t_sign = build_clifford()
    s = a * sp.Matrix(s_sign.real.astype(int))
    t = d * sp.Matrix(t_sign.real.astype(int))

    def side(shift):
        return (-u.diff(x, 2) + s * (s + shift * sp.eye(4)) * u / x ** 2
                + t * t * u).expand()

    assert side(1) == rhs
    assert side(-1) != lhs
