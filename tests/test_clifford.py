import sympy as sp
from sympy.core.function import AppliedUndef

from edgespec.clifford import (build_clifford, commutator_report,
                               symbolic_square_identity)


def test_generators_exact():
    sigma1, sigma2, omega, gamma, s_sign, t_sign = build_clifford()
    assert omega == sp.Matrix([[1, 0], [0, -1]])
    assert s_sign == sp.diag(1, -1, -1, 1)
    assert (gamma * gamma) == -sp.eye(4)
    assert gamma.T == -gamma  # skew-adjoint
    assert gamma.T * gamma == sp.eye(4)  # orthogonal
    assert t_sign * t_sign == sp.eye(4)
    assert s_sign * s_sign == sp.eye(4)


def test_structure_relations_exactly_zero():
    for mat in commutator_report():
        assert mat == sp.zeros(4, 4)


def test_grading_anticommutes_with_gamma():
    _, _, _, gamma, _, t_sign = build_clifford()
    g = sp.diag(1, 1, -1, -1)  # form-degree parity on the fiber
    assert gamma * g + g * gamma == sp.zeros(4, 4)
    assert t_sign * g + g * t_sign == sp.zeros(4, 4)


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
    s, t = a * s_sign, d * t_sign

    def side(shift):
        return (-u.diff(x, 2) + s * (s + shift * sp.eye(4)) * u / x ** 2
                + t * t * u).expand()

    assert side(1) == rhs
    assert side(-1) != lhs
