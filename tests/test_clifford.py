import numpy as np
import sympy as sp
from sympy.core.function import AppliedUndef

from edgespec.clifford import (assemble_dirac, build_clifford,
                               commutator_report, dirac_square_structure,
                               grading_operator, symbolic_square_identity)
from edgespec.grids import build_grid


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
    g = grading_operator()
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


def test_dirac_square_structure_numeric():
    rels = {}
    for n in (300, 600):
        grid = build_grid(n, 1e-1, 10.0)
        t = np.log(grid.nodes)
        u = np.vstack([np.exp(-(t - 0.2 * c) ** 2) for c in range(4)])
        rep = dirac_square_structure(2.6, 1.3, u, grid)
        rels[n] = rep["relative"]
    assert rels[300] <= 0.1
    assert rels[600] <= 0.35 * rels[300]  # about first order or better


def test_assemble_dirac_shape_and_reality():
    grid = build_grid(64, 1e-1, 10.0)
    m = assemble_dirac(1.6, 0.5, grid)
    assert m.shape == (4 * grid.n, 4 * grid.n)
    assert np.all(np.isfinite(m))
