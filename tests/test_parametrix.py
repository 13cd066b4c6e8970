import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import LinAlgWarning

from edgespec.errors import (ConfigurationError, NumericalError,
                             PreconditionError, WittViolationError)
from edgespec import parametrix
from edgespec.grids import build_grid, fd_assemble_model
from edgespec.parametrix import (Y_PERIOD, EdgeFunction, _xi_modes,
                                 mapping_bounds, parametrix_apply,
                                 random_section, smooth_section)


def _supported_input(grid, n_y, n_fiber, n_comp, seed=3):
    return random_section(grid, n_y, n_fiber, n_comp,
                          np.random.default_rng(seed))


def test_edge_function_validation():
    with pytest.raises(ConfigurationError):
        EdgeFunction(np.zeros((4, 8, 1)))  # not 4-d
    with pytest.raises(ConfigurationError):
        EdgeFunction(np.zeros((4, 12, 1, 1)))  # 12 not a power of two
    with pytest.raises(ConfigurationError):
        EdgeFunction(np.zeros((4, 128, 1, 1)))  # above the mode cap
    bad = np.zeros((4, 8, 1, 1))
    bad[0, 0, 0, 0] = np.nan
    with pytest.raises(ConfigurationError):
        EdgeFunction(bad)
    assert EdgeFunction(np.zeros((4, 8, 1, 1))).n_y == 8


def test_setup_validation():
    grid = build_grid(64, 1e-2, 1e2)
    u = _supported_input(grid, 8, 1, 2)
    with pytest.raises(WittViolationError):
        parametrix_apply(u, (1.4,), grid)
    with pytest.raises(ConfigurationError):
        parametrix_apply(u, (2.1, 3.0), grid)  # fiber mismatch
    for n_c in (0, 3):  # the order comes from 2 or 1 components only
        with pytest.raises(ConfigurationError):
            parametrix_apply(EdgeFunction(np.zeros((grid.n, 8, 1, n_c))),
                             (2.1,), grid)
        with pytest.raises(ConfigurationError):
            mapping_bounds(_supported_input(grid, 8, 1, n_c), (2.1,), grid)


def test_right_inverse_residual_tiny():
    grid = build_grid(200, 1e-2, 1e2)
    for n_c in (2, 1):
        u = _supported_input(grid, 16, 2, n_c)
        rep = mapping_bounds(u, (2.1, 3.5), grid)
        assert rep.residual_rel <= 1e-10


@pytest.mark.parametrize("n_c", [2, 1])
def test_w11_bound_matches_direct_norms(n_c):
    # Parseval's per-mode sums against the direct recipe: inverse FFT,
    # x^-p weight, weighted L^2 norms on the (x, y) lattice
    grid = build_grid(100, 1e-2, 1e2)
    u = _supported_input(grid, 8, 2, n_c)
    power = 3 - n_c
    qu = parametrix_apply(u, (2.1, 3.5), grid).samples
    dy = Y_PERIOD / u.n_y

    def l2(s):
        return np.sqrt(np.sum(grid.weights[:, None, None, None]
                              * np.abs(s) ** 2) * dy)
    x_p = grid.nodes[:, None, None, None] ** (-power)
    direct = l2(x_p * qu) / l2(u.samples)
    rep = mapping_bounds(u, (2.1, 3.5), grid)
    assert rep.w11_bound == pytest.approx(direct, rel=1e-12)


def test_mapping_bounds_requires_support():
    # support in x <= 1 is read from the samples, before any mode solve
    grid = build_grid(64, 1e-2, 1e2)
    inside = np.zeros((grid.n, 8, 1, 2))
    inside[grid.nodes <= 1.0] = 1.0
    rep = mapping_bounds(EdgeFunction(inside), (2.1,), grid)
    assert rep.residual_rel <= 1e-10
    with pytest.raises(PreconditionError):
        mapping_bounds(EdgeFunction(np.ones((grid.n, 8, 1, 2))), (2.1,),
                       grid)
    one = np.zeros((grid.n, 8, 1, 2))
    one[-1, 3, 0, 1] = 1e-300  # a single tiny sample at x = 100
    with pytest.raises(PreconditionError):
        mapping_bounds(EdgeFunction(one), (2.1,), grid)
    zero = EdgeFunction(np.zeros((grid.n, 8, 1, 2)))
    with pytest.raises(PreconditionError):
        mapping_bounds(zero, (2.1,), grid)


def test_edge_function_keeps_validated_array():
    # a nested list is validated as an array and stored as that array
    grid = build_grid(64, 1e-2, 1e2)
    s = np.zeros((grid.n, 2, 1, 2))
    s[grid.nodes < 1.0] = 1.0
    u = EdgeFunction(s.tolist())
    assert isinstance(u.samples, np.ndarray) and u.n_y == 2
    assert parametrix_apply(u, (2.1,), grid).samples.shape == (
        grid.n, 2, 1, 2)
    assert mapping_bounds(u, (2.1,), grid).residual_rel <= 1e-10


def _smooth_input(grid, n_y, n_comp):
    # a y-profile with every mode present, decaying like 0.95^|k|
    y = np.arange(n_y) * 2 * np.pi / n_y
    prof = np.ones(n_y)
    for k in range(1, n_y // 2 + 1):
        prof += np.cos(k * y) * 0.95 ** k
    return smooth_section(grid, prof, n_comp)


def test_per_mode_decay_envelope():
    # the inverse-mode norms decay monotonically in |xi|; the (1+|xi|)^-p
    # envelope takes over once |xi| dominates the x-part of the operator
    grid = build_grid(200, 1e-2, 1e2)
    for n_c, power, drop in ((2, 1, 4.5), (1, 2, 20.0)):
        rep = mapping_bounds(_smooth_input(grid, 64, n_c), (2.1,), grid)
        ratios = np.asarray(rep.per_mode_decay)
        xis = np.asarray(rep.xi_modes)
        envelope = (1.0 + np.abs(xis)) ** (-power)
        assert np.all(ratios <= rep.fitted_c * envelope * (1.0 + 1e-12))
        pos = np.argsort(xis)
        rr = ratios[pos][xis[pos] >= 0]
        assert np.all(np.diff(rr) <= 1e-12)
        assert ratios[xis == 0][0] / ratios[np.abs(xis) == 32].max() >= drop


def test_mode_diagonality():
    # a single y-mode input produces a single y-mode output
    grid = build_grid(100, 1e-2, 1e2)
    n_y = 16
    x, t = grid.nodes, np.log(grid.nodes)
    bump = np.exp(-4.0 * (t + 1.0) ** 2) * ((x > 0.02) & (x < 0.9))
    y = np.arange(n_y) * 2 * np.pi / n_y
    s = (bump[:, None] * np.cos(3 * y)[None, :])[:, :, None, None]
    out = parametrix_apply(EdgeFunction(s), (2.1,), grid)
    o_hat = np.fft.fft(out.samples, axis=1)
    amps = np.sqrt(np.sum(np.abs(o_hat) ** 2, axis=(0, 2, 3)))
    live = {3, n_y - 3}
    others = [a for k, a in enumerate(amps) if k not in live]
    assert max(others) <= 1e-12 * max(amps)


def test_energy_inequality_witness():
    # || L_xi v ||^2 >= xi^2 ||v||^2 for compactly supported v, both signs
    # of xi; L_xi is the nu = 2.1 (mu = 1.6) first-order mode matrix
    grid = build_grid(300, 1e-2, 1e2)
    x, t = grid.nodes, np.log(grid.nodes)
    v1 = np.exp(-6.0 * (t + 1.0) ** 2) * ((x > 0.02) & (x < 0.9))
    v2 = np.exp(-6.0 * (t + 1.5) ** 2) * ((x > 0.02) & (x < 0.9))
    v = np.column_stack([v1, v2]).reshape(-1)  # node-major
    w = np.repeat(grid.weights, 2)
    for xi in (1.0, 4.0, 8.0, -4.0):
        m = fd_assemble_model(2.1, xi, grid, 2)
        lv = m @ v
        lhs = float(w @ lv ** 2)
        rhs = xi * xi * float(w @ v ** 2)
        assert lhs >= rhs * (1.0 - 0.02)


def test_parametrix_apply_real_in_real_out():
    grid = build_grid(100, 1e-2, 1e2)
    u = _supported_input(grid, 8, 1, 1)
    out = parametrix_apply(u, (2.1,), grid)
    assert np.isrealobj(out.samples)
    assert out.samples.shape == u.samples.shape
    # the solve spreads the support beyond x = 1
    assert np.any(out.samples[grid.nodes > 1.0] != 0.0)


def test_first_order_keeps_imaginary_part():
    # the first-order mode matrix at -xi is not the one at xi, so Qu of a
    # real section is complex; it must equal Qu of the same complex section
    grid = build_grid(100, 1e-2, 1e2)
    u = _supported_input(grid, 8, 1, 2)
    out = parametrix_apply(u, (2.1,), grid).samples
    ref = parametrix_apply(EdgeFunction(u.samples.astype(complex)), (2.1,),
                           grid).samples
    assert np.abs(out.imag).max() > 1e-3 * np.abs(out).max()
    np.testing.assert_array_equal(out, ref)


def test_xi_modes_are_exact_integers():
    assert (_xi_modes(16) == np.r_[0:8, -8:0]).all()


@pytest.mark.parametrize("n_c", [2, 1])
def test_each_mode_solves_its_signed_matrix(n_c):
    # every mode's transform solves the matrix of its own signed xi
    grid = build_grid(100, 1e-2, 1e2)
    nus = (2.1, 3.5)
    u = _supported_input(grid, 8, 2, n_c)
    q_hat = np.fft.fft(parametrix_apply(u, nus, grid).samples, axis=1)
    u_hat = np.fft.fft(u.samples, axis=1)
    for f, nu in enumerate(nus):
        for k, xi in enumerate(np.r_[0:4, -4:0]):
            m = fd_assemble_model(nu, xi, grid, n_c)
            q = q_hat[:, k, f, :].reshape(-1)  # node-major
            rhs = u_hat[:, k, f, :].reshape(-1)
            assert (np.linalg.norm(m @ q - rhs)
                    <= 1e-10 * np.linalg.norm(rhs))


@pytest.mark.parametrize("n_c", [2, 1])
def test_one_factorization_per_mode(monkeypatch, n_c):
    # one factorization and one solve per (fiber, signed xi), for either
    # order: 2 fibers x 16 modes
    calls = {"lu_factor": 0, "lu_solve": 0}
    for name in calls:
        def counted(*args, _fn=getattr(parametrix, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(parametrix, name, counted)
    grid = build_grid(64, 1e-2, 1e2)
    mapping_bounds(_supported_input(grid, 16, 2, n_c), (2.1, 3.5), grid)
    assert calls == {"lu_factor": 32, "lu_solve": 32}


def _dense_from_band(band, n_c):
    # undo the band storage and the node-major order
    n = band.ab.shape[1]
    w = band.w
    node_major = np.zeros((n, n))
    for k in range(-w, w + 1):
        lo, hi = max(k, 0), n + min(k, 0)
        node_major[np.arange(lo - k, hi - k), np.arange(lo, hi)] = (
            band.ab[2 * w - k, lo:hi])
    # the node-major index of each component-major one
    order = np.arange(n).reshape(-1, n_c).T.reshape(-1)
    return node_major[np.ix_(order, order)]


@pytest.mark.parametrize("n_c, nu", [(2, 2.1), (2, 3.5), (1, 2.1), (1, 3.5)])
def test_band_storage_round_trips(n_c, nu):
    # the band product equals the product with the matrix the band stores,
    # read back out of the band storage and the node-major order, to the
    # rounding of a sum of at most 2w + 1 terms
    grid = build_grid(64, 1e-2, 1e2)
    y = np.random.default_rng(5).normal(size=(n_c * grid.n, 3))
    # the node-major index of each component-major one
    order = np.arange(n_c * grid.n).reshape(-1, n_c).T.reshape(-1)
    for xi_abs in (0.0, 1.0, 7.0):
        band = fd_assemble_model(nu, xi_abs, grid, n_c)
        assert band.w == (5 if n_c == 2 else 3)
        dense = _dense_from_band(band, n_c)
        ref = dense @ y[order]
        scale = np.abs(dense) @ np.abs(y[order])
        assert (np.abs((band @ y)[order] - ref) <= 1e-14 * scale).all()


def test_band_product_of_a_vector():
    grid = build_grid(64, 1e-2, 1e2)
    band = fd_assemble_model(2.1, 3.0, grid, 2)
    v = np.random.default_rng(6).normal(size=2 * grid.n)
    assert np.array_equal(band @ v, (band @ v[:, None])[:, 0])


@pytest.mark.parametrize("n_c", [2, 1])
def test_singular_mode_matrix_raises(monkeypatch, n_c):
    # an exactly singular mode matrix fails as a typed error, not through
    # a LinAlgWarning that the test configuration turns into an error
    def zero_column(*args):
        band = build(*args)
        band.ab[:, 5] = 0.0
        return band

    build = parametrix.fd_assemble_model
    monkeypatch.setattr(parametrix, "fd_assemble_model", zero_column)
    grid = build_grid(64, 1e-2, 1e2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        with pytest.raises(NumericalError, match="singular mode matrix"):
            mapping_bounds(_supported_input(grid, 8, 1, n_c), (2.1,), grid)


_SUITE_RECORDS = """
import json
from edgespec import cli
records = [r.as_dict() for r in cli.run_suite("parametrix",
                                              cli.RunConfig(seed=0))]
for r in records:
    del r["runtime_ms"]
print(json.dumps(records))
"""


def test_records_independent_of_blas_threads():
    # the banded solves give the same bits at one and two BLAS threads
    src = str(Path(parametrix.__file__).resolve().parents[1])
    procs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, (src, os.environ.get("PYTHONPATH")))))
        procs.append(subprocess.Popen([sys.executable, "-c", _SUITE_RECORDS],
                                      env=env, stdout=subprocess.PIPE,
                                      text=True))
    one, two = (json.loads(p.communicate(timeout=60)[0]) for p in procs)
    assert all(p.returncode == 0 for p in procs)
    assert len(one) == 4 and one == two
