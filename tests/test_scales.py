
import math
import tracemalloc

import numpy as np
import pytest

from edgespec import scales
from edgespec.cli import main
from edgespec.errors import ConfigurationError
from edgespec.scales import (BlockMatrix, DEFAULT_SEED, ScaleGenerator,
                             TENSOR_CHECK_TOL, blockwise_tensor,
                             intersection_scale_check, random_generator,
                             random_psd_block, same_scale_demo,
                             tensor_positivity_check, tensor_power_error)


def _generator(dim, seed=11):
    return random_generator(dim, np.random.default_rng(seed))


def test_generator_validation():
    with pytest.raises(ConfigurationError):
        ScaleGenerator(np.ones((2, 3)))
    with pytest.raises(ConfigurationError):
        ScaleGenerator(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ConfigurationError):
        ScaleGenerator(0.5 * np.eye(3))  # lambda_min < 1


def test_power_consistency():
    g = _generator(5)
    two = g.power(2.0)
    assert np.allclose(two, g.lam @ g.lam, rtol=1e-12)
    half = g.power(0.5)
    assert np.allclose(half @ half, g.lam, rtol=1e-12)
    assert np.allclose(g.power(0.0), np.eye(5), atol=1e-12)


def test_tensor_power_identity():
    err = tensor_power_error(_generator(4), _generator(3, seed=12))
    assert err <= TENSOR_CHECK_TOL
    with pytest.raises(ConfigurationError):
        tensor_power_error(_generator(70), _generator(70, seed=12))


def test_intersection_scale_check_clean():
    rep = intersection_scale_check(_generator(4), _generator(3, seed=12),
                                   s=1.3, theta=0.4, trials=100)
    assert rep["violations"] == 0
    assert rep["trials"] == 100
    with pytest.raises(ConfigurationError):
        intersection_scale_check(_generator(3), _generator(3), s=1.0,
                                 theta=1.5, trials=1)


def test_block_matrix_round_trip():
    rng = np.random.default_rng(0)
    b = BlockMatrix(rng.normal(size=(3, 3, 2, 2)))
    assert np.array_equal(BlockMatrix.from_dense(b.dense(), 2).blocks,
                          b.blocks)
    with pytest.raises(ConfigurationError):
        BlockMatrix(np.zeros((3, 2, 2, 2)))


def test_blockwise_tensor_shapes():
    rng = np.random.default_rng(1)
    a = random_psd_block(3, 2, rng)
    b = random_psd_block(3, 3, rng)
    t = blockwise_tensor(a, b)
    assert t.d == 6 and t.n == 3
    with pytest.raises(ConfigurationError):
        blockwise_tensor(a, random_psd_block(4, 2, rng))


def test_tensor_positivity():
    rng = np.random.default_rng(2)
    a = random_psd_block(3, 2, rng)
    b = random_psd_block(3, 2, rng)
    rep = tensor_positivity_check(a, b, trials=30)
    assert rep["passes"]
    assert rep["lambda_min_tensor"] >= -1e-10
    assert rep["lambda_min_monotone"] >= -1e-10
    # non-PSD input is rejected
    bad = BlockMatrix(a.blocks.copy())
    bad.blocks[0, 0] -= 10.0 * np.eye(2)
    with pytest.raises(ConfigurationError):
        tensor_positivity_check(bad, b, trials=1)


def test_positivity_deterministic_given_seed():
    rng1, rng2 = np.random.default_rng(9), np.random.default_rng(9)
    a1, b1 = random_psd_block(2, 2, rng1), random_psd_block(2, 2, rng1)
    a2, b2 = random_psd_block(2, 2, rng2), random_psd_block(2, 2, rng2)
    r1 = tensor_positivity_check(a1, b1, trials=5, seed=DEFAULT_SEED)
    r2 = tensor_positivity_check(a2, b2, trials=5, seed=DEFAULT_SEED)
    assert r1 == r2


def test_same_scale_demo_boundary_fingerprint():
    # the low modes of B^T B obey f'(0) + a f(0) = 0, never imposed
    rep = same_scale_demo(a=1.0, n=400)
    for f in rep["eigenfunctions"]:
        assert f["resid_a_condition"] <= 0.1 * f["resid_zero_condition"]
    assert rep["fingerprint_ratio"] == min(
        f["resid_zero_condition"] / f["resid_a_condition"]
        for f in rep["eigenfunctions"])
    # a = 0 flips the fingerprint: then f'(0) = 0 is the natural condition
    # (the staggered grid leaves an O(h) offset ~ k^2 h / 2 per mode)
    rep0 = same_scale_demo(a=0.0, n=400)
    for f in rep0["eigenfunctions"]:
        assert f["resid_zero_condition"] <= 2e-2
    with pytest.raises(ConfigurationError):
        same_scale_demo(a=1.0, n=4)


def test_same_scale_demo_first_eigenfunction_exponential():
    # the a-dependent scale has an almost-zero mode ~ exp(-a x)
    rep = same_scale_demo(a=1.0, n=400)
    assert rep["eigenfunctions"][0]["eigenvalue"] <= 1e-2
    assert rep["eigenfunctions"][1]["eigenvalue"] > 0.5


@pytest.mark.parametrize("a", [0.0, 1.0, 2.5])
@pytest.mark.parametrize("n", [16, 400])
def test_same_scale_demo_matches_the_closed_form(monkeypatch, a, n):
    # B B^T is tridiagonal Toeplitz (diagonal p^2 + q^2, off-diagonal pq),
    # so B^T B has the eigenvalue 0 with null vector (-p/q)^i and the
    # eigenvalues p^2 + q^2 + 2pq cos(k pi/(n+1)), k = 1..n, with
    # eigenvectors B^T u_k, (u_k)_j = sin(j k pi/(n+1)); pq < 0 here
    seen = []
    solve = scales.tridiagonal_eigenpairs

    def recording(d, e, count):
        seen.append(solve(d, e, count))
        return seen[-1]

    monkeypatch.setattr(scales, "tridiagonal_eigenpairs", recording)
    rep = scales.same_scale_demo(a=a, n=n)
    [(values, vectors)] = seen
    assert [f["eigenvalue"] for f in rep["eigenfunctions"]] == list(values)
    h = math.pi / n
    p, q = -1.0 / h + 0.5 * a, 1.0 / h + 0.5 * a
    c_norm = (abs(p) + abs(q)) ** 2
    assert abs(values[0]) <= 1e-9 * c_norm
    exact = [(-p / q) ** np.arange(n + 1)]
    j = np.arange(1, n + 1)
    for k in (1, 2):
        lam = p * p + q * q + 2.0 * p * q * math.cos(k * math.pi / (n + 1))
        assert values[k] == pytest.approx(lam, rel=1e-9)
        u = np.sin(j * k * math.pi / (n + 1))
        v = np.zeros(n + 1)
        v[:-1] += p * u
        v[1:] += q * u
        exact.append(v)
    for k, v in enumerate(exact):
        cos = vectors[:, k] @ v / (np.linalg.norm(vectors[:, k])
                                   * np.linalg.norm(v))
        assert abs(cos) >= 1.0 - 1e-9


def test_same_scale_demo_memory_is_linear_in_n():
    # a dense B^T B at n = 4000 would take 128 MiB, and B as much again;
    # the two bands and three eigenvectors take under 1 MiB
    same_scale_demo(a=1.0, n=16)  # loads scipy outside the measurement
    tracemalloc.start()
    try:
        same_scale_demo(a=1.0, n=4000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_scales_suite_runs_at_a_fine_grid():
    assert main(["scales", "--grid-n", "12800"]) == 0
