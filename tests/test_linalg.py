"""Kernel contracts: residuals, orthogonality, root accuracy, Haar statistics."""

import numpy as np
import pytest

import txlaw
from txlaw.errors import InputError


def test_symmetric_eigen_2x2():
    lam, V = txlaw.symmetric_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert lam == pytest.approx([1.0, 3.0])
    assert np.abs(V.T @ V - np.eye(2)).max() < 1e-12


def test_symmetric_eigen_diagonal_sorted():
    A = np.diag([3.0, -1.0, 2.0])
    lam, _ = txlaw.symmetric_eigen(A)
    assert lam == pytest.approx([-1.0, 2.0, 3.0])


def test_symmetric_eigen_rejects_nonsymmetric():
    with pytest.raises(InputError):
        txlaw.symmetric_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_symmetric_eigen_random_sweep():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(2, 51))
        A = rng.standard_normal((n, n))
        A = 0.5 * (A + A.T)
        lam, V = txlaw.symmetric_eigen(A)
        nrm = np.linalg.norm(A, 2)
        assert np.linalg.norm(A @ V - V * lam, 2) <= 1e-10 * max(nrm, 1)
        assert np.abs(V.T @ V - np.eye(n)).max() < 1e-12


def test_svd_contracts():
    U, s, Vh = txlaw.svd(np.eye(5))
    assert s == pytest.approx(np.ones(5))
    u = np.array([1.0, 2.0])
    v = np.array([3.0, 0.0, 4.0])
    U, s, Vh = txlaw.svd(np.outer(u, v))
    assert s[0] == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v))
    assert abs(s[1]) < 1e-12
    rng = np.random.default_rng(5)
    for _ in range(20):
        A = rng.standard_normal((40, 60))
        U, s, Vh = txlaw.svd(A)
        assert np.all(np.diff(s) <= 0)
        rec = (U * s) @ Vh
        assert np.linalg.norm(A - rec, 2) <= 1e-10 * np.linalg.norm(A, 2)
        assert np.abs(U.T @ U - np.eye(40)).max() < 1e-12


def test_general_eigenvalues_rotation():
    ev = txlaw.general_eigenvalues(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert ev == pytest.approx(np.array([-1j, 1j]))


def test_general_eigenvalues_companion_of_quadratic():
    # m^2 - 3m + 2 -> companion [[3, -2], [1, 0]]
    ev = txlaw.general_eigenvalues(np.array([[3.0, -2.0], [1.0, 0.0]]))
    assert sorted(ev.real) == pytest.approx([1.0, 2.0])


def test_general_eigenvalues_trace_det():
    rng = np.random.default_rng(17)
    for _ in range(10):
        A = rng.standard_normal((30, 30))
        ev = txlaw.general_eigenvalues(A)
        assert np.sum(ev) == pytest.approx(np.trace(A), abs=1e-8 * 30)
        assert np.prod(ev) == pytest.approx(
            np.linalg.det(A), rel=1e-6
        )


def test_eigenvalues_transpose_invariance():
    rng = np.random.default_rng(23)
    A = rng.standard_normal((25, 25))
    e1 = txlaw.general_eigenvalues(A)
    e2 = txlaw.general_eigenvalues(A.T)
    assert e1 == pytest.approx(e2, abs=1e-8)


def test_companion_roots_basics():
    r = np.sort_complex(txlaw.companion_roots([1.0, 0.0, 1.0]))
    assert r == pytest.approx(np.array([-1j, 1j]))
    # triple root: cluster within 1e-3 of 1
    r = txlaw.companion_roots(np.convolve(np.convolve([1, -1], [1, -1]), [1, -1]))
    assert np.max(np.abs(r - 1.0)) < 1e-3


def test_companion_roots_constructed_degree7():
    rng = np.random.default_rng(3)
    for _ in range(25):
        roots = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        coeffs = np.array([1.0 + 0j])
        for r in roots:
            coeffs = np.convolve(coeffs, [1.0, -r])
        got = txlaw.companion_roots(coeffs)
        # greedy matching after sorting by real part
        got = np.array(sorted(got, key=lambda z: (z.real, z.imag)))
        want = np.array(sorted(roots, key=lambda z: (z.real, z.imag)))
        assert np.max(np.abs(got - want)) < 1e-7


def test_companion_degenerate_leading():
    with pytest.raises(InputError):
        txlaw.companion_roots([0.0, 1.0, 2.0])


def test_arrowhead_derivative_eigvals():
    # one pole: 1 - rho / (m - pi)^2 vanishes at pi +- sqrt(rho)
    r = np.sort_complex(txlaw.arrowhead_derivative_eigvals(np.array([[4.0]]), np.array([[1.0]]))[0])
    assert r == pytest.approx(np.array([-1.0, 3.0]))
    rng = np.random.default_rng(19)
    rho = rng.standard_normal((3, 9))
    poles = rng.uniform(-5.0, 5.0, (3, 9))
    roots = txlaw.arrowhead_derivative_eigvals(rho, poles)
    assert roots.shape == (3, 18)
    terms = rho[:, None, :] / (roots[..., None] - poles[:, None, :]) ** 2
    # residual relative to the size of the terms that cancel
    assert np.max(np.abs(1 - terms.sum(-1)) / (1 + np.abs(terms).sum(-1))) < 1e-10


def test_qr_haar_orthogonal():
    rng = np.random.default_rng(0)
    for n in (1, 3, 16):
        Q = txlaw.qr_haar(n, rng)
        assert np.abs(Q.T @ Q - np.eye(n)).max() < 1e-12


@pytest.mark.parametrize("n, k", [(1, 1), (16, 1), (16, 5), (40, 20), (200, 150)])
def test_qr_haar_leading_columns(n, k):
    # qr_haar(n, rng, k) factors only the first k columns of the Gaussian block:
    # orthonormal columns, the same sample as the full matrix's first k columns
    # on the same seed, and the same stream position afterwards for every k
    rng_k, rng_full = np.random.default_rng(n * 100 + k), np.random.default_rng(n * 100 + k)
    Q = txlaw.qr_haar(n, rng_k, k)
    assert Q.shape == (n, k)
    assert np.abs(Q.T @ Q - np.eye(k)).max() < 1e-12
    assert np.abs(Q - txlaw.qr_haar(n, rng_full)[:, :k]).max() < 1e-13
    assert np.array_equal(rng_k.standard_normal(8), rng_full.standard_normal(8))


def test_qr_haar_rejects_bad_k():
    rng = np.random.default_rng(0)
    for n, k in ((0, None), (3, 0), (3, 4)):
        with pytest.raises(InputError):
            txlaw.qr_haar(n, rng, k)


def test_qr_haar_sign_symmetry():
    # n=1: +-1 with near-equal frequency
    rng = np.random.default_rng(42)
    vals = [txlaw.qr_haar(1, rng)[0, 0] for _ in range(400)]
    frac = np.mean(np.asarray(vals) > 0)
    assert 0.4 < frac < 0.6


def test_qr_haar_entry_means():
    rng = np.random.default_rng(9)
    n = 4
    acc = np.zeros((n, n))
    reps = 3000
    for _ in range(reps):
        acc += txlaw.qr_haar(n, rng)
    means = acc / reps
    # entries have mean 0 and variance 1/n: 3 sigma of the mean estimate
    assert np.abs(means).max() < 3.0 / np.sqrt(n * reps) * 2


def test_svd_matches_symmetric_eigen_on_psd():
    rng = np.random.default_rng(31)
    B = rng.standard_normal((20, 20))
    A = B @ B.T
    lam, _ = txlaw.symmetric_eigen(A)
    _, s, _ = txlaw.svd(A)
    assert np.sort(s) == pytest.approx(np.sort(lam), abs=1e-9 * lam.max())

