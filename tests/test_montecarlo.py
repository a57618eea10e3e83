"""Ensemble sampling and the statistical verification operations (small scale)."""

import itertools

import numpy as np
import pytest
from scipy.linalg import svdvals
from scipy.optimize import linear_sum_assignment
from scipy.stats import ks_2samp

import txlaw
from txlaw import linalg, montecarlo
from txlaw.errors import DomainError
from txlaw.montecarlo import (
    _rng_for_run,
    build_t,
    control_parameter,
    deterministic_resolvent,
    empirical_m2,
    sample_entries,
)
from conftest import mp_stieltjes


def small_cfg(spec, **kw):
    defaults = dict(N=spec.N, M=spec.M, spec=spec, runs=4, seed=123, threads=2)
    defaults.update(kw)
    return txlaw.EnsembleConfig(**defaults)


@pytest.fixture(scope="module")
def spec200():
    return txlaw.SigmaSpectrum(s=(1.0,), l=(200,), N=200, M=200)


@pytest.fixture(scope="module")
def fig2_200():
    return txlaw.SigmaSpectrum(s=(32 / 17, 2 / 17), l=(100, 100), N=200, M=200)


def test_determinism_across_worker_counts(spec200):
    # at N = 600 the caller's BLAS thread count changes LAPACK's bits, so the
    # second case fails unless every run computes on one BLAS thread
    spec600 = txlaw.SigmaSpectrum(s=(1.0,), l=(600,), N=600, M=600)
    for spec, runs, workers in ((spec200, 4, 4), (spec600, 2, 2)):
        with linalg.blas_threads(2):
            runs1 = txlaw.run_ensemble(
                small_cfg(spec, runs=runs, z_list=(1.5 + 0j,), threads=1))
        with linalg.blas_threads(1):
            runs2 = txlaw.run_ensemble(
                small_cfg(spec, runs=runs, z_list=(1.5 + 0j,), threads=workers))
        for a, b in zip(runs1, runs2):
            assert np.array_equal(a.eigenvalues, b.eigenvalues)
            assert np.array_equal(a.singular[1.5 + 0j], b.singular[1.5 + 0j])


def test_run_ensemble_restores_blas_threads(spec200, monkeypatch):
    fns = linalg._blas_thread_fns()
    if not fns:
        pytest.skip("numpy has no OpenBLAS")
    get = fns[0]
    original = montecarlo.general_eigenvalues
    seen = []

    def fails_second_call(P):
        seen.append(get())
        if next(calls) == 1:          # atomic across the pool's threads
            raise np.linalg.LinAlgError("injected non-convergence")
        return original(P)

    def raises(P):
        raise RuntimeError("injected crash")

    with linalg.blas_threads(2):
        before = get()
        monkeypatch.setattr(montecarlo, "general_eigenvalues", fails_second_call)
        for workers in (1, 2):
            seen.clear()
            calls = itertools.count()
            with pytest.warns(UserWarning, match="failed"):
                runs = txlaw.run_ensemble(small_cfg(spec200, runs=3, threads=workers))
            assert sum(r.failed for r in runs) == 1
            assert seen == [1, 1, 1]
            assert get() == before
        monkeypatch.setattr(montecarlo, "general_eigenvalues", raises)
        for workers in (1, 2):
            with pytest.raises(RuntimeError, match="injected crash"):
                txlaw.run_ensemble(small_cfg(spec200, runs=3, threads=workers))
            assert get() == before


def test_law_solves_in_the_pool_restore_blas_threads(fig2_200, monkeypatch):
    # the law's entry points run their eigensolves on one BLAS thread: alone,
    # inside run_ensemble's pool, and on two threads of the caller's own
    # pool at once; the caller's count comes back after each
    from concurrent.futures import ThreadPoolExecutor

    from txlaw import support

    fns = linalg._blas_thread_fns()
    if not fns:
        pytest.skip("numpy has no OpenBLAS")
    get = fns[0]
    seen = []
    curve, sample = support.symmetric_arrowhead_eigvals, montecarlo.sample_run

    def spy(*args):
        seen.append(get())
        return curve(*args)

    def with_law(cfg, k):
        txlaw.tabulate_density(cfg.spec, 1.5, 200)
        return sample(cfg, k)

    monkeypatch.setattr(support, "symmetric_arrowhead_eigvals", spy)
    monkeypatch.setattr(montecarlo, "sample_run", with_law)
    with linalg.blas_threads(2):
        before = get()
        txlaw.find_edges(fig2_200, 1.5)
        assert seen == [1] and get() == before == 2
        runs = txlaw.run_ensemble(small_cfg(fig2_200, runs=4, threads=2, z_list=(1.5 + 0j,)))
        assert not any(r.failed for r in runs) and get() == before
        with ThreadPoolExecutor(2) as pool:
            list(pool.map(lambda z: txlaw.find_edges(fig2_200, z), [0.5, 1.2, 1.5, 2.0]))
        assert get() == before
    assert seen == [1] * 9


@pytest.mark.parametrize("z", [0.5 + 0j, 1.5 + 0j, 1.2 * np.exp(0.7j)])
def test_singular_spectrum_matches_svdvals(fig2_200, z):
    # Gram eigenvalues of one draw against the squared singular values of the
    # same Y = T X - z from an SVD
    cfg = small_cfg(fig2_200, runs=1, z_list=(z,), seed=61)
    lam = txlaw.sample_run(cfg, 0).singular[z]
    rng = _rng_for_run(cfg.seed, 0)
    T = build_t(cfg, rng)
    X = sample_entries(rng, (cfg.M, cfg.N), cfg.x_dist, cfg.K)
    ref = np.sort(svdvals(T @ X - z * np.eye(cfg.N)) ** 2)
    assert np.max(np.abs(lam - ref)) <= 1e-12 * ref[-1]
    assert abs(lam[0] - ref[0]) <= 1e-9 * ref[0]


def test_trivial_zero_count_tall():
    spec = txlaw.SigmaSpectrum(s=(1.0,), l=(4,), N=6, M=4)
    cfg = small_cfg(spec, runs=3, z_list=(0.5 + 0j,))
    for r in txlaw.run_ensemble(cfg):
        assert txlaw.count_trivial_zeros(r) == 2
        assert r.eigenvalues.size == 6
        assert r.singular[0.5 + 0j].size == 4          # reduced square problem
        assert np.all(r.singular[0.5 + 0j] >= 0)


@pytest.mark.parametrize("t_mode, x_dist", [("haar", "skewed"), ("diagonal", "gauss")])
def test_eigenvalues_from_reduced_product(t_mode, x_dist):
    # for N > M the eigenvalues come from the M x M reduced product plus N - M
    # exact zeros, checked against the full N x N solve of the same draw; for
    # N <= M they are those of T X itself, bit for bit
    N, M = 40, 20
    spec = txlaw.SigmaSpectrum(s=(32 / 17, 2 / 17), l=(10, 10), N=N, M=M)
    cfg = small_cfg(spec, runs=1, t_mode=t_mode, x_dist=x_dist, seed=71)
    eig = txlaw.sample_run(cfg, 0).eigenvalues
    assert eig.size == N
    assert np.sum(eig == 0) == N - M
    assert np.array_equal(eig, np.sort_complex(eig))
    T, X = montecarlo._draw(cfg, 0)
    full = np.linalg.eigvals(T @ X)
    full = full[np.argsort(np.abs(full))]
    assert np.all(np.abs(full[:N - M]) <= montecarlo.ZERO_EIG_TOL)
    nonzero = eig[eig != 0]
    rows, cols = linear_sum_assignment(np.abs(nonzero[:, None] - full[None, N - M:]))
    assert np.max(np.abs(nonzero[rows] - full[N - M:][cols])) <= 1e-10
    for N, M in ((20, 20), (20, 40)):
        spec = txlaw.SigmaSpectrum(s=(32 / 17, 2 / 17), l=(10, 10), N=N, M=M)
        cfg = small_cfg(spec, runs=1, t_mode=t_mode, x_dist=x_dist, seed=71)
        T, X = montecarlo._draw(cfg, 0)
        assert np.array_equal(txlaw.sample_run(cfg, 0).eigenvalues,
                              linalg.general_eigenvalues(T @ X))
    if t_mode == "diagonal":
        # the row-scaled P of a tall diagonal run is the dense T^T X^T bit for bit,
        # so its singular spectra are too
        z = 0.5 + 0j
        spec = txlaw.SigmaSpectrum(s=(32 / 17, 2 / 17), l=(10, 10), N=40, M=20)
        cfg = small_cfg(spec, runs=1, t_mode=t_mode, x_dist=x_dist, seed=71, z_list=(z,))
        T, X = montecarlo._draw(cfg, 0)
        Y = T.T @ X.T - z.real * np.eye(cfg.K)
        ref = np.maximum(linalg.symmetric_eigvals(Y.T @ Y), 0.0)
        assert np.array_equal(txlaw.sample_run(cfg, 0).singular[z], ref)


def test_haar_t_factors_only_what_it_reads(monkeypatch):
    # U's factor is a reduced QR of its N x K block: nothing larger than
    # 40 x 20 is factored for N = 40, M = 20
    shapes = []
    qr = np.linalg.qr

    def recording_qr(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(linalg.np.linalg, "qr", recording_qr)
    spec = txlaw.SigmaSpectrum(s=(32 / 17, 2 / 17), l=(10, 10), N=40, M=20)
    T = build_t(small_cfg(spec, t_mode="haar"), np.random.default_rng(3))
    assert T.shape == (40, 20)
    assert sorted(shapes) == [(20, 20), (40, 20)]


@pytest.mark.parametrize("N, M, z", [(1200, 600, 0.5), (600, 1200, 1.5)])
def test_rectangular_law(N, M, z):
    # criterion 7's tolerances on M/N = 1/2 and 2, Haar T, skewed entries
    K = min(N, M)
    spec = txlaw.SigmaSpectrum(s=(32 / 17, 2 / 17), l=(K // 2, K // 2), N=N, M=M)
    cfg = small_cfg(spec, t_mode="haar", x_dist="skewed", z_list=(complex(z),), seed=83)
    runs = txlaw.run_ensemble(cfg)
    table = txlaw.tabulate_density(spec, z)
    xs = np.linspace(table.bands[0][0], table.bands[-1][1], 800)
    cdf = table.cdf2(xs)
    for r in runs:
        assert txlaw.count_trivial_zeros(r) == N - K
        lam = np.sort(r.singular[complex(z)])
        assert np.max(np.abs(np.searchsorted(lam, xs, side="right") / K - cdf)) <= 0.02
    profile = txlaw.compute_radial_profile(spec, 0.1, 2.0, h=0.005)
    radial = txlaw.radial_esd_cdf(cfg, profile, runs=runs)
    assert max(radial["sup_dev"]) <= 0.04


def test_entry_moments_5_sigma():
    K = 300
    n_entries = K * K
    for dist, third in (("gauss", 0.0), ("rademacher", 0.0), ("skewed", 1.5)):
        rng = np.random.default_rng(7)
        X = sample_entries(rng, (K, K), dist, K)
        xs = X.ravel() * np.sqrt(K)
        se = 1.0 / np.sqrt(n_entries)
        assert abs(xs.mean()) < 5 * se
        assert abs((xs**2).mean() - 1.0) < 5 * np.sqrt(np.var(xs**2) / n_entries) + 5 * se
        m3_se = np.sqrt(np.var(xs**3) / n_entries)
        assert abs((xs**3).mean() - third) < 5 * max(m3_se, se)


def test_build_t_modes(fig2_200):
    rng = np.random.default_rng(0)
    cfg_d = small_cfg(fig2_200, t_mode="diagonal")
    T = build_t(cfg_d, rng)
    assert T.shape == (200, 200)
    s_want = np.sort(fig2_200.expand())
    assert np.sort(np.diag(T) ** 2) == pytest.approx(s_want)
    cfg_h = small_cfg(fig2_200, t_mode="haar")
    Th = build_t(cfg_h, rng)
    lam = np.linalg.eigvalsh(Th @ Th.T)
    assert np.sort(lam) == pytest.approx(s_want, abs=1e-9)


def test_gaussian_invariance_haar_vs_diagonal(fig2_200):
    z = 1.5 + 0j
    pooled = {}
    for mode in ("diagonal", "haar"):
        cfg = small_cfg(fig2_200, t_mode=mode, runs=30, z_list=(z,), seed=11)
        runs = txlaw.run_ensemble(cfg)
        pooled[mode] = np.concatenate([r.singular[z] for r in runs])
    stat = ks_2samp(pooled["diagonal"], pooled["haar"])
    assert stat.pvalue >= 0.01


def test_rotation_invariance_phase(fig2_200):
    za = 1.2 + 0j
    zb = 1.2 * np.exp(0.7j)
    cfg = small_cfg(fig2_200, runs=30, z_list=(za, zb), seed=19)
    runs = txlaw.run_ensemble(cfg)
    a = np.concatenate([r.singular[za] for r in runs])
    b = np.concatenate([r.singular[zb] for r in runs])
    assert ks_2samp(a, b).pvalue >= 0.01


def test_empirical_m2_matches_mp(spec200):
    # z = 0 diagnostic: X^dag X spectra against the closed-form transform
    cfg = small_cfg(spec200, runs=20, z_list=(0j,), seed=5)
    runs = txlaw.run_ensemble(cfg)
    w = 2.0 + 0.2j
    vals = [empirical_m2(r.singular[0j], w) for r in runs]
    assert np.mean(vals) == pytest.approx(mp_stieltjes(w), abs=0.05)


def test_averaged_law_profile_interface(fig2_200):
    cfg = small_cfg(fig2_200, runs=8, z_list=(1.5 + 0j,), seed=3)
    prof = txlaw.averaged_law_profile(cfg, 1.5, E_bulk=4.0, eta_grid=[1.0, 0.1])
    assert prof[0]["eta"] == 1.0
    assert prof[0]["median"] <= 2.0          # trivially concentrated regime
    assert all(p["runs"] == 8 for p in prof)


def test_entrywise_law_small(spec200):
    cfg = small_cfg(spec200, runs=6, seed=21)
    out = txlaw.entrywise_law_check(cfg, 1.5 + 0j, 4.0 + 0.1j)
    ratios = [o["max_group_ratio"] for o in out]
    assert np.median(ratios) <= 10.0
    probe = np.concatenate([o["probe_ratios"] for o in out])
    assert np.median(probe) <= 10.0
    # scaling sanity: a 10x smaller declared control parameter inflates ratios 10x
    for o in out:
        assert o["max_group_norm"] / (o["psi"] / 10) == pytest.approx(
            10 * o["max_group_ratio"]
        )


def test_entrywise_rejects_low_eta(spec200):
    cfg = small_cfg(spec200, runs=1)
    with pytest.raises(DomainError):
        txlaw.entrywise_law_check(cfg, 1.5 + 0j, 4.0 + 1e-6j)


def test_pi_norm_bound(fig2_200):
    # deterministic-equivalent blocks stay O(|w|^{-1/2})
    rng = np.random.default_rng(13)
    d = np.sqrt(fig2_200.expand())
    for _ in range(25):
        w = complex(rng.uniform(0.3, 8), rng.uniform(0.05, 1.0))
        sol = txlaw.solve_master(w, fig2_200, 1.5)
        Pi = deterministic_resolvent(d, 1.5 + 0j, w, sol.m1c, sol.m2c)
        N = d.size
        blocks = np.stack(
            [
                np.stack([np.diag(Pi)[:N], np.diag(Pi, k=N)], axis=1),
                np.stack([np.diag(Pi, k=-N), np.diag(Pi)[N:]], axis=1),
            ],
            axis=1,
        )
        norms = np.linalg.norm(blocks, ord=2, axis=(1, 2))
        assert norms.max() <= 10.0 / np.sqrt(abs(w))


def test_control_parameter_shape():
    assert control_parameter(0.5 + 1j, 0.5 + 1j, 100, 0.1) == pytest.approx(
        np.sqrt(2.0 / 10.0) + 0.1
    )


def test_extreme_stats(fig2_200):
    cfg = small_cfg(fig2_200, runs=10, z_list=(1.5 + 0j,), seed=29)
    out = txlaw.extreme_singular_stats(cfg, 1.5)
    assert out["n_small_violations"] == 0
    assert out["n_big_violations"] == 0
    assert out["n_det_violations"] == 0
    # larger |z| pushes the smallest eigenvalue up
    cfg3 = small_cfg(fig2_200, runs=10, z_list=(3.0 + 0j,), seed=29)
    out3 = txlaw.extreme_singular_stats(cfg3, 3.0)
    assert np.median(out3["lambda_min"]) > np.median(out["lambda_min"])


def test_bump_properties():
    assert txlaw.bump(np.array([0.0]))[0] == 1.0
    assert txlaw.bump(np.array([1.0, 2.0])) == pytest.approx([0.0, 0.0])
    # oracle: 2D quadrature of |Laplacian| over the plane
    n = 2001
    xs = np.linspace(-1, 1, n)
    X, Y = np.meshgrid(xs, xs)
    R2 = X * X + Y * Y
    lap = np.where(R2 <= 1.0, 12 * (1 - R2) * (3 * R2 - 1), 0.0)
    quad = np.sum(np.abs(lap)) * (xs[1] - xs[0]) ** 2
    assert txlaw.bump_laplacian_l1() == pytest.approx(quad, rel=1e-3)


def test_local_circular_outside_disk(spec200, identity_radial_profile):
    cfg = small_cfg(spec200, runs=6, seed=31)
    out = txlaw.local_circular_error(cfg, 1.5 + 0j, 0.25, identity_radial_profile)
    assert abs(out["target"]) <= 0.01
    assert np.median(out["errors"]) <= 0.05


def test_local_circular_inside_disk(spec200, identity_radial_profile):
    cfg = small_cfg(spec200, runs=6, seed=37)
    out = txlaw.local_circular_error(cfg, 0.5j, 0.25, identity_radial_profile)
    # chi is 1 on the bump: target = (1/pi) int F = 1/4
    assert out["target"] == pytest.approx(0.25, abs=0.01)


def test_local_circular_rejects_band_overlap(spec200, identity_radial_profile):
    cfg = small_cfg(spec200, runs=1)
    with pytest.raises(DomainError):
        txlaw.local_circular_error(cfg, 1.0 + 0j, 0.25, identity_radial_profile)


def test_radial_esd_small(spec200, identity_radial_profile):
    cfg = small_cfg(spec200, runs=12, seed=41)
    out = txlaw.radial_esd_cdf(cfg, identity_radial_profile)
    med = float(np.median(out["sup_dev"]))
    assert med <= 0.08          # N = 200: about sqrt(5) looser than the N = 1000 gate
    # concentration: single run deviates more than the 12-run median curve
    one = txlaw.radial_esd_cdf(
        txlaw.EnsembleConfig(
            N=200, M=200, spec=spec200, runs=1, seed=41, z_list=(), threads=1
        ),
        identity_radial_profile,
    )
    pooled_dev = float(np.max(np.abs(out["Fhat_median"] - out["F_theory"])))
    assert pooled_dev <= np.max(one["sup_dev"]) + 1e-12


def test_rng_stream_independence():
    a = _rng_for_run(1, 0).standard_normal(4)
    b = _rng_for_run(1, 1).standard_normal(4)
    c = _rng_for_run(1, 0).standard_normal(4)
    assert not np.allclose(a, b)
    assert np.array_equal(a, c)


def test_failed_run_policy(spec200):
    good = txlaw.sample_run(small_cfg(spec200, runs=1), 0)
    bad = txlaw.RunResult(
        run_index=1, seed_used=(0, 1), eigenvalues=np.empty(0, dtype=complex),
        singular={}, elapsed=0.0, failed=True,
    )
    assert txlaw.successful([good] * 20) == [good] * 20
    kept = txlaw.successful([good] * 19 + [bad])
    assert len(kept) == 19
    with pytest.raises(txlaw.SolverError):
        txlaw.successful([good, bad])
