"""Acceptance checks, one test per criterion, one printed PASS/FAIL line each.

Statistical thresholds were calibrated once against the Gaussian case and are
frozen here together with the seeds; they encode high-probability bounds that
hold up to unquantified slowly-growing factors.
"""

import time

import numpy as np

import txlaw
from txlaw import verify_suites
from conftest import bench, bench_law


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {detail}")


def test_criterion_01_mp_oracle():
    t0 = time.perf_counter()
    res = verify_suites.criterion_01_mp()
    err = res["max_abs_err"]
    lo, hi = res["edges"]
    elapsed = time.perf_counter() - t0
    ok = err <= 1e-6 and lo == 0.0 and abs(hi - 4.0) <= 1e-8 and elapsed < 5.0
    _report(1, ok, f"MP density err {err:.2e}, edges ({lo}, {hi:.10f}), {elapsed:.1f}s")
    assert err <= 1e-6
    assert lo == 0.0 and abs(hi - 4.0) <= 1e-8
    assert elapsed < 5.0
    assert res["passed"] == ok


def test_criterion_02_circular_law_limit():
    t0 = time.perf_counter()
    res = verify_suites.criterion_02_circular_law()
    dev_in, dev_out, F115 = res["chi_in_dev"], res["chi_out_dev"], res["F_1p15"]
    elapsed = time.perf_counter() - t0
    ok = dev_in <= 0.02 and dev_out <= 0.02 and 0.98 <= F115 <= 1.02 and elapsed < 60
    _report(2, ok, f"chi dev in {dev_in:.4f} / out {dev_out:.4f}, "
                   f"F(1.15) = {F115:.4f}, {elapsed:.0f}s")
    assert dev_in <= 0.02
    assert dev_out <= 0.02
    assert 0.98 <= F115 <= 1.02
    assert elapsed < 60
    assert res["passed"] == ok


def test_criterion_03_fig_reproduction(fig2_spec):
    oracle = {z: bench.gap_edge(bench_law(fig2_spec), z) for z in (1.2, 1.5)}
    t0 = time.perf_counter()
    failures = []
    details = []
    for z in (0.5, 0.75, 1.2, 1.5):
        prof = txlaw.find_edges(fig2_spec, z)
        table = txlaw.tabulate_density(fig2_spec, z, profile=prof)
        if abs(table.total_mass - 1.0) > 1e-4:
            failures.append(f"z={z}: mass {table.total_mass}")
        details.append(f"z={z} mass {table.total_mass:.8f}")
        if z < 1:
            expo = txlaw.edge_exponent_fit(prof.zero_edge, fig2_spec, z)
            details.append(f"z={z} zero-edge exponent {expo:+.3f}")
            if prof.lowest_edge != 0.0 or not (-0.6 <= expo <= -0.4):
                failures.append(f"z={z}: zero edge exponent {expo}")
        else:
            edge = prof.lowest_edge
            rel = abs(edge - oracle[z]) / oracle[z]
            details.append(f"z={z} lowest edge {edge:.12g} vs Dyson oracle "
                           f"{oracle[z]:.12g} (rel diff {rel:.1e})")
            if prof.zero_edge is not None or not edge > 0 or not rel <= 1e-8:
                failures.append(
                    f"z={z}: lowest edge {edge!r}, zero edge "
                    f"{prof.zero_edge is not None}; Dyson oracle {oracle[z]!r}, "
                    f"rel diff {rel:.1e} (bound 1e-8)"
                )
        for ed in prof.edges:
            f = abs(complex(txlaw.master_f(ed.e, ed.m_c, fig2_spec, z)))
            df = abs(complex(txlaw.master_f_all(ed.e, ed.m_c, fig2_spec, z)[1]))
            rep = txlaw.check_edge_regularity(ed, 1e-4)
            if f > 1e-10 or df > 1e-8 or not rep.regular:
                failures.append(f"z={z}: edge {ed.e} residuals ({f:.1e}, {df:.1e})")
    elapsed = time.perf_counter() - t0
    if elapsed >= 120:
        failures.append(f"runtime {elapsed:.0f}s")
    ok = not failures
    _report(3, ok, "; ".join(details) + f", {elapsed:.0f}s"
            + ("" if ok else f" | FAILING: {failures}"))
    assert not failures, failures


def test_criterion_04_invariant_sweep():
    t0 = time.perf_counter()
    res = verify_suites.criterion_04_invariants()
    violations = res["violations"]
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 60
    _report(4, ok, f"{len(violations)} violations in 100 instances, {elapsed:.1f}s")
    assert not violations, violations
    assert elapsed < 60
    assert res["passed"] == ok


def test_criterion_05_small_w_asymptote():
    t0 = time.perf_counter()
    res = verify_suites.criterion_05_small_w()
    gap, t0_gap = res["m_gap"], res["t_small_gap"]
    elapsed = time.perf_counter() - t0
    ok = gap <= 1e-3 and t0_gap <= 1e-4 and elapsed < 5
    _report(5, ok, f"|m_c - i sqrt(t)| = {gap:.2e}, |t(0.01) - 64/289| = {t0_gap:.2e}, "
                   f"{elapsed:.1f}s")
    assert gap <= 1e-3
    assert t0_gap <= 1e-4
    assert elapsed < 5
    assert res["passed"] == ok


def test_criterion_06_stieltjes_consistency():
    t0 = time.perf_counter()
    res = verify_suites.criterion_06_stieltjes()
    worst = res["max_rel_dev"]
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 30
    _report(6, ok, f"max relative deviation {worst:.2e}, {elapsed:.0f}s")
    assert worst <= 1e-4
    assert elapsed < 30
    assert res["passed"] == ok


def test_criterion_07_esd_match():
    t0 = time.perf_counter()
    res = verify_suites.criterion_07_esd(1000, 20, 77, 2, "gauss", "diagonal")
    sing_med, rad_med = res["singular_median_sup_dev"], res["radial_median_sup_dev"]
    chi_floor = res["chi_floor"]
    elapsed = time.perf_counter() - t0
    ok = (sing_med <= 0.02 and rad_med <= 0.04 and chi_floor >= -2e-2
          and elapsed < 1200)
    _report(7, ok, f"singular CDF median sup-dev {sing_med:.4f}, "
                   f"radial median sup-dev {rad_med:.4f}, "
                   f"chi floor {chi_floor:+.4f}, {elapsed:.0f}s")
    assert sing_med <= 0.02
    assert rad_med <= 0.04
    assert chi_floor >= -2e-2
    assert elapsed < 1200
    assert res["passed"] == ok


def test_criterion_08_averaged_local_law(fig2_spec):
    t0 = time.perf_counter()
    N = 500
    spec = verify_suites.fig2_at(N)
    z = 1.5
    cfg = txlaw.EnsembleConfig(
        N=N, M=N, spec=spec, z_list=(complex(z),), runs=20, seed=88, threads=2,
    )
    runs = txlaw.run_ensemble(cfg)
    eta_grid = [1.0, 0.3, 0.1, N ** -0.5, 10 / N, 5 / N]
    prof = txlaw.averaged_law_profile(cfg, z, E_bulk=4.0, eta_grid=eta_grid,
                                      runs=runs)
    med_at_sqrt = prof[3]["median"]
    med_all = [p["median"] for p in prof]
    elapsed = time.perf_counter() - t0
    ok = med_at_sqrt <= 10 and max(med_all) <= 10 and elapsed < 600
    _report(8, ok, f"N eta |m2 - m2c| median at eta=N^-1/2: {med_at_sqrt:.2f}; "
                   f"profile max {max(med_all):.2f}, {elapsed:.0f}s")
    assert med_at_sqrt <= 10
    assert max(med_all) <= 10          # non-exploding down to 5/N
    assert elapsed < 600


def test_criterion_09_rigidity(fig2_spec):
    t0 = time.perf_counter()
    z = 1.5
    meds = {}
    for N in (1000, 2000):
        spec = verify_suites.fig2_at(N)
        cfg = txlaw.EnsembleConfig(
            N=N, M=N, spec=spec, z_list=(complex(z),), runs=20, seed=99,
            threads=2,
        )
        runs = txlaw.run_ensemble(cfg)
        table = txlaw.tabulate_density(spec, z)
        qt = txlaw.quantiles(table, N)
        prof = txlaw.rigidity_profile(cfg, z, qt, table, runs=runs)
        meds[N] = float(np.median(prof["per_run_median"]))
    ratio = meds[1000] / meds[2000]
    elapsed = time.perf_counter() - t0
    ok = meds[1000] <= 1000 ** -0.8 and 1.3 <= ratio <= 3.1 and elapsed < 1800
    _report(9, ok, f"bulk median rel err {meds[1000]:.2e} (cap {1000 ** -0.8:.2e}), "
                   f"doubling ratio {ratio:.2f}, {elapsed:.0f}s")
    assert meds[1000] <= 1000 ** -0.8
    assert 1.3 <= ratio <= 3.1
    assert elapsed < 1800


def test_criterion_10_local_circular_scaling(identity_radial_profile):
    t0 = time.perf_counter()
    a = 0.25
    z0 = 0.5j

    def median_err(K, seed):
        spec = txlaw.SigmaSpectrum(s=(1.0,), l=(K,), N=K, M=K)
        cfg = txlaw.EnsembleConfig(N=K, M=K, spec=spec, runs=20, seed=seed,
                                   threads=2)
        out = txlaw.local_circular_error(cfg, z0, a, identity_radial_profile)
        return float(np.median(out["errors"]))

    decreases = 0
    pairs = []
    for trial in range(5):
        m256 = median_err(256, 7 + 10 * trial)
        m1024 = median_err(1024, 12 + 10 * trial)
        pairs.append((m256, m1024))
        decreases += int(m1024 < m256)
    m512 = median_err(512, 7)
    headroom = 10 * 512 ** (-0.5 + 2 * a) * txlaw.bump_laplacian_l1()
    elapsed = time.perf_counter() - t0
    ok = decreases >= 4 and m512 <= headroom and elapsed < 1800
    _report(10, ok, f"decrease in {decreases}/5 paired-median trials; "
                    f"K=512 median err {m512:.3f} <= headroom {headroom:.1f}, "
                    f"{elapsed:.0f}s")
    assert decreases >= 4          # >= 70 percent of trials
    assert m512 <= headroom
    assert elapsed < 1800


def test_criterion_11_kernel_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    fails = []
    for i in range(100):
        n = int(rng.integers(2, 65))
        A = rng.standard_normal((n, n))
        S = 0.5 * (A + A.T)
        lam, V = txlaw.symmetric_eigen(S)
        if np.linalg.norm(S @ V - V * lam, 2) > 1e-10 * max(np.linalg.norm(S, 2), 1):
            fails.append(("eigh-resid", i))
        if np.abs(V.T @ V - np.eye(n)).max() > 1e-12:
            fails.append(("eigh-orth", i))
        m = int(rng.integers(2, 65))
        B = rng.standard_normal((n, m))
        U, sv, Vh = txlaw.svd(B)
        if np.linalg.norm(B - (U * sv) @ Vh, 2) > 1e-10 * np.linalg.norm(B, 2):
            fails.append(("svd-resid", i))
        if np.abs(U.conj().T @ U - np.eye(U.shape[1])).max() > 1e-12:
            fails.append(("svd-orth", i))
        ev = txlaw.general_eigenvalues(A)
        if abs(np.sum(ev) - np.trace(A)) > 1e-8 * n:
            fails.append(("eig-trace", i))
        det = np.linalg.det(A)
        if abs(det) > 1e-12 and abs(np.prod(ev) - det) > 1e-6 * abs(det) * n:
            fails.append(("eig-det", i))
        deg = int(rng.integers(2, 8))
        roots = rng.standard_normal(deg) + 1j * rng.standard_normal(deg)
        coeffs = np.array([1.0 + 0j])
        for rt in roots:
            coeffs = np.convolve(coeffs, [1.0, -rt])
        got = np.array(sorted(txlaw.companion_roots(coeffs),
                              key=lambda v: (v.real, v.imag)))
        want = np.array(sorted(roots, key=lambda v: (v.real, v.imag)))
        if np.max(np.abs(got - want)) > 1e-7:
            fails.append(("companion", i))
        Q = txlaw.qr_haar(int(rng.integers(1, 33)), rng)
        if np.abs(Q.T @ Q - np.eye(Q.shape[0])).max() > 1e-12:
            fails.append(("haar-orth", i))
    elapsed = time.perf_counter() - t0
    ok = not fails and elapsed < 120
    _report(11, ok, f"{len(fails)} failures over 100 sweep instances, {elapsed:.0f}s")
    assert not fails, fails
    assert elapsed < 120
