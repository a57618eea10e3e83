"""Acceptance criteria 1, 2, 4, 5, 6 and 7 of tests/test_acceptance.py, one
function each, which the test, `txlaw verify` and `selfcheck` all call. Each
returns the criterion's numbers and `passed`, a bool under the test's
thresholds and time gate. Only criterion 7 takes arguments: its ensemble."""

import functools
import time

import numpy as np

from .density import compute_radial_profile, tabulate_density
from .errors import InputError, TxlawError
from .master import cubic_factorize, density_batch, solve_master, verify_stieltjes
from .montecarlo import EnsembleConfig, radial_esd_cdf, run_ensemble
from .oracles import bisect_g_oracle, mp_density
from .sigma import SigmaSpectrum, normalize_spectrum
from .support import critical_points, find_edges, zero_edge_scale


def fig2_at(K: int) -> SigmaSpectrum:
    """Fig. 2's spectrum s = (32/17, 2/17), equal weights, at N = M = K."""
    if K < 2 or K % 2:
        raise InputError(f"--N must be even and at least 2 to split Fig. 2's two "
                         f"atoms equally, got {K}")
    return SigmaSpectrum(s=(32 / 17, 2 / 17), l=(K // 2, K // 2), N=K, M=K)


def _gated(seconds: float):
    """Time the criterion into `elapsed_s`; it passes only within the gate."""
    def wrap(criterion):
        @functools.wraps(criterion)
        def run(*args):
            t0 = time.perf_counter()
            out = criterion(*args)
            out["elapsed_s"] = time.perf_counter() - t0
            out["passed"] = bool(out["passed"] and out["elapsed_s"] < seconds)
            return out
        return run
    return wrap


@_gated(5.0)
def criterion_01_mp() -> dict:
    """Identity at |z| = 0: rho2 against Marchenko-Pastur at 381 points, band [0, 4]."""
    spec = SigmaSpectrum(s=(1.0,), l=(1000,), N=1000, M=1000)
    x = np.linspace(0.1, 3.9, 381)
    _, rho2 = density_batch(x, spec, 0.0)
    err = float(np.max(np.abs(rho2 - mp_density(x))))
    lo, hi = find_edges(spec, 0.0).bands_ascending[0]
    return {"passed": err <= 1e-6 and lo == 0.0 and abs(hi - 4.0) <= 1e-8,
            "max_abs_err": err, "edges": [lo, hi]}


@_gated(60)
def criterion_02_circular_law() -> dict:
    """Identity: chi near 1 on r in [0.1, 0.85] and 0 on [1.15, 2], F(1.15) near 1."""
    prof = compute_radial_profile(SigmaSpectrum(s=(1.0,), l=(1000,), N=1000, M=1000),
                                  0.1, 2.0, h=0.005)
    inside = (prof.r >= 0.1) & (prof.r <= 0.85)
    outside = (prof.r >= 1.15) & (prof.r <= 2.0)
    dev_in = float(np.max(np.abs(prof.chi[inside] - 1.0)))
    dev_out = float(np.max(np.abs(prof.chi[outside])))
    F115 = float(prof.F_at(np.array([1.15]))[0])
    return {"passed": dev_in <= 0.02 and dev_out <= 0.02 and 0.98 <= F115 <= 1.02,
            "chi_in_dev": dev_in, "chi_out_dev": dev_out, "F_1p15": F115}


@_gated(60)
def criterion_04_invariants() -> dict:
    """100 random spectra, |z| and w: bounds and ordering of the cubic roots,
    residues and critical points. `violations` lists (instance, |z|, w[, error])."""
    rng = np.random.default_rng(2024)
    violations = []
    for i in range(100):
        n = int(rng.integers(1, 4))
        raw = np.unique(np.sort(rng.uniform(0.2, 4.0, n))[::-1])[::-1]
        spec, _ = normalize_spectrum(raw, [8] * raw.size, 8 * raw.size, 8 * raw.size)
        z = float(rng.uniform(0.1, 2.0))
        z = 1.6 if abs(z * z - 1) < 0.1 else z
        w = float(rng.uniform(0.05, 12.0))
        try:
            fac = cubic_factorize(w, spec, z)
            cps = critical_points(w, spec, z)
            u, z2, s = np.sqrt(w), z * z, np.asarray(spec.s)
            top = (s + z2 + u * z) / w
            ok = (np.all(fac.a > np.maximum(z, (s + z2) / u))
                  and np.all(fac.a < (s + z2) / u + z)
                  and np.all((0 < fac.b) & (fac.b < min(z, z2 / u))) and np.all(fac.c < z)
                  and np.all(fac.c > (-(s + z2) + np.sqrt((s + z2) ** 2 + 4 * w * z2)) / (2 * u))
                  and all(np.all((R > 0) & (R <= k * top))
                          for R, k in ((fac.A, 2), (fac.B, 2), (fac.C, 1)))
                  and np.all(np.diff(fac.a) < 0) and np.all(np.diff(fac.b) > 0)
                  and np.all(np.diff(fac.c) > 0) and cps.occupancy_ok(spec.n) and cps.ordering_ok
                  and np.all(np.abs(cps.critical_values + u) <= cps.value_bound))
            if not ok:
                violations.append((i, z, w))
        except TxlawError as exc:
            violations.append((i, z, w, str(exc)))
    return {"passed": not violations, "violations": violations, "instances": 100}


@_gated(5.0)
def criterion_05_small_w() -> dict:
    """Fig. 2: m_c at w = 1e-8 (1 + i) against the bisection oracle; t(0.01) vs 64/289."""
    spec = fig2_at(1000)
    t_oracle = bisect_g_oracle(spec, 0.5)
    sol = solve_master(1e-8 * (1 + 1j), spec, 0.5)
    gap = float(abs(sol.m_c - 1j * np.sqrt(t_oracle)))
    t0_gap = float(abs(zero_edge_scale(spec, 0.01) - 64 / 289))
    return {"passed": gap <= 1e-3 and t0_gap <= 1e-4,
            "m_gap": gap, "t_oracle": float(t_oracle), "t_small_gap": t0_gap}


@_gated(30)
def criterion_06_stieltjes() -> dict:
    """Fig. 2: the tables' Stieltjes transforms at 20 random w against the master solve."""
    spec = fig2_at(1000)
    rng = np.random.default_rng(6)
    worst = 0.0
    for z in (0.5, 1.5):
        table = tabulate_density(spec, z)
        w = rng.uniform(0.3, 8.0, 10) + 1j * rng.uniform(0.1, 1.0, 10)
        worst = max(worst, verify_stieltjes(table, w, spec, z))
    return {"passed": worst <= 1e-4, "max_rel_dev": float(worst)}


@_gated(1200)
def criterion_07_esd(N: int, runs: int, seed: int, threads: int, dist: str, tmode: str) -> dict:
    """Fig. 2 at |z| = 1.5, `runs` samples at N = M: median sup distances of the
    singular ECDF from the table's CDF at 800 points and of the radial ECDF from
    F(r), within 0.02 and 0.04 times sqrt(1000 / N); chi no lower than -0.02."""
    spec = fig2_at(N)
    z = 1.5
    cfg = EnsembleConfig(N=N, M=N, spec=spec, x_dist=dist, t_mode=tmode,
                         z_list=(complex(z),), runs=runs, seed=seed, threads=threads)
    samples = run_ensemble(cfg)
    table = tabulate_density(spec, z)
    xs = np.linspace(table.bands[0][0], table.bands[-1][1], 800)
    cdf = table.cdf2(xs)
    sups = []
    for r in samples:
        lam = np.sort(r.singular[complex(z)])
        sups.append(np.max(np.abs(np.searchsorted(lam, xs, side="right") / lam.size - cdf)))
    sing = float(np.median(sups))
    profile = compute_radial_profile(spec, 0.1, 2.0, h=0.005)
    rad = float(np.median(radial_esd_cdf(cfg, profile, runs=samples)["sup_dev"]))
    chi_floor = float(np.min(profile.chi[np.isfinite(profile.chi)]))
    sing_bound, rad_bound = (float(b * np.sqrt(1000 / N)) for b in (0.02, 0.04))
    return {"passed": sing <= sing_bound and rad <= rad_bound and chi_floor >= -2e-2, "N": N,
            "singular_median_sup_dev": sing, "singular_bound": sing_bound,
            "radial_median_sup_dev": rad, "radial_bound": rad_bound, "chi_floor": chi_floor}


def run_suite(name: str, args) -> dict[str, dict]:
    """`verify --suite name`: {check: result}; `esd` defaults to N = 400."""
    if name == "quick":
        return run_selfcheck()
    if name == "esd":
        N = 400 if args.N is None else args.N
        return {"esd": criterion_07_esd(N, args.runs, args.seed, args.threads,
                                        args.dist, args.tmode)}
    criterion = {"mp": criterion_01_mp, "circular-law": criterion_02_circular_law,
                 "invariants": criterion_04_invariants, "small-w": criterion_05_small_w,
                 "stieltjes": criterion_06_stieltjes}[name]
    return {name.replace("-", "_"): criterion()}


def run_selfcheck() -> dict[str, dict]:
    return {"mp": criterion_01_mp(), "invariants": criterion_04_invariants(),
            "small_w": criterion_05_small_w()}
