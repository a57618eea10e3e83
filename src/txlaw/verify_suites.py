"""Named verification suites for the CLI `verify` and `selfcheck` commands.

Each check returns {"passed": bool, ...numbers...}. The suites mirror the
acceptance tests at reduced cost where the full versions are expensive.
"""

from __future__ import annotations

import numpy as np

from .density import compute_radial_profile, tabulate_density
from .master import SolverOptions, density_batch, solve_master, verify_stieltjes
from .montecarlo import EnsembleConfig, run_ensemble
from .sigma import SigmaSpectrum, sigma_harmonic_mean
from .support import cubic_factorize, critical_points, find_edges, zero_edge_scale


def _mp_density(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    m = (x > 0) & (x < 4)
    out[m] = np.sqrt((4.0 - x[m]) / x[m]) / (2.0 * np.pi)
    return out


def _identity_spec(K: int = 1000) -> SigmaSpectrum:
    return SigmaSpectrum(s=(1.0,), l=(K,), N=K, M=K)


def check_mp(opts: SolverOptions) -> dict:
    spec = _identity_spec()
    x = np.linspace(0.1, 3.9, 229)
    _, rho2, _, _ = density_batch(x, spec, 0.0, opts)
    err = float(np.max(np.abs(rho2 - _mp_density(x))))
    profile = find_edges(spec, 0.0, opts)
    lo, hi = profile.bands_ascending[0]
    return {
        "passed": err <= 1e-6 and lo == 0.0 and abs(hi - 4.0) <= 1e-8,
        "max_abs_err": err,
        "edges": [lo, hi],
    }


def check_invariants(opts: SolverOptions, n_cases: int = 25, seed: int = 7) -> dict:
    rng = np.random.default_rng(seed)
    violations = 0
    for _ in range(n_cases):
        n = int(rng.integers(1, 4))
        raw = np.sort(rng.uniform(0.2, 4.0, n))[::-1]
        raw = np.unique(raw)[::-1]
        l = rng.integers(1, 5, raw.size)
        K = 60 * int(l.sum())
        from .sigma import normalize_spectrum

        spec, _ = normalize_spectrum(raw, l * 60, K, K)
        z = float(rng.uniform(0.1, 2.0))
        if abs(z * z - 1) < 0.1:
            z = 1.6
        w = float(rng.uniform(0.05, 12.0))
        fac = cubic_factorize(w, spec, z)
        u, z2 = np.sqrt(w), z * z
        s_arr = np.asarray(spec.s)
        ok = (
            np.all(fac.a > np.maximum(z, (s_arr + z2) / u))
            and np.all(fac.a < (s_arr + z2) / u + z)
            and np.all(np.diff(fac.a) < 0)
            and np.all((0 < fac.b) & (fac.b < min(z, z2 / u)))
            and np.all(np.diff(fac.b) > 0)
            and np.all(fac.c < z)
            and np.all(np.diff(fac.c) > 0)
            and np.all((fac.A > 0) & (fac.A <= 2 * (s_arr + z2 + u * z) / w))
            and np.all((fac.B > 0) & (fac.B <= 2 * (s_arr + z2 + u * z) / w))
            and np.all((fac.C > 0) & (fac.C <= (s_arr + z2 + u * z) / w))
        )
        cps = critical_points(w, spec, z, opts)
        ok = ok and cps.occupancy_ok(spec.n) and cps.ordering_ok
        hv = cps.critical_values
        ok = ok and np.all(np.abs(hv + u) <= cps.value_bound)
        if not ok:
            violations += 1
    return {"passed": violations == 0, "violations": violations, "cases": n_cases}


def check_small_w(opts: SolverOptions) -> dict:
    spec = SigmaSpectrum(s=(32 / 17, 2 / 17), l=(500, 500), N=1000, M=1000)
    t = zero_edge_scale(spec, 0.5)
    sol = solve_master(1e-8 * (1 + 1j), spec, 0.5, opts)
    gap = abs(sol.m_c - 1j * np.sqrt(t))
    t_small = zero_edge_scale(spec, 0.01)
    t0 = sigma_harmonic_mean(spec)
    return {
        "passed": gap <= 1e-3 and abs(t_small - t0) <= 1e-4,
        "m_gap": gap,
        "t": t,
        "t_small_vs_t0": abs(t_small - t0),
    }


def check_stieltjes(opts: SolverOptions) -> dict:
    spec = SigmaSpectrum(s=(32 / 17, 2 / 17), l=(500, 500), N=1000, M=1000)
    rng = np.random.default_rng(3)
    worst = 0.0
    for z in (0.5, 1.5):
        table = tabulate_density(spec, z, resolution=1500, opts=opts)
        w = rng.uniform(0.2, 6.0, 5) + 1j * rng.uniform(0.1, 1.0, 5)
        worst = max(worst, verify_stieltjes(table, w, spec, z, opts))
    return {"passed": worst <= 1e-4, "max_rel_dev": worst}


def check_circular(opts: SolverOptions, args=None) -> dict:
    spec = _identity_spec()
    prof = compute_radial_profile(spec, 0.1, 2.0, h=0.005, opts=opts)
    inside = (prof.r >= 0.1) & (prof.r <= 0.85)
    outside = (prof.r >= 1.15) & (prof.r <= 2.0)
    chi_in = prof.chi[inside]
    chi_out = prof.chi[outside]
    F115 = float(prof.F_at(np.array([1.15]))[0])
    ok = (
        np.all(np.abs(chi_in - 1.0) <= 0.02)
        and np.all(np.abs(chi_out) <= 0.02)
        and 0.98 <= F115 <= 1.02
    )
    return {
        "passed": bool(ok),
        "chi_in_dev": float(np.max(np.abs(chi_in - 1))),
        "chi_out_dev": float(np.max(np.abs(chi_out))),
        "F_1p15": F115,
    }


def check_esd(opts: SolverOptions, args) -> dict:
    spec = SigmaSpectrum(s=(32 / 17, 2 / 17), l=(500, 500), N=1000, M=1000)
    N = args.N or 400
    scale = N // 2
    spec = SigmaSpectrum(s=spec.s, l=(scale, scale), N=N, M=N)
    z = 1.5
    cfg = EnsembleConfig(
        N=N, M=N, spec=spec, x_dist=args.dist, t_mode=args.tmode,
        z_list=(complex(z),), runs=args.runs, seed=args.seed, threads=args.threads,
    )
    runs = run_ensemble(cfg)
    table = tabulate_density(spec, z, resolution=1500, opts=opts)
    xs = np.linspace(table.bands[0][0], table.bands[-1][1], 600)
    cdf = table.cdf2(xs)
    devs = []
    for r in runs:
        lam = np.sort(r.singular[complex(z)])
        emp = np.searchsorted(lam, xs, side="right") / lam.size
        devs.append(float(np.max(np.abs(emp - cdf))))
    med = float(np.median(devs))
    thr = 0.02 * np.sqrt(1000 / N)
    return {"passed": med <= thr, "median_sup_dev": med, "threshold": thr}


def run_suite(name: str, spec, opts: SolverOptions, args) -> dict[str, dict]:
    if name == "quick":
        return run_selfcheck()
    table = {
        "mp": lambda: {"mp": check_mp(opts)},
        "invariants": lambda: {"invariants": check_invariants(opts)},
        "small-w": lambda: {"small_w": check_small_w(opts)},
        "stieltjes": lambda: {"stieltjes": check_stieltjes(opts)},
        "circular-law": lambda: {"circular_law": check_circular(opts, args)},
        "esd": lambda: {"esd": check_esd(opts, args)},
    }
    return table[name]()


def run_selfcheck() -> dict[str, dict]:
    opts = SolverOptions()
    out = {}
    out["mp"] = check_mp(opts)
    out["invariants"] = check_invariants(opts, n_cases=10)
    out["small_w"] = check_small_w(opts)
    return out
