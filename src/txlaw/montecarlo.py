"""Ensemble sampling and verification statistics for the product model.

Samples T X with T deterministic (diagonal or Haar-conjugated) and X random
with independent entries of variance 1/K, K = min(N, M), then compares
spectra against the deterministic predictions: resolvent local laws,
ordered-eigenvalue rigidity, extreme singular values, and the averaged
eigenvalue counts behind the product's limiting density.

Statistical thresholds encode high-probability bounds that hold up to
unquantified slowly-growing factors; the fixed headroom constants used in
tests are engineering choices calibrated once against the Gaussian case.
"""

from __future__ import annotations

import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, InputError, SolverError
from .density import DensityTable, QuantileTable, RadialProfile
from .linalg import (blas_threads, general_eigenvalues, operator_norm_estimate, qr_haar,
                     symmetric_eigvals)
from .master import solve_master, sqrt_upper
from .sigma import SigmaSpectrum

ZERO_EIG_TOL = 1e-8
MIN_SUCCESS = 0.95          # fraction of runs that must succeed for a statistic
BULK_MARGIN = 0.1           # rigidity skips this fraction of each band's indices at both ends
EXTREME_C0 = 3.0            # lambda_max cap (||T|| (EXTREME_C0 + 1) + |z|)^2
BUMP_RADIAL_NODES = 64      # Gauss-Legendre nodes in r of the bump target's polar quadrature
BUMP_ANGLES = 128           # equispaced angles of that quadrature
RADIAL_BAND_MARGIN = 2.0    # the radial ECDF skips |r^2 - 1| < RADIAL_BAND_MARGIN * zband
ENTRYWISE_PROBES = 4        # random quadratic-form probes per run in entrywise_law_check


@dataclass(frozen=True)
class EnsembleConfig:
    N: int
    M: int
    spec: SigmaSpectrum
    t_mode: str = "diagonal"          # "diagonal" | "haar"
    x_dist: str = "gauss"             # "gauss" | "rademacher" | "skewed"
    z_list: tuple[complex, ...] = ()
    runs: int = 20
    seed: int = 0
    threads: int = 2

    def __post_init__(self):
        if self.t_mode not in ("diagonal", "haar"):
            raise InputError(f"unknown t_mode {self.t_mode!r}")
        if self.x_dist not in ("gauss", "rademacher", "skewed"):
            raise InputError(f"unknown x_dist {self.x_dist!r}")
        if min(self.N, self.M) != self.spec.K:
            raise InputError("spectrum K does not match min(N, M)")
        if self.runs < 1:
            raise InputError(f"runs must be >= 1, got {self.runs}")

    @property
    def K(self) -> int:
        return min(self.N, self.M)


@dataclass(frozen=True)
class RunResult:
    run_index: int
    seed_used: tuple[int, int]
    eigenvalues: np.ndarray                  # complex, length N
    singular: dict[complex, np.ndarray]      # z -> ascending eigenvalues of Y Y^dag
    elapsed: float
    failed: bool = False

    def nontrivial(self, K: int) -> np.ndarray:
        """Eigenvalues excluding the structural zeros: the K largest by modulus."""
        order = np.argsort(np.abs(self.eigenvalues))
        return self.eigenvalues[order][self.eigenvalues.size - K:]


def _rng_for_run(seed: int, run_index: int) -> np.random.Generator:
    """Independent, scheduling-insensitive stream per (seed, run_index)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, run_index)))


def sample_entries(rng: np.random.Generator, shape, dist: str, K: int) -> np.ndarray:
    """Matrix entries with mean 0 and variance 1/K under the named law.

    gauss and rademacher have vanishing third moment; skewed is the
    standardized two-point law on {2, -1/2} with probabilities {1/5, 4/5},
    which has unit variance and third moment 3/2 before the 1/sqrt(K) scale.
    """
    scale = 1.0 / np.sqrt(K)
    if dist == "gauss":
        return rng.standard_normal(shape) * scale
    if dist == "rademacher":
        return (2.0 * rng.integers(0, 2, size=shape) - 1.0) * scale
    if dist == "skewed":
        u = rng.random(shape)
        vals = np.where(u < 0.2, 2.0, -0.5)
        return vals * scale
    raise InputError(f"unknown dist {dist!r}")


def build_t(cfg: EnsembleConfig, rng: np.random.Generator) -> np.ndarray:
    """Deterministic factor T of shape (N, M) with Sigma spectrum cfg.spec.

    Diagonal: d = sqrt(Sigma) on the leading K x K diagonal; nothing is drawn.
    Haar: T = U D V with D that zero-padded diagonal, which reads only U's
    first K columns and V's first K rows. So T = (U[:, :K] * d) @ V[:K], with
    U[:, :K] from a reduced QR of an N x K block and V from a full M x M QR;
    no N x M diagonal is formed. Square T keeps every bit of U @ D @ V. For
    N != M the sample is the same but the last bits can move: the reduced QR
    rounds differently (N > M), and gemm sums without D's zero columns (N < M).
    """
    d = np.sqrt(cfg.spec.expand())
    N, M, K = cfg.N, cfg.M, cfg.K
    if cfg.t_mode == "haar":
        return (qr_haar(N, rng, K) * d) @ qr_haar(M, rng)[:K]
    T = np.zeros((N, M))
    T[np.arange(K), np.arange(K)] = d
    return T


def _draw(cfg: EnsembleConfig, run_index: int) -> tuple[np.ndarray, np.ndarray]:
    """T and X of one run, from the run's own stream."""
    rng = _rng_for_run(cfg.seed, run_index)
    T = build_t(cfg, rng)
    return T, sample_entries(rng, (cfg.M, cfg.N), cfg.x_dist, cfg.K)


def sample_run(cfg: EnsembleConfig, run_index: int) -> RunResult:
    """One ensemble draw: eigenvalues of T X and singular spectra of T X - z.

    Both come from one K x K product P. For N <= M it is T X itself. For
    N > M, T X has rank M: its nonzero eigenvalues are those of the M x M
    X T, so P = T^T X^T (the transpose of X T, with the same Sigma spectrum
    and entry variance), and the other N - M eigenvalues are exact zeros.
    The singular spectra are those of P - z.

    A Haar T is multiplied densely. A diagonal T is not formed: it draws
    nothing, so X is the same, and P is X's leading K x K block (transposed
    for N > M) with row i scaled by d_i, bit for bit the dense product.

    The per-run RNG is derived from (seed, run_index), so results do not
    depend on scheduling or worker count.
    """
    t0 = time.perf_counter()
    K = cfg.K
    try:
        if cfg.t_mode == "haar":
            T, X = _draw(cfg, run_index)
            P = T @ X if cfg.N <= cfg.M else T.T @ X.T
        else:
            X = sample_entries(_rng_for_run(cfg.seed, run_index), (cfg.M, cfg.N), cfg.x_dist, K)
            P = np.sqrt(cfg.spec.expand())[:, None] * (X[:K] if cfg.N <= cfg.M else X[:, :K].T)
        eig = general_eigenvalues(P)
        if cfg.N > cfg.M:
            eig = np.sort_complex(np.concatenate([eig, np.zeros(cfg.N - cfg.M)]))
        singular: dict[complex, np.ndarray] = {}
        for z in cfg.z_list:
            zy = z.real if z.imag == 0 else z      # a real z keeps Y and Y^dag Y real
            Y = P - zy * np.eye(K)
            lam = symmetric_eigvals(Y.conj().T @ Y)
            singular[z] = np.maximum(lam, 0.0)   # clip eigensolver noise at 0
    except np.linalg.LinAlgError as exc:
        # kernel non-convergence: mark the run failed, consumers exclude it
        warnings.warn(f"run {run_index} failed: {exc}", stacklevel=2)
        return RunResult(
            run_index=run_index,
            seed_used=(cfg.seed, run_index),
            eigenvalues=np.empty(0, dtype=complex),
            singular={},
            elapsed=time.perf_counter() - t0,
            failed=True,
        )
    return RunResult(
        run_index=run_index,
        seed_used=(cfg.seed, run_index),
        eigenvalues=eig,
        singular=singular,
        elapsed=time.perf_counter() - t0,
    )


def run_ensemble(cfg: EnsembleConfig) -> list[RunResult]:
    """All runs, parallel over a thread pool, assembled in run order. BLAS runs on
    one thread, so the bits do not depend on the worker, core or BLAS thread count."""
    with blas_threads(1):
        if cfg.threads <= 1 or cfg.runs == 1:
            return [sample_run(cfg, k) for k in range(cfg.runs)]
        with ThreadPoolExecutor(max_workers=cfg.threads) as ex:
            futs = [ex.submit(sample_run, cfg, k) for k in range(cfg.runs)]
            return [f.result() for f in futs]


# ---------------------------------------------------------------------------
# law statistics
# ---------------------------------------------------------------------------

def successful(runs: list[RunResult]) -> list[RunResult]:
    """Drop failed runs; raise when the success rate falls below MIN_SUCCESS."""
    good = [r for r in runs if not r.failed]
    if len(good) < MIN_SUCCESS * len(runs):
        raise SolverError(
            f"only {len(good)}/{len(runs)} runs succeeded (< {MIN_SUCCESS:.0%})"
        )
    return good


def _singular_key(runs: list[RunResult], z_mod: float) -> complex:
    """The z of the runs' singular spectra with |z| = z_mod."""
    for z in runs[0].singular:
        if abs(abs(z) - z_mod) < 1e-12:
            return z
    raise DomainError(f"no singular spectra at |z| = {z_mod}")


def empirical_m2(lam: np.ndarray, w: complex) -> complex:
    """Stieltjes transform of the empirical singular-spectrum measure."""
    return complex(np.mean(1.0 / (lam - w)))


def averaged_law_profile(
    cfg: EnsembleConfig,
    z_mod: float,
    E_bulk: float,
    eta_grid,
    runs: list[RunResult] | None = None,
):
    """Per-eta aggregates of K eta |m2 - m2_pred| at w = E_bulk + i eta.

    Returns a list of dicts with keys eta, median, p90, runs.
    """
    if runs is None:
        if not any(abs(abs(z) - z_mod) < 1e-12 for z in cfg.z_list):
            cfg = replace(cfg, z_list=tuple(cfg.z_list) + (complex(z_mod),))
        runs = run_ensemble(cfg)
    runs = successful(runs)
    key = _singular_key(runs, z_mod)
    K = cfg.K
    out = []
    for eta in np.atleast_1d(eta_grid):
        w = complex(E_bulk, float(eta))
        sol = solve_master(w, cfg.spec, z_mod)
        stats = [
            K * eta * abs(empirical_m2(r.singular[key], w) - sol.m2c) for r in runs
        ]
        out.append(
            {
                "eta": float(eta),
                "median": float(np.median(stats)),
                "p90": float(np.quantile(stats, 0.9)),
                "runs": len(stats),
            }
        )
    return out


def _resolvent_2n(Y: np.ndarray, w: complex) -> np.ndarray:
    N = Y.shape[0]
    u = complex(sqrt_upper(w))
    H = np.block(
        [[-w * np.eye(N), u * Y], [u * Y.conj().T, -w * np.eye(N)]]
    ).astype(complex)
    return np.linalg.inv(H)


def deterministic_resolvent(
    d: np.ndarray, z: complex, w: complex, m1c: complex, m2c: complex
) -> np.ndarray:
    """Block-diagonal deterministic equivalent for diagonal T with entries d."""
    N = d.size
    u = complex(sqrt_upper(w))
    s = d * d
    A = 1.0 / (w * (1 + s * m2c) * (1 + m1c) - abs(z) ** 2)
    Pi = np.zeros((2 * N, 2 * N), dtype=complex)
    idx = np.arange(N)
    Pi[idx, idx] = -(1 + m1c) * A
    Pi[idx + N, idx + N] = -(1 + s * m2c) * A
    Pi[idx, idx + N] = z * A / u
    Pi[idx + N, idx] = np.conj(z) * A / u
    return Pi


def control_parameter(m1c: complex, m2c: complex, N: int, eta: float) -> float:
    """Fluctuation scale for the resolvent laws."""
    return float(np.sqrt(max((m1c + m2c).imag, 0.0) / (N * eta)) + 1.0 / (N * eta))


def entrywise_law_check(cfg: EnsembleConfig, z: complex, w: complex):
    """Per-run max group deviation of the resolvent from its deterministic limit.

    Needs N = M and diagonal T. Returns a list of dicts with the max 2x2
    group norm over all index pairs divided by the control parameter, plus
    random unit-vector quadratic-form probes as anisotropy diagnostics.
    Raises DomainError when eta sits below the validated resolution
    1/(N |m2_pred|).
    """
    if cfg.N != cfg.M or cfg.t_mode != "diagonal":
        raise DomainError("entrywise check requires N = M and diagonal T")
    z_mod = abs(z)
    sol = solve_master(w, cfg.spec, z_mod)
    N = cfg.N
    eta = complex(w).imag
    if eta < 1.0 / (N * abs(sol.m2c)):
        raise DomainError("eta below the validated resolution 1/(N |m2c|)")
    psi = control_parameter(sol.m1c, sol.m2c, N, eta)
    d = np.sqrt(cfg.spec.expand())
    Pi = deterministic_resolvent(d, z, w, sol.m1c, sol.m2c)
    out = []
    for k in range(cfg.runs):
        T, X = _draw(cfg, k)
        Y = T @ X - z * np.eye(N)
        G = _resolvent_2n(Y, w)
        D = G - Pi
        D4 = np.empty((N, N, 2, 2), dtype=complex)
        D4[:, :, 0, 0] = D[:N, :N]
        D4[:, :, 0, 1] = D[:N, N:]
        D4[:, :, 1, 0] = D[N:, :N]
        D4[:, :, 1, 1] = D[N:, N:]
        group_norms = np.linalg.norm(D4, ord=2, axis=(2, 3))
        probe_vals = []
        prng = _rng_for_run(cfg.seed ^ 0x5EED, k)
        for _ in range(ENTRYWISE_PROBES):
            v = prng.standard_normal(2 * N) + 1j * prng.standard_normal(2 * N)
            v /= np.linalg.norm(v)
            probe_vals.append(abs(np.vdot(v, D @ v)) / psi)
        out.append(
            {
                "max_group_norm": float(group_norms.max()),
                "max_group_ratio": float(group_norms.max() / psi),
                "probe_ratios": probe_vals,
                "psi": psi,
            }
        )
    return out


def rigidity_profile(
    cfg: EnsembleConfig,
    z_mod: float,
    qt: QuantileTable,
    table: DensityTable,
    runs: list[RunResult] | None = None,
):
    """Relative gaps |lambda_j - gamma_j| / gamma_j over bulk indices of each band.

    Bulk indices exclude a BULK_MARGIN fraction of each band's index range at
    both ends. Returns dict with per-run medians, the pooled median and max.
    """
    if runs is None:
        runs = run_ensemble(cfg)
    runs = successful(runs)
    key = _singular_key(runs, z_mod)
    K = cfg.K
    if qt.N != K:
        raise DomainError("quantile table N must equal K")
    # classical counts at band endpoints
    bands = table.bands
    idx_mask = np.zeros(K, dtype=bool)
    for lo, hi in bands:
        n_lo = int(np.ceil(table.cdf2(lo) * K))
        n_hi = int(np.floor(table.cdf2(hi) * K))
        width = n_hi - n_lo
        if width <= 0:
            continue
        m = int(np.ceil(BULK_MARGIN * width))
        a, b = n_lo + m, n_hi - m
        if a < b:
            idx_mask[a : b] = True
    j_idx = np.nonzero(idx_mask)[0]
    per_run = []
    pooled = []
    for r in runs:
        lam = np.sort(r.singular[key])[-K:]
        rel = np.abs(lam[j_idx] - qt.gamma[j_idx]) / qt.gamma[j_idx]
        per_run.append(float(np.median(rel)))
        pooled.append(rel)
    pooled_arr = np.concatenate(pooled)
    return {
        "indices": j_idx,
        "per_run_median": per_run,
        "median": float(np.median(pooled_arr)),
        "max": float(np.max(pooled_arr)),
    }


def extreme_singular_stats(cfg: EnsembleConfig, z_mod: float, runs: list[RunResult] | None = None):
    """Extreme eigenvalue summaries of Y Y^dag with bound violation counts.

    Checks lambda_min against exp(-K^0.3) and lambda_max against
    (||T|| (EXTREME_C0 + 1) + |z|)^2, and the per-run deterministic inequality
    lambda_max <= (||T|| ||X|| + |z|)^2 with a power-iteration estimate of
    ||X|| (a lower bound, so the inequality check is conservative).
    """
    if runs is None:
        runs = run_ensemble(cfg)
    runs = successful(runs)
    key = _singular_key(runs, z_mod)
    t_norm = float(np.sqrt(cfg.spec.s[0]))
    lam_min = np.array([r.singular[key][0] for r in runs])
    lam_max = np.array([r.singular[key][-1] for r in runs])
    small_floor = np.exp(-cfg.K ** 0.3)
    big_cap = (t_norm * (EXTREME_C0 + 1.0) + z_mod) ** 2
    det_viol = 0
    for r in runs:
        _, X = _draw(cfg, r.run_index)
        xn = operator_norm_estimate(X, iters=200, seed=r.run_index)
        if r.singular[key][-1] > (t_norm * xn + z_mod) ** 2 * (1 + 1e-9):
            det_viol += 1
    return {
        "lambda_min": lam_min,
        "lambda_max": lam_max,
        "n_small_violations": int(np.sum(lam_min < small_floor)),
        "n_big_violations": int(np.sum(lam_max > big_cap)),
        "n_det_violations": det_viol,
        "small_floor": float(small_floor),
        "big_cap": float(big_cap),
    }


# ---------------------------------------------------------------------------
# local eigenvalue counting against the radial profile
# ---------------------------------------------------------------------------

def bump(v: np.ndarray) -> np.ndarray:
    """C^2 bump (1 - |v|^2)^3 on the unit disk, 0 outside."""
    a = np.maximum(0.0, 1.0 - np.abs(v) ** 2)
    return a**3


def bump_laplacian_l1() -> float:
    """Exact L1 norm of the bump's Laplacian: 32 pi / 9."""
    return 32.0 * np.pi / 9.0


def local_circular_error(cfg: EnsembleConfig, z0: complex, a: float, profile: RadialProfile,
                         runs: list[RunResult] | None = None):
    """Per-run |empirical - deterministic| for the rescaled bump statistic.

    The empirical side is (1/K) sum_j F_{z0,a}(mu_j) over nontrivial
    eigenvalues; the deterministic side integrates the bump against the
    radial eigenvalue density by polar quadrature. Raises DomainError when
    the rescaled bump support overlaps the excluded band around |z| = 1.
    """
    K = cfg.K
    radius = K ** (-a)
    lo_r, hi_r = abs(z0) - radius, abs(z0) + radius
    zb = profile.z_band_min
    if lo_r < 1.0 < hi_r or abs(lo_r**2 - 1) < zb or abs(hi_r**2 - 1) < zb:
        raise DomainError("bump support overlaps the excluded band at |z| = 1")
    if runs is None:
        runs = run_ensemble(cfg)
    runs = successful(runs)
    # deterministic target: (1/pi) int F(v) chi(|z0 + radius v|) dv over |v|<=1
    gl_x, gl_w = np.polynomial.legendre.leggauss(BUMP_RADIAL_NODES)
    rr = 0.5 * (gl_x + 1.0)
    rw = 0.5 * gl_w
    th = 2 * np.pi * np.arange(BUMP_ANGLES) / BUMP_ANGLES
    pts = z0 + radius * rr[:, None] * np.exp(1j * th)[None, :]
    chi_vals = profile.chi_at(np.abs(pts)).reshape(rr.size, BUMP_ANGLES)
    fvals = bump(rr)[:, None]
    target = (
        np.sum(fvals * chi_vals * (rr * rw)[:, None]) * (2 * np.pi / BUMP_ANGLES) / np.pi
    )
    out = []
    for r in runs:
        mu_nontriv = r.nontrivial(K)
        emp = float(
            np.sum((K ** (2 * a)) * bump((mu_nontriv - z0) * K**a)) / K
        )
        out.append(abs(emp - float(np.real(target))))
    return {"errors": out, "target": float(np.real(target)), "radius": radius}


def radial_esd_cdf(cfg: EnsembleConfig, profile: RadialProfile,
                   runs: list[RunResult] | None = None):
    """Empirical radial CDF of nontrivial eigenvalues against the predicted F.

    Compares on the profile's radii with |r^2 - 1| >= RADIAL_BAND_MARGIN * z_band_min.
    Returns per-run sup deviations and the median curve.
    """
    if runs is None:
        runs = run_ensemble(cfg)
    runs = successful(runs)
    keep = np.abs(profile.r**2 - 1.0) >= RADIAL_BAND_MARGIN * profile.z_band_min
    r_cmp = profile.r[keep]
    F_theory = profile.F_at(r_cmp)
    ok = np.isfinite(F_theory)
    r_cmp, F_theory = r_cmp[ok], F_theory[ok]
    K = cfg.K
    sup_devs = []
    curves = []
    for r in runs:
        radii = np.sort(np.abs(r.nontrivial(K)))
        Fhat = np.searchsorted(radii, r_cmp, side="right") / K
        curves.append(Fhat)
        sup_devs.append(float(np.max(np.abs(Fhat - F_theory))))
    return {
        "r": r_cmp,
        "F_theory": F_theory,
        "Fhat_median": np.median(np.stack(curves), axis=0),
        "sup_dev": sup_devs,
    }


def count_trivial_zeros(result: RunResult) -> int:
    """Structural zero eigenvalues of the product (exactly N - K expected)."""
    return int(np.sum(np.abs(result.eigenvalues) <= ZERO_EIG_TOL))
