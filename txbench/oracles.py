"""Reference values for the benchmark's output checks, computed apart from txlaw.

Nothing here imports txlaw. A law is given by the distinct eigenvalues s of
Sigma = T T^dag and their weights w (multiplicity / K), built by the
benchmark from the same numbers it writes into the spectrum files.

- The singular law of Y = TX - z comes from the two-scalar vector Dyson
  equation of the Hermitization [[0, Y], [Y^dag, 0]] (Alt-Erdos-Kruger),
  solved by Newton with continuation in Im sig. It never uses the engine's
  cleared master polynomial.
- The radial eigenvalue law of TX comes from the Haagerup-Larsen S-transform
  theorem for R-diagonal operators (J. Funct. Anal. 176, 2000): for r < 1,
  t > 0 solves sum_i w_i s_i / (r^2 + s_i t) = 1, and F(r) = 1 - t.

Run `python3 txbench/oracles.py --workload law-fig2 --seed 1` to print every
oracle value the checks of that workload and seed compare against.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy import optimize

ETA_MIN = 1e-10      # height of the Dyson solve above the real axis
CONT_STEPS = 100     # geometric continuation steps from Im sig = 1 to ETA_MIN
NEWTON_MAX = 50
SIG_CELLS = 4000     # cells of the sig grid that locates the support bands
_GL8 = np.polynomial.legendre.leggauss(8)
_GL48 = np.polynomial.legendre.leggauss(48)


class OracleError(RuntimeError):
    """An oracle computation did not converge or failed its own self-check."""


@dataclass(frozen=True)
class Law:
    """Distinct Sigma eigenvalues s (descending) with weights w summing to 1.

    Hashable, so the oracle values of a law can be cached for the whole run.
    """

    s: tuple[float, ...]
    w: tuple[float, ...]

    @classmethod
    def from_counts(cls, values, counts) -> "Law":
        """Group repeated values and rescale to spectral mean 1."""
        v = np.asarray(values, dtype=float)
        c = np.asarray(counts, dtype=float)
        uniq, inv = np.unique(v, return_inverse=True)
        w = np.bincount(inv, weights=c) / c.sum()
        s = uniq / float(np.dot(w, uniq))
        return cls(s=tuple(s[::-1].tolist()), w=tuple(w[::-1].tolist()))

    @cached_property
    def sv(self) -> np.ndarray:
        return np.asarray(self.s)

    @cached_property
    def wv(self) -> np.ndarray:
        return np.asarray(self.w)


# ---------------------------------------------------------------------------
# vector Dyson equation of the Hermitization
# ---------------------------------------------------------------------------

def _system(law: Law, z2: float, a, b, sig):
    """Residual, Jacobian and sig-derivative of the Dyson equation.

    With a = <g2>, b = <s g1>, q = sig + b, p_i = sig + s_i a and
    D_i = p_i q - |z|^2 the equation reads a = sum_i w_i (-p_i / D_i) and
    b = sum_i w_i s_i (-q / D_i). Broadcasts over the shape of a, b, sig.
    Returns (r1, r2, j11, j12, j21, d1, d2); j22 equals j11.
    """
    s, w = law.sv, law.wv
    a, b, sig = np.asarray(a), np.asarray(b), np.asarray(sig)
    q = sig + b
    p = sig[..., None] + s * a[..., None]
    D = p * q[..., None] - z2
    D2 = D * D
    r1 = a + np.sum(w * p / D, axis=-1)
    r2 = b + q * np.sum(w * s / D, axis=-1)
    j11 = 1 - z2 * np.sum(w * s / D2, axis=-1)
    j12 = -np.sum(w * p * p / D2, axis=-1)
    j21 = -q * q * np.sum(w * s * s / D2, axis=-1)
    d1 = -np.sum(w * (z2 + p * p) / D2, axis=-1)
    d2 = -(z2 + q * q) * np.sum(w * s / D2, axis=-1)
    return r1, r2, j11, j12, j21, d1, d2


def dyson_solve(law: Law, z: float, sig):
    """(a, b) at sig + i ETA_MIN, continued down from Im = 1 where it is unique."""
    sig = np.atleast_1d(np.asarray(sig, dtype=float))
    z2 = z * z
    a = np.full(sig.shape, 1j)
    b = np.full(sig.shape, 1j)
    for e in np.geomspace(1.0, ETA_MIN, CONT_STEPS):
        zs = sig + 1j * e
        idx = np.arange(sig.size)
        for _ in range(NEWTON_MAX):
            r1, r2, j11, j12, j21, _, _ = _system(law, z2, a[idx], b[idx], zs[idx])
            scale = 1 + np.maximum(np.abs(a[idx]), np.abs(b[idx]))
            # near sig = 0 the Jacobian is close to singular: a residual at
            # rounding level ends Newton even when the step does not shrink
            live = np.maximum(np.abs(r1), np.abs(r2)) > 1e-15 * scale
            det = j11 * j11 - j12 * j21
            da = np.where(live, (j11 * r1 - j12 * r2) / det, 0)
            db = np.where(live, (j11 * r2 - j21 * r1) / det, 0)
            a[idx] -= da
            b[idx] -= db
            idx = idx[live & (np.maximum(np.abs(da), np.abs(db)) > 1e-12 * scale)]
            if idx.size == 0:
                break
        else:
            raise OracleError(f"Dyson continuation stalled at Im sig = {e:.1e}")
    return a, b


def herm_density(law: Law, z: float, sig) -> np.ndarray:
    """Density Im <g2> / pi of the Hermitization at real sig (mass 1 on R)."""
    a, _ = dyson_solve(law, z, sig)
    return a.imag / np.pi


def rho2(law: Law, z: float, x) -> np.ndarray:
    """Density of the squared singular values of TX - z at x > 0."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    sq = np.sqrt(x)
    return herm_density(law, z, sq) / sq


def _branch_at(law: Law, z2: float, a: float, b: float, sig: float):
    """Newton in (b, sig) at fixed real a on the real gap branch."""
    for _ in range(NEWTON_MAX):
        r1, r2, j11, j12, _, d1, d2 = (float(v) for v in _system(law, z2, a, b, sig))
        # columns: d/db = (j12, j22 = j11), d/dsig = (d1, d2)
        det = j12 * d2 - d1 * j11
        db = (d2 * r1 - d1 * r2) / det
        ds = (j12 * r2 - j11 * r1) / det
        b, sig = b - db, sig - ds
        if abs(db) + abs(ds) <= 1e-15 * (1 + abs(b) + abs(sig)):
            return b, sig
    raise OracleError(f"Dyson gap branch lost at a = {a}")


def _jac_det(law: Law, z2: float, a: float, b: float, sig: float) -> float:
    _, _, j11, j12, j21, _, _ = _system(law, z2, a, b, sig)
    return float(j11 * j11 - j12 * j21)


@lru_cache(maxsize=None)
def gap_edge(law: Law, z: float) -> float:
    """Lowest edge sig*^2 of the singular law of TX - z for |z| > 1.

    Inside the gap (-sig*, sig*) the Dyson solution is real; it starts at
    a = b = 0 at sig = 0, and a, b, sig grow together up to the fold sig*,
    where the Jacobian in (a, b) is singular. The branch is followed in a,
    which stays monotone through the fold, and the sign change of the
    Jacobian determinant is solved by brentq. The density is then checked to
    be tiny just below sig* and positive just above it.
    """
    if z <= 1:
        raise OracleError("the gap edge exists only for |z| > 1")
    z2 = z * z
    step = 1e-3
    a, b, sig = 0.0, 0.0, 0.0
    det0 = _jac_det(law, z2, a, b, sig)
    while True:
        b1, sig1 = _branch_at(law, z2, a + step, b, sig)
        if _jac_det(law, z2, a + step, b1, sig1) * det0 <= 0:
            break
        if sig1 <= sig:
            raise OracleError(f"gap branch not increasing at a = {a + step}")
        a, b, sig = a + step, b1, sig1
    start = (b, sig)

    def det_on_branch(x):
        return _jac_det(law, z2, x, *_branch_at(law, z2, x, *start))

    a_star = optimize.brentq(det_on_branch, a, a + step, xtol=1e-16,
                             rtol=4 * np.finfo(float).eps)
    sig = _branch_at(law, z2, a_star, *start)[1]
    below, above = herm_density(law, z, [sig * (1 - 1e-3), sig * (1 + 1e-3)])
    if not (below < 1e-6 and above > 1e-4):
        raise OracleError(f"sig* = {sig} does not bound the gap: density "
                          f"{below:.1e} below, {above:.1e} above")
    return float(sig * sig)


def fold_edge(law: Law, z: float, sig_out: float, inward: float) -> float:
    """The edge sig*^2 of the singular law next to sig_out, a point off the support.

    An edge is a fold of the real Dyson solution: residual zero and Jacobian
    singular. Starting from the real solution at sig_out, Newton on the three
    equations (r1, r2, det J) in (a, b, sig) converges to the nearest fold.
    inward is +1 when the support lies above sig_out and -1 when below. The
    density must be tiny just outside the fold and positive just inside it.
    """
    z2 = z * z
    a0, b0 = dyson_solve(law, z, [sig_out])
    u = np.array([a0[0].real, b0[0].real, sig_out])

    def F(v):
        r1, r2, j11, j12, j21, _, _ = _system(law, z2, *v)
        return np.array([r1, r2, j11 * j11 - j12 * j21], dtype=float)

    for _ in range(NEWTON_MAX):
        J = np.empty((3, 3))
        for k in range(3):
            e = np.zeros(3)
            e[k] = 1e-7 * (1 + abs(u[k]))
            J[:, k] = (F(u + e) - F(u - e)) / (2 * e[k])
        step = np.linalg.solve(J, F(u))
        u = u - step
        if np.max(np.abs(step)) <= 1e-14 * (1 + np.max(np.abs(u))):
            break
    else:
        raise OracleError(f"fold Newton did not converge from sig = {sig_out}")
    sig = u[2]
    outside, inside = herm_density(law, z, [sig * (1 - inward * 1e-3),
                                            sig * (1 + inward * 1e-3)])
    if not outside < 1e-6 < inside:
        raise OracleError(f"fold at sig = {sig} does not bound the support")
    return float(sig * sig)


@lru_cache(maxsize=None)
def _sig_grid(law: Law, z: float):
    """Midpoints of SIG_CELLS cells from 0 past a bound on the top edge, with 2 Im<g2>/pi.

    Midpoints keep the nodes off sig = 0, where the continuation degenerates.
    """
    h = (2.0 * np.sqrt(law.sv.max()) + z + 0.5) / SIG_CELLS
    sig = (np.arange(SIG_CELLS) + 0.5) * h
    return sig, 2.0 * herm_density(law, z, sig)


@lru_cache(maxsize=None)
def support_bands(law: Law, z: float) -> tuple[tuple[float, float], ...]:
    """Support bands [lo, hi] in x = sig^2, ascending; lo = 0 for a zero edge.

    The density on the sig grid locates each band to one grid step; each
    nonzero edge is then the fold found by fold_edge from the grid point
    just outside it.
    """
    sig, g = _sig_grid(law, z)
    inside = g > 1e-6
    if inside[-1]:
        raise OracleError("support reaches the end of the sig grid")
    starts = np.flatnonzero(inside & ~np.r_[False, inside[:-1]])
    stops = np.flatnonzero(inside & ~np.r_[inside[1:], False])
    bands = []
    for i0, i1 in zip(starts, stops):
        lo = 0.0 if i0 == 0 else fold_edge(law, z, sig[i0 - 1], +1.0)
        bands.append((lo, fold_edge(law, z, sig[i1 + 1], -1.0)))
    return tuple(bands)


def band_cdf(law: Law, z: float, bands, x) -> tuple[np.ndarray, float]:
    """Mass of the singular law on (0, x] at sorted points x inside the bands.

    Each band [lo, hi] in x is mapped to sig = sqrt(x) and then to theta by
    sig = mid - half cos(theta), which absorbs square-root edges; the mass
    between consecutive points is 8-point Gauss-Legendre in theta. Returns
    the CDF at x and the total mass of the bands.
    """
    x = np.asarray(x, dtype=float)
    pieces = []                       # (theta0, theta1, mid, half, ends at a point)
    for lo, hi in sorted(bands):
        s_lo, s_hi = np.sqrt(lo), np.sqrt(hi)
        mid, half = 0.5 * (s_lo + s_hi), 0.5 * (s_hi - s_lo)
        here = x[(x >= lo) & (x <= hi)]
        th = np.arccos(np.clip((mid - np.sqrt(here)) / half, -1.0, 1.0))
        pts = np.concatenate([[0.0], th, [np.pi]])
        pieces += [(pts[k], pts[k + 1], mid, half, k < th.size) for k in range(th.size + 1)]
    t0, t1, mid, half, ends = (np.array(c) for c in zip(*pieces))
    nodes, wts = _GL8
    th = 0.5 * (t0 + t1)[:, None] + 0.5 * (t1 - t0)[:, None] * nodes
    sig = mid[:, None] - half[:, None] * np.cos(th)
    g = 2.0 * herm_density(law, z, sig.ravel()).reshape(sig.shape)
    cum = np.cumsum(0.5 * (t1 - t0) * np.sum(wts * g * half[:, None] * np.sin(th), axis=1))
    cdf = cum[ends.astype(bool)]
    if cdf.size != x.size:
        raise OracleError("points outside the bands")
    return cdf, float(cum[-1])


def singular_cdf(law: Law, z: float):
    """CDF of the singular law on x >= 0 by the midpoint rule in sig on the grid.

    Needs no edges. Raises when the integrated mass misses 1 by more than 2e-3.
    """
    sig, g = _sig_grid(law, z)
    h = sig[1] - sig[0]
    cells = np.arange(sig.size + 1) * h
    cdf = np.concatenate([[0.0], np.cumsum(g * h)])
    if abs(cdf[-1] - 1.0) > 2e-3:
        raise OracleError(f"singular law mass {cdf[-1]} misses 1")
    return lambda x: np.interp(np.sqrt(np.maximum(x, 0.0)), cells, cdf)


# ---------------------------------------------------------------------------
# Haagerup-Larsen radial law of TX
# ---------------------------------------------------------------------------

def _hl_t(law: Law, r: float) -> float:
    r2 = r * r
    return optimize.brentq(lambda t: np.dot(law.wv, law.sv / (r2 + law.sv * t)) - 1.0,
                           0.0, 1.0, xtol=1e-16, rtol=4 * np.finfo(float).eps)


def radial_F(law: Law, r) -> np.ndarray:
    """Radial CDF F(r) = mu(|lambda| <= r) of the eigenvalues of TX."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    return np.array([1.0 - _hl_t(law, v) if 0 < v < 1 else float(v >= 1) for v in r])


def radial_law(law: Law, r) -> dict[str, np.ndarray]:
    """F, chi and U on radii r > 0.

    chi = F'(r) / (2r) = sum w s / d^2 / sum w s^2 / d^2 with d = r^2 + s t,
    and U(r) = -int_r^1 2 F(q) / q dq inside the disk, 2 log r outside.
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    F = radial_F(law, r)
    chi = np.zeros_like(r)
    U = 2.0 * np.log(r)
    nodes, wts = _GL48
    for k, v in enumerate(r):
        if v >= 1:
            continue
        d = v * v + law.sv * (1.0 - F[k])
        chi[k] = np.dot(law.wv, law.sv / d**2) / np.dot(law.wv, law.sv**2 / d**2)
        q = 0.5 * (1 + v) + 0.5 * (1 - v) * nodes
        U[k] = -0.5 * (1 - v) * np.dot(wts, 2.0 * radial_F(law, q) / q)
    return {"F": F, "chi": chi, "U": U}


def radial_selfcheck() -> float:
    """Largest error of radial_law on Sigma = I against F = r^2, chi = 1, U = r^2 - 1."""
    law = Law(s=(1.0,), w=(1.0,))
    r = np.linspace(0.05, 0.95, 10)
    got = radial_law(law, r)
    err = max(np.max(np.abs(got["F"] - r * r)), np.max(np.abs(got["chi"] - 1.0)),
              np.max(np.abs(got["U"] - (r * r - 1.0))))
    if err > 1e-12:
        raise OracleError(f"Haagerup-Larsen self-check on Sigma = I is off by {err:.1e}")
    return float(err)


def main(argv=None) -> int:
    from workloads import WORKLOADS   # the benchmark's own module, same directory

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    print(json.dumps(WORKLOADS[args.workload](args.seed).oracle_values(), indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
