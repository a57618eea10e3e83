"""Density tabulation, quantiles, log-potential and the radial eigenvalue density.

Each support band [lo, hi] is parameterized by x(theta) = mid - half cos(theta)
on [0, pi]; the substitution absorbs the square-root edge behavior at both
endpoints, and for a band touching 0 it reduces to x = u^2 with
u = sqrt(hi) sin(theta/2), which also tames the x^(-1/2) divergence there.
Gauss-Legendre nodes per theta segment then integrate smooth functions
spectrally; the per-segment Legendre series doubles as an analytic
antiderivative, giving a CDF accurate far below the quantile tolerance.

The radial eigenvalue law of T X needs no table: T X is R-diagonal, and the
Haagerup-Larsen S-transform theorem gives it in closed form from the Sigma
spectrum alone.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import legendre as npleg

from .errors import DomainError, SolverError, TableTooCoarseError
from .master import SolverOptions, density_batch
from .sigma import SigmaSpectrum
from .support import SupportProfile, find_edges

GL_ORDER = 64
_GL_XI, _GL_W = npleg.leggauss(GL_ORDER)
_LEG_VANDER = npleg.legvander(_GL_XI, GL_ORDER - 1)
_LEG_PROJ = ((2 * np.arange(GL_ORDER) + 1) / 2.0)[None, :] * (_LEG_VANDER * _GL_W[:, None])
_LEG_INT = npleg.legint(np.eye(GL_ORDER), lbnd=-1)   # series -> antiderivative, 0 at -1

ZERO_EDGE_LEVELS = 8          # geometric theta grading levels toward a zero edge
MASS_TOL = 1e-3               # missed-band alarm on |mass - 1|
SPLIT_TOL = 1e-10             # per-segment spectral tail triggering a split
SPLIT_MAX_DEPTH = 8
NEWTON_MAX = 100              # cap on the vectorized Newton loops below



def _x_of_theta(lo: float, hi: float, th: np.ndarray) -> np.ndarray:
    """Band map x(theta) = mid - half cos(theta), evaluated without cancellation.

    Near theta = 0 uses lo + 2 half sin^2(theta/2), near theta = pi the
    mirrored form, so distances to either edge stay exact at machine scale.
    """
    th = np.asarray(th, dtype=float)
    half = 0.5 * (hi - lo)
    low_form = lo + 2.0 * half * np.sin(0.5 * th) ** 2
    high_form = hi - 2.0 * half * np.sin(0.5 * (np.pi - th)) ** 2
    return np.where(th <= 0.5 * np.pi, low_form, high_form)

@dataclass(frozen=True)
class _Segment:
    band: int
    t0: float
    t1: float
    mid: float
    half: float
    theta: np.ndarray
    x: np.ndarray
    jac: np.ndarray            # dx/dtheta at the nodes
    rho1: np.ndarray
    rho2: np.ndarray
    leg2: np.ndarray           # Legendre coefficients of rho2 * dx/dtheta
    base2: float               # cumulative rho2 mass before this segment


@dataclass(frozen=True)
class _PiecewiseCdf:
    """The rho2 CDF of a table as arrays over its theta segments, in ascending order.

    On segment k, with xi = 2 (theta - t0) / (t1 - t0) - 1 in [-1, 1], the CDF
    is base[k] + (t1 - t0) / 2 * sum_i cum[i, k] P_i(xi): the exact
    antiderivative of the segment's Legendre series leg[:, k] of rho2 dx/dtheta,
    which is therefore its theta derivative.
    """

    t0: np.ndarray
    t1: np.ndarray
    mid: np.ndarray
    half: np.ndarray
    x_lo: np.ndarray
    x_hi: np.ndarray
    base: np.ndarray
    top: np.ndarray            # CDF at each segment's end
    leg: np.ndarray            # (GL_ORDER, segments)
    cum: np.ndarray            # (GL_ORDER + 1, segments)

    @classmethod
    def build(cls, segments: list[_Segment]) -> _PiecewiseCdf:
        def col(name):
            return np.array([getattr(s, name) for s in segments], dtype=float)

        t0, t1, mid, half, base = (col(n) for n in ("t0", "t1", "mid", "half", "base2"))
        leg = np.column_stack([s.leg2 for s in segments])
        cum = _LEG_INT @ leg
        return cls(
            t0=t0, t1=t1, mid=mid, half=half,
            x_lo=_x_of_theta(mid - half, mid + half, t0),
            x_hi=_x_of_theta(mid - half, mid + half, t1),
            base=base, top=base + 0.5 * (t1 - t0) * npleg.legval(1.0, cum),
            leg=leg, cum=cum,
        )

    def _xi(self, k: np.ndarray, theta: np.ndarray) -> np.ndarray:
        return 2 * (theta - self.t0[k]) / (self.t1[k] - self.t0[k]) - 1.0

    def at_theta(self, k: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """CDF at theta on segments k."""
        scale = (self.t1[k] - self.t0[k]) / 2.0
        return self.base[k] + scale * npleg.legval(self._xi(k, theta), self.cum[:, k],
                                                   tensor=False)

    def x_at(self, k: np.ndarray, theta: np.ndarray) -> np.ndarray:
        return _x_of_theta(self.mid[k] - self.half[k], self.mid[k] + self.half[k], theta)

    def solve_theta(self, k: np.ndarray, target: np.ndarray) -> np.ndarray:
        """theta on segments k with CDF equal to target, base[k] <= target <= top[k].

        Newton on the segment polynomial, whose derivative is the series of
        rho2 dx/dtheta, safeguarded by bisection on the bracket [t0, t1]. A
        point stops when its step falls below the brentq tolerance
        1e-15 + 8.9e-16 |theta|, or its residual reaches rounding level.
        """
        a, b = self.t0[k].copy(), self.t1[k].copy()
        frac = (target - self.base[k]) / np.maximum(self.top[k] - self.base[k], 1e-300)
        theta = a + (b - a) * np.clip(frac, 0.0, 1.0)
        live = np.arange(k.size)
        for _ in range(NEWTON_MAX):
            kk, th = k[live], theta[live]
            res = self.at_theta(kk, th) - target[live]
            deriv = npleg.legval(self._xi(kk, th), self.leg[:, kk], tensor=False)
            a[live] = np.where(res < 0, th, a[live])
            b[live] = np.where(res > 0, th, b[live])
            lo, hi = a[live], b[live]
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = th - res / deriv
            new = np.where((newton > lo) & (newton < hi), newton, 0.5 * (lo + hi))
            new = np.where(np.abs(res) <= 4 * np.finfo(float).eps, th, new)
            theta[live] = new
            live = live[np.abs(new - th) > 1e-15 + 8.9e-16 * np.abs(new)]
            if live.size == 0:
                return theta
        raise SolverError(f"quantile inversion did not converge at {live.size} targets")


def _legendre_coeffs(vals: np.ndarray) -> np.ndarray:
    """Coefficients of the degree-(GL_ORDER-1) Legendre interpolant from node values."""
    return _LEG_PROJ.T @ vals


def _band_theta_segments(zero_edge: bool, n_seg: int) -> list[tuple[float, float]]:
    if zero_edge:
        bounds = [0.0]
        bounds += [np.pi * 4.0 ** (-k) for k in range(ZERO_EDGE_LEVELS, 0, -1)]
        bounds += [np.pi / 2.0, np.pi]
        extra = max(0, n_seg - (len(bounds) - 1))
        if extra:
            right = np.linspace(np.pi / 2.0, np.pi, extra + 2)[1:-1]
            bounds = sorted(set(bounds) | set(right.tolist()))
        return list(zip(bounds[:-1], bounds[1:]))
    n_seg = max(2, n_seg)
    bounds = np.linspace(0.0, np.pi, n_seg + 1)
    return list(zip(bounds[:-1], bounds[1:]))


@dataclass(frozen=True)
class DensityTable:
    """Tabulated limiting densities over the support bands."""

    z_mod: float
    bands: tuple[tuple[float, float], ...]       # ascending
    x: np.ndarray
    rho1: np.ndarray
    rho2: np.ndarray
    weight: np.ndarray
    total_mass: float
    mass1: float
    segments: tuple[_Segment, ...] = field(repr=False)
    profile: SupportProfile = field(repr=False)
    cdf: _PiecewiseCdf = field(repr=False)

    def integrate_rho2(self, fn) -> complex:
        return np.sum(fn(self.x) * self.rho2 * self.weight)

    def integrate_rho1(self, fn) -> complex:
        return np.sum(fn(self.x) * self.rho1 * self.weight)

    def quadrature_error_estimate(self) -> float:
        """Spectral tail estimate of the mass quadrature error."""
        err = 0.0
        for seg in self.segments:
            scale = (seg.t1 - seg.t0) / 2.0
            err += scale * float(np.sum(np.abs(seg.leg2[-2:])))
        return err

    def eval_rho2(self, x) -> np.ndarray:
        """Interpolated rho2; exactly zero off the support bands."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros_like(x)
        order = np.argsort(self.x)
        xs, rs = self.x[order], self.rho2[order]
        for lo, hi in self.bands:
            mask = (x >= lo) & (x <= hi)
            if np.any(mask):
                out[mask] = np.interp(x[mask], xs, rs)
        return out

    def cdf2(self, x):
        """Mass of rho2 on (0, x], elementwise over an array of x."""
        c = self.cdf
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.full(xs.shape, self.total_mass)
        # the segment holding x: the first whose upper end lies above it
        k = np.searchsorted(c.x_hi, xs, side="right")
        inside = k < c.t0.size
        k, xk = k[inside], xs[inside]
        below = xk <= c.x_lo[k]
        theta = np.arccos(-np.clip((xk - c.mid[k]) / c.half[k], -1.0, 1.0))
        theta = np.minimum(np.maximum(theta, c.t0[k]), c.t1[k])
        start = np.where(c.t0[k] == 0.0, c.base[k], np.minimum(c.base[k], self.total_mass))
        out[inside] = np.where(below, start, c.at_theta(k, theta))
        return float(out[0]) if np.ndim(x) == 0 else out

    def quantile2(self, target, tol: float = 1e-6):
        """x with mass of rho2 on (0, x] equal to target, elementwise over an array."""
        m = np.atleast_1d(np.asarray(target, dtype=float))
        if np.any(m < 0):
            raise DomainError("quantile target must be >= 0")
        if np.any(m > self.total_mass + tol):
            raise DomainError(
                f"target mass {np.max(m)} exceeds table mass {self.total_mass}"
            )
        c = self.cdf
        # inside quadrature noise of the full mass the top edge is exact; a
        # target above every segment's top mass also maps to the top edge
        out = np.full(m.shape, float(self.bands[-1][1]))
        out[m <= 0.0] = self.bands[0][0]
        k = np.searchsorted(c.top, m, side="left")
        pick = np.nonzero((m > 0.0) & (m < self.total_mass - 1e-7) & (k < c.t0.size))[0]
        k = k[pick]
        # a target below its segment's base sits in the rounding-level gap
        # after the previous segment's top: it maps to the segment's start
        gap = m[pick] < c.base[k]
        theta = c.t0[k].copy()
        theta[~gap] = c.solve_theta(k[~gap], m[pick][~gap])
        out[pick] = c.x_at(k, theta)
        return float(out[0]) if np.ndim(target) == 0 else out


def tabulate_density(
    spec: SigmaSpectrum,
    z_mod: float,
    resolution: int = 2000,
    profile: SupportProfile | None = None,
    opts: SolverOptions | None = None,
) -> DensityTable:
    """Gauss-Legendre density table over all support bands.

    Nodes are distributed across bands proportionally to band width; a band
    touching zero gets the geometrically graded segment layout. Raises
    TableTooCoarseError when the rho2 mass misses 1 by more than 1e-3
    (a missed band; rescan with finer support options).
    """
    opts = opts or SolverOptions()
    if profile is None:
        profile = find_edges(spec, z_mod, opts)
    bands = profile.bands_ascending
    widths = np.array([hi - lo for lo, hi in bands])
    shares = widths / widths.sum()
    segments: list[_Segment] = []
    xs, r1s, r2s, ws = [], [], [], []
    base2 = 0.0
    for bi, (lo, hi) in enumerate(bands):
        zero = lo == 0.0
        n_seg = max(2, int(np.ceil(resolution * shares[bi] / GL_ORDER)))
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        pending = _band_theta_segments(zero, n_seg)
        done: list[tuple[float, float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        depth = 0
        while pending and depth <= SPLIT_MAX_DEPTH:
            th_cat = np.concatenate(
                [0.5 * (t0 + t1) + 0.5 * (t1 - t0) * _GL_XI for (t0, t1) in pending]
            )
            x_cat = np.maximum(_x_of_theta(lo, hi, th_cat), 1e-300)
            rho1, rho2, _, _ = density_batch(x_cat, spec, z_mod, opts)
            nxt: list[tuple[float, float]] = []
            for k, (t0, t1) in enumerate(pending):
                sl = slice(k * GL_ORDER, (k + 1) * GL_ORDER)
                th, x, r1, r2 = th_cat[sl], x_cat[sl], rho1[sl], rho2[sl]
                jac = half * np.sin(th)
                tail = (t1 - t0) / 2.0 * float(
                    np.sum(np.abs(_legendre_coeffs(r2 * jac)[-2:]))
                )
                if tail > SPLIT_TOL and depth < SPLIT_MAX_DEPTH:
                    tm = 0.5 * (t0 + t1)
                    nxt.extend([(t0, tm), (tm, t1)])
                else:
                    done.append((t0, t1, th, x, r1, r2))
            pending = nxt
            depth += 1
        for (t0, t1, th, x, r1, r2) in sorted(done, key=lambda s: s[0]):
            jac = half * np.sin(th)
            seg = _Segment(
                band=bi, t0=t0, t1=t1, mid=mid, half=half,
                theta=th, x=x, jac=jac, rho1=r1, rho2=r2,
                leg2=_legendre_coeffs(r2 * jac), base2=base2,
            )
            scale = (t1 - t0) / 2.0
            base2 += scale * float(np.dot(_GL_W, r2 * jac))
            segments.append(seg)
            xs.append(x)
            r1s.append(r1)
            r2s.append(r2)
            ws.append(scale * _GL_W * jac)
    x = np.concatenate(xs)
    rho1 = np.concatenate(r1s)
    rho2 = np.concatenate(r2s)
    weight = np.concatenate(ws)
    total = float(np.sum(rho2 * weight))
    mass1 = float(np.sum(rho1 * weight))
    table = DensityTable(
        z_mod=z_mod, bands=tuple(bands), x=x, rho1=rho1, rho2=rho2,
        weight=weight, total_mass=total, mass1=mass1,
        segments=tuple(segments), profile=profile, cdf=_PiecewiseCdf.build(segments),
    )
    if abs(total - 1.0) > MASS_TOL:
        raise TableTooCoarseError(
            f"rho2 mass {total} misses 1 by more than {MASS_TOL}; "
            "a band was probably missed, rescan with finer support options"
        )
    return table


@dataclass(frozen=True)
class QuantileTable:
    N: int
    gamma: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.gamma) < -1e-12):
            raise SolverError("quantiles are not non-decreasing")


def quantiles(table: DensityTable, N: int) -> QuantileTable:
    """Classical locations gamma_j with mass(0, gamma_j] = j/N, j = 1..N."""
    if abs(table.total_mass - 1.0) > MASS_TOL:
        raise DomainError("table mass too far from 1 for quantiles")
    return QuantileTable(N=N, gamma=table.quantile2(np.arange(1, N + 1) / N))


def log_potential(
    spec: SigmaSpectrum,
    z_mod: float,
    table: DensityTable | None = None,
    opts: SolverOptions | None = None,
) -> tuple[float, float]:
    """(integral of log(x) rho2(x) dx, quadrature error estimate).

    The log singularity against the x^(-1/2) zero-edge divergence is handled
    by the graded theta layout; the error estimate is the Legendre tail of
    the log-weighted integrand plus the table's own mass-tail estimate.
    """
    if table is None:
        table = tabulate_density(spec, z_mod, opts=opts)
    val = 0.0
    err = 0.0
    for seg in table.segments:
        integ = np.log(seg.x) * seg.rho2 * seg.jac
        leg = _legendre_coeffs(integ)
        scale = (seg.t1 - seg.t0) / 2.0
        val += scale * float(np.dot(_GL_W, integ))
        err += scale * float(np.sum(np.abs(leg[-2:])))
    return float(val), float(err + table.quadrature_error_estimate())


# ---------------------------------------------------------------------------
# radial profile of the limiting eigenvalue density
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialProfile:
    """Radial log-potential, eigenvalue density and radial CDF of the product.

    U, dU = U'(r), chi(r) = (U''(r) + U'(r)/r) / 4 and F(r) = r U'(r) / 2 on
    a uniform grid split around the excluded band at r = 1. The hole has no
    rows and is never interpolated.
    """

    r: np.ndarray
    U: np.ndarray
    dU: np.ndarray
    chi: np.ndarray
    F: np.ndarray
    h: float
    z_band_min: float
    segments: tuple[tuple[int, int], ...]      # [start, stop) into the arrays

    def chi_at(self, r) -> np.ndarray:
        """Interpolated chi; NaN inside holes, clamped ends outside the grid."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.full(r.shape, np.nan)
        for (i0, i1) in self.segments:
            rs, cs = self.r[i0:i1], self.chi[i0:i1]
            ok = np.isfinite(cs)
            if not np.any(ok):
                continue
            m = (r >= rs[ok][0]) & (r <= rs[ok][-1])
            out[m] = np.interp(r[m], rs[ok], cs[ok])
        below = r < self.r[0]
        out[below] = self.chi[np.isfinite(self.chi)][0] if np.any(below) else out[below]
        above = r > self.r[-1]
        out[above] = 0.0
        return out

    def F_at(self, r) -> np.ndarray:
        r = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.full(r.shape, np.nan)
        for (i0, i1) in self.segments:
            rs, fs = self.r[i0:i1], self.F[i0:i1]
            ok = np.isfinite(fs)
            if not np.any(ok):
                continue
            m = (r >= rs[ok][0]) & (r <= rs[ok][-1])
            out[m] = np.interp(r[m], rs[ok], fs[ok])
        return out

    def consistency_gap(self) -> float:
        """Max gap between F and the direct integral 2 int rho chi drho per segment."""
        worst = 0.0
        for (i0, i1) in self.segments:
            rs = self.r[i0:i1]
            chi = self.chi[i0:i1]
            F = self.F[i0:i1]
            ok = np.isfinite(chi) & np.isfinite(F)
            rs, chi, F = rs[ok], chi[ok], F[ok]
            if rs.size < 3:
                continue
            integrand = 2.0 * rs * chi
            cum = np.concatenate(
                [[0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(rs))]
            )
            direct = F[0] + cum
            worst = max(worst, float(np.max(np.abs(direct - F))))
        return worst


def _radial_law(spec: SigmaSpectrum, r: np.ndarray):
    """(U, U', chi, F) of the Haagerup-Larsen radial law of T X at radii r > 0.

    For r < 1, t in (0, 1) solves g(t) = sum_i w_i s_i / (r^2 + s_i t) - 1 = 0.
    For a normalized spectrum g(0) = 1/r^2 - 1 > 0 and g is convex and
    decreasing, so Newton from t = 0 rises monotonically to the root. With
    d_i = r^2 + s_i t: F = 1 - t, chi = F'(r) / (2 r) = sum w s / d^2 /
    sum w s^2 / d^2, and U = sum w log d - t, which vanishes at r = 1 and has
    U' = 2 F / r. For r >= 1: F = 1, chi = 0 and U = 2 log r.
    """
    spec.require_normalized()
    s, w = np.asarray(spec.s, dtype=float), spec.weights
    F, chi, U = np.ones_like(r), np.zeros_like(r), 2.0 * np.log(r)
    inside = r < 1.0
    r2 = r[inside, None] ** 2
    t = np.zeros(r2.shape)
    for _ in range(NEWTON_MAX):
        d = r2 + s * t
        step = ((s / d) @ w - 1.0) / ((s * s / d**2) @ w)
        t = t + step[:, None]
        if np.all(np.abs(step) <= 1e-14):
            break
    else:
        raise SolverError("radial law: Newton on t did not converge")
    d = r2 + s * t
    F[inside] = 1.0 - t[:, 0]
    chi[inside] = ((s / d**2) @ w) / ((s * s / d**2) @ w)
    U[inside] = np.log(d) @ w - t[:, 0]
    return U, 2.0 * F / r, chi, F


def compute_radial_profile(
    spec: SigmaSpectrum,
    r_lo: float,
    r_hi: float,
    h: float = 0.005,
    opts: SolverOptions | None = None,
) -> RadialProfile:
    """Radial profile of U, chi and F on [r_lo, r_hi] with grid step h <= 0.01.

    Grid points inside the excluded band |r^2 - 1| < z_band_min are dropped,
    which splits the grid into segments. The values come from the closed-form
    radial law, so the spectrum must be normalized (DomainError otherwise).
    """
    opts = opts or SolverOptions()
    if h > 0.01:
        raise DomainError("radial grid step must be <= 0.01")
    if r_lo <= 0 or r_hi <= r_lo:
        raise DomainError("need 0 < r_lo < r_hi")
    zb = opts.params.z_band_min
    n_req = int(round((r_hi - r_lo) / h))
    req = r_lo + h * np.arange(n_req + 1)

    def allowed(r):
        return np.abs(r * r - 1.0) >= zb

    runs = np.flatnonzero(np.diff(np.r_[0, allowed(req), 0])).reshape(-1, 2)
    if runs.size == 0:
        raise DomainError("entire grid lies inside the excluded band")
    grids = []
    for i0, i1 in runs:
        # each segment's grid is laid from up to two steps below its first
        # radius, staying in r > 0 and outside the band; this fixes how every
        # r rounds, so the r column of radial.csv keeps its exact values
        lead = 0
        while lead < 2 and req[i0] - (lead + 1) * h > 0 and allowed(req[i0] - (lead + 1) * h):
            lead += 1
        grids.append(req[i0] - lead * h + h * np.arange(lead, lead + i1 - i0))
    r = np.concatenate(grids)
    stops = np.cumsum([g.size for g in grids])
    U, dU, chi, F = _radial_law(spec, r)
    return RadialProfile(
        r=r, U=U, dU=dU, chi=chi, F=F, h=h, z_band_min=zb,
        segments=tuple((int(b - g.size), int(b)) for g, b in zip(grids, stops)),
    )


# ---------------------------------------------------------------------------
# CSV emitters (fixed headers)
# ---------------------------------------------------------------------------

def write_density_csv(table: DensityTable, path) -> None:
    order = np.argsort(table.x)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "rho2c"])
        for i in order:
            w.writerow([f"{table.x[i]:.17g}", f"{table.rho2[i]:.17g}"])


def write_radial_csv(profile: RadialProfile, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["r", "U", "chi", "F"])
        for i in range(profile.r.size):
            w.writerow(
                [
                    f"{profile.r[i]:.17g}",
                    f"{profile.U[i]:.17g}",
                    f"{profile.chi[i]:.17g}",
                    f"{profile.F[i]:.17g}",
                ]
            )


def write_quantiles_csv(qt: QuantileTable, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["j", "gamma_j"])
        for j, g in enumerate(qt.gamma, 1):
            w.writerow([j, f"{g:.17g}"])
