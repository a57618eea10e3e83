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

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import legendre as npleg

from .errors import DomainError, SolverError, TableTooCoarseError
from .linalg import one_blas_thread
from .master import density_batch, master_f_all
from .sigma import ModelParams, SigmaSpectrum
from .support import SupportProfile, find_edges

GL_ORDER = 64
_GL_XI, _GL_W = npleg.leggauss(GL_ORDER)
_LEG_VANDER = npleg.legvander(_GL_XI, GL_ORDER - 1)
_LEG_PROJ = ((2 * np.arange(GL_ORDER) + 1) / 2.0)[None, :] * (_LEG_VANDER * _GL_W[:, None])
_LEG_INT = npleg.legint(np.eye(GL_ORDER), lbnd=-1)   # series -> antiderivative, 0 at -1

ZERO_EDGE_LEVELS = 8          # geometric theta grading levels toward a zero edge
MASS_TOL = 1e-3               # missed-band alarm on |mass - 1|
TARGET_TOL = 1e-6             # quantile targets may exceed the table mass by this
BAND_TIE_TOL = 1e-12          # rounding of a band's cumulative mass: a target this close ties
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
    def build(cls, t0, t1, mid, half, base, leg) -> _PiecewiseCdf:
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
        point stops when its step falls below the tolerance
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
    jac: np.ndarray            # dx/dtheta at the nodes
    total_mass: float
    mass1: float
    cdf: _PiecewiseCdf = field(repr=False)

    def integrate_rho2(self, fn) -> complex:
        return np.sum(fn(self.x) * self.rho2 * self.weight)

    def integrate_rho1(self, fn) -> complex:
        return np.sum(fn(self.x) * self.rho1 * self.weight)

    def quadrature_error_estimate(self) -> float:
        """Spectral tail estimate of the mass quadrature error."""
        c = self.cdf
        return float(np.sum(0.5 * (c.t1 - c.t0) * np.sum(np.abs(c.leg[-2:]), axis=0)))

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

    def quantile2(self, target):
        """x with mass of rho2 on (0, x] equal to target, elementwise over an array."""
        m = np.atleast_1d(np.asarray(target, dtype=float))
        if np.any(m < 0):
            raise DomainError("quantile target must be >= 0")
        if np.any(m > self.total_mass + TARGET_TOL):
            raise DomainError(
                f"target mass {np.max(m)} exceeds table mass {self.total_mass}"
            )
        c = self.cdf
        # inside quadrature noise of the full mass the top edge is exact; a
        # target above every segment's top mass also maps to the top edge
        out = np.full(m.shape, float(self.bands[-1][1]))
        out[m <= 0.0] = self.bands[0][0]
        # a target at a band's cumulative mass ties across the gap after it:
        # gamma = inf{x : F(x) >= target} is the band's top edge
        tops = np.array([hi for _, hi in self.bands[:-1]])
        tie = np.abs(m[:, None] - self.cdf2(tops)) <= BAND_TIE_TOL   # (targets, gaps)
        tied = tie.any(axis=1)
        out[tied] = (tie @ tops)[tied]
        k = np.searchsorted(c.top, m, side="left")
        pick = np.nonzero((m > 0.0) & ~tied & (m < self.total_mass - 1e-7) & (k < c.t0.size))[0]
        k = k[pick]
        # a target below its segment's base sits in the rounding-level gap
        # after the previous segment's top: it maps to the segment's start
        gap = m[pick] < c.base[k]
        theta = c.t0[k].copy()
        theta[~gap] = c.solve_theta(k[~gap], m[pick][~gap])
        out[pick] = c.x_at(k, theta)
        return float(out[0]) if np.ndim(target) == 0 else out


def _fold_seeds(x: np.ndarray, b: np.ndarray, profile: SupportProfile,
                spec: SigmaSpectrum, z_mod: float) -> np.ndarray:
    """Starting roots at the nodes x of the ascending bands b, from the
    folds of f at the band edges.

    At an edge (e, m_c), f = f_m = 0, so f(u, m) = 0 expands to
    f_u (u - sqrt(e)) + f_mm (m - m_c)^2 / 2 = 0 and
    m ~ m_c + sqrt(-2 f_u (sqrt(x) - sqrt(e)) / f_mm), the root with
    Im m >= 0. A band's seed blends the expansions at its two ends linearly
    in t = (x - lo) / (hi - lo). At the zero edge the end is the root
    i sqrt(t0) of f at u = 0, t0 = zero_edge.t. One master_f_all call
    takes f_u and f_mm at every edge.
    """
    edges = sorted(profile.edges, key=lambda ed: ed.e)
    e = np.array([ed.e for ed in edges])
    m_c = np.array([ed.m_c for ed in edges])
    _, _, fmm, fu, _ = master_f_all(e, m_c, spec, z_mod)
    coef = -2 * np.real(fu) / np.real(fmm)

    def expansion(k):
        return m_c[k] + np.sqrt((coef[k] * (np.sqrt(x) - np.sqrt(e[k]))).astype(complex))

    bands = np.array(profile.bands_ascending)
    lo, hi = bands[b, 0], bands[b, 1]
    k_hi = np.searchsorted(e, hi)
    zero = lo == 0.0
    k_lo = np.where(zero, 0, np.searchsorted(e, lo))
    t0 = profile.zero_edge.t if profile.zero_edge is not None else 0.0
    at_lo = np.where(zero, 1j * np.sqrt(t0), expansion(k_lo))
    t = (x - lo) / (hi - lo)
    return (1 - t) * at_lo + t * expansion(k_hi)


@one_blas_thread
def tabulate_density(
    spec: SigmaSpectrum,
    z_mod: float,
    resolution: int = 2000,
    profile: SupportProfile | None = None,
) -> DensityTable:
    """Gauss-Legendre density table over all support bands.

    Nodes are distributed across bands proportionally to band width; a band
    touching zero gets the geometrically graded segment layout. Each split
    depth solves the pending segments of all bands in one density_batch
    call, seeded from the band edges (_fold_seeds). Raises
    TableTooCoarseError when a node inside a band has no admissible root (a
    gap that the edges missed or, in a band that touches 0, a root too
    ill-conditioned to solve), or when the rho2 mass misses 1 by more than
    1e-3 (a missed band).
    """
    if profile is None:
        profile = find_edges(spec, z_mod)
    bands = profile.bands_ascending
    lo_b, hi_b = np.array(bands).T
    shares = (hi_b - lo_b) / (hi_b - lo_b).sum()
    pending = [
        (bi, t0, t1)
        for bi, (lo, hi) in enumerate(bands)
        for t0, t1 in _band_theta_segments(
            lo == 0.0, max(2, int(np.ceil(resolution * shares[bi] / GL_ORDER)))
        )
    ]
    b, t0, t1 = (np.array(col) for col in zip(*pending))
    parts = []        # the segments accepted at each split depth, as arrays
    for depth in range(SPLIT_MAX_DEPTH + 1):
        scale = 0.5 * (t1 - t0)
        th = (0.5 * (t0 + t1))[:, None] + scale[:, None] * _GL_XI
        lo, hi = lo_b[b, None], hi_b[b, None]
        x = np.maximum(_x_of_theta(lo, hi, th), 1e-300)
        seeds = _fold_seeds(x, np.broadcast_to(b[:, None], x.shape), profile, spec, z_mod)
        rho1, rho2 = density_batch(x, spec, z_mod, seeds)
        if np.any(rho2 == 0):
            k = np.unravel_index(np.argmax(rho2 == 0), x.shape)
            band = (float(lo[k[0], 0]), float(hi[k[0], 0]))
            cause = "the support has a gap that its edges miss"
            if band[0] == 0.0:
                # as w -> 0 the admissible root grows ill-conditioned
                cause = f"either {cause}, or the root near x = 0 is too ill-conditioned to solve"
            raise TableTooCoarseError(
                f"no admissible root at x = {float(x[k])!r} inside the band "
                f"[{band[0]!r}, {band[1]!r}]: {cause}"
            )
        jac = 0.5 * (hi - lo) * np.sin(th)
        vals = rho2 * jac
        # one matrix-vector product per segment: a batched product would
        # sum in another order and move the last bits of the table
        leg = np.array([_legendre_coeffs(v) for v in vals])
        split = (scale * np.sum(np.abs(leg[:, -2:]), axis=1) > SPLIT_TOL) & (
            depth < SPLIT_MAX_DEPTH
        )
        keep = ~split
        mass = scale[keep] * np.array([np.dot(_GL_W, v) for v in vals[keep]])
        parts.append((b[keep], t0[keep], t1[keep], x[keep], rho1[keep], rho2[keep],
                      jac[keep], leg[keep], mass))
        if not split.any():
            break
        tm = 0.5 * (t0 + t1)
        b, t0, t1 = (np.r_[b[split], b[split]], np.r_[t0[split], tm[split]],
                     np.r_[tm[split], t1[split]])
    b, t0, t1, x, rho1, rho2, jac, leg, mass = (np.concatenate(p) for p in zip(*parts))
    # bands ascending, segments ascending in theta within each band
    order = np.lexsort((t0, b))
    b, t0, t1, mass = b[order], t0[order], t1[order], mass[order]
    x, rho1, rho2, jac = (a[order].ravel() for a in (x, rho1, rho2, jac))
    weight = ((0.5 * (t1 - t0))[:, None] * _GL_W).ravel() * jac
    total = float(np.sum(rho2 * weight))
    mass1 = float(np.sum(rho1 * weight))
    cdf = _PiecewiseCdf.build(
        t0, t1, 0.5 * (lo_b + hi_b)[b], 0.5 * (hi_b - lo_b)[b],
        np.r_[0.0, np.cumsum(mass)[:-1]],
        np.ascontiguousarray(leg[order].T),   # (GL_ORDER, segments), C order
    )
    table = DensityTable(
        z_mod=z_mod, bands=tuple(bands), x=x, rho1=rho1, rho2=rho2,
        weight=weight, jac=jac, total_mass=total, mass1=mass1, cdf=cdf,
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
) -> tuple[float, float]:
    """(integral of log(x) rho2(x) dx, quadrature error estimate).

    The log singularity against the x^(-1/2) zero-edge divergence is handled
    by the graded theta layout; the error estimate is the Legendre tail of
    the log-weighted integrand plus the table's own mass-tail estimate.
    """
    if table is None:
        table = tabulate_density(spec, z_mod)
    scale = 0.5 * (table.cdf.t1 - table.cdf.t0)
    integ = (np.log(table.x) * table.rho2 * table.jac).reshape(scale.size, GL_ORDER)
    val = np.sum(scale * (integ @ _GL_W))
    # the last two Legendre coefficients of each segment's integrand
    err = np.sum(scale * np.sum(np.abs(integ @ _LEG_PROJ[:, -2:]), axis=1))
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

    def _interp(self, r, values: np.ndarray, left: float, right: float) -> np.ndarray:
        """Linear interpolation of values over the grid; NaN inside its holes."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.interp(r, self.r, values, left=left, right=right)
        for (_, i1), (j0, _) in zip(self.segments[:-1], self.segments[1:]):
            out[(r > self.r[i1 - 1]) & (r < self.r[j0])] = np.nan
        return out

    def chi_at(self, r) -> np.ndarray:
        """Interpolated chi; NaN inside holes, chi[0] below the grid, 0 above it."""
        return self._interp(r, self.chi, self.chi[0], 0.0)

    def F_at(self, r) -> np.ndarray:
        """Interpolated F; NaN inside holes and outside the grid."""
        return self._interp(r, self.F, np.nan, np.nan)

    def consistency_gap(self) -> float:
        """Max gap between F and the direct integral 2 int rho chi drho per segment."""
        worst = 0.0
        for (i0, i1) in self.segments:
            rs, chi, F = self.r[i0:i1], self.chi[i0:i1], self.F[i0:i1]
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
    params: ModelParams = ModelParams(),
) -> RadialProfile:
    """Radial profile of U, chi and F on [r_lo, r_hi] with grid step h <= 0.01.

    Grid points inside the excluded band |r^2 - 1| < params.z_band_min are
    dropped, which splits the grid into segments. The values come from the
    closed-form radial law, so the spectrum must be normalized (DomainError
    otherwise).
    """
    if not 0 < h <= 0.01:
        raise DomainError(f"radial grid step must be in (0, 0.01], got {h}")
    if not 0 < r_lo < r_hi:
        raise DomainError("need 0 < r_lo < r_hi")
    zb = params.z_band_min
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

def _write_csv(path, header: str, *columns) -> None:
    """The header, then one row per index of the columns with every value in
    %.17g, all lines ended by CRLF as csv.writer ends them.

    The rows are formatted by one % over the column-stacked values; an
    integer column is exact as float64 up to 2**53.
    """
    values = np.column_stack(columns)
    rows = (",".join(["%.17g"] * len(columns)) + "\r\n") * values.shape[0]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(header + "\r\n" + rows % tuple(values.ravel().tolist()))


def write_density_csv(table: DensityTable, path) -> None:
    order = np.argsort(table.x)
    _write_csv(path, "x,rho2c", table.x[order], table.rho2[order])


def write_radial_csv(profile: RadialProfile, path) -> None:
    _write_csv(path, "r,U,chi,F", profile.r, profile.U, profile.chi, profile.F)


def write_quantiles_csv(qt: QuantileTable, path) -> None:
    _write_csv(path, "j,gamma_j", np.arange(1, qt.gamma.size + 1), qt.gamma)
