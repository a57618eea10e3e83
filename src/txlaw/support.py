"""Support structure of the limiting densities: edges, critical points, regularity.

The support of rho_{1,2} on (0, inf) is a finite union of bands whose
endpoints satisfy f = df/dm = 0 simultaneously. A real x > 0 lies in the
support iff the master equation at w = x has an admissible root. The edges
are the folds of the real curve f(u, m) = 0, u = sqrt(x): one batched
symmetric eigensolve samples its branches u_k(m) over real m > 0, and each
interior extremum, at (u, m) or, mirrored, at (-u, -m), starts a
two-variable real Newton iteration on (f, df/dm) = 0 (one batch for all of
them). Every fold is an edge, and the sign of f_u f_mm there names its side.
For |z| < 1 the lowest band reaches 0 where the density diverges like
x^(-1/2) with a computable scale t.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import BracketingError, DomainError, SolverError
from .linalg import (arrowhead_derivative_eigvals, one_blas_thread,
                     symmetric_arrowhead_eigvals, symmetric_eigvals)
from .master import _arrowhead, density_batch, master_f_all, solve_master_batch
from .sigma import ModelParams, SigmaSpectrum, sigma_harmonic_mean

EDGE_F_TOL = 1e-10
EDGE_DF_TOL = 1e-8
M_POINTS = 200          # m-curve points per interval between its cuts
M_MAX_SCALE = 32.0      # the m-curve spans |m| <= M_MAX_SCALE sqrt(s_1 + |z|^2 + 1)
ZERO_EDGE_TAU = 0.05    # the zero edge needs |z|^2 <= 1 - ZERO_EDGE_TAU
EDGE_NEWTON_MAX = 80    # cap on the two-variable edge Newton iteration
BULK_POINTS = 200       # grid points of check_bulk_regularity
FIT_WINDOW = (1e-4, 1e-2)   # distances from the edge fitted by edge_exponent_fit
FIT_POINTS = 20         # log-uniform points over FIT_WINDOW


# ---------------------------------------------------------------------------
# critical points of m -> f(sqrt(w), m) at real w
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CriticalPointSet:
    """Critical points of the master function over the real m axis at real w > 0.

    points is a tuple of (m_location, critical_value, interval_index) with
    intervals indexed -n..2n as the gaps between consecutive poles of f (n
    negative, 2n positive). Occupancy must be exactly 1 in the two unbounded
    intervals and 0 or 2 in every bounded one; critical values weakly descend
    with m.
    """

    w: float
    z_mod: float
    points: tuple[tuple[float, float, int], ...]
    occupancy: dict[int, int]
    ordering_ok: bool
    value_bound: float

    @property
    def critical_values(self) -> np.ndarray:
        """h_k sorted by descending m location."""
        pts = sorted(self.points, key=lambda p: -p[0])
        return np.array([p[1] for p in pts])

    def occupancy_ok(self, n: int) -> bool:
        if self.occupancy.get(-n, 0) != 1 or self.occupancy.get(2 * n, 0) != 1:
            return False
        return all(
            self.occupancy.get(k, 0) in (0, 2) for k in range(-n + 1, 2 * n)
        )


@one_blas_thread
def critical_points(w: float, spec: SigmaSpectrum, z_mod: float) -> CriticalPointSet:
    """All real critical points of f at real w > 0, with occupancy checks.

    They are the real eigenvalues of the Jordan-block linearization of df/dm
    built on f's arrowhead data (arrowhead_derivative_eigvals), polished
    together by Newton steps on df/dm.
    """
    if w <= 0:
        raise DomainError("critical_points needs w > 0")
    if z_mod <= 0 or (z_mod * z_mod) * (z_mod * z_mod) < np.finfo(float).tiny:
        raise DomainError("critical_points needs |z| > 0 with |z|^4 a normal double")
    _, rho, pi = _arrowhead(np.array([np.sqrt(w)]), spec, z_mod)
    roots = arrowhead_derivative_eigvals(rho, pi)[0]
    pi = np.sort(pi[0])
    scale = max(1.0, pi[-1])
    m = roots[np.abs(roots.imag) < 1e-7 * scale].real
    # Newton on df/dm; a point stops once its step is below 1e-14 relative
    active = np.ones(m.shape, dtype=bool)
    for _ in range(40):
        _, fm, fmm, _, _ = master_f_all(w, m, spec, z_mod)
        active &= np.abs(fmm) >= 1e-300
        step = np.where(active, (fm / fmm).real, 0.0)
        m = m - step
        active &= np.abs(step) >= 1e-14 * np.maximum(1.0, np.abs(m))
        if not active.any():
            break
    f, fm = (np.real(v) for v in master_f_all(w, m, spec, z_mod)[:2])
    # drop unconverged points and points on a pole, then duplicates
    keep = (np.abs(fm) <= 1e-7) & (np.min(np.abs(m[:, None] - pi), axis=1) >= 1e-8 * scale)
    order = np.argsort(m[keep])
    m, f = m[keep][order], f[keep][order]
    keep = np.diff(m, prepend=-np.inf) >= 1e-9 * scale
    m, f = m[keep][::-1], f[keep][::-1]
    idx = np.searchsorted(pi, m) - spec.n
    pts = tuple(zip(m.tolist(), f.tolist(), idx.tolist()))
    ordering_ok = bool(np.all(np.diff(f) <= 1e-9 * (1 + np.abs(f[:-1]))))
    occupancy = dict(Counter(idx.tolist()))
    u = np.sqrt(w)
    s1 = spec.s[0]
    z2 = z_mod * z_mod
    bound = (
        2 * (np.sqrt(5 * (s1 + z2 + u * z_mod) / w) + (s1 + z2) / u + 2 * z_mod)
        + 1.0 / u
    )
    cps = CriticalPointSet(
        w=float(w),
        z_mod=z_mod,
        points=pts,
        occupancy=occupancy,
        ordering_ok=ordering_ok,
        value_bound=float(bound),
    )
    if not cps.occupancy_ok(spec.n):
        raise SolverError(
            f"critical-point occupancy violated at w={w}, |z|={z_mod}: {occupancy} "
            "(numerically degenerate spectrum?)"
        )
    return cps


# ---------------------------------------------------------------------------
# edges
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EdgeInfo:
    e: float
    m_c: float
    d2f: float
    pole_distance: float
    neighbor_gap: float
    side: str                 # "lower" or "upper"
    refined: bool


@dataclass(frozen=True)
class RegularityReport:
    edge: EdgeInfo
    epsilon: float
    pole_distance_ok: bool
    curvature_ok: bool
    neighbor_gap: float

    @property
    def regular(self) -> bool:
        return self.pole_distance_ok and self.curvature_ok


@dataclass(frozen=True)
class ZeroEdgeInfo:
    t: float
    rho1_amplitude: float     # rho1 ~ amp / sqrt(x)
    rho2_amplitude: float


@dataclass(frozen=True)
class SupportProfile:
    """Bands and edges of the support at one |z|.

    scan_points is the number of m-curve points that located the edges and
    scan_max the m_max of their intervals.
    """

    z_mod: float
    bands: tuple[tuple[float, float], ...]     # descending [e_lo, e_hi]
    edges: tuple[EdgeInfo, ...]
    zero_edge: ZeroEdgeInfo | None
    scan_points: int
    scan_max: float

    @property
    def bands_ascending(self) -> tuple[tuple[float, float], ...]:
        return tuple(sorted(self.bands))

    @property
    def lowest_edge(self) -> float:
        return self.bands_ascending[0][0]

    @property
    def top_edge(self) -> float:
        return self.bands_ascending[-1][1]


def support_indicator(E: float, spec: SigmaSpectrum, z_mod: float) -> bool:
    """True iff an admissible root exists at real w = E (exact support test)."""
    if E <= 0:
        raise DomainError("support_indicator needs E > 0")
    return bool(solve_master_batch(np.array([E]), spec, z_mod)[4][0] > 0)


def zero_edge_scale(spec: SigmaSpectrum, z_mod: float) -> float:
    """Scale t of the x^(-1/2) density divergence at the zero edge
    (|z|^2 <= 1 - ZERO_EDGE_TAU).

    t is the positive root of
        G(t) = sum_i w_i (t + |z|^2 - s_i) / ((s_i + |z|^2) t + |z|^4),
    w_i = l_i / K. With b_i = s_i + |z|^2, G is the secular function
        G(t) = alpha - sum_i rho_i / (t - pi_i),
    alpha = sum_i w_i / b_i, rho_i = w_i s_i^2 / b_i^2, pi_i = -|z|^4 / b_i < 0,
    increasing on (max pi, inf) from -inf to alpha. Its root there is the
    largest eigenvalue of diag(pi) + u u^T with u = sqrt(rho / alpha) (Golub,
    SIAM Rev. 15, 1973), polished by one Newton step on G. A spectrum with
    mean below |z|^2 can put that root at t <= 0, which raises SolverError.
    As |z| -> 0, t tends to the harmonic mean of the spectrum.
    """
    if z_mod < 0 or z_mod * z_mod > 1 - ZERO_EDGE_TAU:
        raise DomainError(f"zero edge requires |z|^2 <= 1 - {ZERO_EDGE_TAU}")
    if z_mod == 0.0:
        return sigma_harmonic_mean(spec)
    s = np.asarray(spec.s)
    z2 = z_mod * z_mod
    b = s + z2
    alpha = float(np.dot(spec.weights, 1 / b))
    rho = spec.weights * s * s / (b * b)
    pi = -z2 * z2 / b
    u = np.sqrt(rho / alpha)
    t = symmetric_eigvals(np.diag(pi) + np.outer(u, u))[-1]
    t -= (alpha - np.sum(rho / (t - pi))) / np.sum(rho / (t - pi) ** 2)
    if not t > 0:
        raise SolverError(f"zero-edge scale t = {t:.3e} <= 0 (spectrum mean below |z|^2?)")
    return float(t)


def _refine_edges_newton(
    E0: np.ndarray, m0: np.ndarray, spec: SigmaSpectrum, z_mod: float
) -> list[tuple[float, float] | None]:
    """Newton on (f, df/dm)(u, m) = 0 over real (u = sqrt(w), m), one row per
    start (E0_k, m0_k), all rows in one batch.

    Row k gives (e, m), or None when its iteration leaves the trust region
    or its Jacobian degenerates; find_edges certifies the rest. A row stops
    once its step is below 1e-14 relative. The rows still running share one
    master_f_all call and one stacked solve per step; both act row by row
    (the solve is one LAPACK gesv per matrix), so a row's result does not
    depend on the other rows. A singular Jacobian makes the stacked solve
    raise; that step is then solved row by row.
    """
    u = np.sqrt(E0)
    m = np.array(m0, dtype=float)
    cap = 100 * np.maximum(1.0, E0)
    failed = np.zeros(u.shape, dtype=bool)
    active = ~failed
    for _ in range(EDGE_NEWTON_MAX):
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        f, fm, fmm, fu, fum = (np.real(v) for v in
                               master_f_all(u[rows] * u[rows], m[rows], spec, z_mod))
        J = np.array([[fu, fm], [fum, fmm]]).transpose(2, 0, 1)
        rhs = -np.array([f, fm]).T[..., None]
        try:
            step = np.linalg.solve(J, rhs)[..., 0]
        except np.linalg.LinAlgError:
            step = np.full((rows.size, 2), np.nan)     # a nan step fails its row
            for r in range(rows.size):
                try:
                    step[r] = np.linalg.solve(J[r], rhs[r])[:, 0]
                except np.linalg.LinAlgError:
                    pass
        u[rows] += step[:, 0]
        m[rows] += step[:, 1]
        ur = u[rows]
        out = ~np.isfinite(ur) | (ur <= 0) | (ur * ur > cap[rows])
        done = (np.maximum(np.abs(step[:, 0]), np.abs(step[:, 1]))
                < 1e-14 * np.maximum(1.0, np.abs(ur) + np.abs(m[rows])))
        failed[rows[out]] = True
        active[rows[out | done]] = False
    return [None if failed[k] else (float(u[k] * u[k]), float(m[k])) for k in range(u.size)]


def _m_curve_starts(spec: SigmaSpectrum, z_mod: float, m_max: float):
    """(E0, m0, points): the interior extrema with u > 0 of the real branches
    u_k(m) of f(u, m) = 0, sampled on M_POINTS cosine-graded points of each
    m-interval between the cuts -m_max, -|z|, 0, |z| and m_max (points
    counts the m < 0 half too).

    With A = m (m^2 - |z|^2), B_i = (s_i + |z|^2) m^2 - |z|^4 and
    c_i = w_i s_i, f = -u + m + A sum_i c_i / (u A - B_i). At real m with
    A != 0, v = u A turns f A = 0 into the secular equation
    v - m A - A^2 sum_i c_i / (v - B_i) = 0, whose n + 1 real roots are the
    eigenvalues of the symmetric arrowhead [[m A, A sqrt(c)^T],
    [A sqrt(c), diag(B)]]. They interlace with the B_i, so the k-th
    eigenvalue gives a smooth branch u_k = v_k / A on each interval, and
    where du_k/dm = -f_m / f_u changes sign, f = f_m = 0: a fold of the real
    curve, the Silverstein-Choi characterization of the support edges
    (J. Multivariate Anal. 54, 1995). A is odd in m while m A and B are
    even, so the arrowhead at -m is the one at m conjugated by
    diag(-1, 1, ..., 1): the same v, and u changes sign. One eigensolve takes
    the intervals with m > 0, and a turn there at u < 0 is the fold
    (u^2, -m) of the m < 0 half. Where |z|^4 underflows the intervals
    around 0 vanish, and only 0 cuts the line, as master._arrowhead drops
    the poles near +-|z| there.
    """
    z2 = z_mod * z_mod
    cuts = [0.0, m_max]
    if z2 * z2 >= np.finfo(float).tiny:
        cuts = [0.0, z_mod, m_max]
    # Chebyshev points of each interval, clustered toward its ends
    t = 0.5 * (1 - np.cos(np.pi * (np.arange(M_POINTS) + 0.5) / M_POINTS))
    m = np.array([lo + (hi - lo) * t for lo, hi in zip(cuts[:-1], cuts[1:])])
    s = np.asarray(spec.s, dtype=float)
    A = m * (m * m - z2)
    B = (s + z2) * (m * m)[..., None] - z2 * z2
    v = symmetric_arrowhead_eigvals(m * A, A[..., None] * np.sqrt(spec.weights * s), B)
    u = v / A[..., None]      # (intervals, M_POINTS, n + 1)
    # at |z| = 0, u = 0 solves f = 0 at every m: a branch of rounding noise,
    # whose folds are no edges
    noise = 64 * spec.n * np.finfo(float).eps * np.abs(v).max(axis=-1, keepdims=True)
    clear = np.abs(v) > noise
    du = np.diff(u, axis=1)
    turn = (du[:, :-1] * du[:, 1:] < 0) & clear[:, 1:-1]
    iv, i, _ = np.nonzero(turn)
    u = u[:, 1:-1][turn]
    return u ** 2, np.copysign(m[iv, i + 1], u), 2 * m.size


@one_blas_thread
def find_edges(
    spec: SigmaSpectrum,
    z_mod: float,
    params: ModelParams = ModelParams(),
) -> SupportProfile:
    """Locate all support bands and edges of the limiting densities.

    The Newton starts are the folds of the real m-curve (_m_curve_starts)
    over |m| < m_max = 32 sqrt(s_1 + |z|^2 + 1). The two-variable Newton
    iteration on (f, df/dm) = 0 refines all of them in one batch
    (_refine_edges_newton), and one evaluator call certifies each result
    (e, m_c) as a fold: |f| <= EDGE_F_TOL, |df/dm| <= EDGE_DF_TOL and
    f_u f_mm finite and nonzero, with f_u = df/du, u = sqrt(x).

    Every such fold is an edge. At real x > 0 a root is admissible iff
    Im m > 0, and the admissible root is unique (master), so f(sqrt(x), .),
    real on the real axis, has a non-real root iff x is in the support. Near
    the fold, f = f_u (u - sqrt(e)) + f_mm (m - m_c)^2 / 2 to second order:
    two real roots m_c +- sqrt(-2 f_u (u - sqrt(e)) / f_mm) meet there and
    turn into a conjugate pair on the side where f_u f_mm (u - sqrt(e)) > 0.
    That side is inside the support; the other is outside, since a non-real
    pair there would persist across e and make the root on the inside side
    not unique. So an edge is "lower" (inside above) iff f_u f_mm > 0.

    Ascending, the sides must alternate, upper edges last; an upper edge
    first means that the lowest band reaches 0. A failed Newton row, a
    result off a fold, or sides that do not alternate raise BracketingError.
    Every edge is `refined`. params.check_z rejects |z| in the excluded band
    around the unit circle.
    """
    params.check_z(z_mod)
    spec.require_normalized()
    m_max = M_MAX_SCALE * np.sqrt(spec.s[0] + z_mod * z_mod + 1.0)
    E0, m0, points = _m_curve_starts(spec, z_mod, m_max)
    got = _refine_edges_newton(E0, m0, spec, z_mod)
    if not got or None in got:
        raise BracketingError("no m-curve fold, or an edge Newton failed from one")
    e, m_c = np.array(sorted(got)).T
    f, fm, fmm, fu, _ = master_f_all(e, m_c, spec, z_mod)
    d2f = np.real(fmm)
    curvature = np.real(fu) * d2f
    off = ~((np.abs(f) <= EDGE_F_TOL) & (np.abs(fm) <= EDGE_DF_TOL)
            & np.isfinite(curvature) & (curvature != 0))
    if off.any():
        raise BracketingError(f"an edge Newton ended off a fold, at e = {e[off].tolist()}")
    sides = ["lower" if c > 0 else "upper" for c in curvature]
    touches_zero = sides[:1] == ["upper"]
    if sides != ["upper"] * touches_zero + ["lower", "upper"] * (len(sides) // 2):
        raise BracketingError(f"the support edges do not alternate: {sides}")

    # each edge's gap is to the nearest other edge, or to 0 where the lowest
    # band reaches it
    zero = [0.0] if touches_zero else []
    pos = e.tolist()
    band_edges = zero + pos
    poles = _arrowhead(np.sqrt(e), spec, z_mod)[2]
    edges = []
    for k, (e_k, side) in enumerate(zip(pos, sides)):
        edges.append(EdgeInfo(
            e=e_k, m_c=float(m_c[k]), d2f=float(d2f[k]),
            pole_distance=float(np.min(np.abs(m_c[k] - poles[k]))),
            neighbor_gap=float(min(
                (abs(e_k - y) for y in zero + pos[:k] + pos[k + 1:]), default=np.inf
            )),
            side=side, refined=True,
        ))
    bands_asc = [
        (band_edges[i], band_edges[i + 1]) for i in range(0, len(band_edges), 2)
    ]

    zero_edge = None
    if touches_zero:
        t = zero_edge_scale(spec, z_mod)
        zero_edge = ZeroEdgeInfo(
            t=t,
            rho1_amplitude=float(np.sqrt(t) / np.pi),
            rho2_amplitude=float(np.sqrt(t) / (np.pi * (t + z_mod * z_mod))),
        )

    return SupportProfile(
        z_mod=z_mod,
        bands=tuple(sorted(bands_asc, reverse=True)),
        edges=tuple(sorted(edges, key=lambda e: -e.e)),
        zero_edge=zero_edge,
        scan_points=points,
        scan_max=float(m_max),
    )


def check_edge_regularity(edge: EdgeInfo, epsilon: float) -> RegularityReport:
    """Compare the edge's pole distance and curvature against the margin epsilon."""
    return RegularityReport(
        edge=edge,
        epsilon=epsilon,
        pole_distance_ok=bool(edge.pole_distance >= epsilon),
        curvature_ok=bool(abs(edge.d2f) >= epsilon),
        neighbor_gap=edge.neighbor_gap,
    )


def check_bulk_regularity(band: tuple[float, float], spec: SigmaSpectrum, z_mod: float,
                          tau_prime: float, c: float) -> bool:
    """True iff rho1 >= c at BULK_POINTS points of the band shrunk by tau_prime
    at both ends."""
    lo, hi = min(band), max(band)
    if hi - lo <= 2 * tau_prime:
        raise DomainError("band too narrow for the requested shrink")
    x = np.linspace(lo + tau_prime, hi - tau_prime, BULK_POINTS)
    rho1, _ = density_batch(x, spec, z_mod)
    return bool(np.min(rho1) >= c)


def edge_exponent_fit(edge: EdgeInfo | ZeroEdgeInfo, spec: SigmaSpectrum, z_mod: float) -> float:
    """Least-squares slope of log rho1 against log distance from the edge, at
    FIT_POINTS distances spanning FIT_WINDOW.

    Regular nonzero edges give about +1/2; the zero edge gives about -1/2.
    """
    d = np.exp(np.linspace(np.log(FIT_WINDOW[0]), np.log(FIT_WINDOW[1]), FIT_POINTS))
    if isinstance(edge, ZeroEdgeInfo):
        x = d
    else:
        into = 1.0 if edge.side == "lower" else -1.0
        x = edge.e + into * d
        if np.any(x <= 0):
            raise DomainError("fit window leaves the positive axis")
    rho1, _ = density_batch(x, spec, z_mod)
    if np.any(rho1 <= 0):
        raise SolverError("density vanished inside the fit window")
    slope = np.polyfit(np.log(d), np.log(rho1), 1)[0]
    return float(slope)
