"""Support structure of the limiting densities: edges, critical points, regularity.

The support of rho_{1,2} on (0, inf) is a finite union of bands whose
endpoints satisfy f = df/dm = 0 simultaneously. A real x > 0 lies in the
support iff the master equation at w = x has an admissible root. A
log-uniform scan of that test brackets each edge between two grid points;
a two-variable real Newton iteration on (f, df/dm) = 0, started at the
bracket's inside end from the root the scan solved there, finds the edge
(one batch for all of a scan's edges), and one batched probe of the test
confirms that the support flips at it.
For |z| < 1 the lowest band reaches 0 where the density diverges like
x^(-1/2) with a computable scale t.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import BracketingError, DomainError, SolverError
from .linalg import arrowhead_derivative_eigvals, symmetric_eigvals
from .master import _arrowhead, density_batch, master_f_all, solve_master_batch
from .sigma import ModelParams, SigmaSpectrum, sigma_harmonic_mean

EDGE_F_TOL = 1e-10
EDGE_DF_TOL = 1e-8
GRID_LO = 1e-6          # lowest point of the support scan
EDGE_PROBE = 1e-6       # relative offset of the support probes on each side of an edge
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


def support_indicator_by_critical_values(
    w: float, spec: SigmaSpectrum, z_mod: float
) -> bool:
    """Sign test on critical values: w is in the support iff 0 avoids every
    increasing branch image of f."""
    cps = critical_points(w, spec, z_mod)
    pts = sorted(cps.points, key=lambda p: p[0])
    by_idx: dict[int, list[tuple[float, float]]] = {}
    for m, h, idx in pts:
        by_idx.setdefault(idx, []).append((m, h))
    n = spec.n
    for idx, group in by_idx.items():
        group.sort()
        if idx == -n:
            if group[-1][1] > 0:      # local max above zero
                return False
        elif idx == 2 * n:
            if group[0][1] < 0:       # local min below zero
                return False
        elif len(group) == 2:
            h_min, h_max = group[0][1], group[1][1]
            if h_min < 0 < h_max:
                return False
    return True


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

    scan_roots = (x, m) holds the scan points inside the support, ascending,
    with the admissible root the scan certified at each. Tables seed their
    solves from them (density_batch). They are not part of the profile's
    value: repr, equality and as_dict leave them out; None where no scan
    made the profile.
    """

    z_mod: float
    bands: tuple[tuple[float, float], ...]     # descending [e_lo, e_hi]
    edges: tuple[EdgeInfo, ...]
    zero_edge: ZeroEdgeInfo | None
    scan_points: int
    scan_max: float
    scan_roots: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False)

    def as_dict(self) -> dict:
        """The profile as edges.json and bands.json hold it: every field but
        scan_roots, nested dataclasses as dicts."""
        d = asdict(replace(self, scan_roots=None))
        del d["scan_roots"]
        return d

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
    return bool(_inside(np.array([E]), spec, z_mod)[0])


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


def _inside(x: np.ndarray, spec: SigmaSpectrum, z_mod: float):
    """Support mask at real x > 0: the master equation at w = x has an admissible root."""
    return solve_master_batch(x, spec, z_mod)[4] > 0


def _refine_edges_newton(
    E0: np.ndarray, m0: np.ndarray, spec: SigmaSpectrum, z_mod: float
) -> list[tuple[float, float, float, float, float] | None]:
    """Newton on (f, df/dm)(u, m) = 0 over real (u = sqrt(w), m), one row per
    start (E0_k, m0_k), all rows in one batch.

    Row k gives (e, m, |f|, |df/dm|, d2f/dm2), or None when its iteration
    leaves the trust region or its Jacobian degenerates. A row stops once its
    step is below 1e-14 relative. The rows still running share one
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
    ok = np.flatnonzero(~failed)
    f, fm, fmm, _, _ = master_f_all(u[ok] * u[ok], m[ok], spec, z_mod)
    got: list = [None] * u.size
    for j, k in enumerate(ok):
        got[k] = (float(u[k] * u[k]), float(m[k]), abs(complex(f[j])), abs(complex(fm[j])),
                  float(np.real(fmm[j])))
    return got


def find_edges(
    spec: SigmaSpectrum,
    z_mod: float,
    params: ModelParams = ModelParams(),
    scan_points: int = 2000,
) -> SupportProfile:
    """Locate all support bands and edges of the limiting densities.

    Scans the exact support test on scan_points log-uniform points of
    [GRID_LO, 4 (s_1 + |z|^2 + 1)]. Each sign change brackets one edge; the
    two-variable Newton iteration on (f, df/dm) = 0 starts at the bracket's
    inside end, with m the real part of the admissible root the scan solved
    there. All of a scan's edges iterate in one batch (_refine_edges_newton),
    with the bits of one-edge runs. Each edge must land inside its bracket,
    and one batched support test must put e (1 -/+ EDGE_PROBE) inside and
    e (1 +/- EDGE_PROBE) outside the support. Any failure rescans once at 4x
    resolution; a second failure raises BracketingError naming both scan
    sizes. An edge is `refined` when it also meets |f| <= EDGE_F_TOL,
    |df/dm| <= EDGE_DF_TOL.
    params.check_z rejects |z| in the excluded band around the unit circle.
    """
    params.check_z(z_mod)
    spec.require_normalized()
    scan_max = 4.0 * (spec.s[0] + z_mod * z_mod + 1.0)

    try:
        return _find_edges_once(spec, z_mod, scan_points, scan_max)
    except BracketingError:
        pass
    try:
        return _find_edges_once(spec, z_mod, 4 * scan_points, scan_max)
    except BracketingError as exc:
        raise BracketingError(
            f"the support scan failed at {scan_points} and at {4 * scan_points} points "
            f"({exc}); raise the scan resolution (--grid)"
        ) from exc


def _find_edges_once(
    spec: SigmaSpectrum, z_mod: float, scan_points: int, scan_max: float
) -> SupportProfile:
    grid = np.exp(np.linspace(np.log(GRID_LO), np.log(scan_max), scan_points))
    m_scan, _, _, _, ncand = solve_master_batch(grid, spec, z_mod)
    inside = ncand > 0
    if inside[-1]:
        raise BracketingError(f"support reaches the scan ceiling {scan_max:g}")
    if not np.any(inside):
        raise BracketingError("no support found on the scan grid")

    # one edge per sign change of the scan, ascending; Newton starts at the
    # bracket's inside end from the root the scan solved there
    cross = np.nonzero(np.diff(inside.astype(int)))[0]
    start = np.where(inside[cross], cross, cross + 1)
    edges_asc = []
    for k, got in zip(cross, _refine_edges_newton(grid[start], m_scan[start].real, spec, z_mod)):
        side = "upper" if inside[k] else "lower"
        if got is None or not grid[k] <= got[0] <= grid[k + 1]:
            raise BracketingError(f"edge Newton left its bracket [{grid[k]:g}, {grid[k + 1]:g}]")
        edges_asc.append((side, *got))

    # the support must flip at each edge: inside probes first, then outside ones
    e = np.array([ed[1] for ed in edges_asc])
    into = np.array([1.0 if ed[0] == "lower" else -1.0 for ed in edges_asc])
    probe = _inside(np.concatenate([e * (1 + into * EDGE_PROBE), e * (1 - into * EDGE_PROBE)]),
                    spec, z_mod)
    if not (probe[: e.size].all() and not probe[e.size:].any()):
        raise BracketingError("an edge Newton converged off the support crossing")

    # each edge's gap is to the nearest other edge, or to 0 where the lowest
    # band reaches it
    touches_zero = bool(inside[0])
    zero = [0.0] if touches_zero else []
    pos = e.tolist()
    band_edges = zero + pos
    edges = []
    for k, (side, e_k, m_c, fabs, dfabs, d2f) in enumerate(edges_asc):
        pi = _arrowhead(np.array([np.sqrt(e_k)]), spec, z_mod)[2]
        edges.append(EdgeInfo(
            e=e_k, m_c=m_c, d2f=d2f, pole_distance=float(np.min(np.abs(m_c - pi))),
            neighbor_gap=float(min(
                (abs(e_k - y) for y in zero + pos[:k] + pos[k + 1:]), default=np.inf
            )),
            side=side, refined=fabs <= EDGE_F_TOL and dfabs <= EDGE_DF_TOL,
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
        scan_points=scan_points,
        scan_max=scan_max,
        scan_roots=(grid[inside], m_scan[inside]),
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
