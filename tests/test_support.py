"""Support bands, edges, critical points, regularity and the zero-edge scale."""

from dataclasses import asdict, replace

import mpmath
import numpy as np
import pytest

import txlaw
from txlaw import support
from txlaw.errors import DomainError, SolverError
from txlaw.oracles import bisect_g_oracle
from conftest import arrowhead_only, bench, bench_law


def mp_zero_edge_root(spec, z, dps=40):
    """Root t > 0 of the zero-edge equation G by bisection in dps-digit arithmetic."""
    with mpmath.workdps(dps):
        z2 = mpmath.mpf(z) ** 2
        terms = [(mpmath.mpf(float(w)), mpmath.mpf(float(si)))
                 for w, si in zip(spec.weights, spec.s)]

        def G(t):
            return mpmath.fsum(w * (t + z2 - si) / ((si + z2) * t + z2 * z2)
                               for w, si in terms)

        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        while G(hi) <= 0:
            hi *= 2
        while hi - lo > hi * mpmath.mpf(10) ** (-dps + 5):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if G(mid) < 0 else (lo, mid)
        return float((lo + hi) / 2)


# ---------------------------------------------------------------------------
# critical points
# ---------------------------------------------------------------------------

def test_critical_points_identity_w10():
    spec = txlaw.SigmaSpectrum(s=(1.0,), l=(100,), N=100, M=100)
    cps = txlaw.critical_points(10.0, spec, 1.5)
    assert cps.occupancy_ok(1)
    # the bounded interval between the negative pole and b_1 holds 2 points
    assert cps.occupancy.get(0, 0) == 2
    assert cps.occupancy[-1] == 1 and cps.occupancy[2] == 1
    assert cps.ordering_ok


def test_critical_value_ordering_sweep():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        raw = np.sort(rng.uniform(0.2, 4.0, n))[::-1]
        spec, _ = txlaw.normalize_spectrum(raw, [8] * n, 8 * n, 8 * n)
        z = float(rng.uniform(0.1, 2.0))
        if abs(z * z - 1) < 0.08:
            z = 1.4
        w = float(rng.uniform(0.05, 12.0))
        cps = txlaw.critical_points(w, spec, z)
        assert cps.ordering_ok
        assert cps.occupancy_ok(spec.n)
        hv = cps.critical_values
        assert np.all(np.abs(hv + np.sqrt(w)) <= cps.value_bound)


def test_critical_points_grid_many_atoms(many_spec):
    # the cleared degree-6n numerator of df/dm lost critical points here
    rng = np.random.default_rng(14)
    raw = np.sort(rng.uniform(0.2, 4.0, 40))[::-1]
    spec40, _ = txlaw.normalize_spectrum(raw, [8] * 40, 320, 320)
    for spec in (many_spec, spec40):
        for w in np.geomspace(0.02, 20.0, 15):
            for z in (0.5, 1.2, 1.5):
                cps = txlaw.critical_points(w, spec, z)
                assert cps.occupancy_ok(spec.n) and cps.ordering_ok
                m = np.array([p[0] for p in cps.points])
                assert np.max(np.abs(txlaw.master_f_all(w, m, spec, z)[1])) <= 1e-10
                assert (support.support_indicator_by_critical_values(w, spec, z)
                        == txlaw.support_indicator(w, spec, z))


def test_indicator_agreement(fig2_spec):
    rng = np.random.default_rng(13)
    points = [(float(rng.uniform(0.05, 12.0)), float(rng.choice([0.5, 1.2, 1.5])))
              for _ in range(25)]
    # far below and far above the random draws
    points += [(4.0, 1.5), (0.001, 1.5), (30.0, 0.5), (1.0, 0.5), (2.0, 0.5)]
    for E, z in points:
        assert (txlaw.support_indicator(E, fig2_spec, z)
                == support.support_indicator_by_critical_values(E, fig2_spec, z))


# ---------------------------------------------------------------------------
# edges
# ---------------------------------------------------------------------------

def test_mp_edges(identity_spec):
    prof = txlaw.find_edges(identity_spec, 0.0)
    assert len(prof.bands) == 1
    lo, hi = prof.bands_ascending[0]
    assert lo == 0.0
    assert hi == pytest.approx(4.0, abs=1e-8)
    assert prof.zero_edge is not None
    assert prof.zero_edge.t == pytest.approx(1.0)


def test_fig2_edges_all_z(fig2_spec):
    for z, expect_zero in ((0.5, True), (0.75, True), (1.2, False), (1.5, False)):
        prof = txlaw.find_edges(fig2_spec, z)
        assert (prof.zero_edge is not None) == expect_zero
        if expect_zero:
            assert prof.lowest_edge == 0.0
        else:
            assert prof.lowest_edge > 0
        for ed in prof.edges:
            assert ed.refined
            f = abs(complex(txlaw.master_f(ed.e, ed.m_c, fig2_spec, z)))
            df = abs(complex(txlaw.master_f_all(ed.e, ed.m_c, fig2_spec, z)[1]))
            assert f <= 1e-10 and df <= 1e-8


def test_fig2_lower_edge_z15(fig2_spec):
    prof = txlaw.find_edges(fig2_spec, 1.5)
    assert prof.lowest_edge >= 0.01
    assert prof.lowest_edge == pytest.approx(bench.gap_edge(bench_law(fig2_spec), 1.5),
                                             rel=1e-8)


def test_dyson_gap_edge_against_40_digit_fold(fig2_spec):
    # sig*^2 of fig2 from a 40-digit solve of the same fold
    for z, want in ((1.2, 0.004936008699097830548485797155),
                    (1.5, 0.067534309701240814278859438763)):
        assert bench.gap_edge(bench_law(fig2_spec), z) == pytest.approx(want, rel=1e-15, abs=0)


def _check_bands_on_grid(spec, z, profile=None, points=32000):
    """The bands of find_edges (or of profile) against a log-uniform x grid
    of [1e-6, 4 (s_1 + |z|^2 + 1)]: every grid point inside a band has
    rho2 > 0 from density_batch seeded from the band's edge folds, so no gap
    is missed, and no other grid point has an admissible root on the
    arrowhead, so no band is. Together they put each edge inside its bracket
    of the grid's support mask, and a band reaching 0 below the grid."""
    from txlaw.density import _fold_seeds

    prof = txlaw.find_edges(spec, z) if profile is None else profile
    bands = np.array(prof.bands_ascending)
    x = np.geomspace(1e-6, 4.0 * (spec.s[0] + z * z + 1.0), points)
    b = np.minimum(np.searchsorted(bands[:, 1], x), len(bands) - 1)
    inside = (bands[b, 0] < x) & (x < bands[b, 1])
    seeds = _fold_seeds(x[inside], b[inside], prof, spec, z)
    rho2 = txlaw.density_batch(x[inside], spec, z, seeds)[1]
    assert np.all(rho2 > 0), (spec.s, z, x[inside][rho2 <= 0])
    ncand = arrowhead_only(x[~inside], spec, z)[1]
    assert np.all(ncand == 0), (spec.s, z, x[~inside][ncand > 0])


@pytest.mark.parametrize("z", [0.5, 1.5])
def test_two_band_spectrum(twoband_spec, z):
    # at 1.5 the bands include the gap (0.97516, 0.97936), which a
    # 32,000-point grid resolves
    prof = txlaw.find_edges(twoband_spec, z)
    assert len(prof.bands) >= 2
    _check_bands_on_grid(twoband_spec, z, prof)
    # bands descending and disjoint
    for (a_lo, _), (_, b_hi) in zip(prof.bands, prof.bands[1:]):
        assert a_lo > b_hi


def test_sixty_spectra_against_dense_mask():
    # n = 2 to 8 values, |z| in [0.05, 0.9] or [1.1, 3]: the m-curve finds
    # every band and gap that a 32,000-point x grid resolves
    rng = np.random.default_rng(60)
    for k in range(60):
        n = int(rng.integers(2, 9))
        spec, _ = txlaw.normalize_spectrum(rng.uniform(0.05, 6.0, n), [10] * n,
                                           10 * n, 10 * n)
        z = float(rng.uniform(0.05, 0.9) if k % 2 else rng.uniform(1.1, 3.0))
        _check_bands_on_grid(spec, z)


@pytest.mark.parametrize("k", range(12))
def test_two_cluster_spectra_against_dense_mask(k):
    # 1 to 4 values near s in [4, 10] holding 10% of the mass and 1 to 4
    # near s in [0.05, 0.3] holding 90%, |z| in [0.05, 0.9] or [1.1, 3]:
    # every draw has a gap, which the sixty spectra above never do
    rng = np.random.default_rng([61, k])
    n1, n2 = rng.integers(1, 5, 2)
    hi = rng.uniform(4.0, 10.0) * (1 + rng.uniform(-0.05, 0.05, n1))
    lo = rng.uniform(0.05, 0.3) * (1 + rng.uniform(-0.05, 0.05, n2))
    l = [10] * n1 + [90] * n2
    spec, _ = txlaw.normalize_spectrum(np.r_[hi, lo], l, sum(l), sum(l))
    z = float(rng.uniform(0.05, 0.9) if k % 2 else rng.uniform(1.1, 3.0))
    prof = txlaw.find_edges(spec, z)
    assert len(prof.bands) >= 2
    _check_bands_on_grid(spec, z, prof)


def test_twoband_cusp_sweep(twoband_spec):
    # a gap opens at a cusp near |z| = 1.407, 2.1e-5 wide at 1.41, which no
    # x scan of 128,000 points resolves. support_indicator witnesses every
    # band and gap at its midpoint, and the support flips at every edge
    counts = []
    for z in np.round(np.arange(1.40, 1.525, 0.01), 2):
        prof = txlaw.find_edges(twoband_spec, float(z))
        bands = prof.bands_ascending
        counts.append(len(bands))
        for lo, hi in bands:
            assert txlaw.support_indicator(0.5 * (lo + hi), twoband_spec, z)
        for (_, top), (bottom, _) in zip(bands, bands[1:]):
            assert not txlaw.support_indicator(0.5 * (top + bottom), twoband_spec, z)
        for ed in prof.edges:
            assert ed.refined
        if z == 1.41:
            (_, top), (bottom, _) = bands[:2]
            assert top == pytest.approx(0.8190882, rel=1e-7)
            assert bottom == pytest.approx(0.8191091, rel=1e-7)
    assert counts == [2] + [3] * 12


@pytest.mark.parametrize("spec_name, z", [
    *((name, z) for name in ("fig2_spec", "many_spec") for z in (0.5, 1.2, 1.5)),
    # not twoband at 1.5, where the oracle's fold solve raises OracleError
    ("twoband_spec", 0.5), ("twoband_spec", 1.2),
])
def test_edges_match_dyson_oracle(request, spec_name, z):
    spec = request.getfixturevalue(spec_name)
    got = txlaw.find_edges(spec, z).bands_ascending
    want = bench.support_bands(bench_law(spec), z)
    assert len(got) == len(want)
    for g, w in zip(np.ravel(got), np.ravel(want)):
        assert (g == 0.0) == (w == 0.0)
        assert g == pytest.approx(w, rel=1e-12, abs=0)


def _count_master_solves(monkeypatch):
    """Record the size and support mask of every solve_master_batch call in support."""
    calls = []
    real = support.solve_master_batch

    def counting(w, spec, z_mod):
        out = real(w, spec, z_mod)
        calls.append((np.asarray(w), out[4] > 0))
        return out

    monkeypatch.setattr(support, "solve_master_batch", counting)
    return calls


def _count_curve_solves(monkeypatch):
    """Record the shape of every batched np.linalg.eigvalsh argument (the
    m-curve's; zero_edge_scale solves one n x n matrix) and the size of every
    edge-Newton batch."""
    curve, newton = [], []
    eigvalsh, refine = np.linalg.eigvalsh, support._refine_edges_newton

    def counting_eigvalsh(a):
        if np.ndim(a) > 2:
            curve.append(np.shape(a))
        return eigvalsh(a)

    def counting_newton(E0, m0, spec, z_mod):
        newton.append(E0.size)
        return refine(E0, m0, spec, z_mod)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(support, "_refine_edges_newton", counting_newton)
    return curve, newton


@pytest.mark.parametrize("spec_name, z, grid", [
    ("fig2_spec", 0.5, 2000), ("fig2_spec", 1.2, 2000), ("fig2_spec", 1.5, 2000),
    ("many_spec", 0.5, 200),
])
def test_find_edges_solves_scan_and_one_probe_batch(request, monkeypatch, spec_name, z, grid):
    # the scan is the m-curve's: one batched eigensolve of the 2 x 200
    # arrowheads at m > 0, mirrored to 4 x 200 points, one edge-Newton batch
    # and one batch of flip probes, with no x scan and no per-step bisection.
    # A table at any resolution adds none of them
    spec = request.getfixturevalue(spec_name)
    calls = _count_master_solves(monkeypatch)
    curve, newton = _count_curve_solves(monkeypatch)
    prof = txlaw.find_edges(spec, z)
    txlaw.tabulate_density(spec, z, grid, prof)
    assert curve == [(2, support.M_POINTS, spec.n + 1, spec.n + 1)]
    assert prof.scan_points == 4 * support.M_POINTS
    assert len(newton) == 1 and newton[0] >= len(prof.edges)
    assert [w.size for w, _ in calls] == [2 * len(prof.edges)]
    assert all(ed.refined for ed in prof.edges)


def _m_curve_eigvals(spec, z_mod, m):
    """A = m (m^2 - |z|^2) and the eigenvalues v of the m-curve's arrowheads at m."""
    from txlaw.linalg import symmetric_arrowhead_eigvals

    z2 = z_mod * z_mod
    s = np.asarray(spec.s, dtype=float)
    A = m * (m * m - z2)
    B = (s + z2) * (m * m)[..., None] - z2 * z2
    return A, symmetric_arrowhead_eigvals(m * A, A[..., None] * np.sqrt(spec.weights * s), B)


def _two_sided_m_curve_starts(spec, z_mod, m_max):
    """_m_curve_starts with every interval between the cuts -m_max, -|z|, 0,
    |z| and m_max eigensolved on its own grid, m < 0 included."""
    z2 = z_mod * z_mod
    cuts = [-m_max, 0.0, m_max]
    if z2 * z2 >= np.finfo(float).tiny:
        cuts = [-m_max, -z_mod, 0.0, z_mod, m_max]
    t = 0.5 * (1 - np.cos(np.pi * (np.arange(support.M_POINTS) + 0.5) / support.M_POINTS))
    m = np.array([lo + (hi - lo) * t for lo, hi in zip(cuts[:-1], cuts[1:])])
    A, v = _m_curve_eigvals(spec, z_mod, m)
    u = v / A[..., None]
    noise = 64 * spec.n * np.finfo(float).eps * np.abs(v).max(axis=-1, keepdims=True)
    clear = np.abs(v) > noise
    du = np.diff(u, axis=1)
    turn = (du[:, :-1] * du[:, 1:] < 0) & (u[:, 1:-1] > 0) & clear[:, 1:-1]
    iv, i, _ = np.nonzero(turn)
    return u[:, 1:-1][turn] ** 2, m[iv, i + 1], m.size


@pytest.mark.parametrize("z", [0.0, 1e-100, 0.5, 1.2, 1.41, 1.5, 2.0])
@pytest.mark.parametrize("spec_name", ["fig2_spec", "twoband_spec", "many_spec", "forty"])
def test_mirrored_m_curve_matches_two_sided(request, spec_name, z):
    # the m < 0 half of the m-curve is the mirror of its m > 0 half: the
    # arrowheads at -m have the eigenvalues of those at m, and the folds are
    # those of eigensolving both halves, bit for bit at m > 0, to rounding
    # at m < 0, where the grids agree only to rounding. In these cases every
    # fold lies at m > 0
    if spec_name == "forty":
        rng = np.random.default_rng(40)
        spec, _ = txlaw.normalize_spectrum(rng.uniform(0.1, 5.0, 40), [25] * 40, 1000, 1000)
    else:
        spec = request.getfixturevalue(spec_name)
    m_max = support.M_MAX_SCALE * np.sqrt(spec.s[0] + z * z + 1.0)
    m = np.linspace(1e-3, 1.0, 50) * m_max
    v = _m_curve_eigvals(spec, z, m)[1]
    np.testing.assert_allclose(_m_curve_eigvals(spec, z, -m)[1], v,
                               rtol=0, atol=1e-13 * np.abs(v).max())
    E0, m0, points = support._m_curve_starts(spec, z, m_max)
    E1, m1, points1 = _two_sided_m_curve_starts(spec, z, m_max)
    assert points == points1 == (4 if z > 1e-50 else 2) * support.M_POINTS
    assert E0.size == E1.size > 0
    assert np.array_equal(m0 > 0, m1 > 0)
    pos = m0 > 0
    assert np.array_equal(E0[pos], E1[pos]) and np.array_equal(m0[pos], m1[pos])
    np.testing.assert_allclose(E0[~pos], E1[~pos], rtol=1e-12)
    np.testing.assert_allclose(m0[~pos], m1[~pos], rtol=1e-12)


@pytest.mark.parametrize("fault", ["none", "outside", "midpoint"])
def test_edge_newton_failure_raises(fig2_spec, monkeypatch, fault):
    # a failed row raises at once; an edge off the fold (half its value, or
    # the middle of its band) fails the flip probes, so the sides of the
    # edges left do not alternate
    prof = txlaw.find_edges(fig2_spec, 1.5)
    middle = {ed.e: 0.5 * sum(band) for band in prof.bands for ed in prof.edges
              if ed.e in band}
    calls = _count_master_solves(monkeypatch)
    refine = support._refine_edges_newton

    def broken(E0, m0, spec, z_mod):
        got = refine(E0, m0, spec, z_mod)
        return [None if fault == "none" else
                (0.5 * g[0] if fault == "outside" else middle[g[0]], *g[1:]) for g in got]

    monkeypatch.setattr(support, "_refine_edges_newton", broken)
    with pytest.raises(txlaw.BracketingError):
        txlaw.find_edges(fig2_spec, 1.5)
    # the probe batch (two points per edge of fig2) is what catches the others
    assert [w.size for w, _ in calls] == ([] if fault == "none" else [4])


def _edge_newton_starts(monkeypatch, specs, z):
    """The (E0, m0, spec) batches that find_edges hands to the edge Newton."""
    starts = []
    real = support._refine_edges_newton

    def recording(E0, m0, spec, z_mod):
        starts.append((E0, m0, spec))
        return real(E0, m0, spec, z_mod)

    monkeypatch.setattr(support, "_refine_edges_newton", recording)
    for spec in specs:
        txlaw.find_edges(spec, z)
    monkeypatch.setattr(support, "_refine_edges_newton", real)
    return starts


@pytest.mark.parametrize("z", [0.5, 1.2, 1.5])
def test_batched_edge_newton_equals_one_edge_calls(fig2_spec, twoband_spec, many_spec,
                                                   monkeypatch, z):
    starts = _edge_newton_starts(monkeypatch, (fig2_spec, twoband_spec, many_spec), z)
    assert max(E0.size for E0, _, _ in starts) >= 3       # some scan batches several edges
    for E0, m0, spec in starts:
        batch = support._refine_edges_newton(E0, m0, spec, z)
        one = [support._refine_edges_newton(E0[k:k + 1], m0[k:k + 1], spec, z)[0]
               for k in range(E0.size)]
        assert None not in batch
        assert repr(batch) == repr(one)                   # bit for bit


def test_singular_jacobian_fails_only_its_edge(many_spec, monkeypatch):
    # a marked start gets df/dm = d2f/dm2 = 0, so its Jacobian is singular and
    # the stacked solve raises: that edge alone gives None
    (E0, m0, _), = _edge_newton_starts(monkeypatch, (many_spec,), 1.5)
    expect = support._refine_edges_newton(E0, m0, many_spec, 1.5)
    marker = 12345.0
    real = support.master_f_all

    def singular_at_marker(w, m, spec, z_mod):
        f, fm, fmm, fu, fum = (np.array(v) for v in real(w, m, spec, z_mod))
        hit = np.asarray(m) == marker
        fm[hit] = fmm[hit] = 0.0
        return f, fm, fmm, fu, fum

    monkeypatch.setattr(support, "master_f_all", singular_at_marker)
    got = support._refine_edges_newton(np.r_[E0[0], E0], np.r_[marker, m0], many_spec, 1.5)
    assert got[0] is None
    assert repr(got[1:]) == repr(expect)


@pytest.mark.parametrize("z", [0.5, 1.2, 1.5])
def test_edges_flip_the_critical_value_indicator(fig2_spec, twoband_spec, many_spec, z):
    # a witness that never calls solve_master_batch: the signs of f's critical values
    for spec in (fig2_spec, twoband_spec, many_spec):
        for ed in txlaw.find_edges(spec, z).edges:
            into = 1.0 if ed.side == "lower" else -1.0
            for sign, expect in ((into, True), (-into, False)):
                x = ed.e * (1 + sign * 1e-6)
                assert support.support_indicator_by_critical_values(x, spec, z) == expect


@pytest.mark.parametrize("z", [1e-100, 1e-80])
def test_tiny_z_edges_are_those_of_zero(fig2_spec, many_spec, z):
    # |z|^4 underflows: the arrowhead takes the |z| = 0 poles
    for spec in (fig2_spec, many_spec):
        at_zero = txlaw.find_edges(spec, 0.0)
        prof = txlaw.find_edges(spec, z)
        assert prof.bands == at_zero.bands
        assert ([ed.pole_distance for ed in prof.edges]
                == [ed.pole_distance for ed in at_zero.edges])


def test_support_indicator_examples(fig2_spec, identity_spec):
    prof = txlaw.find_edges(fig2_spec, 1.5)
    assert not txlaw.support_indicator(prof.top_edge + 1.0, fig2_spec, 1.5)
    assert txlaw.support_indicator(2.0, identity_spec, 0.0)
    assert txlaw.support_indicator(1e-4, fig2_spec, 0.5)


def test_monotone_poles_and_outside_m(fig2_spec):
    # pole locations fall as E grows; off support m_c is real and increasing
    Es = np.linspace(11.5, 20.0, 9)
    prev = None
    prev_m = -np.inf
    for E in Es:
        fac = txlaw.cubic_factorize(float(E), fig2_spec, 1.5)
        locs = np.concatenate([fac.a, fac.b, -fac.c])
        if prev is not None:
            assert np.all(locs <= prev + 1e-12)
        prev = locs
        m, _, _, _, _ = txlaw.solve_master_batch(
            np.array([complex(E, 1e-9)]), fig2_spec, 1.5
        )
        assert abs(m[0].imag) < 1e-7
        assert m[0].real > prev_m
        prev_m = m[0].real


# ---------------------------------------------------------------------------
# regularity
# ---------------------------------------------------------------------------

def test_fig2_edges_regular(fig2_spec):
    prof = txlaw.find_edges(fig2_spec, 1.5)
    for ed in prof.edges:
        rep = txlaw.check_edge_regularity(ed, 1e-3)
        assert rep.regular
        assert rep.neighbor_gap >= 1e-3
    # vacuous threshold
    rep = txlaw.check_edge_regularity(prof.edges[0], 0.0)
    assert rep.regular


@pytest.mark.parametrize("z", [0.5, 1.2, 1.5])
def test_neighbor_gap_to_refined_edges(fig2_spec, z):
    prof = txlaw.find_edges(fig2_spec, z)
    for ed in prof.edges:
        others = [o.e for o in prof.edges if o is not ed]
        others += [0.0] if prof.zero_edge is not None else []
        assert ed.neighbor_gap == min(abs(ed.e - y) for y in others)
    if z == 1.2:
        # one band: both of its edges measure the same pair
        lo, hi = prof.edges
        assert lo.neighbor_gap == hi.neighbor_gap == abs(hi.e - lo.e)


def test_near_merged_edges_flagged(twoband_spec):
    # shrink the atom gap until the interior band gap nearly closes
    lo_ratio, hi_ratio = 1.0, 8.0 / 0.2
    target = None
    for _ in range(40):
        mid = 0.5 * (lo_ratio + hi_ratio)
        spec, _ = txlaw.normalize_spectrum([mid, 1.0], [100, 900], 1000, 1000)
        try:
            prof = txlaw.find_edges(spec, 0.5)
        except txlaw.BracketingError:
            lo_ratio = mid
            continue
        if len(prof.bands) == 2:
            gap = prof.bands[0][0] - prof.bands[1][1]
            if gap < 5e-3:
                target = prof
                break
            hi_ratio = mid
        else:
            lo_ratio = mid
    assert target is not None, "could not tune a nearly-merged spectrum"
    inner = sorted(target.edges, key=lambda e: e.e)[1:3]
    # the two colliding interior edges fail regularity at a loose margin
    reports = [txlaw.check_edge_regularity(ed, 1e-1) for ed in inner]
    assert any(not r.regular or r.neighbor_gap < 1e-1 for r in reports)


def test_bulk_regularity(identity_spec, fig2_spec):
    assert txlaw.check_bulk_regularity((0.0, 4.0), identity_spec, 0.0, 0.2, 0.01)
    with pytest.raises(DomainError):
        txlaw.check_bulk_regularity((0.0, 4.0), identity_spec, 0.0, 2.0, 0.01)
    prof = txlaw.find_edges(fig2_spec, 1.2)
    band = prof.bands_ascending[-1]
    assert txlaw.check_bulk_regularity(band, fig2_spec, 1.2, 0.05, 1e-3)


# ---------------------------------------------------------------------------
# edge exponents and the zero-edge scale
# ---------------------------------------------------------------------------

def test_edge_exponents(identity_spec, fig2_spec):
    prof = txlaw.find_edges(identity_spec, 0.0)
    top = prof.edges[0]
    assert 0.45 <= txlaw.edge_exponent_fit(top, identity_spec, 0.0) <= 0.55
    prof2 = txlaw.find_edges(fig2_spec, 0.5)
    assert prof2.zero_edge is not None
    expo = txlaw.edge_exponent_fit(prof2.zero_edge, fig2_spec, 0.5)
    assert -0.6 <= expo <= -0.4
    low15 = sorted(txlaw.find_edges(fig2_spec, 1.5).edges, key=lambda e: e.e)[0]
    assert 0.4 <= txlaw.edge_exponent_fit(low15, fig2_spec, 1.5) <= 0.6


def test_zero_edge_scale_against_bisection_oracle(fig2_spec):
    spec1 = txlaw.SigmaSpectrum(s=(1.0,), l=(100,), N=100, M=100)
    for spec, z in ((spec1, 0.5), (fig2_spec, 0.5), (fig2_spec, 0.3)):
        t = txlaw.zero_edge_scale(spec, z)
        t_oracle = bisect_g_oracle(spec, z)
        assert t == pytest.approx(t_oracle, abs=1e-10)
        assert 0 < t <= 1 / 0.05


def test_zero_edge_limit_and_expansion(fig2_spec):
    t0 = txlaw.sigma_harmonic_mean(fig2_spec)
    assert txlaw.zero_edge_scale(fig2_spec, 0.01) == pytest.approx(t0, abs=1e-4)
    # first-order coefficient: t ~ t0 + (t0^2 <1/s^2> - 2) |z|^2
    s = np.asarray(fig2_spec.s)
    coef = t0 * t0 * float(np.dot(fig2_spec.weights, 1 / s**2)) - 2.0
    for z in (0.02, 0.05):
        t = txlaw.zero_edge_scale(fig2_spec, z)
        assert t == pytest.approx(t0 + coef * z * z, abs=5 * z**4 + 1e-12)


def test_zero_edge_scale_against_mpmath(fig2_spec, many_spec):
    rng = np.random.default_rng(2024)
    specs = [fig2_spec, many_spec]
    for n in (20, 40):
        raw = np.sort(rng.uniform(0.05, 6.0, n))[::-1]
        specs.append(txlaw.normalize_spectrum(raw, [10] * n, 10 * n, 10 * n)[0])
    for spec in specs:
        for z in (0.001, 0.01, 0.5, 0.95):
            t = txlaw.zero_edge_scale(spec, z)
            t_mp = mp_zero_edge_root(spec, z)
            assert abs(t - t_mp) <= 1e-14 * t_mp, (spec.n, z, t, t_mp)


def _zero_edge_asymptote_error(zero_edge, spec, z):
    """Largest |rho sqrt(x) / amplitude - 1| over x on logspace(-15, -12)."""
    x = np.logspace(-15, -12, 16)
    rho1, rho2 = txlaw.density_batch(x, spec, z)
    return max(np.max(np.abs(rho1 * np.sqrt(x) / zero_edge.rho1_amplitude - 1)),
               np.max(np.abs(rho2 * np.sqrt(x) / zero_edge.rho2_amplitude - 1)))


@pytest.mark.parametrize("z", [0.1, 0.5])
def test_zero_edge_amplitudes(fig2_spec, many_spec, z):
    for spec in (fig2_spec, many_spec):
        ze = txlaw.find_edges(spec, z).zero_edge
        t = ze.t
        assert ze.rho1_amplitude == pytest.approx(np.sqrt(t) / np.pi, rel=1e-15)
        assert ze.rho2_amplitude == pytest.approx(np.sqrt(t) / (np.pi * (t + z * z)), rel=1e-15)
        assert _zero_edge_asymptote_error(ze, spec, z) <= 1e-9
        # the asymptote check alone rejects a wrong constant in the amplitude
        wrong = replace(ze, rho1_amplitude=float(np.sqrt(t) / 3.1))
        assert _zero_edge_asymptote_error(wrong, spec, z) > 1e-3


def test_zero_edge_scale_nonpositive_root():
    # mean 0.5 < |z|^2 = 0.81 puts the root of G at t < 0
    spec = txlaw.SigmaSpectrum(s=(0.5,), l=(100,), N=100, M=100)
    with pytest.raises(SolverError):
        txlaw.zero_edge_scale(spec, 0.9)


def test_zero_edge_scale_domain(fig2_spec):
    with pytest.raises(DomainError):
        txlaw.zero_edge_scale(fig2_spec, 0.999)


def test_scan_metadata_in_profile(fig2_spec):
    # scan_points is the m-curve's size, 200 points on each interval between
    # its cuts, and scan_max its m_max
    for z, intervals in ((1.5, 4), (0.5, 4), (0.0, 2)):
        prof = txlaw.find_edges(fig2_spec, z)
        d = asdict(prof)
        assert d["scan_points"] == intervals * support.M_POINTS
        assert d["scan_max"] == 32.0 * np.sqrt(fig2_spec.s[0] + z * z + 1.0)
    assert len(asdict(txlaw.find_edges(fig2_spec, 1.5))["edges"]) == 2


def _table_batches(monkeypatch, spec, z, resolution=2000):
    """The table and the (x, seeds) of each of its density_batch calls."""
    from txlaw import density

    batches = []
    real = density.density_batch

    def recording(x, spec, z_mod, seeds):
        batches.append((x, seeds))
        return real(x, spec, z_mod, seeds)

    monkeypatch.setattr(density, "density_batch", recording)
    table = txlaw.tabulate_density(spec, z, resolution)
    monkeypatch.setattr(density, "density_batch", real)
    return table, batches


@pytest.mark.parametrize("spec_name", ["fig2_spec", "twoband_spec", "many_spec"])
def test_fold_seeds_certify_the_table_nodes(request, monkeypatch, spec_name):
    # every node of a table gets a seed from its band's edges, with Im m >= 0,
    # and certified Newton from the seeds alone settles at least 99% of them
    spec = request.getfixturevalue(spec_name)
    for z in (0.5, 1.2, 1.5):
        _, batches = _table_batches(monkeypatch, spec, z)
        x = np.concatenate([b[0].ravel() for b in batches])
        seeds = np.concatenate([b[1].ravel() for b in batches])
        assert np.all(seeds.imag >= 0)
        m, resid, ok = txlaw.master._newton_certified(x, seeds, spec, z)
        assert ok.mean() >= 0.99, (z, ok.mean())
        assert np.all(resid[ok] <= 1e-12)


def test_fold_seed_error_shrinks_toward_the_edge(fig2_spec):
    # the fold expansion is m_c + O(sqrt(d)) with an error O(d) at a distance
    # d from the edge: the seed's error over its offset from m_c falls like sqrt(d)
    from txlaw.density import _fold_seeds

    prof = txlaw.find_edges(fig2_spec, 1.5)
    (lo, hi), = prof.bands_ascending
    for e, m_c, into in ((lo, prof.edges[1].m_c, 1.0), (hi, prof.edges[0].m_c, -1.0)):
        d = np.geomspace(1e-10, 1e-4, 7) * e
        x = e + into * d
        seed = _fold_seeds(x, np.zeros(x.size, dtype=int), prof, fig2_spec, 1.5)
        root = txlaw.solve_master_batch(x, fig2_spec, 1.5)[0]
        ratio = np.abs(seed - root) / np.abs(root - m_c)
        assert np.all(ratio < 10 * np.sqrt(d / e)), ratio


def test_merged_bands_raise_table_too_coarse(twoband_spec):
    # a profile whose two lower bands merge across the gap (2.096, 2.168)
    # puts table nodes where no root is admissible: no silent zero density
    prof = txlaw.find_edges(twoband_spec, 2.0)
    (a, _), (_, b), top = prof.bands_ascending
    merged = replace(prof, bands=(top, (a, b)))
    with pytest.raises(txlaw.TableTooCoarseError, match="gap"):
        txlaw.tabulate_density(twoband_spec, 2.0, profile=merged)
    assert txlaw.tabulate_density(twoband_spec, 2.0, profile=prof).total_mass == pytest.approx(1.0)


def test_no_root_in_a_band_at_zero_names_both_causes(many_spec):
    # at |z| = 0 the ten-value spectrum's table has a node near x = 8.6e-17
    # with no root solved: as w -> 0 the root is ill-conditioned (ROADMAP
    # direction 9), not a gap. In a band that touches 0 the message names
    # both causes, in plain floats
    with pytest.raises(txlaw.TableTooCoarseError, match="gap") as err:
        txlaw.tabulate_density(many_spec, 0.0)
    msg = str(err.value)
    assert "ill-conditioned" in msg and "np." not in msg
    assert "inside the band [0.0, 1.24" in msg
