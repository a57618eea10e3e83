"""Support bands, edges, critical points, regularity and the zero-edge scale."""

from dataclasses import asdict, replace

import mpmath
import numpy as np
import pytest

import txlaw
from txlaw import support
from txlaw.errors import DomainError, SolverError
from txlaw.oracles import bisect_g_oracle
from conftest import bench, bench_law


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


@pytest.mark.parametrize("z", [
    0.5,
    pytest.param(1.5, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP direction 10: the default scan misses the gap "
               "(0.97516, 0.97936) that a 32,000-point scan finds")),
])
def test_two_band_spectrum(twoband_spec, z):
    prof = txlaw.find_edges(twoband_spec, z)
    fine = txlaw.find_edges(twoband_spec, z, scan_points=32000)
    assert len(prof.bands) == len(fine.bands) >= 2
    # bands descending and disjoint
    for (a_lo, _), (_, b_hi) in zip(prof.bands, prof.bands[1:]):
        assert a_lo > b_hi


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


@pytest.mark.parametrize("spec_name, z, grid", [
    ("fig2_spec", 0.5, 2000), ("fig2_spec", 1.2, 2000), ("fig2_spec", 1.5, 2000),
    ("many_spec", 0.5, 200),
])
def test_find_edges_solves_scan_and_one_probe_batch(request, monkeypatch, spec_name, z, grid):
    # no per-step bisection: one scan and one batch of flip probes
    spec = request.getfixturevalue(spec_name)
    calls = _count_master_solves(monkeypatch)
    prof = txlaw.find_edges(spec, z, scan_points=grid)
    assert prof.scan_points == grid          # no 4x rescan
    assert [w.size for w, _ in calls] == [grid, 2 * len(prof.edges)]
    assert all(ed.refined for ed in prof.edges)


def _bracket_midpoint(calls, E0):
    """Midpoint of the last scan's bracket that has E0 as its inside end."""
    grid, inside = calls[-1]
    k = int(np.searchsorted(grid, E0))
    j = k + 1 if k + 1 < grid.size and not inside[k + 1] else k - 1
    assert inside[k] and not inside[j]
    return 0.5 * (grid[k] + grid[j])


@pytest.mark.parametrize("fault", ["none", "outside", "midpoint"])
def test_edge_newton_failure_rescans_then_raises(fig2_spec, monkeypatch, fault):
    calls = _count_master_solves(monkeypatch)

    def broken_edge(E0, m0):
        e = {"none": None, "outside": 0.5 * E0,
             "midpoint": _bracket_midpoint(calls, E0)}[fault]
        return None if e is None else (e, m0, 0.0, 0.0, 1.0)

    def broken(E0, m0, spec, z_mod):
        return [broken_edge(e, m) for e, m in zip(E0, m0)]

    monkeypatch.setattr(support, "_refine_edges_newton", broken)
    with pytest.raises(txlaw.BracketingError):
        txlaw.find_edges(fig2_spec, 1.5)
    # the probe batch (two points per edge of fig2) is what catches the midpoint
    scans = [2000, 4, 8000, 4] if fault == "midpoint" else [2000, 8000]
    assert [w.size for w, _ in calls] == scans


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
    prof = txlaw.find_edges(fig2_spec, 1.5)
    d = asdict(prof)
    assert d["scan_points"] >= 2000 and d["scan_max"] > 10
    assert len(d["edges"]) == 2


def test_scan_roots_are_the_scans_certified_roots(fig2_spec):
    # the profile carries the scan's inside points, ascending, with their
    # admissible roots; they are not part of its value
    for z in (0.5, 1.5):
        prof = txlaw.find_edges(fig2_spec, z)
        x, m = prof.scan_roots
        grid = np.exp(np.linspace(np.log(support.GRID_LO), np.log(prof.scan_max),
                                  prof.scan_points))
        m_scan, _, _, _, ncand = txlaw.solve_master_batch(grid, fig2_spec, z)
        assert np.array_equal(x, grid[ncand > 0]) and np.array_equal(m, m_scan[ncand > 0])
        assert np.all(np.diff(x) > 0) and np.all(m.imag > 0)
        assert np.all(np.abs(txlaw.master_f(x, m, fig2_spec, z)) <= 1e-12)
        bare = replace(prof, scan_roots=None)
        assert prof == bare and hash(prof) == hash(bare) and repr(prof) == repr(bare)
        assert repr(prof).endswith(f"scan_max={prof.scan_max!r})")
        assert prof.as_dict() == {k: v for k, v in asdict(prof).items() if k != "scan_roots"}
