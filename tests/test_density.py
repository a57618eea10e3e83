"""Density tables, quantiles, log-potential and the radial profile."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

import txlaw
from txlaw import density
from txlaw.errors import DomainError
from txlaw.oracles import mp_density
from conftest import bench, bench_law


def mp_cdf_oracle(x):
    """Adaptive quadrature of the closed-form density (independent of the table)."""
    return quad(lambda u: mp_density(np.array([u]))[0], 0, x, points=[0], limit=200)[0]


def test_table_mass_and_pointwise_mp(identity_spec):
    table = txlaw.tabulate_density(identity_spec, 0.0)
    assert abs(table.total_mass - 1.0) <= 1e-6
    sel = (table.x > 0.1) & (table.x < 3.9)
    assert np.max(np.abs(table.rho2[sel] - mp_density(table.x[sel]))) <= 1e-6


def test_table_mass_fig2(fig2_spec):
    for z in (0.5, 1.5):
        table = txlaw.tabulate_density(fig2_spec, z)
        assert abs(table.total_mass - 1.0) <= 1e-4
        assert abs(table.mass1 - 1.0) <= 1e-4


def test_cdf_against_oracle(identity_spec):
    table = txlaw.tabulate_density(identity_spec, 0.0)
    for x in (0.3, 1.0, 2.0, 3.5):
        assert table.cdf2(x) == pytest.approx(mp_cdf_oracle(x), abs=2e-7)


def test_quantiles_mp(identity_spec):
    table = txlaw.tabulate_density(identity_spec, 0.0)
    qt = txlaw.quantiles(table, 1000)
    assert np.all(np.diff(qt.gamma) >= 0)
    assert qt.gamma[-1] == pytest.approx(4.0, abs=1e-6)
    # every entry satisfies the defining equation against the oracle CDF
    for j in (1, 10, 250, 500, 750, 990, 1000):
        assert mp_cdf_oracle(qt.gamma[j - 1]) == pytest.approx(j / 1000, abs=1e-6)
    # the median matches an independent root find on the oracle CDF
    med = brentq(lambda x: mp_cdf_oracle(x) - 0.5, 0.1, 3.9, xtol=1e-12)
    qt2 = txlaw.quantiles(table, 2)
    assert qt2.gamma[0] == pytest.approx(med, abs=1e-7)


def test_quantiles_inside_bands(twoband_spec):
    table = txlaw.tabulate_density(twoband_spec, 1.5)
    qt = txlaw.quantiles(table, 500)
    bands = table.bands
    for g in qt.gamma:
        assert any(lo - 1e-9 <= g <= hi + 1e-9 for lo, hi in bands)


def _digest_many_spec(tmp_path):
    """The ten-value raw-d spectrum that scripts/output_digest.py writes."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "output_digest.py"
    mod_spec = importlib.util.spec_from_file_location("output_digest", path)
    mod = importlib.util.module_from_spec(mod_spec)
    mod_spec.loader.exec_module(mod)
    (tmp_path / "many.cfg").write_text(mod.MANY)
    return txlaw.load_sigma_file(tmp_path / "many.cfg")


@pytest.mark.parametrize("spec_name, z", [("digest_many", 0.5), ("twoband_spec", 0.5),
                                          ("twoband_spec", 1.2)])
def test_quantile_at_band_mass_is_the_band_top(spec_name, z, request, tmp_path):
    # the lower band holds mass 0.9 exactly: gamma = inf{x : F(x) >= 0.9} is
    # its top edge, however the table rounds that mass
    spec = (_digest_many_spec(tmp_path) if spec_name == "digest_many"
            else request.getfixturevalue(spec_name))
    table = txlaw.tabulate_density(spec, z)
    (_, top), (start, _) = table.bands
    assert np.all(table.quantile2(0.9 * np.array([1.0, 1 - 1e-14, 1 + 1e-14])) == top)
    assert txlaw.quantiles(table, 200).gamma[179] == top
    assert table.quantile2(0.9 - 1e-9) < top
    assert table.quantile2(0.9 + 1e-9) > start


def test_one_density_batch_call_per_split_depth(twoband_spec, monkeypatch):
    # the split loop runs over the segments of all bands together; at
    # |z| = 1.2 the table splits segments
    xs = []

    def counting(x, *args):
        xs.append(np.array(x))
        return txlaw.density_batch(x, *args)

    monkeypatch.setattr(density, "density_batch", counting)
    table = txlaw.tabulate_density(twoband_spec, 1.2)
    (lo0, hi0), (lo1, hi1) = table.bands
    assert 1 < len(xs) <= density.SPLIT_MAX_DEPTH + 1
    assert np.any((xs[0] >= lo0) & (xs[0] <= hi0))
    assert np.any((xs[0] >= lo1) & (xs[0] <= hi1))


def test_quantile_target_exceeds_mass(identity_spec):
    table = txlaw.tabulate_density(identity_spec, 0.0)
    with pytest.raises(DomainError):
        table.quantile2(1.1)


def test_log_potential_mp_value(identity_spec):
    # oracle: adaptive quadrature of the closed form; the integral is -1
    oracle, _ = quad(
        lambda u: np.log(u) * mp_density(np.array([u]))[0], 0, 4, points=[0], limit=400
    )
    assert oracle == pytest.approx(-1.0, abs=1e-9)
    val, err = txlaw.log_potential(identity_spec, 0.0)
    assert val == pytest.approx(oracle, abs=1e-6)
    assert err <= 1e-6


def test_log_potential_outside_is_2_log_r(identity_spec):
    for r in (2.0, 3.0):
        val, _ = txlaw.log_potential(identity_spec, r)
        assert val == pytest.approx(2 * np.log(r), abs=1e-4)


def test_log_potential_finite_with_zero_edge(fig2_spec):
    val, err = txlaw.log_potential(fig2_spec, 0.5)
    assert np.isfinite(val)
    assert err <= 1e-5


@pytest.mark.parametrize("spec_name", ["fig2_spec", "twoband_spec"])
def test_radial_U_matches_log_potential(spec_name, request):
    # the closed-form U against the engine's own quadrature of log(x) rho2(x)
    # over a master-equation density table, which shares no code with it
    spec = request.getfixturevalue(spec_name)
    radii = (0.3, 0.7, 1.3)
    prof = txlaw.compute_radial_profile(spec, radii[0], radii[-1], h=0.01)
    idx = [int(np.argmin(np.abs(prof.r - r))) for r in radii]
    assert np.allclose(prof.r[idx], radii, rtol=0, atol=1e-12)
    for r, i in zip(radii, idx):
        quad_U, err = txlaw.log_potential(spec, r)
        assert err <= 1e-6
        assert prof.U[i] == pytest.approx(quad_U, abs=1e-7), r


def test_radial_law_exact_on_identity(identity_radial_profile):
    prof = identity_radial_profile
    inside = prof.r < 1
    r = prof.r[inside]
    assert np.max(np.abs(prof.F[inside] - r * r)) <= 1e-14
    assert np.max(np.abs(prof.chi[inside] - 1.0)) <= 1e-14
    assert np.max(np.abs(prof.U[inside] - (r * r - 1.0))) <= 1e-14
    assert np.all(prof.F[~inside] == 1.0) and np.all(prof.chi[~inside] == 0.0)
    assert np.all(np.isfinite(prof.U) & np.isfinite(prof.chi) & np.isfinite(prof.F))


@pytest.mark.parametrize("spec_name",
                         ["identity_spec", "fig2_spec", "many_spec", "twoband_spec"])
def test_radial_law_matches_haagerup_larsen(spec_name, request):
    # the benchmark's oracle: brentq on the S-transform equation and
    # Gauss-Legendre for U, against the engine's Newton and closed-form U
    assert bench.radial_selfcheck() <= 1e-12
    spec = request.getfixturevalue(spec_name)
    prof = txlaw.compute_radial_profile(spec, 0.1, 2.0, h=0.01)
    want = bench.radial_law(bench_law(spec), prof.r)
    for key in ("U", "F", "chi"):
        assert np.max(np.abs(getattr(prof, key) - want[key])) <= 1e-13, key


def test_radial_profile_rejects_unnormalized_spectrum():
    spec = txlaw.SigmaSpectrum(s=(2.0, 1.0), l=(5, 5), N=10, M=10)
    with pytest.raises(DomainError, match="normalize"):
        txlaw.compute_radial_profile(spec, 0.1, 0.5, h=0.01)


@pytest.mark.parametrize("spec_name, z", [("fig2_spec", 1.2), ("twoband_spec", 1.5)])
def test_quantiles_match_brentq_on_cdf(spec_name, z, request):
    spec = request.getfixturevalue(spec_name)
    table = txlaw.tabulate_density(spec, z)
    N = 1000
    qt = txlaw.quantiles(table, N)
    lo, hi = table.bands[0][0], table.bands[-1][1]
    js = np.r_[1, 2, np.random.default_rng(5).choice(np.arange(3, N - 1), 30), N - 1]
    for j in js:
        want = brentq(lambda x: table.cdf2(x) - j / N, lo, hi, xtol=1e-16,
                      rtol=4 * np.finfo(float).eps)
        assert qt.gamma[j - 1] == pytest.approx(want, rel=1e-12, abs=0), j


@pytest.mark.parametrize("spec_name, z", [("fig2_spec", 1.2), ("twoband_spec", 1.5)])
def test_cdf2_array_equals_scalar_calls(spec_name, z, request):
    table = txlaw.tabulate_density(request.getfixturevalue(spec_name), z)
    edges = np.array([x for band in table.bands for x in band])
    xs = np.r_[np.linspace(-0.5, table.bands[-1][1] + 0.5, 701), edges]
    got = table.cdf2(xs)
    want = np.array([table.cdf2(float(x)) for x in xs])
    assert isinstance(table.cdf2(1.0), float)
    assert np.array_equal(got, want)
    assert np.all(np.diff(table.cdf2(np.sort(xs))) >= -1e-15)


def test_radial_profile_identity(identity_radial_profile):
    prof = identity_radial_profile
    inside = (prof.r >= 0.1) & (prof.r <= 0.85)
    outside = (prof.r >= 1.15) & (prof.r <= 2.0)
    assert np.max(np.abs(prof.chi[inside] - 1.0)) <= 0.02
    assert np.max(np.abs(prof.chi[outside])) <= 0.02
    # uniform-disk radial mass: F = r^2 inside, 1 outside
    assert np.max(np.abs(prof.F[inside] - prof.r[inside] ** 2)) <= 0.02
    assert np.max(np.abs(prof.F[outside] - 1.0)) <= 0.02
    # U is a potential: monotone outside the support
    dU_out = prof.dU[outside]
    assert np.all(dU_out[np.isfinite(dU_out)] > 0)
    # the reconstructed density never dips below the numerical floor
    assert np.min(prof.chi[np.isfinite(prof.chi)]) >= -2e-2


def test_radial_consistency_and_mass(identity_radial_profile):
    prof = identity_radial_profile
    assert prof.consistency_gap() <= 3e-2
    # 2 int r chi dr over the resolved range, hole bridged by its endpoints
    r, chi = prof.r, prof.chi
    ok = np.isfinite(chi)
    total = np.trapezoid(2 * r[ok] * chi[ok], r[ok])
    assert total == pytest.approx(1.0, abs=3e-2)


def test_radial_grid_validation(identity_spec):
    with pytest.raises(DomainError):
        txlaw.compute_radial_profile(identity_spec, 0.5, 1.5, h=0.05)
    with pytest.raises(DomainError):
        txlaw.compute_radial_profile(identity_spec, -0.1, 0.5)


def test_radial_hole_is_missing_not_interpolated(identity_radial_profile):
    prof = identity_radial_profile
    # no profile points inside the excluded band
    assert np.all(np.abs(prof.r**2 - 1.0) >= prof.z_band_min - 1e-12)
    # chi_at reports NaN inside the hole
    val = prof.chi_at(np.array([1.0]))[0]
    assert np.isnan(val)


def test_radial_interpolation_contract(fig2_radial_profile):
    prof = fig2_radial_profile
    (_, i1), (j0, _) = prof.segments          # one hole, around r = 1
    a, b = prof.r[i1 - 1], prof.r[j0]
    assert a < 1.0 < b
    for at, stored in ((prof.chi_at, prof.chi), (prof.F_at, prof.F)):
        # grid radii, the hole's bounding ones included, give the stored values
        assert np.array_equal(at(prof.r), stored)
        assert at(a)[0] == stored[i1 - 1] and at(b)[0] == stored[j0]
        # between two grid radii: their linear interpolation
        i = 40
        got = at(0.5 * (prof.r[i] + prof.r[i + 1]))[0]
        assert got == pytest.approx(0.5 * (stored[i] + stored[i + 1]), rel=1e-14)
        # strictly inside the hole: NaN
        inside = np.array([np.nextafter(a, np.inf), 1.0, np.nextafter(b, -np.inf)])
        assert np.all(np.isnan(at(inside)))
    below, above = prof.r[0] - np.array([1e-9, 0.05]), prof.r[-1] + np.array([1e-9, 1.0])
    assert np.all(prof.chi_at(below) == prof.chi[0])
    assert np.all(np.isnan(prof.F_at(below)))
    assert np.all(prof.chi_at(above) == 0.0)
    assert np.all(np.isnan(prof.F_at(above)))


def test_quantile_rigidity_link(identity_spec):
    # sum log gamma_j tracks N * U with at most logarithmic growth: the gap is
    # the right-endpoint bias (1/2) log(gamma_N / gamma_1) + O(1), which for a
    # zero-edge density scales like log N (any fixed power of N beats it)
    table = txlaw.tabulate_density(identity_spec, 0.0)
    U, _ = txlaw.log_potential(identity_spec, 0.0, table=table)
    gaps = {}
    for N in (1000, 2000):
        qt = txlaw.quantiles(table, N)
        gaps[N] = abs(float(np.sum(np.log(qt.gamma))) - N * U)
        assert gaps[N] <= 2.0 * np.log(N) * max(1.0, abs(U))
    # doubling N adds at most ~log 2 per edge term: clearly sub-power growth
    assert gaps[2000] - gaps[1000] <= 3.0 * np.log(2.0)


def test_csv_emitters(tmp_path, identity_spec, identity_radial_profile):
    table = txlaw.tabulate_density(identity_spec, 0.0, resolution=400)
    p = tmp_path / "density.csv"
    txlaw.write_density_csv(table, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "x,rho2c"
    assert len(lines) == table.x.size + 1
    q = tmp_path / "radial.csv"
    txlaw.write_radial_csv(identity_radial_profile, q)
    assert q.read_text().splitlines()[0] == "r,U,chi,F"
    qt = txlaw.quantiles(table, 16)
    s = tmp_path / "quant.csv"
    txlaw.write_quantiles_csv(qt, s)
    body = s.read_text().splitlines()
    assert body[0] == "j,gamma_j"
    assert body[1].startswith("1,")


# values whose .17g text is easy to get wrong: specials, signed zero, the
# smallest subnormal, 17-digit mantissas and integers at the float64 limit
_CSV_VALUES = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e-300, 1e16,
               float(2**53), 0.1, 1 / 3, -2.5, 1.0]


def _reference_csv(header, rows):
    return "".join(line + "\r\n" for line in
                   [header, *(",".join(format(v, ".17g") for v in row) for row in rows)]
                   ).encode()


def test_csv_emitters_byte_exact(tmp_path):
    v = _CSV_VALUES
    n = len(v)
    # density rows come out in ascending x; x holds no nan, so the order is defined
    x = [v[(5 * i + 1) % n] for i in range(n)]
    x = [-7.0 if xi != xi else xi for xi in x]
    txlaw.write_density_csv(SimpleNamespace(x=np.array(x), rho2=np.array(v)),
                            tmp_path / "d.csv")
    assert (tmp_path / "d.csv").read_bytes() == _reference_csv(
        "x,rho2c", sorted(zip(x, v), key=lambda row: row[0]))
    cols = [[v[(i + k) % n] for i in range(n)] for k in range(4)]
    r, U, chi, F = map(np.array, cols)
    txlaw.write_radial_csv(SimpleNamespace(r=r, U=U, chi=chi, F=F), tmp_path / "r.csv")
    assert (tmp_path / "r.csv").read_bytes() == _reference_csv("r,U,chi,F", zip(*cols))
    txlaw.write_quantiles_csv(SimpleNamespace(gamma=np.array(v)), tmp_path / "q.csv")
    assert (tmp_path / "q.csv").read_bytes() == _reference_csv(
        "j,gamma_j", zip(range(1, n + 1), v))
