"""Master-equation solver: evaluators, factorization, root selection, densities."""

from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import txlaw
from txlaw.errors import DomainError, SolverError, TableTooCoarseError, TxlawError
from txlaw.master import _arrowhead, _cubic_roots, _newton_certified, _solve_arrowhead
from txlaw.sigma import MERGE_RTOL
from txlaw.oracles import mp_density
from conftest import arrowhead_only, bench, bench_law, mp_stieltjes


def _mp_cubic_roots(u, s, z2):
    """Roots of u m^3 - (s + |z|^2) m^2 - u |z|^2 m + |z|^4 (oracle).

    Eigenvalues of the companion matrix by mpmath's QR iteration, with
    enough digits beyond the roots' dynamic range (up to 1e150 at tiny |z|)
    that its absolute error is far below the smallest root.
    """
    dps = 40 + int(-4 * np.log10(min(np.sqrt(z2), 1.0)))
    with mpmath.workdps(dps):
        u, z2 = mpmath.mpmathify(complex(u)), mpmath.mpf(z2)
        C = mpmath.matrix([[(mpmath.mpf(s) + z2) / u, z2, -z2 * z2 / u],
                           [1, 0, 0], [0, 1, 0]])
        return np.array([complex(r) for r in mpmath.eig(C, left=False, right=False)])


def _matched_rel_err(got, want):
    """Max relative error of got against want, each got root matched to the
    nearest want root; the matching must be one to one."""
    err = np.abs(np.asarray(got)[:, None] - want[None, :]) / np.abs(want)[None, :]
    idx = np.argmin(err, axis=1)
    assert sorted(idx) == list(range(want.size)), (got, want)
    return float(np.max(err[np.arange(idx.size), idx]))


# ---------------------------------------------------------------------------
# evaluators
# ---------------------------------------------------------------------------

def test_f_single_atom_z0_closed_form(identity_spec):
    # |z| = 0, one atom: f = -sqrt(w) + m + m / (sqrt(w) m - 1)
    rng = np.random.default_rng(1)
    for _ in range(20):
        w = complex(rng.uniform(0.2, 5), rng.uniform(0.05, 2))
        m = complex(rng.standard_normal(), rng.uniform(0.1, 2))
        u = complex(txlaw.sqrt_upper(w))
        want = -u + m + m / (u * m - 1)
        got = complex(txlaw.master_f(w, m, identity_spec, 0.0))
        assert got == pytest.approx(want, rel=1e-12)


def test_f_zero_at_solution_and_large_off_solution(fig2_spec):
    sol = txlaw.solve_master(10 + 0.01j, fig2_spec, 1.5)
    assert abs(complex(txlaw.master_f(10 + 0.01j, sol.m_c, fig2_spec, 1.5))) <= 1e-10
    assert abs(complex(txlaw.master_f(10 + 0.01j, sol.m_c + 0.1, fig2_spec, 1.5))) > 1e-3


def _check_derivatives_by_finite_differences(spec):
    rng = np.random.default_rng(2)
    h = 1e-6
    checked = 0
    while checked < 100:
        w = complex(rng.uniform(0.3, 8), rng.uniform(0.2, 2))
        m = complex(rng.uniform(-3, 3), rng.uniform(0.2, 2))
        z = rng.uniform(0.0, 2.0)
        f, fm, fmm, fu, fum = txlaw.master_f_all(w, m, spec, z)
        if min(abs(complex(fm)), abs(complex(fu))) < 1e-3:
            continue
        fp = complex(txlaw.master_f(w, m + h, spec, z))
        fmn = complex(txlaw.master_f(w, m - h, spec, z))
        assert (fp - fmn) / (2 * h) == pytest.approx(complex(fm), rel=1e-5)
        u = complex(txlaw.sqrt_upper(w))
        fpu = complex(txlaw.master_f((u + h) ** 2, m, spec, z))
        fmu = complex(txlaw.master_f((u - h) ** 2, m, spec, z))
        assert (fpu - fmu) / (2 * h) == pytest.approx(complex(fu), rel=1e-5)
        checked += 1


def test_derivatives_match_finite_differences(fig2_spec):
    _check_derivatives_by_finite_differences(fig2_spec)


def test_derivatives_match_finite_differences_many_atoms(many_spec):
    _check_derivatives_by_finite_differences(many_spec)


def test_evaluators_broadcast_like_scalar_calls(many_spec):
    # w of shape (B, 1) against m of shape (B, k), as in the multi-root path
    # of solve_master_batch: every entry equals its scalar call bit for bit
    rng = np.random.default_rng(12)
    B, k = 7, 4
    w = (rng.uniform(0.1, 10, B) + 1j * rng.uniform(0, 1, B))[:, None]
    m = rng.standard_normal((B, k)) + 1j * rng.standard_normal((B, k))
    for z in (0.0, 0.5, 1.5):
        f = txlaw.master_f(w, m, many_spec, z)
        out = txlaw.master_f_all(w, m, many_spec, z)
        assert f.shape == (B, k) and all(v.shape == (B, k) for v in out)
        for i in range(B):
            for j in range(k):
                wij, mij = complex(w[i, 0]), complex(m[i, j])
                assert complex(txlaw.master_f(wij, mij, many_spec, z)) == f[i, j]
                one = txlaw.master_f_all(wij, mij, many_spec, z)
                assert all(complex(a) == b[i, j] for a, b in zip(one, out))
        assert txlaw.master_f(w[:0], m[:0], many_spec, z).shape == (0, k)
        assert all(v.shape == (0, k) for v in txlaw.master_f_all(w[:0], m[:0], many_spec, z))


def test_m2_from_m1_direct_arithmetic():
    # m1 = i, w = i, z = 0: 1/m2 = -i (1 + i) = 1 - i, so m2 = (1 + i)/2
    got = complex(txlaw.m2_from_m1(1j, 1j, 0.0))
    assert got == pytest.approx((1 + 1j) / 2)


@settings(max_examples=80, deadline=None)
@given(
    st.floats(min_value=-2, max_value=2),
    st.floats(min_value=0.01, max_value=3),
    st.floats(min_value=-4, max_value=6),
    st.floats(min_value=0.01, max_value=4),
    st.floats(min_value=0, max_value=2),
)
def test_m2_half_plane_preservation(re_m1, im_m1, re_w, im_w, z):
    m1 = complex(re_m1, im_m1)
    w = complex(re_w, im_w)
    if (w * m1).imag <= 0:
        return
    m2 = complex(txlaw.m2_from_m1(m1, w, z))
    assert m2.imag > 0
    assert (w * m2).imag > -1e-15


def test_solution_half_plane_and_consistency(fig2_spec):
    rng = np.random.default_rng(3)
    for _ in range(40):
        w = complex(rng.uniform(0.05, 12), rng.uniform(1e-4, 2))
        z = rng.choice([0.0, 0.5, 1.2, 1.5, 2.0])
        sol = txlaw.solve_master(w, fig2_spec, float(z))
        assert sol.m1c.imag > 0
        assert (w * sol.m1c).imag > 0
        assert sol.m2c.imag > 0
        assert (w * sol.m2c).imag > 0
        assert sol.m_c == pytest.approx(complex(txlaw.sqrt_upper(w)) * (1 + sol.m1c))
        assert sol.m2c == complex(txlaw.m2_from_m1(sol.m1c, w, float(z)))  # bitwise
        assert sol.residual <= 1e-10


def test_uniqueness_above_threshold(fig2_spec):
    rng = np.random.default_rng(4)
    for _ in range(60):
        w = complex(rng.uniform(0.05, 12), rng.uniform(1e-5, 2.0))
        sol = txlaw.solve_master(w, fig2_spec, 1.5)
        if w.imag >= 1e-6:
            assert sol.n_candidate_roots == 1


def test_large_eta_scale(identity_spec):
    # far in the upper half-plane both transforms behave like 1/eta
    w = 50j
    sol = txlaw.solve_master(w, identity_spec, 1.5)
    for v in (sol.m1c, sol.m2c):
        assert abs(v) < 4 / 50 and abs(v) > 1 / (4 * 50)


def test_prop_bound_scale(fig2_spec):
    # |m_{1,2}| = O(|w|^{-1/2}) on compact sets
    rng = np.random.default_rng(5)
    for _ in range(40):
        w = complex(rng.uniform(1e-4, 10), rng.uniform(1e-3, 2))
        sol = txlaw.solve_master(w, fig2_spec, 0.5)
        cap = 10.0 / np.sqrt(abs(w))
        assert abs(sol.m1c) <= cap and abs(sol.m2c) <= cap


# ---------------------------------------------------------------------------
# cubic factorization and the partial-fraction identity
# ---------------------------------------------------------------------------

# three atoms whose s span a ratio of 4e4
_WIDE_SPEC, _ = txlaw.normalize_spectrum([40.0, 1.0, 1e-3], [1, 1, 1], 3, 3)


def test_cubic_roots_against_mpmath():
    # x over 23 decades and near |z|^2, where two roots nearly meet for
    # s_i << |z|^2; |z| down to 1e-70 (|z|^4 still a normal double); real w
    # and w above the axis by 1e-300 up to O(x); against mpmath roots
    s = np.asarray(_WIDE_SPEC.s)
    worst = 0.0
    for z in (1e-70, 1.63e-66, 1e-20, 1e-3, 0.5, 1.2, 3.0):
        xs = np.r_[np.logspace(-19, 4, 24), z * z * (1 + np.linspace(-0.02, 0.02, 5))]
        for w in (xs, xs + 1e-300j, xs * (1 + 0.3j), xs * (-1 + 0.3j)):
            u = np.sqrt(w) if np.isrealobj(w) else txlaw.sqrt_upper(w)
            got = _cubic_roots(u, s, z * z)
            assert np.isrealobj(got) == np.isrealobj(w)
            for k, uk in enumerate(u):
                for i, si in enumerate(s):
                    want = _mp_cubic_roots(uk, si, z * z)
                    worst = max(worst, _matched_rel_err(got[k, i], want))
    assert worst <= 4e-15


def test_cubic_factorize_against_mpmath():
    s = np.asarray(_WIDE_SPEC.s)
    for z in (1e-70, 1e-20, 0.5, 3.0):
        for x in np.logspace(-19, 4, 12):
            fac = txlaw.cubic_factorize(x, _WIDE_SPEC, z)
            for i, si in enumerate(s):
                want = np.sort(_mp_cubic_roots(np.sqrt(x), si, z * z).real)
                got = np.array([-fac.c[i], fac.b[i], fac.a[i]])
                assert np.max(np.abs(got - want) / np.abs(want)) <= 4e-15, (z, x, i)


def _mp_residues(u, s, c, z2):
    """(root, residue) pairs of f at the three poles of one atom (oracle):
    c m (m^2 - |z|^2) / p'(m) at 60-digit roots, rounded only at the end."""
    with mpmath.workdps(60):
        u, s, z2 = (mpmath.mpf(v) for v in (u, s, z2))
        C = mpmath.matrix([[(s + z2) / u, z2, -z2 * z2 / u], [1, 0, 0], [0, 1, 0]])
        roots = [mpmath.re(r) for r in mpmath.eig(C, left=False, right=False)]
        return [(float(r), float(c * r * (r * r - z2) / (3 * u * r * r - 2 * (s + z2) * r - u * z2)))
                for r in roots]


def test_arrowhead_residues_against_mpmath():
    # near x = |z|^2 two roots of the small atom's cubic nearly meet and its
    # third sits near -|z|, where m^2 - |z|^2 cancels; storing a root in
    # double precision alone moves a residue there by up to 3.4e-14
    s = np.asarray(_WIDE_SPEC.s)
    c = _WIDE_SPEC.weights * s
    worst = 0.0
    for z in (0.5, 1.2, 3.0):
        for x in np.r_[z * z * (1 + np.linspace(-0.02, 0.02, 9)), np.logspace(-6, 3, 10)]:
            _, rho, pi = _arrowhead(np.array([np.sqrt(x)]), _WIDE_SPEC, z)
            rho, pi = rho.reshape(3, 3), pi.reshape(3, 3)
            for i in range(3):
                for root, want in _mp_residues(np.sqrt(x), s[i], c[i], z * z):
                    k = np.argmin(np.abs(pi[i] - root))
                    worst = max(worst, abs(rho[i, k] - want) / abs(want))
    assert worst <= 1e-13


def test_cubic_factorize_tiny_z_small_roots():
    # |z|^4 a normal double, but the two small roots near 1e-131 apart from
    # the dominant one by 137 decades: a companion eigensolve put both at
    # +-7.9e-127 for every atom, and the ordering check passed
    x, z = 2.83e-12, 1.63e-66
    fac = txlaw.cubic_factorize(x, _WIDE_SPEC, z)
    for i, si in enumerate(_WIDE_SPEC.s):
        want = np.sort(_mp_cubic_roots(np.sqrt(x), si, z * z).real)
        got = np.array([-fac.c[i], fac.b[i], fac.a[i]])
        assert np.max(np.abs(got - want) / np.abs(want)) <= 4e-15
    assert np.all(np.diff(fac.b) > 0) and np.all(np.diff(fac.c) > 0)


def test_cubic_roots_batch_invariant(many_spec):
    # a point alone gives the same bits as inside a 2,000-point batch
    s = np.asarray(many_spec.s)
    x = np.logspace(-19, 4, 2000)
    for u in (np.sqrt(x), txlaw.sqrt_upper(x * (1 + 0.3j))):
        batch = _cubic_roots(u, s, 1.2**2)
        alone = np.concatenate([_cubic_roots(u[k:k + 1], s, 1.2**2) for k in range(u.size)])
        assert np.array_equal(alone, batch)


def test_cubic_roots_rejects_lost_real_roots():
    # u = 1, |z| = 1, s = -1: p = m^3 - m + 1 has one real root
    with pytest.raises(SolverError, match="three real roots"):
        _cubic_roots(np.array([1.0]), np.array([-1.0]), 1.0)


def _counting_eigvals(monkeypatch):
    """Record the shape of every np.linalg.eigvals argument."""
    calls = []
    eigvals = np.linalg.eigvals

    def counting(a):
        calls.append(a.shape)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    return calls


def _scan_grid(spec, z, points=2000):
    """A log-uniform x grid of [1e-6, 4 (s_1 + |z|^2 + 1)], across every band
    and the gaps around them."""
    top = 4.0 * (spec.s[0] + z * z + 1.0)
    return np.exp(np.linspace(np.log(1e-6), np.log(top), points))


def test_one_eigensolve_per_complex_master_solve(fig2_spec, monkeypatch):
    # the per-atom cubics are solved in closed form; the arrowhead is the
    # only eigensolve, one call over all rows
    calls = _counting_eigvals(monkeypatch)
    w = np.linspace(0.05, 12.0, 50) + 0.3j
    _, _, _, _, ncand = txlaw.solve_master_batch(w, fig2_spec, 1.2)
    assert calls == [(50, 3 * fig2_spec.n + 1, 3 * fig2_spec.n + 1)]
    assert np.all(ncand == 1)


def test_cubic_bounds_random_sweep():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        raw = np.sort(rng.uniform(0.2, 4.0, n))[::-1]
        spec, _ = txlaw.normalize_spectrum(raw, [10] * n, 10 * n, 10 * n)
        z = float(rng.uniform(0.1, 2.0))
        w = float(rng.uniform(0.05, 12.0))
        fac = txlaw.cubic_factorize(w, spec, z)
        u, z2 = np.sqrt(w), z * z
        s = np.asarray(spec.s)
        assert np.all(fac.a > np.maximum(z, (s + z2) / u) - 1e-12)
        assert np.all(fac.a < (s + z2) / u + z + 1e-12)
        assert np.all(np.diff(fac.a) < 0)
        assert np.all(fac.b > 0) and np.all(fac.b < min(z, z2 / u) + 1e-12)
        assert np.all(np.diff(fac.b) > 0)
        assert np.all(fac.c < z + 1e-12) and np.all(np.diff(fac.c) > 0)
        low_c = (-(s + z2) + np.sqrt((s + z2) ** 2 + 4 * w * z2)) / (2 * u)
        assert np.all(fac.c > low_c - 1e-12)
        cap = (s + z2 + u * z) / w
        assert np.all((fac.A > 0) & (fac.A <= 2 * cap + 1e-12))
        assert np.all((fac.B > 0) & (fac.B <= 2 * cap + 1e-12))
        assert np.all((fac.C > 0) & (fac.C <= cap + 1e-12))


def _check_partial_fraction_identity(spec):
    # f = m - alpha + sum_k rho_k / (m - pi_k) with the arrowhead data, and the
    # factorization's A, B, C are those residues divided by c_i = w_i s_i
    c = spec.weights * np.asarray(spec.s)
    rng = np.random.default_rng(7)
    for w, z in ((4.0, 1.5), (0.3, 0.5), (9.0, 0.75)):
        alpha, rho, poles = (v[0] for v in _arrowhead(np.array([np.sqrt(w)]), spec, z))
        fac = txlaw.cubic_factorize(w, spec, z)
        checked = 0
        while checked < 50:
            m = rng.uniform(-5, 8)
            if np.min(np.abs(m - poles)) < 1e-3:
                continue
            direct = complex(txlaw.master_f(w, m, spec, z))
            pfd = m - alpha + np.sum(rho / (m - poles))
            fac_pfd = m - alpha + np.sum(
                c * (fac.A / (m - fac.a) + fac.B / (m - fac.b) + fac.C / (m + fac.c)))
            assert pfd == pytest.approx(direct, rel=1e-10, abs=1e-12)
            assert fac_pfd == pytest.approx(direct, rel=1e-10, abs=1e-12)
            checked += 1


def test_partial_fraction_identity(fig2_spec):
    _check_partial_fraction_identity(fig2_spec)


def test_partial_fraction_identity_many_atoms(many_spec):
    _check_partial_fraction_identity(many_spec)


def test_cubic_rejects_degenerate():
    spec = txlaw.SigmaSpectrum(s=(1.0,), l=(10,), N=10, M=10)
    with pytest.raises(DomainError):
        txlaw.cubic_factorize(10.0, spec, 0.0)
    with pytest.raises(DomainError):
        txlaw.cubic_factorize(10.0, spec, 1e-100)     # |z|^4 underflows
    with pytest.raises(DomainError):
        txlaw.cubic_factorize(-1.0, spec, 1.0)


# ---------------------------------------------------------------------------
# polynomial construction
# ---------------------------------------------------------------------------

def build_master_polynomial(w, spec, z_mod):
    """Coefficients (descending) of f times the product of the per-atom cubics.

    Degree 3n + 1; for |z| = 0 the cubics degenerate and the degree drops to
    n + 1. A small-n oracle for the arrowhead solver.
    """
    u = complex(txlaw.sqrt_upper(w))
    z2 = z_mod * z_mod
    if z_mod == 0.0:
        cubs = [np.array([u, -si]) for si in spec.s]
        num = np.array([1.0, 0.0])                      # m
    else:
        cubs = [np.array([u, -(si + z2), -u * z2, z2 * z2]) for si in spec.s]
        num = np.array([1.0, 0.0, -z2, 0.0])            # m^3 - |z|^2 m
    P = np.array([1.0, -u])
    for cub in cubs:
        P = np.convolve(P, cub)
    for i, (si, wi) in enumerate(zip(spec.s, spec.weights)):
        term = wi * si * num
        for j, cub in enumerate(cubs):
            if j != i:
                term = np.convolve(term, cub)
        P[P.size - term.size :] += term
    return P


def test_polynomial_degree_and_identity(identity_spec, fig2_spec):
    P1 = build_master_polynomial(2.0 + 0.5j, identity_spec, 1.5)
    assert P1.shape == (5,)          # degree 4 = 3 n + 1 for n = 1
    P2 = build_master_polynomial(2.0 + 0.5j, fig2_spec, 1.5)
    assert P2.shape == (8,)          # degree 7 for n = 2
    rng = np.random.default_rng(8)
    w, z = 2.0 + 0.5j, 1.5
    u = complex(txlaw.sqrt_upper(w))
    z2 = z * z
    for _ in range(20):
        m = complex(rng.standard_normal(), rng.standard_normal())
        prod = 1.0
        for si in fig2_spec.s:
            prod *= u * m**3 - (si + z2) * m**2 - u * z2 * m + z2 * z2
        want = complex(txlaw.master_f(w, m, fig2_spec, z)) * prod
        got = complex(np.polyval(P2, m))
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_polynomial_real_roots_off_support(fig2_spec):
    # below the lowest band at |z| = 1.5 every root is real
    assert not txlaw.support_indicator(0.02, fig2_spec, 1.5)
    P = build_master_polynomial(0.02, fig2_spec, 1.5)
    roots = txlaw.companion_roots(P)
    assert np.max(np.abs(roots.imag)) < 1e-8 * np.max(np.abs(roots))
    # inside the band a conjugate pair appears
    assert txlaw.support_indicator(4.0, fig2_spec, 1.5)
    P_in = build_master_polynomial(4.0, fig2_spec, 1.5)
    roots_in = txlaw.companion_roots(P_in)
    assert np.max(roots_in.imag) > 1e-3


# ---------------------------------------------------------------------------
# the arrowhead root finder
# ---------------------------------------------------------------------------

def test_arrowhead_matches_polynomial_oracle(identity_spec, fig2_spec):
    # every root of the cleared polynomial is an arrowhead root
    for spec in (identity_spec, fig2_spec):
        for w, z in ((2.0 + 0.5j, 1.5), (0.3 + 0.01j, 0.5), (4.0 + 0j, 1.2), (1.5 + 0.2j, 0.0)):
            want = txlaw.companion_roots(build_master_polynomial(w, spec, z))
            u = np.atleast_1d(txlaw.sqrt_upper(w))
            got = txlaw.arrowhead_eigvals(*_arrowhead(u, spec, z))[0]
            assert got.size == want.size
            scale = np.max(np.abs(want))
            for r in want:
                assert np.min(np.abs(got - r)) <= 1e-9 * scale


def test_unique_admissible_root_many_atoms(many_spec):
    rng = np.random.default_rng(11)
    B = 2000
    w = rng.uniform(0.01, 20.0, B) + 1j * 10.0 ** rng.uniform(-6, 0, B)
    for k, z in enumerate((0.5, 1.2, 1.5)):
        _, _, _, resid, ncand = txlaw.solve_master_batch(w[k::3], many_spec, z)
        assert np.all(ncand == 1)
        assert np.max(resid) <= 1e-12


# ---------------------------------------------------------------------------
# real-axis batches: the arrowhead, or certified Newton from seeds
# ---------------------------------------------------------------------------

def _check_one_admissible_root(spec, z, points=2000):
    """At most one admissible root of the arrowhead at each point of the scan."""
    ncand = arrowhead_only(_scan_grid(spec, z, points), spec, z)[1]
    assert ncand.max() <= 1, (z, np.nonzero(ncand > 1))


@pytest.mark.parametrize("name", ["identity_spec", "fig2_spec", "many_spec"])
def test_arrowhead_admits_at_most_one_root(name, request):
    # the admissible root at real x is unique, so a certified Newton root
    # is the arrowhead's
    spec = request.getfixturevalue(name)
    for z in (0.5, 1.2, 1.5):
        _check_one_admissible_root(spec, z)


def test_arrowhead_admits_at_most_one_root_twoband(twoband_spec):
    # the |z| sweep where a cusp opens a narrow gap near |z| = 1.41
    for z in np.linspace(1.30, 1.80, 26):
        _check_one_admissible_root(twoband_spec, float(z))


@pytest.mark.parametrize("name", ["fig2_spec", "many_spec"])
def test_arrowhead_admits_at_most_one_root_fine_scan(name, request):
    # 32,000 points: 16 times as many points near the edges
    spec = request.getfixturevalue(name)
    for z in (0.5, 1.2, 1.5):
        _check_one_admissible_root(spec, z, 32000)


def test_arrowhead_admits_at_most_one_root_forty_values():
    # 120 poles, 121 roots per point
    rng = np.random.default_rng(40)
    spec, _ = txlaw.normalize_spectrum(rng.uniform(0.1, 5.0, 40), [25] * 40, 1000, 1000)
    for z in (0.5, 1.5):
        _check_one_admissible_root(spec, z)


def test_near_real_newton_root_falls_back(fig2_spec):
    # the root just inside fig2's top edge at |z| = 0.488 seeds points just
    # outside it: Newton from it settles on real roots with Im m at rounding
    # level, admissible by sign, with a tiny residual and forward error; only
    # the non-real margin rejects them, and the arrowhead finds no root there
    z = 0.488
    top = txlaw.find_edges(fig2_spec, z).top_edge
    near = top * (1 + np.logspace(-11, -5, 15))
    m, _, _, _, ncand = txlaw.solve_master_batch(np.array([top * (1 - 1e-3)]), fig2_spec, z)
    assert ncand[0] == 1
    seeds = np.full(near.shape, m[0])
    mn, _, ok = _newton_certified(near, seeds, fig2_spec, z)
    f, fm = (np.abs(v) for v in txlaw.master_f_all(near, mn, fig2_spec, z)[:2])
    fooled = txlaw.master._admissible(mn, near) & (f <= 1e-12) & (f / fm <= 1e-13 * np.abs(mn))
    assert not ok.any() and fooled.any()
    assert np.all(mn[fooled].imag < 1e-15)
    assert np.all(txlaw.solve_master_batch(near, fig2_spec, z, seeds)[4] == 0)


def _check_against_mpmath(x, m, base, spec, z, x_eps=0):
    """The 20 of the roots m at x that moved most, relative, from base are
    within 1e-12 relative of 50-digit mpmath roots, plus the move of the
    root when x moves by x_eps eps x: near an edge, where dm/dx grows like
    1 / sqrt(e - x), that is the error of any backward-stable solve."""
    inside = np.nonzero(np.isfinite(base))[0]
    moved = inside[np.argsort(-np.abs(m[inside] - base[inside]) / np.abs(base[inside]))[:20]]
    _, fm, _, fu, _ = txlaw.master_f_all(x[moved], m[moved], spec, z)
    # dm/dx = -(f_u / f_m) / (2 sqrt(x)) on f(sqrt(x), m) = 0
    shift = x_eps * np.finfo(float).eps * np.sqrt(x[moved]) * np.abs(fu / fm) / 2
    for k, tol in zip(moved, shift):
        want = complex(_mp_root(x[k], m[k], spec, z, dps=50))
        assert abs(m[k] - want) <= 1e-12 * abs(want) + tol, (z, x[k], m[k], want)


def _table_roots(monkeypatch, spec, z, resolution=2000):
    """The table and the nodes x with the roots m that its density_batch
    calls solved: the same batches with the same seeds give the same bits."""
    batches = []
    real = txlaw.density.density_batch

    def recording(x, spec, z_mod, seeds):
        batches.append((x.ravel(), seeds.ravel()))
        return real(x, spec, z_mod, seeds)

    monkeypatch.setattr(txlaw.density, "density_batch", recording)
    table = txlaw.tabulate_density(spec, z, resolution)
    monkeypatch.undo()
    x = np.concatenate([b[0] for b in batches])
    m = np.concatenate([txlaw.solve_master_batch(xb, spec, z, sb)[0] for xb, sb in batches])
    return table, x, m


@pytest.mark.parametrize("name", ["fig2_spec", "many_spec"])
def test_seeded_table_roots_against_mpmath(name, request, monkeypatch):
    # the 20 density-table nodes where the root seeded from the band edges'
    # folds moved most from the arrowhead's are within 1e-12 relative of
    # 50-digit mpmath roots, plus the root's move under a relative move of
    # 4 eps in x: near an edge that move is the error of any backward-stable
    # solve. The seeded roots are the table's own: rho2 from them is its column
    spec = request.getfixturevalue(name)
    for z in (0.5, 1.5):
        table, x, seeded = _table_roots(monkeypatch, spec, z)
        rho2 = txlaw.m2_from_m1(seeded / np.sqrt(x) - 1, x, z).imag / np.pi
        at = {xv: rv for xv, rv in zip(x.tolist(), rho2.tolist())}
        assert np.array_equal(table.rho2, [at[xv] for xv in table.x.tolist()])
        _check_against_mpmath(x, seeded, arrowhead_only(x, spec, z)[0], spec, z, x_eps=4)


def test_seeded_tables_eigensolve_only_fallbacks(fig2_spec, many_spec, monkeypatch):
    # a table seeds Newton from its band edges' folds: it eigensolves only
    # the few nodes that neither their seed nor the nearest certified node
    # certifies. Its nodes solved without seeds, each one eigensolved, give
    # the same table: rho2 within 1e-7 relative, plus its move under 4 eps of x, 4 eps x /
    # (2 d) at a distance d from the nearest edge (it is 1.2e-7 relative
    # 4e-9 below many_spec's top edge at |z| = 0.5, where 1 ulp of x moves
    # rho2 by 3.6e-7)
    calls = _counting_eigvals(monkeypatch)
    for spec in (fig2_spec, many_spec):
        for z in (0.5, 1.2, 1.5):
            profile = txlaw.find_edges(spec, z)
            for grid in (2000, 200):
                calls.clear()
                table = txlaw.tabulate_density(spec, z, grid, profile)
                assert sum(shape[0] for shape in calls) <= 16, (spec.n, z, grid, calls)
                calls.clear()
                rho1, rho2 = txlaw.density_batch(table.x, spec, z)
                assert sum(shape[0] for shape in calls) == table.x.size
                d = np.min(np.abs(table.x[:, None] - np.ravel(profile.bands)), axis=1)
                tol = 1e-7 + 4 * np.finfo(float).eps * table.x / (2 * d)
                assert np.all(np.abs(rho2 - table.rho2) <= tol * table.rho2)
                assert abs(np.sum(rho2 * table.weight) - table.total_mass) <= 1e-12


def test_unseeded_nodes_start_from_the_nearest_certified_node(fig2_spec, monkeypatch):
    # seeds that certify nothing at every other node: those nodes take
    # Newton from their certified neighbours, not the arrowhead
    profile = txlaw.find_edges(fig2_spec, 1.5)
    (lo, hi), = profile.bands_ascending
    x = np.linspace(lo, hi, 66)[1:-1]
    m = txlaw.solve_master_batch(x, fig2_spec, 1.5)[0]
    seeds = m.copy()
    seeds[::2] = np.nan
    calls = _counting_eigvals(monkeypatch)
    got, _, _, _, ncand = txlaw.solve_master_batch(x, fig2_spec, 1.5, seeds)
    assert calls == [] and np.all(ncand == 1)
    assert np.allclose(got, m, rtol=1e-13, atol=0)
    seeds[:] = np.nan
    got, _, _, _, ncand = txlaw.solve_master_batch(x, fig2_spec, 1.5, seeds)
    assert sum(shape[0] for shape in calls) == x.size and np.all(ncand == 1)


def test_complex_w_takes_the_arrowhead_alone(many_spec):
    # a batch with any non-real w, or a real batch without seeds, is solved
    # by the arrowhead at every point, bit for bit, including its real
    # entries; a real batch in real arithmetic
    rng = np.random.default_rng(13)
    x = rng.uniform(0.01, 20.0, 64)
    for w in (x + 1j * 10.0 ** rng.uniform(-6, 0, x.size), np.r_[x, 1.0 + 0.1j], x):
        m, _, _, _, ncand = txlaw.solve_master_batch(w, many_spec, 1.2)
        u = txlaw.sqrt_upper(w)
        u = u.real if np.isrealobj(w) else u
        m_ref, _, ncand_ref = _solve_arrowhead(w.astype(complex), u, many_spec, 1.2)
        assert np.array_equal(m, m_ref, equal_nan=True) and np.array_equal(ncand, ncand_ref)


def test_empty_batch(fig2_spec):
    for z in (0.0, 1.2):
        assert all(v.size == 0 for v in txlaw.density_batch(np.array([]), fig2_spec, z))


def test_residual_above_tolerance_raises(fig2_spec, monkeypatch):
    monkeypatch.setattr(txlaw.master, "RESIDUAL_TOL", 0.0)
    with pytest.raises(SolverError):
        txlaw.solve_master_batch(np.array([2.0 + 0.5j]), fig2_spec, 1.5)


def test_admissible_root_everywhere_above_the_axis(fig2_spec, many_spec):
    # one solve path: every w with Im w > 0 has an admissible root, down to
    # Im w = 1e-15 and outside the support; only a real w off the support has none
    rng = np.random.default_rng(40)
    random40, _ = txlaw.normalize_spectrum(rng.uniform(0.2, 4.0, 40), [5] * 40, 200, 200)
    assert random40.n == 40
    for spec in (fig2_spec, many_spec, random40):
        for z in (0.0, 0.5, 1.5):
            w = rng.uniform(-2.0, 30.0, 200) + 1j * 10.0 ** rng.uniform(-15, np.log10(3), 200)
            _, _, _, resid, ncand = txlaw.solve_master_batch(w, spec, z)
            assert np.all(ncand >= 1)
            assert np.max(resid) <= 1e-12
    with pytest.raises(SolverError):
        txlaw.solve_master(12.0, fig2_spec, 1.5)


def test_tiny_z_takes_the_degenerate_poles():
    # |z|^4 below the smallest normal double: the cubics' small roots would
    # need Newton steps on subnormals (a falsifying example of the property
    # test below returned NaN residues there)
    one = txlaw.SigmaSpectrum(s=(1.0,), l=(1,), N=1, M=1)
    w = np.array([1.0 + 1.0j])
    want, _, _, _, _ = txlaw.solve_master_batch(w, one, 0.0)
    for z in (1.103393059321541e-156, 1e-80, 1e-70):
        m, _, _, resid, ncand = txlaw.solve_master_batch(w, one, z)
        assert ncand[0] == 1 and resid[0] <= 1e-12
        assert abs(m[0] - want[0]) <= 1e-15


def dyson_transforms(w, spec, z):
    """(m1, m2) at w in the upper half-plane from the benchmark's Dyson system alone.

    Newton on `bench._system` in (a, b) at sig = Re sqrt(w) + i e, continued
    from e = max(1, Im sqrt(w)), where -1/sig starts it on the upper-half-plane
    solution, down to e = Im sqrt(w). Then m1 = b / sqrt(w), m2 = a / sqrt(w).
    The benchmark solves only at real sig, so this continuation is the tests'.
    """
    law, z2 = bench_law(spec), z * z
    root = np.sqrt(complex(w))
    top = max(1.0, root.imag)
    a = b = -1 / complex(root.real, top)
    for e in np.geomspace(top, root.imag, 60):
        for _ in range(50):
            r1, r2, j11, j12, j21, _, _ = bench._system(law, z2, a, b, complex(root.real, e))
            det = j11 * j11 - j12 * j21         # the Jacobian's j22 equals j11
            da, db = (j11 * r1 - j12 * r2) / det, (j11 * r2 - j21 * r1) / det
            a, b = a - da, b - db
            if max(abs(da), abs(db)) <= 1e-14 * (1 + max(abs(a), abs(b))):
                break
        else:
            raise AssertionError(f"Dyson continuation stalled at Im sig = {e}")
    return complex(b) / root, complex(a) / root


@st.composite
def _spectra(draw):
    n = draw(st.integers(1, 11))
    s = draw(st.lists(st.floats(0.05, 8.0), min_size=n, max_size=n))
    if draw(st.booleans()):
        # a twin atom just outside the merge tolerance
        s.append(s[0] * (1 + draw(st.sampled_from([2.0, 10.0, 1e3])) * MERGE_RTOL))
    l = draw(st.lists(st.integers(1, 40), min_size=len(s), max_size=len(s)))
    K = int(sum(l))
    spec, _ = txlaw.normalize_spectrum(s, l, K, K)
    return spec


@settings(max_examples=40, deadline=None)
@given(
    _spectra(),
    st.floats(0.0, 2.0),
    st.floats(0.01, 12.0),
    st.floats(1e-3, 1.0),
)
def test_solve_master_batch_properties(spec, z, re_w, im_w):
    assume(abs(z * z - 1) >= 0.05)
    w = np.array([complex(re_w, im_w)])
    try:
        m, m1, m2, resid, ncand = txlaw.solve_master_batch(w, spec, z)
    except TxlawError:
        return
    mc = complex(txlaw.sqrt_upper(w[0])) * (1 + dyson_transforms(w[0], spec, z)[0])
    assert ncand[0] >= 1
    assert m1[0].imag > 0 and (w[0] * m1[0]).imag > 0
    assert np.array_equal(m2, txlaw.m2_from_m1(m1, w, z))
    assert resid[0] <= 1e-12
    assert abs(m[0] - mc) <= 1e-9 * max(1.0, abs(mc))


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

def test_mp_oracle_transform(identity_spec):
    rng = np.random.default_rng(9)
    for _ in range(25):
        w = complex(rng.uniform(0.1, 3.9), rng.uniform(1e-7, 0.5))
        sol = txlaw.solve_master(w, identity_spec, 0.0)
        assert sol.m2c == pytest.approx(mp_stieltjes(w), abs=1e-8)


def test_mp_density(identity_spec):
    x = np.linspace(0.1, 3.9, 96)
    _, rho2 = txlaw.density_batch(x, identity_spec, 0.0)
    assert np.max(np.abs(rho2 - mp_density(x))) <= 1e-6


def test_density_zero_off_support(fig2_spec):
    r1, r2 = txlaw.density_batch(np.array([0.01, 12.0]), fig2_spec, 1.5)
    assert np.all(r1 <= 1e-6) and np.all(r2 <= 1e-6)


def test_density_positive_band_away_from_zero(fig2_spec):
    # |z| = 1.2: positive density in the band, none near the origin
    r1, _ = txlaw.density_batch(np.array([1.0, 3.0]), fig2_spec, 1.2)
    assert np.all(r1 > 1e-3)
    r1, _ = txlaw.density_batch(np.array([1e-3]), fig2_spec, 1.2)
    assert r1[0] <= 1e-6


def test_small_w_asymptote(fig2_spec):
    t = txlaw.zero_edge_scale(fig2_spec, 0.5)
    sol = txlaw.solve_master(1e-8 * (1 + 1j), fig2_spec, 0.5)
    assert abs(sol.m_c - 1j * np.sqrt(t)) <= 1e-3


def test_eta_continuity(fig2_spec):
    # downward eta sweep: successive solutions move by at most the derivative scale
    E = 4.0
    eta = 0.5
    prev = txlaw.solve_master(complex(E, eta), fig2_spec, 1.5)
    while eta > 1e-5:
        step = 0.1 * eta
        eta -= step
        cur = txlaw.solve_master(complex(E, eta), fig2_spec, 1.5)
        _, fm, _, fu, _ = txlaw.master_f_all(complex(E, eta), cur.m_c, fig2_spec, 1.5)
        dm_dw = abs(complex(fu)) / max(abs(complex(fm)), 1e-12) / (2 * np.sqrt(abs(complex(E, eta))))
        assert abs(cur.m_c - prev.m_c) <= 10 * step * max(dm_dw, 1.0)
        prev = cur


def test_verify_stieltjes_mp(identity_spec):
    table = txlaw.tabulate_density(identity_spec, 1.5, resolution=1500)
    rng = np.random.default_rng(10)
    w = rng.uniform(0.5, 8, 10) + 1j * rng.uniform(0.1, 1.0, 10)
    dev = txlaw.verify_stieltjes(table, w, identity_spec, 1.5)
    assert dev <= 1e-4


def test_verify_stieltjes_coarse_table_flagged(identity_spec):
    coarse = txlaw.tabulate_density(identity_spec, 1.5, resolution=50)
    # force a visibly coarse rule: drop to the minimum segment count
    w = np.array([1.0 + 0.5j])
    # the spectral estimate of a 2-segment rule is still tight; tighten the
    # tolerance until the estimate trips to exercise the error path
    with pytest.raises(TableTooCoarseError):
        txlaw.verify_stieltjes(coarse, w, identity_spec, 1.5, quad_tol=1e-16)


def test_verify_stieltjes_rejects_low_eta(identity_spec):
    table = txlaw.tabulate_density(identity_spec, 1.5, resolution=800)
    with pytest.raises(DomainError):
        txlaw.verify_stieltjes(table, np.array([1.0 + 0.01j]), identity_spec, 1.5)


def test_domain_and_pole_errors(fig2_spec):
    with pytest.raises(DomainError):
        txlaw.solve_master(1.0 - 0.1j, fig2_spec, 1.5)
    # evaluation exactly on a cleared pole: z = 0, s = 1, w = 1 has m = 1
    one = txlaw.SigmaSpectrum(s=(1.0,), l=(4,), N=4, M=4)
    with pytest.raises(SolverError):
        txlaw.master_f(1.0, 1.0, one, 0.0)
    with pytest.raises(SolverError):
        txlaw.m2_from_m1(-1.0 + 0j, 2.0 + 0j, 0.0)


def _mp_root(x, m0, spec, z, dps=40):
    """The root of f at real x that mpmath's findroot reaches from m0, at dps digits."""
    with mpmath.workdps(dps):
        x, z2 = mpmath.mpf(x), mpmath.mpf(z) ** 2
        u = mpmath.sqrt(x)
        atoms = [(mpmath.mpf(si) * mpmath.mpf(wi), mpmath.mpf(si))
                 for si, wi in zip(spec.s, spec.weights)]

        def f(m):
            return -u + m + sum(
                c * m * (m * m - z2) / (u * m**3 - (si + z2) * m**2 - u * z2 * m + z2 * z2)
                for c, si in atoms)

        m = mpmath.findroot(f, mpmath.mpc(m0))
        assert m.imag > 0 and abs(f(m)) < mpmath.mpf(10) ** (10 - dps)
        return m


def _mp_rho2(x, m0, spec, z, dps=40):
    """rho2 at real x from an mpmath root of f started at m0, at dps digits."""
    with mpmath.workdps(dps):
        m = _mp_root(x, m0, spec, z, dps)
        x, z2 = mpmath.mpf(x), mpmath.mpf(z) ** 2
        q = m / mpmath.sqrt(x)                      # 1 + m1
        return float((q / (z2 - x * q * q)).imag / mpmath.pi)


@pytest.mark.parametrize("name", ["fig2_spec", "many_spec"])
@pytest.mark.parametrize("z", [0.5, 1.2, 1.5])
def test_rho2_near_edges_against_mpmath(name, z, request):
    spec = request.getfixturevalue(name)
    profile = txlaw.find_edges(spec, z)
    x = np.array([
        e.e * (1 + d if e.side == "lower" else 1 - d)
        for e in profile.edges for d in (1e-5, 1e-3)
    ])
    _, rho2 = txlaw.density_batch(x, spec, z)
    # mpmath starts off the axis, not at the real-axis root under test
    m, _, _, _, _ = txlaw.solve_master_batch(x + 1e-3j * x, spec, z)
    for xk, rk, mk in zip(x, rho2, m):
        want = _mp_rho2(xk, mk, spec, z)
        assert abs(rk - want) <= 1e-9 * want, (xk, rk, want)
