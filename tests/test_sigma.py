"""Spectrum construction, normalization and the harmonic-mean helper."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import txlaw
from txlaw.errors import DomainError, InputError


def test_fig2_from_singular_values():
    d = np.array([np.sqrt(2 / 17)] * 500 + [4 * np.sqrt(2 / 17)] * 500)
    spec = txlaw.sigma_from_singular_values(d, 1000, 1000)
    assert spec.s == pytest.approx((32 / 17, 2 / 17))
    assert spec.l == (500, 500)
    assert spec.is_normalized


def test_identity_t():
    spec = txlaw.sigma_from_singular_values(np.ones(64), 64, 64)
    assert spec.s == (1.0,)
    assert spec.l == (64,)


def test_auto_normalize_groups():
    # d = {1, 2, 2, 1}: squares {1, 4, 4, 1}, mean 2.5, rescaled to {8/5, 2/5}
    spec = txlaw.sigma_from_singular_values([1, 2, 2, 1], 4, 4, auto_normalize=True)
    assert spec.s == pytest.approx((8 / 5, 2 / 5))
    assert spec.l == (2, 2)


def test_normalize_merges_equal_atoms():
    spec, ratio = txlaw.normalize_spectrum([2.0, 2.0], [32, 32], 64, 64)
    assert spec.s == (1.0,)
    assert spec.l == (64,)
    assert ratio == pytest.approx(0.5)


def test_singular_values_group_like_normalize_spectrum():
    # near-duplicate singular values: one tight group, one spread across the
    # merge tolerance, twins just outside it
    rng = np.random.default_rng(13)
    d = np.concatenate([
        1.3 * (1 + rng.uniform(-2e-11, 2e-11, 20)),
        0.9 * (1 + rng.uniform(-1e-10, 1e-10, 20)),
        0.5 * (1 + np.arange(20) % 2 * 3e-10),
    ])
    K = d.size
    # step the first value by ulps until the squares' mean is exactly 1, so
    # that normalize_spectrum's rescaling is the identity
    d = d / np.sqrt(np.mean(d * d))
    for _ in range(1000):
        mean = float(np.dot(np.ones(K, dtype=int), d * d)) / K
        if mean == 1.0:
            break
        d[0] = np.nextafter(d[0], -np.inf if mean > 1.0 else np.inf)
    spec = txlaw.sigma_from_singular_values(d, K, K)
    want, ratio = txlaw.normalize_spectrum(d**2, np.ones(K, dtype=int), K, K)
    assert ratio == 1.0
    assert 3 < spec.n < K
    assert spec.s == want.s and spec.l == want.l


def test_normalize_two_atoms():
    spec, _ = txlaw.normalize_spectrum([1.0, 4.0], [32, 32], 64, 64)
    assert spec.s == pytest.approx((8 / 5, 2 / 5))


def test_normalize_fig2_unchanged(fig2_spec):
    out, ratio = txlaw.normalize(fig2_spec)
    assert ratio == pytest.approx(1.0)
    assert out.s == pytest.approx(fig2_spec.s)


def test_unnormalized_rejected_without_flag():
    with pytest.raises(InputError):
        txlaw.sigma_from_singular_values([1, 2, 2, 1], 4, 4, auto_normalize=False)


def test_errors():
    with pytest.raises(InputError):
        txlaw.sigma_from_singular_values([], 0, 0)
    with pytest.raises(InputError):
        txlaw.sigma_from_singular_values([1.0, -1.0], 2, 2)
    with pytest.raises(InputError):
        txlaw.SigmaSpectrum(s=(1.0, 2.0), l=(1, 1), N=2, M=2)  # ascending
    with pytest.raises(InputError):
        txlaw.SigmaSpectrum(s=(1.0,), l=(3,), N=2, M=2)  # wrong K


def test_harmonic_mean_values(fig2_spec):
    assert txlaw.sigma_harmonic_mean(
        txlaw.SigmaSpectrum(s=(1.0,), l=(8,), N=8, M=8)
    ) == pytest.approx(1.0)
    # (17/2 + 17/32)/2 = 289/64
    assert txlaw.sigma_harmonic_mean(fig2_spec) == pytest.approx(64 / 289, abs=1e-15)
    spec, _ = txlaw.normalize_spectrum([1.0, 4.0], [32, 32], 64, 64)
    assert txlaw.sigma_harmonic_mean(spec) == pytest.approx(16 / 25)


def test_margin_checks():
    params = txlaw.ModelParams()
    params.check_z(1.5)
    params.check_z(0.0)
    with pytest.raises(DomainError):
        params.check_z(1.01)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=0.05, max_value=20.0), min_size=1, max_size=6),
    st.integers(min_value=1, max_value=5),
)
def test_roundtrip_expand(values, mult):
    d = np.sort(np.asarray(values * mult))
    spec = txlaw.sigma_from_singular_values(d, d.size, d.size, auto_normalize=True)
    back = np.sort(spec.expand())
    scaled = np.sort(d * d) / (np.mean(d * d))
    assert back == pytest.approx(scaled, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(min_value=0.05, max_value=20.0), min_size=1, max_size=5),
)
def test_normalize_idempotent_and_amhm(values):
    l = [4] * len(values)
    K = 4 * len(values)
    spec, _ = txlaw.normalize_spectrum(values, l, K, K)
    again, ratio = txlaw.normalize(spec)
    assert ratio == pytest.approx(1.0, abs=1e-12)
    assert np.asarray(again.s) == pytest.approx(np.asarray(spec.s), rel=1e-12)
    # harmonic mean <= arithmetic mean (= 1), equality only for one atom
    hm = txlaw.sigma_harmonic_mean(spec)
    assert hm <= 1.0 + 1e-12
    if spec.n > 1:
        assert hm < 1.0


def test_load_sigma_file(tmp_path):
    p = tmp_path / "spec.cfg"
    p.write_text("# comment\nN = 1000\nM = 1000\ns = [1.8823529411764706, 0.11764705882352941]\nl = [500, 500]\n")
    spec = txlaw.load_sigma_file(p)
    assert spec.s == pytest.approx((32 / 17, 2 / 17))
    p2 = tmp_path / "raw.cfg"
    p2.write_text("N = 4\nM = 4\nd = [1, 2, 2, 1]\nnormalize = true\n")
    spec2 = txlaw.load_sigma_file(p2)
    assert spec2.s == pytest.approx((8 / 5, 2 / 5))
    p3 = tmp_path / "bad.cfg"
    p3.write_text("N = 4\n")
    with pytest.raises(InputError):
        txlaw.load_sigma_file(p3)
