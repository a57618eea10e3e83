"""Shared fixtures. The radial profiles are expensive and session-cached."""

import numpy as np
import pytest
from scipy import optimize

import txlaw


@pytest.fixture(scope="session")
def identity_spec():
    return txlaw.SigmaSpectrum(s=(1.0,), l=(1000,), N=1000, M=1000)


@pytest.fixture(scope="session")
def fig2_spec():
    return txlaw.SigmaSpectrum(s=(32 / 17, 2 / 17), l=(500, 500), N=1000, M=1000)


@pytest.fixture(scope="session")
def twoband_spec():
    spec, _ = txlaw.normalize_spectrum([8.0, 0.2], [100, 900], 1000, 1000)
    return spec


@pytest.fixture(scope="session")
def opts():
    return txlaw.SolverOptions()


@pytest.fixture(scope="session")
def identity_radial_profile(identity_spec):
    return txlaw.compute_radial_profile(identity_spec, 0.1, 2.0, h=0.005)


@pytest.fixture(scope="session")
def fig2_radial_profile(fig2_spec):
    return txlaw.compute_radial_profile(fig2_spec, 0.1, 2.0, h=0.005)


def mp_density(x):
    """Closed-form square-ratio limiting density of X^dag X (support [0, 4])."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(x)
    m = (x > 0) & (x < 4)
    out[m] = np.sqrt((4.0 - x[m]) / x[m]) / (2.0 * np.pi)
    return out


def mp_stieltjes(w):
    """Closed-form Stieltjes transform: root of w m^2 + w m + 1 with Im m > 0."""
    w = complex(w)
    disc = np.sqrt(w * w - 4 * w)
    for sgn in (1, -1):
        m = (-w + sgn * disc) / (2 * w)
        if m.imag > 0:
            return m
    raise AssertionError("no upper-half-plane root")


def _dyson_system(a, b, sig, spec, z):
    """Two-scalar Dyson equation of the Hermitization [[0, Y], [Y^dag, 0]].

    Y = A - z with Var A_ij = s_i / N. Writing a = <g2>, b = <s g1>,
    q = sig + b, p_i = sig + s_i a and D_i = p_i q - |z|^2, the equation is
    a = sum_i w_i (-p_i / D_i) and b = sum_i w_i s_i (-q / D_i). Returns the
    residual, its 2x2 Jacobian in (a, b) and its derivative in sig.
    """
    s = np.asarray(spec.s, dtype=float)
    wts = spec.weights
    z2 = z * z
    q = sig + b
    p = sig + s * a
    D = p * q - z2
    D2 = D * D
    res = np.array([a + np.dot(wts, p / D), b + q * np.dot(wts * s, 1 / D)])
    j11 = 1 - z2 * np.dot(wts, s / D2)
    jac = np.array([[j11, -np.dot(wts, p * p / D2)],
                    [-np.dot(wts * s * s, q * q / D2), j11]])
    dsig = -np.array([np.dot(wts, (z2 + p * p) / D2),
                      np.dot(wts * s, (z2 + q * q) / D2)])
    return res, jac, dsig


def _dyson_density(spec, z, sig):
    """Density Im<g2>/pi of the Hermitization at sig + 1e-10 i.

    The Dyson equation is solved by Newton, continued down from Im = 1,
    where its solution in the upper half-plane is unique.
    """
    u = np.array([1j, 1j])
    for e in np.geomspace(1.0, 1e-10, 100):
        for _ in range(50):
            res, jac, _ = _dyson_system(u[0], u[1], complex(sig, e), spec, z)
            step = np.linalg.solve(jac, res)
            u = u - step
            if np.max(np.abs(step)) <= 1e-12 * (1 + np.max(np.abs(u))):
                break
        else:
            raise AssertionError(f"Dyson continuation stalled at Im = {e}")
    return float(u[0].imag / np.pi)


def _dyson_branch_at(a, b, sig, spec, z):
    """Newton in (b, sig) at fixed a on the real gap branch."""
    for _ in range(50):
        res, jac, dsig = _dyson_system(a, b, sig, spec, z)
        db, ds = np.linalg.solve(np.column_stack([jac[:, 1], dsig]), res)
        b, sig = b - db, sig - ds
        if abs(db) + abs(ds) <= 1e-15 * (1 + abs(b) + abs(sig)):
            return b, sig
    raise AssertionError(f"Dyson gap branch lost at a = {a}")


def dyson_gap_edge(spec, z):
    """Lowest edge sig*^2 of the singular spectrum of TX - z for |z| > 1.

    Independent of the engine's reduced master polynomial: it solves the
    Dyson equation of `_dyson_system`. For |z| > 1 the Hermitization has a
    spectral gap (-sig*, sig*). Inside it the solution is real; it starts
    at a = b = 0 at sig = 0, and a, b, sig grow together up to the fold
    sig*, where the Jacobian in (a, b) is singular. Past the fold Newton in
    sig jumps to spurious real roots, so the branch is followed in a, which
    stays monotone through the fold, and the sign change of the Jacobian
    determinant is solved by brentq. This gives the smallest sig* > 0 that
    bounds the gap, not the trivial root at sig = 0. The density is then
    checked to be O(1e-10) just below sig* and positive just above it.

    For s = (32/17, 2/17) with equal weights, a 40-digit solve of the same
    fold gives sig*^2 = 0.004936008699097830548485797155... at |z| = 1.2 and
    0.067534309701240814278859438763... at |z| = 1.5.
    """
    def det_at(a, b, sig):
        return np.linalg.det(_dyson_system(a, b, sig, spec, z)[1])

    step = 1e-3
    a, b, sig = 0.0, 0.0, 0.0
    det0 = det_at(a, b, sig)
    while True:
        b1, sig1 = _dyson_branch_at(a + step, b, sig, spec, z)
        if det_at(a + step, b1, sig1) * det0 <= 0:
            break
        if sig1 <= sig:
            raise AssertionError(f"gap branch not increasing at a = {a + step}")
        a, b, sig = a + step, b1, sig1
    start = (b, sig)

    def det_on_branch(x):
        return det_at(x, *_dyson_branch_at(x, *start, spec, z))

    a_star = optimize.brentq(det_on_branch, a, a + step, xtol=1e-16,
                             rtol=4 * np.finfo(float).eps)
    sig = _dyson_branch_at(a_star, *start, spec, z)[1]
    below, above = (_dyson_density(spec, z, sig * f) for f in (1 - 1e-3, 1 + 1e-3))
    if not (below < 1e-6 and above > 1e-4):
        raise AssertionError(
            f"sig* = {sig} does not bound the gap: density {below:.1e} below, "
            f"{above:.1e} above"
        )
    return float(sig * sig)
