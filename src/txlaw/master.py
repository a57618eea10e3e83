"""Self-consistent master equation for the two limiting Stieltjes transforms.

The pair (m1, m2) solves

    1/m2 = -w (1 + m1) + |z|^2 / (1 + m1)
    m1   = (1/K) sum_i l_i s_i [ -w (1 + s_i m2) + |z|^2 / (1 + m1) ]^-1

for a spectral parameter w in the closed upper half-plane. Substituting
m = sqrt(w) (1 + m1) reduces the system to a single rational equation
f(sqrt(w), m) = 0 whose cleared form is a polynomial of degree 3n + 1 in m
(n = number of distinct Sigma eigenvalues). The solver finds all polynomial
roots via a balanced companion matrix, filters by the half-plane conditions
Im m1 > 0 and Im(w m1) > 0, polishes with Newton steps on f, and falls back
to continuation in Im w when the filter is ambiguous.

All evaluators are vectorized over w and m.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SolverError, TableTooCoarseError
from .linalg import companion_roots_batch
from .sigma import ModelParams, SigmaSpectrum

POLE_RTOL = 1e-8      # reject polynomial roots this close to a cleared pole
UNIQUE_ETA = 1e-6     # above this Im w the admissible root must be unique


def sqrt_upper(w):
    """Square root with the branch Im sqrt(w) >= 0 (positive real for w > 0)."""
    u = np.sqrt(np.asarray(w, dtype=complex))
    return np.where(u.imag < 0, -u, u)


@dataclass(frozen=True)
class SolverOptions:
    residual_tol: float = 1e-12
    max_newton: int = 50
    eta0: float = 1e-7           # base height for the Stieltjes inversion limit
    density_floor: float = 1e-5  # support indicator threshold on rho1
    params: ModelParams = field(default_factory=ModelParams)


@dataclass(frozen=True)
class SpectralParameter:
    """Spectral variable w = E + i eta with its upper-branch square root."""

    w: complex
    z_mod: float

    def __post_init__(self):
        if complex(self.w).imag < 0:
            raise DomainError("Im w must be >= 0")
        if self.z_mod < 0:
            raise DomainError("|z| must be >= 0")

    @property
    def sqrt_w(self) -> complex:
        return complex(sqrt_upper(self.w))


@dataclass(frozen=True)
class MasterSolution:
    parameter: SpectralParameter
    m_c: complex
    m1c: complex
    m2c: complex
    residual: float
    n_candidate_roots: int
    method: str          # "polynomial" or "newton-continuation"
    iterations: int


@dataclass(frozen=True)
class CubicFactorization:
    """Roots a_i > b_i > 0 > -c_i and partial-fraction data of the per-atom cubics.

    For real w > 0 and |z| > 0 each cubic
        p_i(m) = sqrt(w) m^3 - (s_i + |z|^2) m^2 - sqrt(w) |z|^2 m + |z|^4
    has three distinct real roots. A, B, C are the pole coefficients of the
    partial-fraction form of f; Ap, Bp, Cp the residues of (m^2 - |z|^2)/p_i.
    """

    w: float
    z_mod: float
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    Ap: np.ndarray
    Bp: np.ndarray
    Cp: np.ndarray


# ---------------------------------------------------------------------------
# evaluators
# ---------------------------------------------------------------------------

def _atom_terms(spec: SigmaSpectrum):
    s = np.asarray(spec.s, dtype=float)
    wts = spec.weights
    return s, wts


def master_f(w, m, spec: SigmaSpectrum, z_mod: float):
    """f(sqrt(w), m); zero exactly at solutions of the reduced master equation."""
    u = sqrt_upper(w)
    z2 = z_mod * z_mod
    s, wts = _atom_terms(spec)
    f = -u + np.asarray(m, dtype=complex)
    for si, wi in zip(s, wts):
        p = u * m**3 - (si + z2) * m**2 - u * z2 * m + z2 * z2
        _check_pole(p)
        f = f + wi * si * m * (m * m - z2) / p
    return f


def _check_pole(p):
    if np.any(np.abs(p) < 1e-300):
        raise SolverError("evaluation point is on a pole of the master function")


def master_f_all(w, m, spec: SigmaSpectrum, z_mod: float):
    """f together with df/dm, d2f/dm2, df/dsqrt(w), d2f/(dm dsqrt(w)).

    The derivative formulas follow from the quotient rule applied to each
    rational summand; they are exercised against finite differences in tests.
    """
    u = sqrt_upper(w)
    m = np.asarray(m, dtype=complex)
    z2 = z_mod * z_mod
    s, wts = _atom_terms(spec)
    f = -u + m
    fm = np.ones_like(m)
    fmm = np.zeros_like(m)
    fu = -np.ones_like(m)
    fum = np.zeros_like(m)
    for si, wi in zip(s, wts):
        cw = wi * si
        p = u * m**3 - (si + z2) * m**2 - u * z2 * m + z2 * z2
        _check_pole(p)
        pm = 3 * u * m**2 - 2 * (si + z2) * m - u * z2
        pmm = 6 * u * m - 2 * (si + z2)
        pu = m**3 - z2 * m
        pum = 3 * m**2 - z2
        num = m * (m * m - z2)
        num_m = 3 * m * m - z2
        num_mm = 6 * m
        f = f + cw * num / p
        fm = fm + cw * (num_m * p - num * pm) / (p * p)
        fmm = fmm + cw * (
            num_mm * p * p - num * p * pmm - 2 * num_m * p * pm + 2 * num * pm * pm
        ) / (p * p * p)
        fu = fu - cw * num * pu / (p * p)
        fum = fum + cw * (
            -(num_m * pu + num * pum) / (p * p) + 2 * num * pu * pm / (p * p * p)
        )
    return f, fm, fmm, fu, fum


def m2_from_m1(m1, w, z_mod: float):
    """Second transform from the first: m2 = (1+m1) / (-w (1+m1)^2 + |z|^2)."""
    m1 = np.asarray(m1, dtype=complex)
    den = -np.asarray(w, dtype=complex) * (1 + m1) ** 2 + z_mod * z_mod
    if np.any(np.abs(den) < 1e-300):
        raise SolverError("m2 denominator underflow")
    return (1 + m1) / den


# ---------------------------------------------------------------------------
# polynomial construction and the batched solver
# ---------------------------------------------------------------------------

def _polymul_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise polynomial product, coefficients descending, shapes (B, na), (B, nb)."""
    B, na = a.shape
    nb = b.shape[1]
    out = np.zeros((B, na + nb - 1), dtype=complex)
    for i in range(na):
        out[:, i : i + nb] += a[:, i : i + 1] * b
    return out


def _atom_cubics_batch(u: np.ndarray, spec: SigmaSpectrum, z_mod: float):
    """Per-atom cleared denominators as coefficient rows; linear when |z| = 0."""
    B = u.shape[0]
    z2 = z_mod * z_mod
    ones = np.ones(B, dtype=complex)
    cubs = []
    if z_mod == 0.0:
        for si in spec.s:
            cubs.append(np.stack([u, -si * ones], axis=1))
        numf = np.stack([ones, np.zeros(B, dtype=complex)], axis=1)  # m
    else:
        for si in spec.s:
            cubs.append(
                np.stack([u, -(si + z2) * ones, -u * z2, (z2 * z2) * ones], axis=1)
            )
        zeros = np.zeros(B, dtype=complex)
        numf = np.stack([ones, zeros, -z2 * ones, zeros], axis=1)  # m^3 - |z|^2 m
    return cubs, numf


def build_master_polynomial(w, spec: SigmaSpectrum, z_mod: float) -> np.ndarray:
    """Coefficients (descending) of the cleared master polynomial, degree 3n+1.

    For |z| = 0 the cubics degenerate and the cleared degree drops to n+1.
    Accepts a scalar or an array of w; returns shape (deg+1,) or (B, deg+1).
    """
    w_arr = np.atleast_1d(np.asarray(w, dtype=complex))
    u = sqrt_upper(w_arr)
    cubs, numf = _atom_cubics_batch(u, spec, z_mod)
    wts = spec.weights
    B = u.shape[0]
    P = np.stack([np.ones(B, dtype=complex), -u], axis=1)  # (m - sqrt(w))
    for c in cubs:
        P = _polymul_batch(P, c)
    for i, si in enumerate(spec.s):
        term = (wts[i] * si) * numf
        for j in range(spec.n):
            if j != i:
                term = _polymul_batch(term, cubs[j])
        P[:, P.shape[1] - term.shape[1] :] += term
    scale = np.max(np.abs(P), axis=1, keepdims=True)
    if np.any(scale == 0) or not np.all(np.isfinite(scale)):
        raise SolverError("master polynomial coefficients overflowed")
    if np.isscalar(w) or np.ndim(w) == 0:
        return P[0]
    return P


def _pole_scale_ok(u, roots, spec: SigmaSpectrum, z_mod: float) -> np.ndarray:
    """Mask of roots safely away from the cleared denominators."""
    z2 = z_mod * z_mod
    am = np.abs(roots)
    au = np.abs(u)
    ok = np.ones(roots.shape, dtype=bool)
    for si in spec.s:
        if z_mod == 0.0:
            p = u * roots - si
            sc = au * am + si
        else:
            p = u * roots**3 - (si + z2) * roots**2 - u * z2 * roots + z2 * z2
            sc = au * am**3 + (si + z2) * am**2 + au * z2 * am + z2 * z2
        ok &= np.abs(p) > POLE_RTOL * sc
    return ok


def solve_master_batch(
    w,
    spec: SigmaSpectrum,
    z_mod: float,
    opts: SolverOptions | None = None,
    polish_steps: int = 4,
):
    """Vectorized master-equation solve for an array of w in the upper half-plane.

    Returns (m, m1, m2, residual, n_candidates). Entries with no admissible
    root get m = nan and n_candidates = 0; callers decide whether to fall
    back to continuation (solve_master does).
    """
    opts = opts or SolverOptions()
    w = np.asarray(w, dtype=complex)
    shape = w.shape
    wf = w.ravel()
    u = sqrt_upper(wf)
    P = build_master_polynomial(wf, spec, z_mod)
    roots = companion_roots_batch(P)
    uB = u[:, None]
    m1 = roots / uB - 1.0
    adm = (m1.imag > 0) & ((wf[:, None] * m1).imag > 0)
    adm &= _pole_scale_ok(uB, roots, spec, z_mod)

    fvals = master_f(wf[:, None], roots, spec, z_mod)
    fabs = np.where(adm, np.abs(fvals), np.inf)
    idx = np.argmin(fabs, axis=1)
    rows = np.arange(wf.size)
    m = roots[rows, idx]
    ncand = adm.sum(axis=1)
    ok = ncand > 0
    m = np.where(ok, m, np.nan + 0j)

    m_pre = m.copy()
    with np.errstate(all="ignore"):
        resid_pre = np.abs(master_f(wf, np.where(ok, m, 1.0), spec, z_mod))
    for _ in range(polish_steps):
        with np.errstate(all="ignore"):
            f, fm, _, _, _ = master_f_all(wf, np.where(ok, m, 1.0), spec, z_mod)
            step = np.where(ok & (np.abs(fm) > 1e-300), f / np.where(ok, fm, 1.0), 0.0)
            m = np.where(ok, m - step, m)
    with np.errstate(all="ignore"):
        resid = np.abs(master_f(wf, np.where(ok, m, 1.0), spec, z_mod))
        # polish must not leave the admissible half-planes or raise the residual
        m1_post = m / u - 1.0
        keep = ok & (m1_post.imag > 0) & ((wf * m1_post).imag > 0) & (resid <= resid_pre)
        m = np.where(keep | ~ok, m, m_pre)
        resid = np.abs(master_f(wf, np.where(ok, m, 1.0), spec, z_mod))
        resid = np.where(ok, resid, np.inf)
        m1 = m / u - 1.0
        m2 = m2_from_m1(np.where(ok, m1, 0.0), wf, z_mod)
        m2 = np.where(ok, m2, np.nan + 0j)

    return (
        m.reshape(shape),
        m1.reshape(shape),
        m2.reshape(shape),
        resid.reshape(shape),
        ncand.reshape(shape),
    )


def _continuation_solve(
    w: complex, spec: SigmaSpectrum, z_mod: float, opts: SolverOptions
) -> tuple[complex, int]:
    """Track the analytic branch downward in Im w from eta = 1.

    Replaces ambiguous root selection near the real axis: at eta = 1 the
    admissible polynomial root is unique, and the branch is followed by
    Newton steps with geometric eta decrease.
    """
    E = w.real
    eta_target = max(w.imag, 0.0)
    w_hi = complex(E, 1.0)
    m, _, _, resid, ncand = solve_master_batch(np.array([w_hi]), spec, z_mod, opts)
    if ncand[0] == 0:
        raise SolverError(f"no admissible root at continuation anchor {w_hi}")
    m = complex(m[0])
    eta = 1.0
    iters = 0
    while eta > eta_target:
        eta = max(eta_target, eta * 0.5)
        wk = complex(E, eta)
        for _ in range(opts.max_newton):
            f, fm, _, _, _ = master_f_all(wk, m, spec, z_mod)
            if abs(fm) < 1e-300:
                raise SolverError("continuation hit a critical point")
            step = f / fm
            m -= complex(step)
            iters += 1
            if abs(step) <= 1e-15 * max(1.0, abs(m)):
                break
        if eta == eta_target:
            break
    resid = abs(complex(master_f(w if w.imag > 0 else complex(E, eta_target), m, spec, z_mod)))
    if resid > max(opts.residual_tol, 1e-9):
        raise SolverError(f"continuation did not converge at w = {w} (residual {resid:.2e})")
    return m, iters


def solve_master(
    w,
    spec: SigmaSpectrum,
    z_mod: float,
    opts: SolverOptions | None = None,
) -> MasterSolution:
    """Solve the master equation at a single spectral parameter.

    Primary path: companion roots of the cleared polynomial plus half-plane
    filtering. Fallback: Newton continuation from Im w = 1. Raises
    SolverError when no admissible solution exists.
    """
    opts = opts or SolverOptions()
    spec.require_normalized()
    wc = complex(w)
    if wc.imag < 0:
        raise DomainError("Im w must be >= 0")
    param = SpectralParameter(w=wc, z_mod=z_mod)
    m, m1, m2, resid, ncand = solve_master_batch(np.array([wc]), spec, z_mod, opts)
    method = "polynomial"
    iters = 0
    n_cand = int(ncand[0])
    if n_cand == 0 or resid[0] > opts.residual_tol:
        mc, iters = _continuation_solve(wc, spec, z_mod, opts)
        method = "newton-continuation"
        u = complex(sqrt_upper(wc))
        m1v = mc / u - 1.0
        m2v = complex(m2_from_m1(m1v, wc, z_mod))
        residv = abs(complex(master_f(wc, mc, spec, z_mod)))
        n_cand = max(n_cand, 1)
    else:
        mc, m1v, residv = complex(m[0]), complex(m1[0]), float(resid[0])
        # recompute through the scalar path so the definitional identity
        # m2c == m2_from_m1(m1c) holds bit for bit
        m2v = complex(m2_from_m1(m1v, wc, z_mod))
        if wc.imag >= UNIQUE_ETA and n_cand > 1:
            warnings.warn(
                f"{n_cand} admissible roots at w = {wc}; selected the smallest "
                "residual (expected a unique solution here)",
                stacklevel=2,
            )
    return MasterSolution(
        parameter=param,
        m_c=mc,
        m1c=m1v,
        m2c=m2v,
        residual=residv,
        n_candidate_roots=n_cand,
        method=method,
        iterations=iters,
    )


# ---------------------------------------------------------------------------
# factorization of the per-atom cubics (real w > 0, |z| > 0)
# ---------------------------------------------------------------------------

def cubic_factorize(w: float, spec: SigmaSpectrum, z_mod: float) -> CubicFactorization:
    """Roots and partial-fraction coefficients of every per-atom cubic.

    Requires real w > 0 and |z| > 0 (at |z| = 0 the cubic degenerates and the
    rational form of f should be used directly).
    """
    if not (np.isrealobj(w) or complex(w).imag == 0) or not float(np.real(w)) > 0:
        raise DomainError("cubic factorization needs real w > 0")
    if z_mod <= 0:
        raise DomainError("cubic factorization needs |z| > 0")
    wr = float(np.real(w))
    u = np.sqrt(wr)
    z2 = z_mod * z_mod
    n = spec.n
    a = np.empty(n)
    b = np.empty(n)
    c = np.empty(n)
    for i, si in enumerate(spec.s):
        coeffs = np.array([u, -(si + z2), -u * z2, z2 * z2])
        r = np.roots(coeffs)
        if np.max(np.abs(r.imag)) > 1e-8 * np.max(np.abs(r)):
            raise SolverError(
                f"cubic for s_{i} lost its three real roots (w={wr}, |z|={z_mod})"
            )
        r = np.sort(r.real)
        # one Newton step per root against the exact cubic
        for _ in range(2):
            p = u * r**3 - (si + z2) * r**2 - u * z2 * r + z2 * z2
            dp = 3 * u * r**2 - 2 * (si + z2) * r - u * z2
            r = r - p / dp
        neg, b_i, a_i = r
        if not (a_i > b_i > 0 > neg):
            raise SolverError(f"cubic root ordering failed for s_{i}")
        a[i], b[i], c[i] = a_i, b_i, -neg
    Ap = (a * a - z2) / (u * (a - b) * (a + c))
    Bp = (b * b - z2) / (u * (b - a) * (b + c))
    Cp = (z2 - c * c) / (u * (c + a) * (c + b))
    return CubicFactorization(
        w=wr, z_mod=z_mod, a=a, b=b, c=c,
        A=Ap * a, B=Bp * b, C=Cp * c, Ap=Ap, Bp=Bp, Cp=Cp,
    )


def master_f_pfd(fac: CubicFactorization, m, spec: SigmaSpectrum):
    """Partial-fraction form of f at real w; agrees with master_f off the poles."""
    u = np.sqrt(fac.w)
    wts = spec.weights
    s = np.asarray(spec.s)
    m = np.asarray(m, dtype=complex)
    const = float(np.dot(wts * s, fac.Ap + fac.Bp - fac.Cp))
    f = -u + m + const
    for i in range(spec.n):
        f = f + wts[i] * s[i] * (
            fac.A[i] / (m - fac.a[i])
            + fac.B[i] / (m - fac.b[i])
            + fac.C[i] / (m + fac.c[i])
        )
    return f


# ---------------------------------------------------------------------------
# densities by Stieltjes inversion
# ---------------------------------------------------------------------------

def density_batch(
    x,
    spec: SigmaSpectrum,
    z_mod: float,
    opts: SolverOptions | None = None,
):
    """(rho1, rho2, err1, err2) at positive x values by Richardson extrapolation.

    Solves at eta, eta/2, eta/4 and extrapolates Im m to eta = 0. The base
    eta is opts.eta0 capped at 0.01 x so the extrapolation stays inside the
    analyticity radius next to the zero edge. The err arrays hold the spread
    between the two- and three-point extrapolants.
    """
    opts = opts or SolverOptions()
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x <= 0):
        raise DomainError("density_batch needs x > 0")
    eta = np.minimum(opts.eta0, 0.01 * x)
    im1 = []
    im2 = []
    for fac in (1.0, 0.5, 0.25):
        w = x + 1j * (eta * fac)
        m, m1, m2, resid, ncand = solve_master_batch(w, spec, z_mod, opts)
        bad = ~np.isfinite(m)
        if np.any(bad):
            for k in np.nonzero(bad)[0]:
                mc, _ = _continuation_solve(complex(w[k]), spec, z_mod, opts)
                u = complex(sqrt_upper(w[k]))
                m1[k] = mc / u - 1.0
                m2[k] = complex(m2_from_m1(m1[k], w[k], z_mod))
        im1.append(m1.imag.copy())
        im2.append(m2.imag.copy())

    def richardson(v):
        f1, f2, f4 = v
        three = (8 * f4 - 6 * f2 + f1) / 3.0
        two = 2 * f4 - f2
        return three, np.abs(three - two)

    r1, e1 = richardson(im1)
    r2, e2 = richardson(im2)
    return (
        np.maximum(0.0, r1) / np.pi,
        np.maximum(0.0, r2) / np.pi,
        e1 / np.pi,
        e2 / np.pi,
    )


def density_at(
    x: float,
    z_mod: float,
    spec: SigmaSpectrum,
    opts: SolverOptions | None = None,
):
    """(rho1, rho2, rho1_err, rho2_err) at a single x > 0."""
    r1, r2, e1, e2 = density_batch(np.array([float(x)]), spec, z_mod, opts)
    return float(r1[0]), float(r2[0]), float(e1[0]), float(e2[0])


def verify_stieltjes(
    table,
    w_samples,
    spec: SigmaSpectrum,
    z_mod: float,
    opts: SolverOptions | None = None,
    quad_tol: float = 1e-5,
) -> float:
    """Max relative gap between quadrature of rho/(x-w) and the direct solve.

    Checks both transforms at every sample. Raises TableTooCoarseError when
    the table's own quadrature-error estimate exceeds quad_tol.
    """
    opts = opts or SolverOptions()
    w_samples = np.asarray(w_samples, dtype=complex)
    if np.any(w_samples.imag < 0.05):
        raise DomainError("verify_stieltjes needs Im w >= 0.05")
    est = table.quadrature_error_estimate()
    if est > quad_tol:
        raise TableTooCoarseError(
            f"table quadrature error estimate {est:.2e} exceeds {quad_tol:.2e}"
        )
    worst = 0.0
    for w in w_samples:
        q1 = table.integrate_rho1(lambda x: 1.0 / (x - w))
        q2 = table.integrate_rho2(lambda x: 1.0 / (x - w))
        sol = solve_master(w, spec, z_mod, opts)
        worst = max(
            worst,
            abs(q1 - sol.m1c) / abs(sol.m1c),
            abs(q2 - sol.m2c) / abs(sol.m2c),
        )
    return worst
