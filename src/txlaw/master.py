"""Self-consistent master equation for the two limiting Stieltjes transforms.

The pair (m1, m2) solves

    1/m2 = -w (1 + m1) + |z|^2 / (1 + m1)
    m1   = (1/K) sum_i l_i s_i [ -w (1 + s_i m2) + |z|^2 / (1 + m1) ]^-1

for a spectral parameter w in the closed upper half-plane. Substituting
m = sqrt(w) (1 + m1) reduces the system to a single rational equation
f(sqrt(w), m) = 0. Its partial-fraction form

    f = m - alpha + sum_k rho_k / (m - pi_k)

has 3n poles pi_k, the roots of the n per-atom cubics (n = number of
distinct Sigma eigenvalues), so its 3n + 1 roots are the eigenvalues of an
arrowhead matrix. The solver takes them, filters by the half-plane
conditions Im m1 > 0 and Im(w m1) > 0 and polishes with Newton steps on f.
Above the real axis one root is always admissible; at real w > 0 one is
exactly inside the support. There everything is real, and the densities
are solved directly.

Along a batch of real w > 0 whose caller hands in a starting root per
point (the density tables seed them from the support edges), most points
take no eigensolve: Newton steps on f from the seed, kept if admissible,
within RESIDUAL_TOL, with forward error |f / f_m| at most FORWARD_RTOL |m|,
and non-real by a margin over that error. A point its seed does not certify
starts again from the nearest certified point, and the arrowhead solves the
rest. Since the admissible root at real w is unique, the two agree on the
support and on the root to rounding. Every other batch takes the arrowhead
at every point.

All evaluators are vectorized over w and m.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SolverError, TableTooCoarseError
from .linalg import arrowhead_eigvals, one_blas_thread
from .sigma import SigmaSpectrum

UNIQUE_ETA = 1e-6     # above this Im w the admissible root must be unique
RESIDUAL_TOL = 1e-12  # |f| contract for every returned root
POLISH_STEPS = 4      # Newton steps on f after the eigensolve
CERTIFY_NEWTON_MAX = 20  # cap on the Newton steps of a certified root
FORWARD_RTOL = 1e-13  # |f / f_m| <= FORWARD_RTOL |m| certifies a Newton root


def sqrt_upper(w):
    """Square root with the branch Im sqrt(w) >= 0 (positive real for w > 0)."""
    u = np.sqrt(np.asarray(w, dtype=complex))
    return np.where(u.imag < 0, -u, u)


@dataclass(frozen=True)
class MasterSolution:
    m_c: complex
    m1c: complex
    m2c: complex
    residual: float
    n_candidate_roots: int


@dataclass(frozen=True)
class CubicFactorization:
    """Roots a_i > b_i > 0 > -c_i and partial-fraction data of the per-atom cubics.

    For real w > 0 and |z| > 0 each cubic
        p_i(m) = sqrt(w) m^3 - (s_i + |z|^2) m^2 - sqrt(w) |z|^2 m + |z|^4
    has three distinct real roots. A, B, C are the residues of f at a, b and
    -c divided by c_i = w_i s_i: f's arrowhead residues rho scaled per atom.
    """

    w: float
    z_mod: float
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray


# ---------------------------------------------------------------------------
# evaluators
# ---------------------------------------------------------------------------

def _atom_cubics(w, m, spec: SigmaSpectrum, z_mod: float):
    """The shape of f, u = sqrt(w), m as complex, and over a leading atom axis
    c_i = w_i s_i, s_i + |z|^2 and the cubics
    p_i(m) = u m^3 - (s_i + |z|^2) m^2 - u |z|^2 m + |z|^4.

    u and m are at least 1-d, so every product runs in numpy's array loops:
    its scalar arithmetic rounds complex products differently, and a scalar
    call would then differ from the same point in a batch.
    """
    u = sqrt_upper(w)
    m = np.asarray(m, dtype=complex)
    z2 = z_mod * z_mod
    shape = np.broadcast(u, m).shape
    u, m = np.atleast_1d(u, m)
    lead = (-1,) + (1,) * max(u.ndim, m.ndim)
    s = np.asarray(spec.s, dtype=float)
    c = (spec.weights * s).reshape(lead)
    q = (s + z2).reshape(lead)
    p = u * m**3 - q * m**2 - u * z2 * m + z2 * z2
    if np.any(np.abs(p) < 1e-300):
        raise SolverError("evaluation point is on a pole of the master function")
    return shape, u, m, z2, c, q, p


def _atom_sum(shape, acc, terms):
    """acc plus the per-atom terms, added one atom at a time in atom order
    (the order fixes the bits), in the shape of f."""
    for t in terms:
        acc = acc + t
    return acc.reshape(shape)[()]


def master_f(w, m, spec: SigmaSpectrum, z_mod: float):
    """f(sqrt(w), m); zero exactly at solutions of the reduced master equation."""
    shape, u, m, z2, c, _, p = _atom_cubics(w, m, spec, z_mod)
    return _atom_sum(shape, -u + m, c * m * (m * m - z2) / p)


def _f_fm(cubics):
    """f and df/dm from the _atom_cubics data, with the p_i', the numerators
    m (m^2 - |z|^2) and their m-derivative that master_f_all reuses.

    The Newton steps read only f and df/dm; they call this alone and get the
    same bits as master_f_all.
    """
    shape, u, m, z2, c, q, p = cubics
    pm = 3 * u * m**2 - 2 * q * m - u * z2
    num = m * (m * m - z2)
    num_m = 3 * m * m - z2
    f = _atom_sum(shape, -u + m, c * num / p)
    fm = _atom_sum(shape, np.ones_like(m), c * (num_m * p - num * pm) / (p * p))
    return f, fm, pm, num, num_m


def master_f_all(w, m, spec: SigmaSpectrum, z_mod: float):
    """f together with df/dm, d2f/dm2, df/dsqrt(w), d2f/(dm dsqrt(w)).

    The derivative formulas follow from the quotient rule applied to each
    rational summand; they are exercised against finite differences in tests.
    """
    cubics = _atom_cubics(w, m, spec, z_mod)
    shape, u, m, z2, c, q, p = cubics
    f, fm, pm, num, num_m = _f_fm(cubics)
    pmm = 6 * u * m - 2 * q
    pu = m**3 - z2 * m
    pum = 3 * m**2 - z2
    num_mm = 6 * m
    p2 = p * p
    p3 = p * p * p
    fmm = _atom_sum(shape, np.zeros_like(m), c * (
        num_mm * p * p - num * p * pmm - 2 * num_m * p * pm + 2 * num * pm * pm
    ) / p3)
    fu = _atom_sum(shape, -np.ones_like(m), -(c * num * pu / p2))
    fum = _atom_sum(shape, np.zeros_like(m), c * (
        -(num_m * pu + num * pum) / p2 + 2 * num * pu * pm / p3
    ))
    return f, fm, fmm, fu, fum


def m2_from_m1(m1, w, z_mod: float):
    """Second transform from the first: m2 = (1+m1) / (-w (1+m1)^2 + |z|^2)."""
    m1 = np.asarray(m1, dtype=complex)
    den = -np.asarray(w, dtype=complex) * (1 + m1) ** 2 + z_mod * z_mod
    if np.any(np.abs(den) < 1e-300):
        raise SolverError("m2 denominator underflow")
    return (1 + m1) / den


# ---------------------------------------------------------------------------
# the arrowhead linearization and the batched solver
# ---------------------------------------------------------------------------

def _cubic_roots(u: np.ndarray, s: np.ndarray, z2: float) -> np.ndarray:
    """Roots of every p_i(m) = u m^3 - (s_i + |z|^2) m^2 - u |z|^2 m + |z|^4.

    u has shape (B,); returns (B, n, 3), real for real u > 0. The dominant
    root a is the largest of Viete's h + 2 r cos(phi - 2 pi k / 3), with
    h = (s_i + |z|^2) / (3u), r^2 = h^2 + |z|^2 / 3; the other two solve
    m^2 + beta m + gamma = 0, gamma = -|z|^4 / (u a), beta = (|z|^2 + gamma) / a,
    stably. Two Newton steps on (u m - |z|^2)(m^2 - |z|^2) - s_i m^2 polish
    all three; this form of p_i keeps its digits where two roots nearly meet.
    """
    uB = u[:, None]
    h = (s + z2) / (3 * uB)
    r = np.sqrt(h * h + z2 / 3)
    # temporary factor first: numpy reuses it in place as the left operand
    cos3 = ((h / r) ** 2 + z2 / (2 * r * r)) * (h / r) - (z2 / r) ** 2 / (2 * uB * r)
    if np.isrealobj(u) and np.any(np.abs(cos3) > 1 + 1e-12):
        raise SolverError(f"a per-atom cubic lost its three real roots (|z| = {np.sqrt(z2)})")
    cos3 = np.clip(cos3, -1.0, 1.0) if np.isrealobj(u) else cos3
    cand = h[..., None] + 2 * r[..., None] * np.cos(
        np.arccos(cos3)[..., None] / 3 - np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3]))
    a = np.take_along_axis(cand, np.argmax(np.abs(cand), axis=-1)[..., None], axis=-1)[..., 0]
    gamma = -z2 * z2 / (uB * a)
    beta = (z2 + gamma) / a
    d = np.sqrt(beta * beta - 4 * gamma)
    t = -0.5 * (beta + np.where((np.conj(beta) * d).real < 0, -d, d))
    r = np.stack([a, t, gamma / t], axis=-1)
    uB, s = uB[..., None], s[:, None]
    for _ in range(2):
        lin, quad = uB * r - z2, r * r - z2
        r = r - (lin * quad - s * r * r) / (uB * quad + 2 * r * lin - 2 * s * r)
    return r


def _arrowhead(u: np.ndarray, spec: SigmaSpectrum, z_mod: float):
    """(alpha, rho, pi) with f(u, m) = m - alpha + sum_k rho_k / (m - pi_k).

    With c_i = w_i s_i: alpha = u - sum_i c_i / u; pi are the roots of the
    per-atom cubics with residues rho = c_i pi (pi^2 - |z|^2) / p_i'(pi). At
    |z| = 0 the cubics degenerate to the poles s_i / u with residues
    c_i s_i / u^2. So they do to double precision wherever |z|^4 is below the
    smallest normal double: the other two roots and their residues are
    O(|z|^2), and the cubic's Newton steps would divide by subnormals.
    """
    s = np.asarray(spec.s, dtype=float)
    c = spec.weights * s
    z2 = z_mod * z_mod
    alpha = u - c.sum() / u
    uB = u[:, None]
    if z2 * z2 < np.finfo(float).tiny:
        return alpha, c * s / (uB * uB), s / uB
    pi = _cubic_roots(u, s, z2)
    uB, s = uB[..., None], s[:, None]
    # p_i' in the factored form of _cubic_roots, u q + 2 m l - 2 s_i m with
    # l = u m - |z|^2 and q = m^2 - |z|^2: it keeps its digits where two roots
    # nearly meet. Where q cancels (a root near +-|z|), q = s_i m^2 / l from
    # p_i = l q - s_i m^2 = 0 does not
    lin, quad = uB * pi - z2, pi * pi - z2
    quad = np.where(np.abs(quad) * (np.abs(uB * pi) + z2) >= np.abs(lin) * np.abs(pi * pi),
                    quad, s * pi * pi / lin)
    dp = uB * quad + 2 * pi * lin - 2 * s * pi
    rho = c[:, None] * pi * quad / dp
    return alpha, rho.reshape(u.size, 3 * s.size), pi.reshape(u.size, 3 * s.size)


def _admissible(m, w):
    """Mask of the m whose m1 = m / sqrt(w) - 1 has Im m1 > 0 and Im(w m1) > 0."""
    m1 = m / sqrt_upper(w) - 1.0
    return (m1.imag > 0) & ((w * m1).imag > 0)


def _newton(w, m, spec: SigmaSpectrum, z_mod: float):
    """Up to POLISH_STEPS Newton steps on f from m (w broadcast to it); a row
    stops once its step is 0, and one with df/dm = 0 stays put."""
    m = np.array(m, dtype=complex)
    w = np.broadcast_to(w, m.shape)
    active = np.ones(m.shape, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(POLISH_STEPS):
            f, fm = _f_fm(_atom_cubics(w[active], m[active], spec, z_mod))[:2]
            step = np.where(np.abs(fm) > 1e-300, f / fm, 0.0)
            m[active] -= step
            active[active] = step != 0
            if not active.any():
                break
    return m


def _polish(w, m, spec: SigmaSpectrum, z_mod: float):
    """Newton steps on f from m; returns (m, |f|).

    A row keeps its start where the steps leave the admissible half-planes
    or raise the residual.
    """
    r0 = np.abs(master_f(w, m, spec, z_mod))
    mp = _newton(w, m, spec, z_mod)
    with np.errstate(all="ignore"):
        r = np.abs(master_f(w, mp, spec, z_mod))
        keep = _admissible(mp, w) & (r <= r0)
    return np.where(keep, mp, m), np.where(keep, r, r0)


def _solve_arrowhead(w, u, spec: SigmaSpectrum, z_mod: float):
    """(m, |f|, n_candidates) from one arrowhead eigensolve per point, in
    real arithmetic where every u is real; m = nan where no root is
    admissible."""
    roots = arrowhead_eigvals(*_arrowhead(u, spec, z_mod))
    adm = _admissible(roots, w[:, None])
    lost = ~adm.any(axis=1) & (w.imag > 0)
    if np.any(lost):
        # above the real axis one root is admissible, but where Im w is near
        # the rounding level of the eigensolve, so are its imaginary parts:
        # Newton steps on f settle their signs before the filter
        roots[lost] = _newton(w[lost, None], roots[lost], spec, z_mod)
        adm[lost] = _admissible(roots[lost], w[lost, None])
    ncand = adm.sum(axis=1)
    idx = np.argmax(adm, axis=1)
    multi = ncand > 1
    if np.any(multi):
        fabs = np.abs(master_f(w[multi, None], roots[multi], spec, z_mod))
        idx[multi] = np.argmin(np.where(adm[multi], fabs, np.inf), axis=1)
    ok = ncand > 0
    m = np.full(w.shape, np.nan + 0j)
    resid = np.full(w.shape, np.inf)
    m[ok], resid[ok] = _polish(w[ok], roots[ok, idx[ok]], spec, z_mod)
    return m, resid, ncand


def _certified(x, m, f, fm):
    """Mask of the roots m at real x, with f and f_m there, that are
    admissible, have |f| <= RESIDUAL_TOL and a forward error |f / f_m| of at
    most FORWARD_RTOL |m|, and whose Im m exceeds that error by a factor 1e3:
    Newton also settles on real roots, whose Im m is rounding noise."""
    fwd = np.abs(f / fm)
    return (_admissible(m, x) & (np.abs(f) <= RESIDUAL_TOL)
            & (fwd <= FORWARD_RTOL * np.abs(m)) & (fwd < 1e-3 * m.imag))


def _newton_certified(x, m, spec: SigmaSpectrum, z_mod: float):
    """Newton steps on f at real x > 0 from m; returns (m, |f|, certified).

    A row stops once its step is at most 1e-15 |m|, or, before the step,
    once its iterate is _certified and the step from it is no shorter than
    the one before: Newton has reached the rounding level of f. It takes at
    most CERTIFY_NEWTON_MAX steps, and its root is certified as _certified
    says.
    """
    m = np.array(m, dtype=complex)
    active = np.ones(m.shape, dtype=bool)
    last = np.full(m.shape, np.inf)
    with np.errstate(all="ignore"):
        for _ in range(CERTIFY_NEWTON_MAX):
            xa, ma = x[active], m[active]
            f, fm = _f_fm(_atom_cubics(xa, ma, spec, z_mod))[:2]
            step = np.where(np.abs(fm) > 1e-300, f / fm, 0.0)
            size = np.abs(step)
            # certify only the rows whose step stalled: few rows, and most steps none
            settled = size >= last[active]
            if settled.any():
                settled[settled] = _certified(xa[settled], ma[settled], f[settled], fm[settled])
                step[settled] = 0.0
            m[active] = ma - step
            last[active] = size
            active[active] = ~(settled | (size <= 1e-15 * np.abs(m[active])))
            if not active.any():
                break
        f, fm = _f_fm(_atom_cubics(x, m, spec, z_mod))[:2]
        ok = _certified(x, m, f, fm)
    return m, np.abs(f), ok


def _nearest(xa, x):
    """Index of the nearest of the ascending xa to each x."""
    j = np.searchsorted(xa, x)
    lo, hi = np.maximum(j - 1, 0), np.minimum(j, xa.size - 1)
    return np.where(x - xa[lo] <= xa[hi] - x, lo, hi)


def _solve_seeded(x, u, spec: SigmaSpectrum, z_mod: float, seeds):
    """(m, |f|, n_candidates) at real x > 0 from seeds, one starting root
    per point, as the density tables take them from the support edges
    (density._fold_seeds): certified Newton from each point's seed, then
    from the root of the nearest point that its seed did certify, then the
    arrowhead at every point that neither settles. A wrong seed costs a
    Newton run and an arrowhead solve, never a wrong answer: every root
    returned is certified or eigensolved.
    """
    m = np.full(x.shape, np.nan + 0j)
    resid = np.full(x.shape, np.inf)
    ncand = np.zeros(x.shape, dtype=int)
    rest = np.ones(x.shape, dtype=bool)

    def certify(pts, start):
        try:
            mn, rn, ok = _newton_certified(x[pts], start, spec, z_mod)
        except SolverError:    # an iterate hit a pole of f: leave it to the arrowhead
            return
        done = pts[ok]
        m[done], resid[done], ncand[done] = mn[ok], rn[ok], 1
        rest[done] = False

    certify(np.arange(x.size), seeds)
    if rest.any() and not rest.all():
        order = np.argsort(x[~rest], kind="stable")
        xa, ma = x[~rest][order], m[~rest][order]
        pts = np.nonzero(rest)[0]
        certify(pts, ma[_nearest(xa, x[pts])])
    if rest.any():
        m[rest], resid[rest], ncand[rest] = _solve_arrowhead(x[rest], u[rest], spec, z_mod)
    return m, resid, ncand


@one_blas_thread
def solve_master_batch(w, spec: SigmaSpectrum, z_mod: float, seeds=None):
    """Vectorized master-equation solve for an array of w in the upper half-plane.

    Returns (m, m1, m2, residual, n_candidates). Entries with no admissible
    root get m = nan and n_candidates = 0 (at real w: outside the support).
    Raises SolverError when a returned root misses RESIDUAL_TOL. The
    eigensolves run on one BLAS thread.

    A batch of real w > 0 with seeds, starting roots in the shape of w as
    the density tables take them from the support edges, is solved by
    certified Newton (_solve_seeded, _newton_certified); only the points
    that no seed certifies are eigensolved. At real x the admissible root is
    unique, so a certified root is the one the arrowhead would pick. Its
    last bits can therefore depend on its seed and on the rest of its batch;
    the same call gives the same bits on every run.

    Every other batch, complex w or real w without seeds, takes one
    arrowhead eigensolve per point; complex w ignore seeds.
    """
    w = np.asarray(w, dtype=complex)
    shape = w.shape
    wf = w.ravel()
    u = sqrt_upper(wf)
    if np.any(u == 0):
        raise DomainError("the master equation needs w != 0")
    real = bool(np.all(u.imag == 0))
    if real and seeds is not None:
        seeds = np.asarray(seeds, dtype=complex).ravel()
        m, resid, ncand = _solve_seeded(wf.real, u.real, spec, z_mod, seeds)
    else:
        m, resid, ncand = _solve_arrowhead(wf, u.real if real else u, spec, z_mod)
    ok = ncand > 0
    if np.any(resid[ok] > RESIDUAL_TOL):
        k = np.argmax(np.where(ok, resid, 0.0))
        raise SolverError(
            f"admissible root at w = {wf[k]} has residual {resid[k]:.2e} "
            f"> {RESIDUAL_TOL:.0e}"
        )
    m1 = m / u - 1.0
    m2 = np.full(wf.shape, np.nan + 0j)
    m2[ok] = m2_from_m1(m1[ok], wf[ok], z_mod)
    return (
        m.reshape(shape),
        m1.reshape(shape),
        m2.reshape(shape),
        resid.reshape(shape),
        ncand.reshape(shape),
    )


def solve_master(w, spec: SigmaSpectrum, z_mod: float) -> MasterSolution:
    """Solve the master equation at a single spectral parameter.

    Arrowhead eigenvalues plus half-plane filtering. Raises SolverError when
    no root is admissible, which at real w means w is outside the support.
    """
    spec.require_normalized()
    wc = complex(w)
    if wc.imag < 0:
        raise DomainError("Im w must be >= 0")
    m, m1, _, resid, ncand = solve_master_batch(np.array([wc]), spec, z_mod)
    n_cand = int(ncand[0])
    if n_cand == 0:
        raise SolverError(f"no admissible root at w = {wc} (|z| = {z_mod})")
    if wc.imag >= UNIQUE_ETA and n_cand > 1:
        warnings.warn(
            f"{n_cand} admissible roots at w = {wc}; selected the smallest "
            "residual (expected a unique solution here)",
            stacklevel=2,
        )
    m1v = complex(m1[0])
    return MasterSolution(
        m_c=complex(m[0]),
        m1c=m1v,
        # through the scalar path, so m2c == m2_from_m1(m1c) holds bit for bit
        m2c=complex(m2_from_m1(m1v, wc, z_mod)),
        residual=float(resid[0]),
        n_candidate_roots=n_cand,
    )


# ---------------------------------------------------------------------------
# factorization of the per-atom cubics (real w > 0, |z| > 0)
# ---------------------------------------------------------------------------

def cubic_factorize(w: float, spec: SigmaSpectrum, z_mod: float) -> CubicFactorization:
    """Roots and partial-fraction coefficients of every per-atom cubic.

    Requires real w > 0 and |z| > 0 (at |z| = 0 the cubic degenerates and the
    rational form of f should be used directly), with |z|^4 a normal double.
    Reads both from the arrowhead data of f at sqrt(w).
    """
    if not (np.isrealobj(w) or complex(w).imag == 0) or not float(np.real(w)) > 0:
        raise DomainError("cubic factorization needs real w > 0")
    if z_mod <= 0 or (z_mod * z_mod) * (z_mod * z_mod) < np.finfo(float).tiny:
        raise DomainError("cubic factorization needs |z| > 0 with |z|^4 a normal double")
    wr = float(np.real(w))
    _, rho, pi = _arrowhead(np.array([np.sqrt(wr)]), spec, z_mod)
    pi, rho = pi.reshape(spec.n, 3), rho.reshape(spec.n, 3)
    order = np.argsort(pi, axis=1)
    neg, b, a = np.take_along_axis(pi, order, axis=1).T
    if not np.all((a > b) & (b > 0) & (0 > neg)):
        raise SolverError(f"cubic root ordering failed (w={wr}, |z|={z_mod})")
    C, B, A = np.take_along_axis(rho, order, axis=1).T / (spec.weights * np.asarray(spec.s))
    return CubicFactorization(w=wr, z_mod=z_mod, a=a, b=b, c=-neg, A=A, B=B, C=C)


# ---------------------------------------------------------------------------
# densities on the real axis
# ---------------------------------------------------------------------------

def density_batch(x, spec: SigmaSpectrum, z_mod: float, seeds=None):
    """(rho1, rho2) at positive x, solved at w = x on the real axis.

    Inside the support the real arrowhead has one conjugate pair of roots;
    its admissible member gives rho = Im m / pi. Outside the support no root
    is admissible and rho = 0. seeds, starting roots in the shape of x,
    spare the solve its eigensolves (see solve_master_batch).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x <= 0):
        raise DomainError("density_batch needs x > 0")
    _, m1, m2, _, ncand = solve_master_batch(x, spec, z_mod, seeds)
    ok = ncand > 0
    rho1, rho2 = np.zeros(x.shape), np.zeros(x.shape)
    rho1[ok] = m1[ok].imag / np.pi
    rho2[ok] = m2[ok].imag / np.pi
    return rho1, rho2


def verify_stieltjes(
    table,
    w_samples,
    spec: SigmaSpectrum,
    z_mod: float,
    quad_tol: float = 1e-5,
) -> float:
    """Max relative gap between quadrature of rho/(x-w) and the direct solve.

    Checks both transforms at every sample. Raises TableTooCoarseError when
    the table's own quadrature-error estimate exceeds quad_tol.
    """
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
        sol = solve_master(w, spec, z_mod)
        worst = max(
            worst,
            abs(q1 - sol.m1c) / abs(sol.m1c),
            abs(q2 - sol.m2c) / abs(sol.m2c),
        )
    return worst
