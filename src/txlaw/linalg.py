"""Dense numerical kernels behind the engine: eigen/SVD/QR/polynomial roots.

Thin contracts over LAPACK (symmetric and nonsymmetric eigensolvers run
balanced Hessenberg/QR iterations internally; SVD is Golub-Kahan style).
Each wrapper pins the residual and orthogonality guarantees the rest of the
engine relies on, with deterministic ordering conventions.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import InputError


def _require_symmetric(A, name: str) -> np.ndarray:
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InputError(f"{name} needs a square matrix")
    scale = np.max(np.abs(A)) or 1.0
    if np.max(np.abs(A - A.conj().T)) > 1e-12 * scale:
        raise InputError("matrix is not symmetric to 1e-12 relative")
    return A


def symmetric_eigen(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a symmetric matrix.

    Requires symmetry to 1e-12 relative; A V = V diag(lam) holds to
    1e-10 ||A|| and V is orthonormal to 1e-12.
    """
    lam, V = np.linalg.eigh(_require_symmetric(A, "symmetric_eigen"))
    return lam, V


def symmetric_eigvals(A: np.ndarray) -> np.ndarray:
    """Eigenvalues (ascending) of a symmetric matrix, checked as in symmetric_eigen."""
    return np.linalg.eigvalsh(_require_symmetric(A, "symmetric_eigvals"))


def svd(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(U, singular values descending, Vh) with A = U @ diag(s) @ Vh."""
    A = np.asarray(A)
    if A.ndim != 2:
        raise InputError("svd needs a matrix")
    if not np.all(np.isfinite(A)):
        raise InputError("svd needs finite entries")
    U, s, Vh = np.linalg.svd(A, full_matrices=False)
    return U, s, Vh


def general_eigenvalues(A: np.ndarray) -> np.ndarray:
    """All complex eigenvalues of a square matrix, sorted by (real, imag).

    For real input, complex eigenvalues come in exact conjugate pairs.
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InputError("general_eigenvalues needs a square matrix")
    ev = np.linalg.eigvals(A)
    return ev[np.lexsort((ev.imag, ev.real))]


def companion_roots(coeffs) -> np.ndarray:
    """Roots of a polynomial given by descending coefficients.

    Takes the eigenvalues of the companion matrix and applies one Newton
    polish per root. Leading coefficient must exceed 1e-300 after rescaling
    by the largest coefficient.
    """
    c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    if c.size < 2:
        return np.empty(0, dtype=complex)
    scale = np.max(np.abs(c))
    if scale == 0 or not np.isfinite(scale):
        raise InputError("zero or non-finite polynomial")
    c = c / scale
    if np.abs(c[0]) < 1e-300:
        raise InputError("degenerate leading coefficient")
    c = c / c[0]
    d = c.size - 1
    C = np.zeros((d, d), dtype=complex)
    C[np.arange(1, d), np.arange(d - 1)] = 1.0
    C[0, :] = -c[1:]
    roots = np.linalg.eigvals(C)
    # one Newton step: Horner for P and P'
    val = np.zeros_like(roots)
    der = np.zeros_like(roots)
    for ck in c:
        der = der * roots + val
        val = val * roots + ck
    with np.errstate(all="ignore"):
        step = np.where(np.abs(der) > 1e-300, val / der, 0.0)
        step = np.where(np.abs(step) < 0.5 * (1 + np.abs(roots)), step, 0.0)
    return roots - step


def arrowhead_eigvals(alpha: np.ndarray, rho: np.ndarray, poles: np.ndarray) -> np.ndarray:
    """Row-wise roots of m - alpha + sum_k rho_k / (m - poles_k).

    They are the eigenvalues of the arrowhead matrix [[alpha, -rho^T],
    [1, diag(poles)]], the partial-fraction linearization of the rational
    function (Su-Bai, SIMAX 32, 2011). alpha has shape (B,), rho and poles
    (B, d); real input is solved in real arithmetic, where non-real roots
    come in exact conjugate pairs. Returns (B, d + 1) complex.
    """
    poles = np.asarray(poles)
    B, d = poles.shape
    A = np.zeros((B, d + 1, d + 1), dtype=np.result_type(alpha, rho, poles))
    A[:, 0, 0] = alpha
    A[:, 0, 1:] = -np.asarray(rho)
    A[:, 1:, 0] = 1.0
    k = np.arange(1, d + 1)
    A[:, k, k] = poles
    return np.linalg.eigvals(A).astype(complex, copy=False)


def symmetric_arrowhead_eigvals(alpha: np.ndarray, beta: np.ndarray,
                                poles: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the real symmetric arrowheads [[alpha, beta^T],
    [beta, diag(poles)]], over any leading axes: alpha (...,), beta and poles
    (..., d). They are the roots of the secular equation
    m - alpha - sum_k beta_k^2 / (m - poles_k) = 0. Returns (..., d + 1).
    """
    poles = np.asarray(poles, dtype=float)
    d = poles.shape[-1]
    H = np.zeros(poles.shape[:-1] + (d + 1, d + 1))
    H[..., 0, 0] = alpha
    H[..., 0, 1:] = H[..., 1:, 0] = beta
    k = np.arange(1, d + 1)
    H[..., k, k] = poles
    return np.linalg.eigvalsh(H)


def arrowhead_derivative_eigvals(rho: np.ndarray, poles: np.ndarray) -> np.ndarray:
    """Row-wise roots of 1 - sum_k rho_k / (m - poles_k)^2, the m-derivative
    of the function whose roots arrowhead_eigvals returns.

    With one Jordan block J_k = [[poles_k, 1], [0, poles_k]] per pole,
    b_k = e_2 and c_k = -rho_k e_1^T, the derivative is 1 + C (m I - A)^-1 B
    for A = blockdiag(J_k), so its 2d zeros are the eigenvalues of A - B C:
    each J_k with rho_k added along the second row of every block. rho and
    poles have shape (B, d); real input is solved in real arithmetic.
    Returns (B, 2 d) complex.
    """
    poles = np.asarray(poles)
    B, d = poles.shape
    A = np.zeros((B, 2 * d, 2 * d), dtype=np.result_type(rho, poles))
    k = np.arange(0, 2 * d, 2)
    A[:, k[:, None] + 1, k] = np.asarray(rho)[:, None, :]
    A[:, k, k] = A[:, k + 1, k + 1] = poles
    A[:, k, k + 1] = 1.0
    return np.linalg.eigvals(A).astype(complex, copy=False)


@functools.cache
def _blas_thread_fns():
    """(get, set) of the thread count of numpy's OpenBLAS; () without one."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob(
        "libscipy_openblas64_*.so"))
    try:
        lib = ctypes.CDLL(str(libs[0]))
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (IndexError, OSError, AttributeError):
        return ()
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


_BLAS_LOCK = threading.Lock()
_BLAS_OPEN: list[list[int]] = []      # [n] of each open blas_threads block, oldest first
_BLAS_SAVED = [0]                     # the count before the oldest open block


@contextmanager
def blas_threads(n: int):
    """Run the block with OpenBLAS on n threads; restore the caller's count after.

    The count is global to the process (OpenBLAS's thread-local setter is not
    thread-local in numpy's build). Blocks may nest and may be open on
    several threads at once: a block that closes sets the count of the
    newest block still open, and the last one restores the count from
    before the first. Without numpy's OpenBLAS this does nothing.
    """
    fns = _blas_thread_fns()
    if not fns:
        yield
        return
    get, set_ = fns
    entry = [n]
    with _BLAS_LOCK:
        if not _BLAS_OPEN:
            _BLAS_SAVED[0] = get()
        _BLAS_OPEN.append(entry)
        set_(n)
    try:
        yield
    finally:
        with _BLAS_LOCK:
            del _BLAS_OPEN[next(i for i, e in enumerate(_BLAS_OPEN) if e is entry)]
            set_(_BLAS_OPEN[-1][0] if _BLAS_OPEN else _BLAS_SAVED[0])


def one_blas_thread(fn):
    """fn run under blas_threads(1): the law's entry points solve many small
    eigenproblems, which OpenBLAS runs slower on more threads, and much
    slower when another process holds a core."""
    @functools.wraps(fn)
    def run(*args, **kwargs):
        with blas_threads(1):
            return fn(*args, **kwargs)
    return run


def qr_haar(n: int, rng: np.random.Generator, k: int | None = None) -> np.ndarray:
    """The first k columns (default all n) of an n x n Haar orthogonal matrix.

    Draws the whole n x n Gaussian block G, so the generator advances by the
    same n^2 normals for every k, but factors only G[:, :k]: a reduced QR
    with R-sign correction (Mezzadri, Notices AMS 54, 2007). The first k
    columns of the full sign-corrected Q depend only on G[:, :k], so the
    sample is the same for every k; only the rounding of LAPACK's blocking
    can differ in the last bits.
    """
    k = n if k is None else k
    if not 1 <= k <= n:
        raise InputError(f"qr_haar needs 1 <= k <= n, got n = {n}, k = {k}")
    G = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(G[:, :k])
    sgn = np.sign(np.diag(R))
    sgn[sgn == 0] = 1.0
    return Q * sgn


def operator_norm_estimate(
    A: np.ndarray, iters: int = 300, seed: int = 0
) -> float:
    """Power-iteration estimate of the spectral norm (a lower bound)."""
    A = np.asarray(A)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(A.shape[1])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = A.conj().T @ (A @ v)
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        v = w / nw
    return float(np.linalg.norm(A @ v))
