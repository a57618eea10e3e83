"""Spectral data of Sigma = T T^dag: the distinct eigenvalues, multiplicities and dimensions.

Everything downstream is parameterized by this spectrum; T itself is only
needed in the Monte Carlo module (the deterministic side is rotation invariant).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError

MERGE_RTOL = 1e-10     # relative tolerance for grouping equal eigenvalues
NORM_TOL = 1e-12       # tolerance on (1/K) sum l_i s_i = 1


@dataclass(frozen=True)
class SigmaSpectrum:
    """Distinct nonzero eigenvalues of Sigma with multiplicities.

    s is strictly descending, l holds positive integer multiplicities with
    sum(l) = K = min(N, M). Immutable; safe to share across threads.
    """

    s: tuple[float, ...]
    l: tuple[int, ...]
    N: int
    M: int

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        l = np.asarray(self.l)
        if s.size == 0:
            raise InputError("empty spectrum")
        if np.any(s <= 0) or not np.all(np.isfinite(s)):
            raise InputError("eigenvalues must be positive and finite")
        if np.any(np.diff(s) >= 0):
            raise InputError("eigenvalues must be strictly descending")
        if np.any(l <= 0) or np.any(l != np.asarray(self.l, dtype=int)):
            raise InputError("multiplicities must be positive integers")
        if self.N < 1 or self.M < 1:
            raise InputError("dimensions must be >= 1")
        if int(l.sum()) != self.K:
            raise InputError(
                f"multiplicities sum to {int(l.sum())}, expected K = {self.K}"
            )

    @property
    def K(self) -> int:
        return min(self.N, self.M)

    @property
    def n(self) -> int:
        """Number of distinct nonzero eigenvalues."""
        return len(self.s)

    @property
    def weights(self) -> np.ndarray:
        """l_i / K as floats."""
        return np.asarray(self.l, dtype=float) / self.K

    @property
    def mean(self) -> float:
        """(1/K) sum l_i s_i; equals 1 for a normalized spectrum."""
        return float(np.dot(self.weights, self.s))

    @property
    def is_normalized(self) -> bool:
        return abs(self.mean - 1.0) <= NORM_TOL

    def require_normalized(self) -> None:
        if not self.is_normalized:
            raise DomainError(
                f"spectrum mean is {self.mean!r}, expected 1 within {NORM_TOL}; "
                "normalize first"
            )

    def expand(self) -> np.ndarray:
        """Eigenvalues with multiplicity, descending, length K."""
        return np.repeat(np.asarray(self.s), np.asarray(self.l, dtype=int))


@dataclass(frozen=True)
class ModelParams:
    """Global margin for the validated parameter domain: the half-width of
    the excluded band of |z|^2 around 1."""

    z_band_min: float = 0.05

    def __post_init__(self):
        if self.z_band_min <= 0:
            raise InputError("z_band_min must be positive")

    def check_z(self, z_mod: float) -> None:
        """Reject |z| inside the excluded band around the unit circle."""
        if z_mod < 0:
            raise DomainError("|z| must be nonnegative")
        if abs(z_mod * z_mod - 1.0) < self.z_band_min:
            raise DomainError(
                f"||z|^2 - 1| = {abs(z_mod**2 - 1):.4g} is inside the excluded "
                f"band (z_band_min = {self.z_band_min})"
            )


def _merge_close(values, mult) -> tuple[list[float], list[int]]:
    """Group descending positive values with multiplicities into (distinct
    values, multiplicities): a value within MERGE_RTOL of its group's running
    mean joins the group, whose value becomes the multiplicity-weighted mean."""
    vals: list[float] = []
    counts: list[int] = []
    for v, k in zip(values, mult):
        if vals and abs(vals[-1] - v) <= MERGE_RTOL * abs(vals[-1]):
            n = counts[-1]
            vals[-1] = (vals[-1] * n + v * k) / (n + k)
            counts[-1] = n + int(k)
        else:
            vals.append(float(v))
            counts.append(int(k))
    return vals, counts


def sigma_from_singular_values(
    d, N: int, M: int, auto_normalize: bool = False
) -> SigmaSpectrum:
    """Build the Sigma spectrum from the K = min(N, M) singular values of T.

    Squares the singular values, groups equal ones (relative tolerance 1e-10)
    and optionally rescales so that the spectral mean is exactly 1.
    """
    d = np.asarray(d, dtype=float)
    if d.size == 0:
        raise InputError("empty singular value list")
    if d.size != min(N, M):
        raise InputError(f"expected {min(N, M)} singular values, got {d.size}")
    if np.any(d <= 0) or not np.all(np.isfinite(d)):
        raise InputError("singular values must be positive and finite")
    eig = np.sort(d * d)[::-1]
    s, l = map(np.asarray, _merge_close(eig, np.ones(eig.size, dtype=int)))
    mean = float(np.dot(l, s)) / min(N, M)
    if auto_normalize:
        s = s / mean
    elif abs(mean - 1.0) > NORM_TOL:
        raise InputError(
            f"spectrum mean is {mean!r}, not 1; pass auto_normalize=True or "
            "rescale the input"
        )
    return SigmaSpectrum(s=tuple(s), l=tuple(int(x) for x in l), N=N, M=M)


def normalize_spectrum(s, l, N: int, M: int) -> tuple[SigmaSpectrum, float]:
    """Rescale raw (eigenvalue, multiplicity) data so the spectral mean is 1.

    Accepts unsorted input with repeats; merges equal values after scaling.
    Returns the spectrum and the scale ratio that was applied.
    """
    s = np.asarray(s, dtype=float)
    l = np.asarray(l, dtype=int)
    if s.size == 0 or s.size != l.size:
        raise InputError("s and l must be nonempty and of equal length")
    if np.any(s <= 0):
        raise InputError("eigenvalues must be positive")
    K = min(N, M)
    mean = float(np.dot(l, s)) / K
    ratio = 1.0 / mean
    scaled = s * ratio
    order = np.argsort(scaled)[::-1]
    merged_s, merged_l = _merge_close(scaled[order], l[order])
    return (
        SigmaSpectrum(s=tuple(merged_s), l=tuple(merged_l), N=N, M=M),
        ratio,
    )


def normalize(spec: SigmaSpectrum) -> tuple[SigmaSpectrum, float]:
    """Normalized copy of a spectrum plus the applied ratio. Idempotent."""
    return normalize_spectrum(spec.s, spec.l, spec.N, spec.M)


def sigma_harmonic_mean(spec: SigmaSpectrum) -> float:
    """Harmonic mean of the Sigma spectrum, (K^-1 sum l_i / s_i)^-1.

    This is the |z| -> 0 limit of the zero-edge scale; at most 1 for a
    normalized spectrum with equality only for a single atom.
    """
    return float(spec.K / np.dot(np.asarray(spec.l, dtype=float), 1.0 / np.asarray(spec.s)))


def load_sigma_file(path) -> SigmaSpectrum:
    """Parse the plain-text spectrum format.

    Lines are `key = value` with `#` comments. Arrays use brackets:
    either `s = [..]` and `l = [..]`, or raw singular values `d = [..]`.
    `N` and `M` are required. Optional `normalize = true` rescales.
    """
    data: dict[str, object] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InputError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key = key.strip().lower()
            val = val.strip()
            if val.startswith("["):
                if not val.endswith("]"):
                    raise InputError(f"{path}:{lineno}: unterminated array")
                items = [x for x in val[1:-1].replace(",", " ").split() if x]
                try:
                    data[key] = [float(x) for x in items]
                except ValueError as exc:
                    raise InputError(f"{path}:{lineno}: bad number in array") from exc
            elif val.lower() in ("true", "false"):
                data[key] = val.lower() == "true"
            else:
                try:
                    data[key] = float(val)
                except ValueError as exc:
                    raise InputError(f"{path}:{lineno}: bad value {val!r}") from exc
    if "n" not in data or "m" not in data:
        raise InputError(f"{path}: N and M are required")
    N, M = int(data["n"]), int(data["m"])  # type: ignore[arg-type]
    do_norm = bool(data.get("normalize", False))
    if "d" in data:
        return sigma_from_singular_values(data["d"], N, M, auto_normalize=do_norm)
    if "s" in data and "l" in data:
        s = list(data["s"])  # type: ignore[arg-type]
        l = [int(x) for x in data["l"]]  # type: ignore[union-attr]
        if do_norm:
            spec, _ = normalize_spectrum(s, l, N, M)
            return spec
        order = np.argsort(s)[::-1]
        return SigmaSpectrum(
            s=tuple(np.asarray(s, dtype=float)[order]),
            l=tuple(np.asarray(l, dtype=int)[order]),
            N=N,
            M=M,
        )
    raise InputError(f"{path}: provide either d = [..] or both s = [..] and l = [..]")
