"""Checks of the files one CLI command wrote, against the oracles in oracles.py.

Each check returns a list of messages, empty when the output is correct.
The tolerances sit well above the agreement measured on working code (see
README.md) and far below any error a wrong root branch, a missed band or a
shifted quantile produces.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

import oracles as O

MASS_TOL = 1e-4        # |total_mass - 1| in manifest.json
EDGE_RTOL = 1e-8       # relative, engine edge against the Dyson fold
DENSITY_RTOL = 1e-8    # relative, rho2 at bulk nodes against the Dyson density
QUANTILE_TOL = 1e-8    # |Dyson CDF(gamma_j) - j/N|
RADIAL_TOL = {"F": 1e-6, "chi": 2e-5, "U": 1e-7}   # absolute, against Haagerup-Larsen
RADIAL_ECDF_TOL = 0.04
SINGULAR_ECDF_TOL = 0.02
ZERO_EIG_TOL = 1e-8
BULK_NODES = 32


def _read(path: Path, header: list[str], errors: list[str]) -> np.ndarray | None:
    """The CSV body as floats, or None with a message when it is unreadable."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            got = next(reader)
            if got != header:
                raise ValueError(f"header {got} is not {header}")
            return np.array([[float(v) for v in row] for row in reader]).reshape(-1, len(header))
    except (OSError, ValueError, StopIteration) as exc:
        errors.append(f"{path.name}: {exc}")
        return None


def _mass(outdir: Path, errors: list[str]) -> None:
    try:
        mass = json.loads((outdir / "manifest.json").read_text())["total_mass"]
    except (OSError, ValueError, KeyError) as exc:
        errors.append(f"manifest.json: {exc}")
        return
    if not abs(mass - 1.0) <= MASS_TOL:
        errors.append(f"total_mass {mass} misses 1 by more than {MASS_TOL}")


def _bands(profile: dict, law: O.Law, z: float, errors: list[str]) -> None:
    """Bands and edges of a SupportProfile dict against the Dyson support."""
    want = O.support_bands(law, z)
    got = sorted(tuple(b) for b in profile["bands"])
    if len(got) != len(want):
        errors.append(f"|z| = {z}: {len(got)} bands, Dyson equation gives {len(want)}")
        return
    for (glo, ghi), (wlo, whi) in zip(got, want):
        for g, w in ((glo, wlo), (ghi, whi)):
            if (w == 0.0) != (g == 0.0) or (w and not abs(g - w) <= EDGE_RTOL * w):
                errors.append(f"|z| = {z}: band edge {g!r}, Dyson fold {w!r}")
    if (profile["zero_edge"] is not None) != (want[0][0] == 0.0):
        errors.append(f"|z| = {z}: zero_edge does not match a band touching 0")
    edges = profile["edges"]
    if not edges or not all(e["refined"] for e in edges):
        errors.append(f"|z| = {z}: an edge is missing or has refined = false")
    folds = {e for b in want for e in b if e}
    for e in edges:
        if not any(abs(e["e"] - f) <= EDGE_RTOL * f for f in folds):
            errors.append(f"|z| = {z}: edge {e['e']!r} is no Dyson fold")
    if z > 1:
        gap = O.gap_edge(law, z)
        lowest = got[0][0]
        if not abs(lowest - gap) <= EDGE_RTOL * gap:
            errors.append(f"|z| = {z}: lowest edge {lowest!r}, Dyson gap edge {gap!r}")


def check_edges(outdir: Path, law: O.Law, z: float) -> list[str]:
    errors: list[str] = []
    try:
        profile = json.loads((outdir / "edges.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"edges.json: {exc}"]
    _bands(profile, law, z, errors)
    return errors


def check_density(outdir: Path, law: O.Law, z: float) -> list[str]:
    """Bands, mass, and rho2 at evenly spaced bulk nodes against the Dyson density."""
    errors: list[str] = []
    _mass(outdir, errors)
    try:
        _bands(json.loads((outdir / "bands.json").read_text()), law, z, errors)
    except (OSError, ValueError) as exc:
        errors.append(f"bands.json: {exc}")
    rows = _read(outdir / "density.csv", ["x", "rho2c"], errors)
    if rows is None:
        return errors
    x, rho = rows[:, 0], rows[:, 1]
    bulk = np.zeros(x.size, dtype=bool)
    for lo, hi in O.support_bands(law, z):
        margin = 0.05 * (hi - lo)
        bulk |= (x > lo + margin) & (x < hi - margin)
    idx = np.flatnonzero(bulk)
    if idx.size < BULK_NODES:
        return errors + [f"only {idx.size} density nodes in the bulk"]
    pick = idx[np.linspace(0, idx.size - 1, BULK_NODES).astype(int)]
    want = O.rho2(law, z, x[pick])
    rel = np.abs(rho[pick] - want) / want
    if not np.max(rel) <= DENSITY_RTOL:
        k = int(np.argmax(rel))
        errors.append(f"rho2({float(x[pick][k])!r}) = {float(rho[pick][k])!r}, "
                      f"Dyson gives {float(want[k])!r}")
    return errors


def check_quantiles(outdir: Path, law: O.Law, z: float, N: int) -> list[str]:
    """N nondecreasing quantiles inside the bands, each at Dyson mass j/N."""
    errors: list[str] = []
    _mass(outdir, errors)
    rows = _read(outdir / "quantiles.csv", ["j", "gamma_j"], errors)
    if rows is None:
        return errors
    if rows.shape[0] != N or not np.array_equal(rows[:, 0], np.arange(1, N + 1)):
        return errors + [f"quantiles.csv has not the rows j = 1..{N}"]
    g = rows[:, 1]
    if np.any(np.diff(g) < 0):
        errors.append("quantiles decrease")
    bands = O.support_bands(law, z)
    inside = np.zeros(N, dtype=bool)
    for lo, hi in bands:
        inside |= (g >= lo * (1 - EDGE_RTOL)) & (g <= hi * (1 + EDGE_RTOL))
    if not inside.all():
        return errors + [f"quantile {float(g[~inside][0])!r} lies outside the bands {bands}"]
    g = np.sort(g)
    for lo, hi in bands:               # snap the EDGE_RTOL slack onto the band
        on = (g >= lo * (1 - EDGE_RTOL)) & (g <= hi * (1 + EDGE_RTOL))
        g[on] = np.clip(g[on], lo, hi)
    cdf, total = O.band_cdf(law, z, bands, g)
    err = np.abs(cdf - np.arange(1, N + 1) / N)
    if not np.max(err) <= QUANTILE_TOL:
        j = int(np.argmax(err))
        errors.append(f"Dyson mass below gamma_{j + 1} is {float(cdf[j])!r}, not {(j + 1) / N!r}")
    if not abs(total - 1.0) <= QUANTILE_TOL:
        errors.append(f"Dyson mass of the bands is {total!r}")
    return errors


def check_radial(outdir: Path, law: O.Law, zband: float, h: float) -> list[str]:
    """radial.csv against the Haagerup-Larsen law; nothing inside the excluded band."""
    errors: list[str] = []
    rows = _read(outdir / "radial.csv", ["r", "U", "chi", "F"], errors)
    if rows is None:
        return errors
    if rows.shape[0] == 0:
        return errors + ["radial.csv has no rows"]
    r = rows[:, 0]
    hole = np.abs(r * r - 1.0) < zband
    if hole.any():
        errors.append(f"row r = {float(r[hole][0])!r} lies inside |r^2 - 1| < {zband}")
    # stencils may be cut only by the hole: a NaN row sits within 2 steps of it
    r_in, r_out = np.sqrt(1 - zband), np.sqrt(1 + zband)
    near = (np.abs(r - r_in) <= 2 * h + 1e-12) | (np.abs(r - r_out) <= 2 * h + 1e-12)
    nan = ~np.isfinite(rows[:, 2]) | ~np.isfinite(rows[:, 3])
    if np.any(nan & ~near) or not np.all(np.isfinite(rows[:, 1])):
        errors.append("a NaN row away from the excluded band")
    want = O.radial_law(law, r)
    for name, col in (("U", 1), ("F", 3), ("chi", 2)):
        ok = np.isfinite(rows[:, col])
        err = np.abs(rows[ok, col] - want[name][ok])
        if err.size and not np.max(err) <= RADIAL_TOL[name]:
            k = int(np.argmax(err))
            errors.append(f"{name}({float(r[ok][k])!r}) = {float(rows[ok, col][k])!r}, "
                          f"Haagerup-Larsen gives {float(want[name][ok][k])!r}")
    return errors


def check_simulate(outdir: Path, law: O.Law, z: float, N: int, K: int,
                   runs: int, zband: float) -> tuple[list[str], int]:
    """(command errors, number of failed runs) for one simulate output.

    A run fails when it is missing from either CSV or has the wrong number of
    eigenvalues, singular values or trivial zeros. The pooled radial and
    singular ECDFs of the runs that passed are checked against the laws.
    """
    errors: list[str] = []
    eig = _read(outdir / "eigenvalues.csv", ["run", "re", "im"], errors)
    sing = _read(outdir / "singular.csv", ["run", "z_re", "z_im", "lambda"], errors)
    if eig is None or sing is None:
        return errors, runs
    moduli, lams, failed = [], [], 0
    for k in range(runs):
        mu = eig[eig[:, 0] == k]
        lam = sing[sing[:, 0] == k]
        mod = np.hypot(mu[:, 1], mu[:, 2])
        if (mu.shape[0] != N or lam.shape[0] != K or np.any(lam[:, 3] < 0)
                or np.any(lam[:, 1] != z) or np.any(lam[:, 2] != 0)
                or int(np.sum(mod <= ZERO_EIG_TOL)) != N - K):
            failed += 1
            continue
        moduli.append(np.sort(mod)[N - K:])
        lams.append(lam[:, 3])
    if not moduli:
        return errors + ["no run passed"], failed
    if set(np.unique(np.r_[eig[:, 0], sing[:, 0]])) - set(range(runs)):
        errors.append("a CSV holds an unexpected run index")
    mod = np.sort(np.concatenate(moduli))
    r = np.arange(0.05, 1.5, 0.01)
    r = r[np.abs(r * r - 1.0) >= 2 * zband]
    dev = np.max(np.abs(np.searchsorted(mod, r, side="right") / mod.size - O.radial_F(law, r)))
    if not dev <= RADIAL_ECDF_TOL:
        errors.append(f"radial ECDF is {dev:.4f} from Haagerup-Larsen F")
    lam = np.sort(np.concatenate(lams))
    C = O.singular_cdf(law, z)(lam)
    n = lam.size
    dev = max(np.max(np.abs(np.arange(1, n + 1) / n - C)), np.max(np.abs(np.arange(n) / n - C)))
    if not dev <= SINGULAR_ECDF_TOL:
        errors.append(f"singular ECDF is {dev:.4f} from the Dyson law")
    return errors, failed
