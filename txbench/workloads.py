"""The benchmark's workloads: inputs drawn from the seed, and one round of CLI ops.

A round is a fixed sequence of `txlaw` commands. Every random choice comes
from the workload seed: |z| from fixed ranges, the jitter of the many-atom
spectrum, the chi grid offset and the Monte Carlo seeds. The program sees
only the spectrum files written here and the command-line flags.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import oracles as O

ZBAND = 0.05                        # the CLI default, passed explicitly
FIG2_S = (32 / 17, 2 / 17)


@dataclass
class Op:
    """One CLI command; `runs` ensemble runs inside it count as operations too."""

    label: str                      # the command's timing group, e.g. "edges"
    argv: list[str]
    check: Callable[[Path], tuple[list[str], int]]   # -> (errors, failed runs)
    runs: int = 0


@dataclass
class Workload:
    files: dict[str, str]                          # spectrum file name -> text
    ops: Callable[[Path, Path], list[Op]]          # (input dir, output dir) -> one round
    oracle_values: Callable[[], dict]

    def write_inputs(self, indir: Path) -> None:
        indir.mkdir(parents=True, exist_ok=True)
        for fname, text in self.files.items():
            (indir / fname).write_text(text)


def _spec_text(N: int, M: int, **arrays) -> str:
    lines = [f"N = {N}", f"M = {M}"]
    for key, vals in arrays.items():
        if isinstance(vals, bool):
            lines.append(f"{key} = {'true' if vals else 'false'}")
        else:
            lines.append(f"{key} = [{', '.join(repr(float(v)) for v in vals)}]")
    return "\n".join(lines) + "\n"


def _law_ops(name: str, law: O.Law, zs: list[float],
             grid: list[str]) -> Callable[[Path, Path], list[Op]]:
    """edges and density at each |z|."""
    def build(indir: Path, outdir: Path) -> list[Op]:
        spec = str(indir / name)
        ops = []
        for k, z in enumerate(zs):
            common = ["--sigma", spec, "--z", repr(z), "--zband", repr(ZBAND), *grid]
            ops += [
                Op("edges", ["edges", *common, "--out", str(outdir / f"edges{k}")],
                   lambda o, z=z: (checks.check_edges(o, law, z), 0)),
                Op("density", ["density", *common, "--out", str(outdir / f"density{k}")],
                   lambda o, z=z: (checks.check_density(o, law, z), 0)),
            ]
        return ops
    return build


def _table(x, y) -> dict[str, float]:
    return dict(zip(map(repr, np.asarray(x).tolist()), np.asarray(y).tolist()))


def _law_oracle_values(law: O.Law, zs: list[float]) -> dict:
    out = {"law": {"s": law.s, "w": law.w}, "z": {}}
    for z in zs:
        bands = O.support_bands(law, z)
        x = np.concatenate([np.linspace(lo, hi, 6)[1:-1] for lo, hi in bands])
        out["z"][repr(z)] = {
            "bands": bands,
            "gap_edge": O.gap_edge(law, z) if z > 1 else None,
            "rho2": _table(x, O.rho2(law, z, x)),
        }
    return out


def law_fig2(seed: int) -> Workload:
    """The paper's two-atom spectrum: edges and density at three |z|, quantiles at one, chi."""
    rng = np.random.default_rng([seed, 1])
    zs = [float(rng.uniform(c - 0.02, c + 0.02)) for c in (0.5, 1.2, 1.5)]
    # 0.2-wide grid straddling the unit circle; offsets below 0.004 keep
    # 8 rows on each side of the excluded band for every seed
    rmin = 0.9 + float(rng.uniform(0.0, 0.004))
    rstep = 0.01
    N = 1000
    law = O.Law.from_counts(FIG2_S, [N // 2, N // 2])
    laws = _law_ops("fig2.cfg", law, zs, [])

    def build(indir: Path, outdir: Path) -> list[Op]:
        spec = str(indir / "fig2.cfg")
        z = zs[1]
        quantiles = Op("quantiles", ["quantiles", "--sigma", spec, "--z", repr(z),
                                     "--zband", repr(ZBAND), "--out", str(outdir / "quantiles")],
                       lambda o: (checks.check_quantiles(o, law, z, N), 0))
        chi = Op("chi", ["chi", "--sigma", spec, "--zband", repr(ZBAND),
                         "--rmin", repr(rmin), "--rmax", repr(rmin + 0.2),
                         "--rstep", repr(rstep), "--out", str(outdir / "chi")],
                 lambda o: (checks.check_radial(o, law, ZBAND, rstep), 0))
        return laws(indir, outdir) + [quantiles, chi]

    def oracle_values() -> dict:
        vals = _law_oracle_values(law, zs)
        r = rmin + rstep * np.arange(21)
        r = r[np.abs(r * r - 1) >= ZBAND]
        vals["radial"] = {k: _table(r, v) for k, v in O.radial_law(law, r).items()}
        vals["radial_selfcheck_error"] = O.radial_selfcheck()
        return vals

    return Workload({"fig2.cfg": _spec_text(N, N, s=FIG2_S, l=[N // 2] * 2)},
                    build, oracle_values)


def law_many_atoms(seed: int) -> Workload:
    """Ten distinct singular values in two clusters, given raw with normalize = true."""
    rng = np.random.default_rng([seed, 2])
    zs = [float(rng.uniform(c - 0.02, c + 0.02)) for c in (0.5, 1.5)]
    K = 200
    # 5 values 3% apart near each centre, jittered by up to 0.5%; the clusters
    # keep two clear bands at both |z| (the low band at |z| = 1.5 has no cusp)
    spread = 1 + 0.03 * np.arange(5) + rng.uniform(-0.005, 0.005, size=(2, 5))
    d = np.concatenate([np.repeat(np.sqrt(6.0) * spread[0], 4),
                        np.repeat(np.sqrt(0.3) * spread[1], 36)])
    law = O.Law.from_counts(d * d, np.ones(K))
    # a 200-point scan and table: the default 2000 costs 2.7x and finds the same bands
    build = _law_ops("many.cfg", law, zs, ["--grid", "200"])
    return Workload({"many.cfg": _spec_text(K, K, d=d, normalize=True)},
                    build, lambda: _law_oracle_values(law, zs))


def ensemble(seed: int) -> Workload:
    """Two simulate commands that split parallelism between the pool and BLAS."""
    rng = np.random.default_rng([seed, 3])
    z_sq = float(rng.uniform(1.48, 1.52))
    z_rect = float(rng.uniform(0.48, 0.52))
    seed_sq, seed_rect = (int(v) for v in rng.integers(0, 2**31, size=2))
    K, N_rect, runs_sq = 600, 1200, 4
    law = O.Law.from_counts(FIG2_S, [K // 2, K // 2])
    files = {"square.cfg": _spec_text(K, K, s=FIG2_S, l=[K // 2] * 2),
             "rect.cfg": _spec_text(N_rect, K, s=FIG2_S, l=[K // 2] * 2)}

    def build(indir: Path, outdir: Path) -> list[Op]:
        sq, rect = outdir / "square", outdir / "rect"
        return [
            Op("simulate_square",
               ["simulate", "--sigma", str(indir / "square.cfg"), "--z", repr(z_sq),
                "--zband", repr(ZBAND), "--runs", str(runs_sq), "--seed", str(seed_sq),
                "--threads", "2", "--dist", "gauss", "--tmode", "diagonal", "--out", str(sq)],
               lambda o: checks.check_simulate(o, law, z_sq, K, K, runs_sq, ZBAND), runs_sq),
            Op("simulate_rect",
               ["simulate", "--sigma", str(indir / "rect.cfg"), "--z", repr(z_rect),
                "--zband", repr(ZBAND), "--runs", "1", "--seed", str(seed_rect),
                "--dist", "skewed", "--tmode", "haar", "--out", str(rect)],
               lambda o: checks.check_simulate(o, law, z_rect, N_rect, K, 1, ZBAND), 1),
        ]

    def oracle_values() -> dict:
        out = {"law": {"s": law.s, "w": law.w}}
        for label, z in (("square", z_sq), ("rect", z_rect)):
            x = np.linspace(0.0, 10.0, 11)
            out[label] = {"z": z, "singular_cdf": _table(x, O.singular_cdf(law, z)(x))}
        r = np.arange(0.1, 1.0, 0.1)
        out["radial_F"] = _table(r, O.radial_F(law, r))
        return out

    return Workload(files, build, oracle_values)


WORKLOADS = {"law-fig2": law_fig2, "law-many-atoms": law_many_atoms, "ensemble": ensemble}
