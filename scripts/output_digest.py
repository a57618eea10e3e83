#!/usr/bin/env python3
"""SHA-256 digests of the CLI outputs on two small fixed spectra.

    python scripts/output_digest.py OUTDIR

Writes a fig2 spectrum (s = 32/17, 2/17, N = M = 200) and a ten-value
spectrum given as raw `d` with `normalize = true` (K = 200) to OUTDIR, then
runs through `txlaw.cli.main`:

- `edges`, `density` and `quantiles` on both at |z| = 0.5, 1.2 and 1.5,
  once at the default `--grid` and once at `--grid 200` (there the table
  splits segments on fig2 at |z| = 1.2 and 1.5, which the default one
  does not); and `edges` at |z| = 0;
- `chi` on fig2, at default sizes;
- `simulate` on fig2: 2 runs of the square case, and 1 run of a tall
  (N = 400, M = 200) Haar T with skewed entries.

It prints `sha256  path` for every output but `manifest.json`, with paths
relative to OUTDIR. `summary.json` is hashed without its per-run wall times
(`elapsed`). Two trees give the same outputs iff their listings are equal:

    diff <(python scripts/output_digest.py a) <(PYTHONPATH=other/src python scripts/output_digest.py b)
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from txlaw.cli import main as txlaw_main

FIG2 = "N = 200\nM = 200\ns = [1.8823529411764706, 0.11764705882352941]\nl = [100, 100]\n"
# ten values in two clusters 3% apart, like the law-many-atoms benchmark workload
_SPREAD = 1 + 0.03 * np.arange(5) + np.array([[0.002, -0.004, 0.001, 0.003, -0.002],
                                              [-0.001, 0.004, -0.003, 0.002, 0.0]])
_D = np.concatenate([np.repeat(np.sqrt(6.0) * _SPREAD[0], 4),
                     np.repeat(np.sqrt(0.3) * _SPREAD[1], 36)])
MANY = f"N = 200\nM = 200\nd = [{', '.join(map(repr, _D.tolist()))}]\nnormalize = true\n"


def runs(outdir: Path) -> list[list[str]]:
    argvs = []
    for name in ("fig2", "many"):
        sigma = ["--sigma", str(outdir / f"{name}.cfg")]
        argvs.append(["edges", *sigma, "--z", "0", "--out", str(outdir / name / "edges_z0")])
        for z in ("0.5", "1.2", "1.5"):
            for cmd in ("edges", "density", "quantiles"):
                out = outdir / name / f"{cmd}_z{z}"
                argvs.append([cmd, *sigma, "--z", z, "--out", str(out)])
                argvs.append([cmd, *sigma, "--z", z, "--grid", "200", "--out", f"{out}_grid200"])
    fig2 = ["--sigma", str(outdir / "fig2.cfg")]
    argvs += [
        ["chi", *fig2, "--out", str(outdir / "fig2" / "chi")],
        ["simulate", *fig2, "--z", "1.5", "--runs", "2", "--seed", "5",
         "--out", str(outdir / "fig2" / "simulate_square")],
        ["simulate", *fig2, "--z", "0.5", "--runs", "1", "--seed", "6", "--N", "400",
         "--M", "200", "--tmode", "haar", "--dist", "skewed",
         "--out", str(outdir / "fig2" / "simulate_tall")],
    ]
    return argvs


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "summary.json":
        summary = json.loads(data)
        del summary["elapsed"]
        data = json.dumps(summary, indent=2).encode()
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("outdir")
    outdir = Path(ap.parse_args().outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "fig2.cfg").write_text(FIG2)
    (outdir / "many.cfg").write_text(MANY)
    for argv in runs(outdir):
        code = txlaw_main(argv)
        if code != 0:
            print(f"error: txlaw {' '.join(argv)} exited {code}", file=sys.stderr)
            return 1
    for path in sorted(outdir.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            print(f"{digest(path)}  {path.relative_to(outdir)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
