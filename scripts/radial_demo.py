#!/usr/bin/env python3
"""Radial eigenvalue-density profile of T X for the identity and two-atom cases.

Writes r, U, chi, F per model. For T = I the profile should approach the
uniform unit disk: chi = 1 inside, 0 outside, F(r) = r^2.

    python scripts/radial_demo.py --out out/radial
"""

import argparse
from pathlib import Path

import numpy as np

import txlaw


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/radial")
    ap.add_argument("--rmin", type=float, default=0.1)
    ap.add_argument("--rmax", type=float, default=2.0)
    ap.add_argument("--step", type=float, default=0.005)
    args = ap.parse_args()

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    models = {
        "identity": txlaw.SigmaSpectrum(s=(1.0,), l=(1000,), N=1000, M=1000),
        "two_atom": txlaw.SigmaSpectrum(s=(32 / 17, 2 / 17), l=(500, 500),
                                        N=1000, M=1000),
    }
    for name, spec in models.items():
        profile = txlaw.compute_radial_profile(spec, args.rmin, args.rmax, h=args.step)
        txlaw.write_radial_csv(profile, outdir / f"radial_{name}.csv")
        ok = np.isfinite(profile.chi)
        print(f"{name}: chi in [{profile.chi[ok].min():+.4f}, "
              f"{profile.chi[ok].max():+.4f}], "
              f"F({args.rmax:g}) = {profile.F[ok][-1]:.4f}, "
              f"consistency gap {profile.consistency_gap():.2e}")


if __name__ == "__main__":
    main()
