#!/usr/bin/env python3
"""Sample product ensembles and compare spectra against the deterministic laws.

Runs three quick checks at a configurable size: the singular-spectrum CDF
against the tabulated density, the radial eigenvalue CDF against F(r), and
the ordered-eigenvalue gaps against the classical locations.

    python scripts/ensemble_check.py --N 400 --runs 10 --seed 3
"""

import argparse

import numpy as np

import txlaw


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--N", type=int, default=400)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--z", type=float, default=1.5)
    ap.add_argument("--dist", default="gauss",
                    choices=["gauss", "rademacher", "skewed"])
    args = ap.parse_args()

    N = args.N
    spec = txlaw.SigmaSpectrum(s=(32 / 17, 2 / 17), l=(N // 2, N - N // 2),
                               N=N, M=N)
    cfg = txlaw.EnsembleConfig(N=N, M=N, spec=spec, x_dist=args.dist,
                               z_list=(complex(args.z),), runs=args.runs,
                               seed=args.seed, threads=2)
    runs = txlaw.run_ensemble(cfg)

    table = txlaw.tabulate_density(spec, args.z)
    xs = np.linspace(table.bands[0][0], table.bands[-1][1], 400)
    cdf = table.cdf2(xs)
    devs = []
    for r in runs:
        lam = np.sort(r.singular[complex(args.z)])
        emp = np.searchsorted(lam, xs, side="right") / lam.size
        devs.append(np.max(np.abs(emp - cdf)))
    print(f"singular CDF sup-dev median: {np.median(devs):.4f}")

    profile = txlaw.compute_radial_profile(spec, 0.1, 2.0, h=0.005)
    radial = txlaw.radial_esd_cdf(cfg, profile, runs=runs)
    print(f"radial CDF sup-dev median:   {np.median(radial['sup_dev']):.4f}")

    qt = txlaw.quantiles(table, N)
    rig = txlaw.rigidity_profile(cfg, args.z, qt, table, runs=runs)
    print(f"bulk rigidity median:        {rig['median']:.2e}")


if __name__ == "__main__":
    main()
