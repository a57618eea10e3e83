"""Command-line front end: reproducible, file-based runs of the engine.

Subcommands: density, edges, chi, quantiles, simulate, verify, selfcheck.
Every run writes a manifest.json with the input hash, resolved options, seed
and wall time, so any output is reproducible from its manifest alone.

Spectrum files are plain text, one `key = value` per line, `#` comments:
    N = 1000', M = 1000
    s = [1.8823529411764706, 0.11764705882352941]
    l = [500, 500]
or raw singular values `d = [..]`, plus optional `normalize = true`.

Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from . import __version__
from .density import (
    compute_radial_profile,
    quantiles,
    tabulate_density,
    write_density_csv,
    write_quantiles_csv,
    write_radial_csv,
)
from .errors import InputError, TxlawError
from .master import SolverOptions
from .montecarlo import EnsembleConfig, run_ensemble, count_trivial_zeros
from .sigma import ModelParams, load_sigma_file
from .support import FindEdgesOptions, find_edges

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


def _add_common(p: argparse.ArgumentParser, need_sigma: bool = True):
    if need_sigma:
        p.add_argument("--sigma", required=True, help="spectrum input file")
    p.add_argument("--z", type=float, default=None, help="|z| modulus")
    p.add_argument("--zband", type=float, default=0.05, help="excluded band half-width on |z|^2")
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--M", type=int, default=None)
    p.add_argument("--runs", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eta0", type=float, default=1e-7)
    p.add_argument("--grid", type=int, default=2000, help="scan or table resolution")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--threads", type=int, default=2)
    p.add_argument("--dist", choices=["gauss", "rademacher", "skewed"], default="gauss")
    p.add_argument("--tmode", choices=["diagonal", "haar"], default="diagonal")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="txlaw", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_ in (
        ("density", "tabulate the limiting density at one |z|"),
        ("edges", "locate support bands and edge diagnostics"),
        ("chi", "radial profile: U, chi, F"),
        ("quantiles", "classical eigenvalue locations"),
        ("simulate", "sample ensembles and dump spectra"),
        ("verify", "run a named verification suite"),
        ("selfcheck", "fast internal consistency checks"),
    ):
        p = sub.add_parser(name, help=help_)
        _add_common(p, need_sigma=(name not in ("selfcheck",)))
        if name == "chi":
            p.add_argument("--rmin", type=float, default=0.1)
            p.add_argument("--rmax", type=float, default=2.0)
            p.add_argument("--rstep", type=float, default=0.005)
        if name == "verify":
            p.add_argument(
                "--suite",
                default="quick",
                choices=["quick", "mp", "invariants", "small-w", "stieltjes",
                         "circular-law", "esd"],
            )
    return ap


def _opts_from_args(args) -> SolverOptions:
    return SolverOptions(
        eta0=args.eta0, params=ModelParams(z_band_min=args.zband)
    )


def _manifest(args, outdir: Path, t0: float, extra: dict | None = None) -> None:
    payload = {
        "version": __version__,
        "command": args.command,
        "options": {
            k: v for k, v in vars(args).items() if k not in ("command",)
        },
        "wall_time_s": time.time() - t0,
    }
    sigma = getattr(args, "sigma", None)
    if sigma and Path(sigma).exists():
        payload["sigma_sha256"] = hashlib.sha256(Path(sigma).read_bytes()).hexdigest()
    if extra:
        payload.update(extra)
    (outdir / "manifest.json").write_text(json.dumps(payload, indent=2, default=str))


def _load_spec(args):
    spec = load_sigma_file(args.sigma)
    if args.N is not None or args.M is not None:
        new_n = args.N or spec.N
        new_m = args.M or spec.M
        from .sigma import SigmaSpectrum

        scale = min(new_n, new_m) / spec.K
        if scale != int(scale):
            raise InputError("--N/--M must scale the file's K by an integer factor")
        spec = SigmaSpectrum(
            s=spec.s,
            l=tuple(int(li * scale) for li in spec.l),
            N=new_n,
            M=new_m,
        )
    return spec


def cmd_density(args) -> int:
    t0 = time.time()
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    spec = _load_spec(args)
    opts = _opts_from_args(args)
    z = args.z if args.z is not None else 0.0
    profile = find_edges(spec, z, opts, FindEdgesOptions(scan_points=args.grid))
    table = tabulate_density(spec, z, resolution=args.grid, profile=profile, opts=opts)
    write_density_csv(table, outdir / "density.csv")
    (outdir / "bands.json").write_text(json.dumps(profile.to_dict(), indent=2))
    _manifest(args, outdir, t0, {"total_mass": table.total_mass})
    return EXIT_OK


def cmd_edges(args) -> int:
    t0 = time.time()
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    spec = _load_spec(args)
    opts = _opts_from_args(args)
    z = args.z if args.z is not None else 0.0
    profile = find_edges(spec, z, opts, FindEdgesOptions(scan_points=args.grid))
    (outdir / "edges.json").write_text(json.dumps(profile.to_dict(), indent=2))
    _manifest(args, outdir, t0)
    return EXIT_OK


def cmd_chi(args) -> int:
    t0 = time.time()
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    spec = _load_spec(args)
    opts = _opts_from_args(args)
    profile = compute_radial_profile(
        spec, args.rmin, args.rmax, h=args.rstep, opts=opts
    )
    write_radial_csv(profile, outdir / "radial.csv")
    _manifest(args, outdir, t0)
    return EXIT_OK


def cmd_quantiles(args) -> int:
    t0 = time.time()
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    spec = _load_spec(args)
    opts = _opts_from_args(args)
    z = args.z if args.z is not None else 0.0
    table = tabulate_density(spec, z, resolution=args.grid, opts=opts)
    qt = quantiles(table, spec.K)
    write_quantiles_csv(qt, outdir / "quantiles.csv")
    _manifest(args, outdir, t0, {"total_mass": table.total_mass})
    return EXIT_OK


def cmd_simulate(args) -> int:
    t0 = time.time()
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    spec = _load_spec(args)
    z = args.z if args.z is not None else 0.0
    cfg = EnsembleConfig(
        N=spec.N, M=spec.M, spec=spec, t_mode=args.tmode, x_dist=args.dist,
        z_list=(complex(z),), runs=args.runs, seed=args.seed, threads=args.threads,
    )
    runs = run_ensemble(cfg)
    with open(outdir / "eigenvalues.csv", "w", encoding="utf-8") as fh:
        fh.write("run,re,im\n")
        for r in runs:
            for mu in r.eigenvalues:
                fh.write(f"{r.run_index},{mu.real:.17g},{mu.imag:.17g}\n")
    with open(outdir / "singular.csv", "w", encoding="utf-8") as fh:
        fh.write("run,z_re,z_im,lambda\n")
        for r in runs:
            for zz, lam in r.singular.items():
                for v in lam:
                    fh.write(f"{r.run_index},{zz.real:.17g},{zz.imag:.17g},{v:.17g}\n")
    done = [r for r in runs if not r.failed]
    failed = [r.run_index for r in runs if r.failed]
    summary = {
        "runs": len(done),
        "failed_runs": failed,
        "trivial_zero_counts": [count_trivial_zeros(r) for r in done],
        "elapsed": [r.elapsed for r in done],
    }
    (outdir / "summary.json").write_text(json.dumps(summary, indent=2))
    _manifest(args, outdir, t0)
    if failed:
        print(f"error: Monte Carlo runs {failed} failed; see summary.json", file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK


def _suite_checks(args, spec, opts) -> dict[str, dict]:
    """Named verification suites; each check returns pass/fail plus numbers."""
    from .verify_suites import run_suite

    return run_suite(args.suite, spec, opts, args)


def cmd_verify(args) -> int:
    t0 = time.time()
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    spec = _load_spec(args)
    opts = _opts_from_args(args)
    results = _suite_checks(args, spec, opts)
    (outdir / "verify.json").write_text(json.dumps(results, indent=2, default=float))
    _manifest(args, outdir, t0)
    ok = all(v.get("passed", False) for v in results.values())
    for name, v in results.items():
        print(f"[{'PASS' if v.get('passed') else 'FAIL'}] {name}", file=sys.stderr)
    return EXIT_OK if ok else EXIT_DOMAIN


def cmd_selfcheck(args) -> int:
    t0 = time.time()
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    from .verify_suites import run_selfcheck

    results = run_selfcheck()
    (outdir / "selfcheck.json").write_text(json.dumps(results, indent=2, default=float))
    _manifest(args, outdir, t0)
    ok = all(v.get("passed", False) for v in results.values())
    for name, v in results.items():
        print(f"[{'PASS' if v.get('passed') else 'FAIL'}] {name}", file=sys.stderr)
    return EXIT_OK if ok else EXIT_DOMAIN


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    handlers = {
        "density": cmd_density,
        "edges": cmd_edges,
        "chi": cmd_chi,
        "quantiles": cmd_quantiles,
        "simulate": cmd_simulate,
        "verify": cmd_verify,
        "selfcheck": cmd_selfcheck,
    }
    try:
        return handlers[args.command](args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TxlawError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
