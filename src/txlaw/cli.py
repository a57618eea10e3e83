"""Command-line front end: reproducible, file-based runs of the engine.

Subcommands: density, edges, chi, quantiles, simulate, verify, selfcheck.
Each command takes only the flags it reads. Every run writes a manifest.json
with the input hash, the command's options (seed included) and wall time, so
any output is reproducible from its manifest alone.

Spectrum files are plain text, one `key = value` per line, `#` comments:
    N = 1000
    M = 1000
    s = [1.8823529411764706, 0.11764705882352941]
    l = [500, 500]
or raw singular values `d = [..]`, plus optional `normalize = true`.

Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict
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
from .montecarlo import EnsembleConfig, run_ensemble, count_trivial_zeros
from .sigma import ModelParams, SigmaSpectrum, load_sigma_file
from .support import find_edges

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


def _checked(convert, ok, what: str):
    """An argparse type: convert the text, then require ok(value)."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value

    parse.__name__ = convert.__name__     # argparse's "invalid float value" message
    return parse


_FINITE = _checked(float, math.isfinite, "a finite number")
_POSITIVE = _checked(int, lambda v: v >= 1, "an integer >= 1")

# every flag a command can take: option string -> add_argument keywords
FLAGS = {
    "--sigma": dict(required=True, help="spectrum input file"),
    "--suite": dict(default="quick", choices=["quick", "mp", "invariants", "small-w",
                                              "stieltjes", "circular-law", "esd"]),
    "--z": dict(type=_FINITE, default=0.0, help="|z| modulus"),
    "--zband": dict(type=_FINITE, default=0.05, help="excluded band half-width on |z|^2"),
    "--grid": dict(type=_POSITIVE, default=2000, help="density table resolution"),
    "--N": dict(type=_POSITIVE, default=None),
    "--M": dict(type=_POSITIVE, default=None),
    "--runs": dict(type=int, default=20),
    "--seed": dict(type=_checked(int, lambda v: v >= 0, "an integer >= 0"), default=0),
    "--threads": dict(type=int, default=2),
    "--dist": dict(choices=["gauss", "rademacher", "skewed"], default="gauss"),
    "--tmode": dict(choices=["diagonal", "haar"], default="diagonal"),
    "--rmin": dict(type=_FINITE, default=0.1),
    "--rmax": dict(type=_FINITE, default=2.0),
    "--rstep": dict(type=_FINITE, default=0.005),
    "--out": dict(default="out", help="output directory"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command. Parsing leaves no state in it, so a
    process builds it once, on its first call, and reuses it; importing this
    module builds none."""
    ap = argparse.ArgumentParser(prog="txlaw", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, help_, flags) in COMMANDS.items():
        # no prefixes: chi --z would otherwise set --zband
        p = sub.add_parser(name, help=help_, description=help_, allow_abbrev=False)
        for flag in flags + ("--out",):
            p.add_argument(flag, **FLAGS[flag])
    return ap


def _params(args) -> ModelParams:
    return ModelParams(z_band_min=args.zband)


def _manifest(args, outdir: Path, t0: float, extra: dict) -> None:
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
    payload.update(extra)
    (outdir / "manifest.json").write_text(json.dumps(payload, indent=2, default=str))


def _load_spec(args):
    """The spectrum file, its multiplicities rescaled to --N/--M when given."""
    spec = load_sigma_file(args.sigma)
    if args.N is not None or args.M is not None:
        new_n = spec.N if args.N is None else args.N
        new_m = spec.M if args.M is None else args.M
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


# Each command writes its outputs to outdir and may add entries to the
# manifest, which main writes once the command returns.

def cmd_density(args, outdir: Path, manifest: dict) -> int:
    spec = load_sigma_file(args.sigma)
    profile = find_edges(spec, args.z, _params(args))
    table = tabulate_density(spec, args.z, resolution=args.grid, profile=profile)
    write_density_csv(table, outdir / "density.csv")
    (outdir / "bands.json").write_text(json.dumps(asdict(profile), indent=2))
    manifest["total_mass"] = table.total_mass
    return EXIT_OK


def cmd_edges(args, outdir: Path, manifest: dict) -> int:
    profile = find_edges(load_sigma_file(args.sigma), args.z, _params(args))
    (outdir / "edges.json").write_text(json.dumps(asdict(profile), indent=2))
    return EXIT_OK


def cmd_chi(args, outdir: Path, manifest: dict) -> int:
    profile = compute_radial_profile(
        load_sigma_file(args.sigma), args.rmin, args.rmax, h=args.rstep, params=_params(args)
    )
    write_radial_csv(profile, outdir / "radial.csv")
    return EXIT_OK


def cmd_quantiles(args, outdir: Path, manifest: dict) -> int:
    spec = _load_spec(args)
    profile = find_edges(spec, args.z, _params(args))
    table = tabulate_density(spec, args.z, resolution=args.grid, profile=profile)
    qt = quantiles(table, spec.K)
    write_quantiles_csv(qt, outdir / "quantiles.csv")
    manifest["total_mass"] = table.total_mass
    return EXIT_OK


def cmd_simulate(args, outdir: Path, manifest: dict) -> int:
    spec = _load_spec(args)
    cfg = EnsembleConfig(
        N=spec.N, M=spec.M, spec=spec, t_mode=args.tmode, x_dist=args.dist,
        z_list=(complex(args.z),), runs=args.runs, seed=args.seed, threads=args.threads,
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
    if failed:
        print(f"error: Monte Carlo runs {failed} failed; see summary.json", file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK


def _write_checks(outdir: Path, name: str, results: dict) -> int:
    """Write check results; print one PASS/FAIL line per check."""
    (outdir / name).write_text(json.dumps(results, indent=2, default=float))
    for check, v in results.items():
        print(f"[{'PASS' if v.get('passed') else 'FAIL'}] {check}", file=sys.stderr)
    return EXIT_OK if all(v.get("passed", False) for v in results.values()) else EXIT_DOMAIN


def cmd_verify(args, outdir: Path, manifest: dict) -> int:
    from .verify_suites import run_suite

    results = run_suite(args.suite, args)
    return _write_checks(outdir, "verify.json", results)


def cmd_selfcheck(args, outdir: Path, manifest: dict) -> int:
    from .verify_suites import run_selfcheck

    return _write_checks(outdir, "selfcheck.json", run_selfcheck())


_LAW = ("--sigma", "--z", "--zband", "--grid")
_ENSEMBLE = ("--runs", "--seed", "--threads", "--dist", "--tmode")

# command -> (handler, help, the flags the handler reads); every command also
# takes --out. simulate also takes --zband, for callers that pass it to every
# command.
COMMANDS = {
    "density": (cmd_density, "tabulate the limiting density at one |z|", _LAW),
    "edges": (cmd_edges, "locate support bands and edge diagnostics", _LAW),
    "chi": (cmd_chi, "radial profile: U, chi, F",
            ("--sigma", "--zband", "--rmin", "--rmax", "--rstep")),
    "quantiles": (cmd_quantiles, "classical eigenvalue locations", _LAW + ("--N", "--M")),
    "simulate": (cmd_simulate, "sample ensembles and dump spectra (--zband has no effect)",
                 ("--sigma", "--z", "--zband", "--N", "--M") + _ENSEMBLE),
    "verify": (cmd_verify, "run a named verification suite",
               ("--suite", "--N") + _ENSEMBLE),
    "selfcheck": (cmd_selfcheck, "fast internal consistency checks", ()),
}


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    t0 = time.time()
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest: dict = {}
    try:
        code = COMMANDS[args.command][0](args, outdir, manifest)
        _manifest(args, outdir, t0, manifest)
        return code
    except (FileNotFoundError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TxlawError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
