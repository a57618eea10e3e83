"""Paired benchmark runs of a parent commit against this checkout.

    python scripts/bench_pairs.py --label law-many-atoms --parent HEAD \
        --workload law-many-atoms:10:9101 --workload law-fig2:3:9201 \
        --workload ensemble:3:9301 --trace law-many-atoms:9901 \
        --select master.solve_master_batch.self_s,master.self_s --tier1 \
        --change "what the change does" --claim "what it claims"

Run from the repository root. Both sides run from fresh copies, siblings
in one temporary directory: the parent commit exported with `git archive`,
and the change copied from this checkout as it stands, its tracked files
and the untracked ones that .gitignore does not exclude. For each
`NAME:PAIRS:FIRST_SEED` the script runs
`txbench/run.py --workload NAME --seed S --seconds SECONDS --trace 0` once
per side and seed, for PAIRS consecutive seeds, with the side that goes first
alternating from seed to seed. Each `--trace NAME:SEED` adds one traced run
per side. `--tier1` runs the Tier-1 suite of each tree and keeps its
`--durations` top 15. Everything goes to `BENCH_<label>.json`: the machine,
every result line, and per workload and end-to-end metric the medians,
quartiles, the pairs the change won and the relative change of the median.
Each run records the 1-minute load average of /proc/loadavg before and after
it, and a workload's summary lists the seeds of the pairs run under load:
with any reading above LOADED.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = ("setup_s", "round_s", "round_cpu_s", "peak_rss_mb")   # all lower-is-better
# runs go back to back, so the benchmark's own process holds the 1-minute
# load average near 1; one more busy process lifts it toward 2
LOADED = 1.5
TIER1 = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]


def machine() -> dict:
    cpu = next((ln.split(":", 1)[1].strip() for ln in
                Path("/proc/cpuinfo").read_text().splitlines()
                if ln.startswith("model name")), platform.processor())
    cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sys.path.insert(0, str(ROOT / "src"))
    from txlaw.linalg import _blas_thread_fns
    fns = _blas_thread_fns()
    return {"nproc": os.cpu_count(), "cpu": cpu, "numpy": np.__version__,
            "blas": f"{cfg.get('name')} {cfg.get('version')}",
            "blas_threads_default": fns[0]() if fns else None}


def load1() -> float:
    """The 1-minute load average."""
    return float(Path("/proc/loadavg").read_text().split()[0])


def bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "txbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tier1(tree: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    counts = {k: int(v) for v, k in re.findall(r"(\d+) (passed|failed|error)", proc.stdout)}
    durations = [{"s": float(s), "phase": ph, "test": t} for s, ph, t in
                 re.findall(r"^([\d.]+)s (call|setup|teardown)\s+(\S+)$", proc.stdout, re.M)]
    return {"passed": counts.get("passed", 0), "failed": counts.get("failed", 0),
            "wall_s": round(wall, 2), "durations_top15": durations[:15]}


def export_checkout(dest: Path) -> None:
    """Copy this checkout's files as they stand, tracked or not ignored, to dest."""
    names = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                            "--exclude-standard"], cwd=ROOT, capture_output=True,
                           check=True).stdout.decode().split("\0")
    for name in filter(None, names):
        src = ROOT / name
        if src.is_file():      # a tracked file deleted in the checkout is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def quartiles(v: list[float]) -> dict:
    q1, med, q3 = np.percentile(v, [25, 50, 75])
    return {"median": round(float(med), 4), "q1": round(float(q1), 4),
            "q3": round(float(q3), 4), "n": len(v)}


def summarize(runs: list[dict], workload: str) -> dict:
    plain = [r for r in runs if r["workload"] == workload and r["trace"] == 0]
    side = {t: {r["seed"]: r["result"] for r in plain if r["tree"] == t}
            for t in ("parent", "change")}
    seeds = sorted(side["parent"])
    loads = {s: [v for r in plain if r["seed"] == s for v in r["load1"]] for s in seeds}
    out: dict = {"seeds": seeds, "pairs": len(seeds),
                 "pairs_under_load": [s for s in seeds if max(loads[s]) > LOADED],
                 "load1_max": max(max(v) for v in loads.values())}
    for name in END_TO_END:
        p = [side["parent"][s]["metrics"][name]["value"] for s in seeds]
        c = [side["change"][s]["metrics"][name]["value"] for s in seeds]
        out[name] = {"parent": quartiles(p), "change": quartiles(c),
                     "change_better_pairs": f"{sum(b < a for a, b in zip(p, c))}/{len(seeds)}",
                     "median_change_rel": round(float(np.median(c) / np.median(p) - 1), 4)}
    for key, field in (("failed_operations", "failed"), ("attempted_operations", "attempted")):
        out[key] = {t: sum(r[field] for r in side[t].values()) for t in side}
    out["all_correct"] = all(r["correct"] for t in side for r in side[t].values())
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--parent", default="HEAD", help="git revision of the parent tree")
    ap.add_argument("--workload", action="append", default=[], help="NAME:PAIRS:FIRST_SEED")
    ap.add_argument("--trace", action="append", default=[], help="NAME:SEED")
    ap.add_argument("--select", default="", help="comma list of traced metrics to highlight")
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--tier1", action="store_true")
    ap.add_argument("--change", default="")
    ap.add_argument("--claim", default="")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {t: Path(tmp) / t for t in ("parent", "change")}
        for tree in trees.values():
            tree.mkdir()
        archive = subprocess.run(["git", "archive", args.parent], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(trees["parent"])], input=archive, check=True)
        export_checkout(trees["change"])
        runs: list[dict] = []
        for spec in args.workload:
            name, pairs, first = spec.split(":")
            for k in range(int(pairs)):
                seed = int(first) + k
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for t in order:
                    before = load1()
                    res = bench(trees[t], name, seed, args.seconds, 0)
                    load = [before, load1()]
                    runs.append({"tree": t, "workload": name, "seed": seed, "trace": 0,
                                 "load1": load, "result": res})
                    print(f"{name} seed {seed} {t}: round_s "
                          f"{res['metrics']['round_s']['value']:.3f}, load {load[0]:.2f} "
                          f"-> {load[1]:.2f}{' LOADED' if max(load) > LOADED else ''}",
                          file=sys.stderr)
        out = {"label": args.label, "change": args.change, "machine": machine(),
               "method": (f"python3 txbench/run.py --workload <w> --seed <s> --seconds "
                          f"{args.seconds:g} --trace <0|1>, run from the root of each tree, "
                          "both fresh copies in one temporary directory: the parent "
                          f"({args.parent}, exported with git archive) and this checkout "
                          "(its tracked and unignored files as they stand); one run per "
                          "side and seed, the side that goes first "
                          "alternating from seed to seed, parent first on the first seed; "
                          f"a pair is under load when a 1-minute load average read before "
                          f"or after one of its runs exceeds {LOADED}"),
               "claim": args.claim,
               "summary": {spec.split(":")[0]: summarize(runs, spec.split(":")[0])
                           for spec in args.workload}}
        select = [s for s in args.select.split(",") if s]
        for spec in args.trace:
            name, seed = spec.split(":")
            traced = {}
            for t in ("parent", "change"):
                res = bench(trees[t], name, int(seed), args.seconds, 1)
                runs.append({"tree": t, "workload": name, "seed": int(seed), "trace": 1,
                             "result": res})
                traced[t] = {"seed": int(seed), "correct": res["correct"],
                             "failed": res["failed"],
                             "selected": {m: round(res["metrics"][m]["value"], 4)
                                          for m in select if m in res["metrics"]}}
            out[f"traced_{name}"] = traced
        out["runs"] = runs
        if args.tier1:
            out["tier1"] = {"command": " ".join(["PYTHONPATH=src python"] + TIER1[1:])
                            + " (pytest addopts add --durations=15), change then parent",
                            "change": tier1(trees["change"]),
                            "parent": tier1(trees["parent"])}
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
