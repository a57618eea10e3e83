"""txlaw benchmark: one workload, run as rounds of in-process `txlaw` commands.

    python3 txbench/run.py --workload law-fig2 --seed 1 --seconds 15 --trace 0

Run from the repository root. The commands go through `txlaw.cli.main`, the
entry point of the `txlaw` script, imported from `src/` of this checkout.
Rounds repeat until --seconds have passed (at least two rounds); the outputs
of every round are checked against the oracles after the round, outside the
timed phase. The last line of standard output is one JSON object:

    {"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value", "unit"}}}

With --trace 0 the metrics are the end-to-end ones. With --trace 1, one
untimed warm-up round is followed by rounds that alternate untraced and
traced, at least two of each; the metrics are the per-layer ones from the
traced rounds, the per-command times of the untraced rounds and the tracing
overhead, and the spans are written to txbench/.runs/ when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
IMPORT_REPEATS = 9
MIN_ROUNDS = 2
MIN_TRACED_ROUNDS = 1 + 4  # warm-up, then two untraced and two traced rounds
HARD_STOP_S = 140.0     # no round starts after this, so a run ends within 180 s
COMMAND_METRICS = ("edges_s", "density_s", "quantiles_s", "chi_s",
                   "simulate_square_s", "simulate_rect_s")


def fresh_import_s() -> float:
    """Wall time of a new interpreter that imports txlaw.cli from this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", "import txlaw.cli"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"importing txlaw failed:\n{proc.stderr}")
    return elapsed


def run_round(cli, ops) -> tuple[dict[str, float], float, float, list]:
    """Run the ops; returns (seconds per label, wall, cpu, exit codes)."""
    per_label: dict[str, float] = defaultdict(float)
    codes = []
    w0, c0 = time.perf_counter(), time.process_time()
    for op in ops:
        t0 = time.perf_counter()
        try:
            codes.append(cli.main(op.argv))
        except Exception:              # a crash is a failed operation, not a dead run
            traceback.print_exc(file=sys.stderr)
            codes.append(None)
        per_label[op.label] += time.perf_counter() - t0
    return per_label, time.perf_counter() - w0, time.process_time() - c0, codes


def check_round(ops, codes) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) for one round's outputs."""
    attempted = failed = 0
    messages = []
    for op, code in zip(ops, codes):
        out = Path(op.argv[op.argv.index("--out") + 1])
        attempted += 1 + op.runs
        if code != 0:
            failed += 1 + op.runs
            messages.append(f"{op.argv[0]} {out.name}: exit code {code}")
            continue
        try:
            errors, failed_runs = op.check(out)
        except (KeyError, TypeError, IndexError, ValueError) as exc:   # malformed output
            errors, failed_runs = [f"unreadable output: {exc!r}"], op.runs
        failed += failed_runs + (1 if errors else 0)
        messages += [f"{op.argv[0]} {out.name}: {e}" for e in errors]
        if failed_runs:
            messages.append(f"{op.argv[0]} {out.name}: {failed_runs} of {op.runs} runs failed")
    return attempted, failed, messages


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "txlaw" / "cli.py").is_file():
        print(f"error: no txlaw sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS   # noqa: E402  (needs HERE on sys.path)
    import oracles                    # noqa: E402

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    work = HERE / ".runs" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    t0 = time.perf_counter()
    wl = WORKLOADS[args.workload](args.seed)
    wl.write_inputs(work / "inputs")
    build_s = time.perf_counter() - t0
    setup_s = statistics.median(fresh_import_s() for _ in range(IMPORT_REPEATS)) + build_s

    sys.path.insert(0, str(SRC))
    import txlaw                      # noqa: E402
    from txlaw import cli             # noqa: E402
    if Path(txlaw.__file__).resolve().parent != (SRC / "txlaw").resolve():
        print(f"error: txlaw imported from {txlaw.__file__}, not {SRC}", file=sys.stderr)
        return 2
    oracles.radial_selfcheck()

    tracer = None
    if args.trace:
        from spans import Tracer      # noqa: E402
        tracer = Tracer()
    rounds = {False: [], True: []}    # traced -> [(per_label, wall, cpu)]
    min_rounds = MIN_TRACED_ROUNDS if tracer else MIN_ROUNDS
    attempted = failed = 0
    start = time.perf_counter()
    k = 0
    while True:
        warmup = bool(tracer) and k == 0
        traced = bool(tracer) and k % 2 == 0 and not warmup
        rdir = work / f"round{k}"
        ops = wl.ops(work / "inputs", rdir)
        if traced:
            tracer.install(txlaw)
        try:
            per_label, wall, cpu, codes = run_round(cli, ops)
        finally:
            if traced:
                tracer.uninstall()
        if not warmup:
            rounds[traced].append((per_label, wall, cpu))
        a, f, messages = check_round(ops, codes)
        attempted, failed = attempted + a, failed + f
        for m in messages:
            print(f"round {k}: {m}", file=sys.stderr)
        if not messages:
            shutil.rmtree(rdir, ignore_errors=True)
        k += 1
        elapsed = time.perf_counter() - start
        if k >= min_rounds and (elapsed >= args.seconds or elapsed + wall > HARD_STOP_S):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    plain = rounds[False]
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "round_s": (statistics.median(w for _, w, _ in plain), "s"),
            "round_cpu_s": (statistics.median(c for _, _, c in plain), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        traced_rounds = rounds[True]
        metrics = tracer.layer_metrics(len(traced_rounds))
        for name in COMMAND_METRICS:
            label = name[:-2]
            metrics[name] = (statistics.median(p.get(label, 0.0) for p, _, _ in plain), "s")
        metrics["trace.overhead_s"] = (
            statistics.median(w for _, w, _ in traced_rounds)
            - statistics.median(w for _, w, _ in plain), "s")
        tracer.write(HERE / ".runs" / f"spans-{args.workload}-seed{args.seed}.json")
    shutil.rmtree(work / "inputs", ignore_errors=True)
    if not any(work.iterdir()):
        work.rmdir()

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
