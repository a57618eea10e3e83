"""Shows that each output check rejects a corrupted copy of a real output.

    python3 txbench/selftest.py

Run from the repository root. It runs one round of law-fig2 and of ensemble
(seed 1), requires the clean outputs to pass, then requires every check to
reject a copy corrupted in one way:

- edges.json: the lowest edge at |z| > 1 scaled by 1 + 1e-7, and the top
  edge at |z| < 1 scaled by 1 + 1e-7;
- density.csv: every density value scaled by 1 + 1e-7;
- quantiles.csv: one quantile shifted by a relative 1e-6;
- radial.csv: a row inside the excluded band;
- eigenvalues.csv and singular.csv: the rows of one run removed.

Last, it makes `general_eigenvalues` raise LinAlgError in one run of a
`txlaw simulate` and shows that the command still exits 0 and counts the run
in summary.json, while the benchmark's check counts it as a failed run.
Exits 0 when every clean output passes and every corruption is caught.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads                      # noqa: E402
from txlaw import cli, montecarlo     # noqa: E402

WORK = HERE / ".runs" / "selftest"


def _scale_edge(path: Path, pick) -> None:
    """Scale one edge (chosen by pick(bands)) in both bands and edges by 1 + 1e-7."""
    d = json.loads(path.read_text())
    old = pick(sorted(x for b in d["bands"] for x in b if x))
    new = old * (1 + 1e-7)
    d["bands"] = [[new if x == old else x for x in b] for b in d["bands"]]
    for e in d["edges"]:
        if e["e"] == old:
            e["e"] = new
    path.write_text(json.dumps(d))


def _edit_csv(path: Path, edit) -> None:
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0]] + edit(lines[1:])) + "\n")


def _scale_density(rows):
    return [f"{x},{float(v) * (1 + 1e-7)!r}" for x, v in (r.split(",") for r in rows)]


def _shift_quantile(rows):
    j = len(rows) // 2
    k, g = rows[j].split(",")
    rows[j] = f"{k},{float(g) * (1 + 1e-6)!r}"
    return rows


def _drop_run(run: int):
    return lambda rows: [r for r in rows if int(r.split(",")[0]) != run]


def _fails_second_call(fn):
    """general_eigenvalues that raises LinAlgError on its second call (run 1 with one thread)."""
    calls = []

    def patched(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise np.linalg.LinAlgError("injected non-convergence")
        return fn(*args, **kwargs)

    return patched


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    results = []

    def expect(label: str, ok: bool) -> None:
        results.append(ok)
        print(f"[{'ok' if ok else 'FAIL'}] {label}")

    ops = {}
    for name in ("law-fig2", "ensemble"):
        wl = workloads.WORKLOADS[name](1)
        wl.write_inputs(WORK / name / "inputs")
        for op in wl.ops(WORK / name / "inputs", WORK / name / "clean"):
            out = Path(op.argv[op.argv.index("--out") + 1])
            ops[(name, out.name)] = op
            code = cli.main(op.argv)
            errors, failed_runs = op.check(out)
            expect(f"clean {name} {out.name} passes: exit {code}, {errors}, "
                   f"{failed_runs} failed runs", code == 0 and not errors and not failed_runs)

    corruptions = [
        ("law-fig2", "edges2", "edges.json", lambda p: _scale_edge(p, lambda e: e[0]),
         "lowest edge at |z| > 1 scaled by 1 + 1e-7"),
        ("law-fig2", "edges0", "edges.json", lambda p: _scale_edge(p, lambda e: e[-1]),
         "top edge at |z| < 1 scaled by 1 + 1e-7"),
        ("law-fig2", "density1", "density.csv", lambda p: _edit_csv(p, _scale_density),
         "density scaled by 1 + 1e-7"),
        ("law-fig2", "quantiles", "quantiles.csv", lambda p: _edit_csv(p, _shift_quantile),
         "one quantile shifted by a relative 1e-6"),
        ("law-fig2", "chi", "radial.csv", lambda p: _edit_csv(p, lambda r: r + ["1.0,0,0,1"]),
         "a radial row at r = 1, inside the excluded band"),
    ]
    for name, sub, fname, corrupt, what in corruptions:
        op = ops[(name, sub)]
        bad = WORK / name / "corrupt" / sub
        shutil.copytree(WORK / name / "clean" / sub, bad)
        corrupt(bad / fname)
        errors, _ = op.check(bad)
        expect(f"{sub}: {what} -> {errors[:1]}", bool(errors))

    op = ops[("ensemble", "square")]
    bad = WORK / "ensemble" / "corrupt" / "square"
    shutil.copytree(WORK / "ensemble" / "clean" / "square", bad)
    for fname in ("eigenvalues.csv", "singular.csv"):
        _edit_csv(bad / fname, _drop_run(1))
    errors, failed_runs = op.check(bad)
    expect(f"square: rows of run 1 removed -> {failed_runs} failed run", failed_runs == 1)

    out = WORK / "ensemble" / "injected"
    argv = op.argv[:op.argv.index("--out")] + ["--out", str(out)]
    argv[argv.index("--threads") + 1] = "1"
    original = montecarlo.general_eigenvalues
    montecarlo.general_eigenvalues = _fails_second_call(original)
    try:
        code = cli.main(argv)
    finally:
        montecarlo.general_eigenvalues = original
    summary = json.loads((out / "summary.json").read_text())
    errors, failed_runs = op.check(out)
    expect(f"simulate with run 1 failing exits {code}; summary.json counts "
           f"{summary['runs']} runs, trivial zeros {summary['trivial_zero_counts']}; "
           f"the check counts {failed_runs} failed run", failed_runs == 1)

    shutil.rmtree(WORK, ignore_errors=True)
    print(f"{sum(results)} of {len(results)} as expected")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
