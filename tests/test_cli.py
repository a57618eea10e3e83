"""CLI: subcommands, file formats, manifests, exit codes, reproducibility."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import txlaw
from txlaw import cli
from txlaw.cli import build_parser, main

FIG2_CFG = """\
# two-atom spectrum
N = 200
M = 200
s = [1.8823529411764706, 0.11764705882352941]
l = [100, 100]
"""


@pytest.fixture()
def fig2_file(tmp_path):
    p = tmp_path / "fig2.cfg"
    p.write_text(FIG2_CFG)
    return p


def test_density_command(tmp_path, fig2_file):
    out = tmp_path / "out"
    rc = main(
        ["density", "--sigma", str(fig2_file), "--z", "1.5", "--grid", "800",
         "--out", str(out)]
    )
    assert rc == 0
    body = (out / "density.csv").read_text().splitlines()
    assert body[0] == "x,rho2c"
    bands = json.loads((out / "bands.json").read_text())
    assert len(bands["bands"]) >= 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "density"
    assert "sigma_sha256" in manifest
    assert abs(manifest["total_mass"] - 1.0) < 1e-3


def test_byte_identical_reruns(tmp_path, fig2_file):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        rc = main(
            ["density", "--sigma", str(fig2_file), "--z", "1.5", "--grid", "600",
             "--out", str(out)]
        )
        assert rc == 0
    for name in ("density.csv", "bands.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_profile_json_keeps_its_keys(tmp_path, fig2_file):
    # edges.json and bands.json hold the same profile, with the scan keys
    # now the m-curve's size and m_max
    for command, name in (("edges", "edges.json"), ("density", "bands.json")):
        rc = main([command, "--sigma", str(fig2_file), "--z", "0.5", "--out",
                   str(tmp_path / command)])
        assert rc == 0
        data = json.loads((tmp_path / command / name).read_text())
        assert list(data) == ["z_mod", "bands", "edges", "zero_edge", "scan_points",
                              "scan_max"]
        assert all(list(e) == ["e", "m_c", "d2f", "pole_distance", "neighbor_gap", "side",
                               "refined"] for e in data["edges"])
        assert list(data["zero_edge"]) == ["t", "rho1_amplitude", "rho2_amplitude"]
    assert ((tmp_path / "edges" / "edges.json").read_bytes()
            == (tmp_path / "density" / "bands.json").read_bytes())


def test_edges_command_and_domain_error(tmp_path, fig2_file):
    out = tmp_path / "e"
    rc = main(["edges", "--sigma", str(fig2_file), "--z", "0.5", "--out", str(out)])
    assert rc == 0
    data = json.loads((out / "edges.json").read_text())
    assert data["zero_edge"] is not None
    rc = main(["edges", "--sigma", str(fig2_file), "--z", "1.001", "--out", str(out)])
    assert rc == 1


def test_quantiles_command(tmp_path, fig2_file):
    out = tmp_path / "q"
    rc = main(
        ["quantiles", "--sigma", str(fig2_file), "--z", "1.5", "--grid", "800",
         "--out", str(out)]
    )
    assert rc == 0
    lines = (out / "quantiles.csv").read_text().splitlines()
    assert lines[0] == "j,gamma_j"
    assert len(lines) == 201
    gam = np.array([float(l.split(",")[1]) for l in lines[1:]])
    assert np.all(np.diff(gam) >= 0)


def test_quantiles_grid_sets_table_resolution(tmp_path, fig2_file, monkeypatch):
    # --grid sets the table's resolution alone; the edges come from the
    # m-curve at every --grid
    from txlaw import cli, density

    original = cli.find_edges
    tables = density.tabulate_density
    scans, resolutions = [], []

    def recording(*args, **kwargs):
        profile = original(*args, **kwargs)
        scans.append(profile.scan_points)
        return profile

    def recording_table(spec, z, resolution=2000, profile=None):
        resolutions.append(resolution)
        return tables(spec, z, resolution, profile)

    monkeypatch.setattr(cli, "find_edges", recording)
    monkeypatch.setattr(density, "find_edges", recording)
    monkeypatch.setattr(cli, "tabulate_density", recording_table)
    rc = main(
        ["quantiles", "--sigma", str(fig2_file), "--z", "1.5", "--grid", "200",
         "--out", str(tmp_path / "q")]
    )
    assert rc == 0
    assert scans == [800] and resolutions == [200]


def test_chi_command(tmp_path, fig2_file):
    out = tmp_path / "chi"
    rc = main(
        ["chi", "--sigma", str(fig2_file), "--rmin", "1.3", "--rmax", "1.45",
         "--out", str(out)]
    )
    assert rc == 0
    lines = (out / "radial.csv").read_text().splitlines()
    assert lines[0] == "r,U,chi,F"
    assert len(lines) > 20


def test_simulate_command(tmp_path, fig2_file):
    out = tmp_path / "sim"
    rc = main(
        ["simulate", "--sigma", str(fig2_file), "--z", "1.5", "--runs", "2",
         "--seed", "4", "--out", str(out)]
    )
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["runs"] == 2
    assert summary["failed_runs"] == []
    assert summary["trivial_zero_counts"] == [0, 0]
    eig = (out / "eigenvalues.csv").read_text().splitlines()
    assert eig[0] == "run,re,im"
    assert len(eig) == 1 + 2 * 200


def test_simulate_tall_reruns_byte_identical(tmp_path):
    # N = 2M: N eigenvalues per run, N - M of them trivial zeros, M singular values
    cfg = tmp_path / "tall.cfg"
    cfg.write_text("N = 40\nM = 20\ns = [1.8823529411764706, 0.11764705882352941]\n"
                   "l = [10, 10]\n")
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        rc = main(["simulate", "--sigma", str(cfg), "--z", "0.5", "--runs", "2",
                   "--seed", "4", "--tmode", "haar", "--dist", "skewed", "--out", str(out)])
        assert rc == 0
    summary = json.loads((outs[0] / "summary.json").read_text())
    assert summary["trivial_zero_counts"] == [20, 20]
    for name, per_run in (("eigenvalues.csv", 40), ("singular.csv", 20)):
        rows = (outs[0] / name).read_text().splitlines()[1:]
        assert [int(row.split(",")[0]) for row in rows] == [0] * per_run + [1] * per_run
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_simulate_reports_failed_run(tmp_path, fig2_file, monkeypatch, capsys):
    from txlaw import montecarlo

    original = montecarlo.general_eigenvalues
    calls = []

    def fails_second_call(P):
        calls.append(1)
        if len(calls) == 2:
            raise np.linalg.LinAlgError("injected non-convergence")
        return original(P)

    monkeypatch.setattr(montecarlo, "general_eigenvalues", fails_second_call)
    out = tmp_path / "sim"
    with pytest.warns(UserWarning, match="run 1 failed"):
        rc = main(
            ["simulate", "--sigma", str(fig2_file), "--z", "1.5", "--runs", "3",
             "--seed", "4", "--threads", "1", "--out", str(out)]
        )
    assert rc == 1
    assert "runs [1] failed" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failed_runs"] == [1]
    assert summary["runs"] == 2
    assert summary["trivial_zero_counts"] == [0, 0]
    eig = (out / "eigenvalues.csv").read_text().splitlines()[1:]
    assert sorted({int(row.split(",")[0]) for row in eig}) == [0, 2]


SUITES = {"mp": "criterion_01_mp", "circular-law": "criterion_02_circular_law",
          "invariants": "criterion_04_invariants", "small-w": "criterion_05_small_w",
          "stieltjes": "criterion_06_stieltjes", "esd": "criterion_07_esd"}


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_verify_suite_small(tmp_path, suite):
    out = tmp_path / "v"
    size = ["--N", "100", "--runs", "2"] if suite == "esd" else []
    rc = main(["verify", "--suite", suite, *size, "--out", str(out)])
    assert rc == 0
    data = json.loads((out / "verify.json").read_text())
    assert data[suite.replace("-", "_")]["passed"] is True


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_verify_suite_runs_its_criterion(tmp_path, monkeypatch, suite):
    from txlaw import verify_suites

    calls = []
    monkeypatch.setattr(verify_suites, SUITES[suite],
                        lambda *args: calls.append(args) or {"passed": True, "marker": 1})
    rc = main(["verify", "--suite", suite, "--out", str(tmp_path)])
    assert rc == 0 and len(calls) == 1
    data = json.loads((tmp_path / "verify.json").read_text())
    assert data == {suite.replace("-", "_"): {"passed": True, "marker": 1}}
    if suite == "esd":
        assert calls == [(400, 20, 0, 2, "gauss", "diagonal")]


def test_selfcheck(tmp_path):
    out = tmp_path / "sc"
    rc = main(["selfcheck", "--out", str(out)])
    assert rc == 0
    data = json.loads((out / "selfcheck.json").read_text())
    assert all(v["passed"] for v in data.values())


_LAW = {"--sigma", "--z", "--zband", "--grid", "--out"}
_ENSEMBLE = {"--runs", "--seed", "--threads", "--dist", "--tmode"}
COMMAND_FLAGS = {
    "density": _LAW,
    "edges": _LAW,
    "quantiles": _LAW | {"--N", "--M"},
    "chi": {"--sigma", "--zband", "--rmin", "--rmax", "--rstep", "--out"},
    "simulate": {"--sigma", "--z", "--zband", "--N", "--M", "--out"} | _ENSEMBLE,
    "verify": {"--suite", "--N", "--out"} | _ENSEMBLE,
    "selfcheck": {"--out"},
}


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    ap = build_parser()
    return next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction)).choices


def _settable(p: argparse.ArgumentParser) -> list[argparse.Action]:
    return [a for a in p._actions if not isinstance(a, argparse._HelpAction)]


def _parser_flags() -> dict[str, set[str]]:
    return {name: {opt for a in _settable(p) for opt in a.option_strings}
            for name, p in _subparsers().items()}


def test_each_command_takes_only_the_flags_it_reads():
    assert _parser_flags() == COMMAND_FLAGS
    assert sum(len(_settable(p)) for p in _subparsers().values()) == 43


@pytest.mark.parametrize("argv", [
    ["chi", "--sigma", "f.cfg", "--runs", "3"],
    ["chi", "--sigma", "f.cfg", "--z", "0.3"],
    ["density", "--sigma", "f.cfg", "--seed", "9"],
    ["edges", "--sigma", "f.cfg", "--N", "400"],
    ["verify", "--z", "0.5"],
    ["selfcheck", "--zband", "0.1"],
])
def test_flag_of_another_command_is_a_usage_error(tmp_path, argv):
    assert main([*argv, "--out", str(tmp_path / "x")]) == 2
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_manifest_options_are_the_command_flags(tmp_path, fig2_file, monkeypatch, command):
    _, help_, flags = cli.COMMANDS[command]
    monkeypatch.setitem(cli.COMMANDS, command, (lambda args, outdir, manifest: 0, help_, flags))
    sigma = ["--sigma", str(fig2_file)] if "--sigma" in COMMAND_FLAGS[command] else []
    assert main([command, *sigma, "--out", str(tmp_path)]) == 0
    options = json.loads((tmp_path / "manifest.json").read_text())["options"]
    assert {f"--{k}" for k in options} == COMMAND_FLAGS[command]


def test_readme_flag_table_matches_parser():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    lines = readme.splitlines()
    start = lines.index("| command | flags |")
    documented = {}
    for row in lines[start + 2:]:
        if not row.startswith("|"):
            break
        names, flags = row.strip("|").split("|")
        for name in re.findall(r"`([a-z]+)`", names):
            documented[name] = set(re.findall(r"--\w+", flags)) | {"--out"}
    assert "`--out <dir>` on every command" in lines[start - 2]
    assert documented == _parser_flags()


@pytest.mark.parametrize("argv", [
    ["density", "--grid", "0"],
    ["chi", "--rstep", "0"],
    ["simulate", "--runs", "1", "--seed", "-1"],
    ["density", "--z", "nan"],
    ["quantiles", "--z", "1.5", "--N", "0"],
    ["simulate", "--runs", "0"],
    ["simulate", "--runs", "1", "--threads", "0"],
    ["simulate", "--runs", "1", "--threads", "-3"],
])
def test_out_of_range_value_gives_one_error_line(tmp_path, fig2_file, capsys, argv):
    rc = main([*argv, "--sigma", str(fig2_file), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc in (1, 2)
    assert len([line for line in err.splitlines() if "error:" in line]) == 1, err
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("grid", [1, 2])
def test_coarse_grid_sets_only_the_table(tmp_path, fig2_file, grid):
    # --grid sets the table alone: bands.json is the default's, and a table
    # of 2 segments a band splits until its mass is right
    outs = {g: tmp_path / str(g) for g in (grid, 2000)}
    for g, out in outs.items():
        rc = main(["density", "--sigma", str(fig2_file), "--z", "0.5", "--grid", str(g),
                   "--out", str(out)])
        assert rc == 0
    assert (outs[grid] / "bands.json").read_bytes() == (outs[2000] / "bands.json").read_bytes()
    manifest = json.loads((outs[grid] / "manifest.json").read_text())
    assert abs(manifest["total_mass"] - 1.0) < 1e-4


@pytest.mark.parametrize("z", [
    0.0,
    pytest.param(1e-6, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP direction 9: a zero-edge node at w = 4.2e-16 misses the "
               "residual contract in the arrowhead")),
    1e-5, 1e-4, 1e-3,
])
def test_small_z_exit_codes(tmp_path, fig2_file, capsys, z):
    # density and quantiles near |z| = 0, where the zero-edge nodes that no
    # seed certifies fall to the arrowhead
    for command in ("density", "quantiles"):
        rc = main([command, "--sigma", str(fig2_file), "--z", repr(z),
                   "--out", str(tmp_path / command)])
        assert rc == 0, capsys.readouterr().err


def test_usage_errors(tmp_path, fig2_file, capsys):
    assert main(["density", "--sigma", "/nope.cfg", "--out", str(tmp_path)]) == 2
    assert main(["bogus"]) == 2
    assert main(["verify", "--suite", "esd", "--N", "0", "--out", str(tmp_path / "v")]) == 2
    capsys.readouterr()
    assert main(["verify", "--suite", "esd", "--N", "401", "--out", str(tmp_path / "v")]) == 2
    assert "error: --N must be even and at least 2" in capsys.readouterr().err
    bad = tmp_path / "bad.cfg"
    bad.write_text("N = 4\nM = 4\nd = [1, oops]\n")
    assert main(["density", "--sigma", str(bad), "--out", str(tmp_path / "x")]) == 2
    # a size below 1 is named by its flag, not by the multiplicities it would give
    for argv in (["quantiles", "--N", "0"], ["quantiles", "--M", "-3"],
                 ["simulate", "--runs", "1", "--N", "0"]):
        capsys.readouterr()
        assert main([*argv, "--sigma", str(fig2_file), "--out", str(tmp_path / "n")]) == 2
        err = capsys.readouterr().err
        assert f"argument {argv[-2]}: expected an integer >= 1" in err, err
        assert "multiplicities" not in err
    assert not (tmp_path / "n").exists()


def test_parser_is_built_once_per_process(tmp_path, fig2_file):
    # a fresh process: importing the CLI builds no parser, and main builds it
    # on its first call only
    src = str(Path(txlaw.__file__).resolve().parent.parent)
    code = (
        "from txlaw import cli\n"
        "print(cli.build_parser.cache_info().misses)\n"
        "codes = [cli.main(['bogus']),\n"
        f"         cli.main(['edges', '--sigma', {str(fig2_file)!r}, '--z', '1.5',\n"
        f"                   '--grid', '200', '--out', {str(tmp_path / 'e')!r}]),\n"
        "         cli.main(['density', '--grid', '0'])]\n"
        "print(codes, cli.build_parser.cache_info().misses)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["0", "[2, 0, 2] 1"]


def test_reused_parser_leaks_no_values(tmp_path, fig2_file):
    # values set by one call, or by a call that fails to parse, reach no later call
    sigma = ["--sigma", str(fig2_file)]
    out = tmp_path / "d"
    assert main(["density", *sigma, "--z", "1.5", "--grid", "200", "--out", str(out)]) == 0
    assert main(["density", *sigma, "--z", "0.3", "--grid", "0", "--out", str(out)]) == 2
    assert main(["density", *sigma, "--z", "0.5", "--out", str(out)]) == 0
    options = json.loads((out / "manifest.json").read_text())["options"]
    assert (options["grid"], options["z"]) == (2000, 0.5)


def test_console_entry_point(tmp_path, fig2_file):
    # exercised through the interpreter to confirm the module wiring
    out = tmp_path / "cli"
    proc = subprocess.run(
        [sys.executable, "-m", "txlaw.cli", "edges", "--sigma", str(fig2_file),
         "--z", "1.5", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0


def test_commands_run_without_scipy(tmp_path, fig2_file):
    # the test process has scipy loaded already, so the check needs a fresh one;
    # |z| = 0.5 takes the zero-edge path
    src = str(Path(txlaw.__file__).resolve().parent.parent)
    code = (
        "import sys\n"
        "from txlaw import cli\n"
        "for cmd in ('edges', 'density'):\n"
        f"    rc = cli.main([cmd, '--sigma', {str(fig2_file)!r}, '--z', '0.5',\n"
        f"                  '--out', {str(tmp_path / 'out')!r} + cmd])\n"
        "    assert rc == 0, (cmd, rc)\n"
        "print([m for m in ('txlaw.verify_suites', 'txlaw.oracles') if m in sys.modules])\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-2:] == ["[]", "[]"]
    edges = json.loads((tmp_path / "outedges" / "edges.json").read_text())
    assert edges["zero_edge"]["t"] > 0


@pytest.mark.parametrize("script, args", [
    ("density_scan.py", ["--z", "0.5", "--resolution", "200"]),
    ("radial_demo.py", ["--step", "0.01"]),
    ("output_digest.py", ["digest"]),
    ("output_diff.py", ["a", "b"]),
])
def test_scripts_run(tmp_path, script, args):
    root = Path(__file__).resolve().parent.parent
    src = str(Path(txlaw.__file__).resolve().parent.parent)
    if script in ("density_scan.py", "radial_demo.py"):
        args = args + ["--out", str(tmp_path / "out")]
    if script == "output_diff.py":
        _write_digest_pair(tmp_path / "a", tmp_path / "b")
    proc = subprocess.run([sys.executable, str(root / "scripts" / script), *args],
                          capture_output=True, text=True, cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    if script == "output_diff.py":
        assert proc.stdout.splitlines() == [
            "q/edges.json  2/5 fields  max rel inf",
            "q/quantiles.csv  1/3 rows  max rel 2.5e-06",
            "s/extra.csv  only in b",
        ]


def _write_digest_pair(a, b):
    """Two small output directories: a CSV with one moved cell, a JSON with a
    moved number and a changed string, and the files output_diff.py skips or
    finds equal."""
    for d, gamma, e, side, elapsed in ((a, "0.4", 2.0, "upper", [0.1]),
                                       (b, "0.400001", 2.0000001, "lower", [0.2])):
        (d / "q").mkdir(parents=True)
        (d / "s").mkdir()
        (d / "q" / "quantiles.csv").write_text(f"j,gamma_j\n1,0.1\n2,{gamma}\n3,0.9\n")
        (d / "q" / "edges.json").write_text(json.dumps(
            {"z_mod": 0.5, "edges": [{"e": e, "side": side, "refined": True}], "zero_edge": None}))
        (d / "q" / "manifest.json").write_text(json.dumps({"elapsed": elapsed}))
        (d / "s" / "summary.json").write_text(json.dumps({"runs": 1, "elapsed": elapsed}))
    (b / "s" / "extra.csv").write_text("x\n1\n")
