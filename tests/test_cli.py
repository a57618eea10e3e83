"""CLI: subcommands, file formats, manifests, exit codes, reproducibility."""

import json
import subprocess
import sys

import numpy as np
import pytest

from txlaw.cli import main

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
             "--out", str(out), "--seed", "9"]
        )
        assert rc == 0
    assert (out1 / "density.csv").read_bytes() == (out2 / "density.csv").read_bytes()


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


def test_verify_suite_small(tmp_path, fig2_file):
    out = tmp_path / "v"
    rc = main(
        ["verify", "--sigma", str(fig2_file), "--suite", "small-w", "--out", str(out)]
    )
    assert rc == 0
    data = json.loads((out / "verify.json").read_text())
    assert data["small_w"]["passed"]


def test_selfcheck(tmp_path):
    out = tmp_path / "sc"
    rc = main(["selfcheck", "--out", str(out)])
    assert rc == 0
    data = json.loads((out / "selfcheck.json").read_text())
    assert all(v["passed"] for v in data.values())


def test_usage_errors(tmp_path, fig2_file):
    assert main(["density", "--sigma", "/nope.cfg", "--out", str(tmp_path)]) == 2
    assert main(["bogus"]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("N = 4\nM = 4\nd = [1, oops]\n")
    assert main(["density", "--sigma", str(bad), "--out", str(tmp_path / "x")]) == 2


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
