"""Shared fixtures. The radial profiles are expensive and session-cached.

`arrowhead_only` is the tests' oracle for real-axis roots: the arrowhead
eigensolve at every point. `bench` is the benchmark's engine-free oracle
module, txbench/oracles.py: the vector Dyson equation of the Hermitization and
the Haagerup-Larsen radial law. It is loaded by file path, so txbench/ never
goes on sys.path and its modules cannot shadow any other.
"""

import importlib.util
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import txlaw
from txlaw.linalg import blas_threads
from txlaw.master import _solve_arrowhead


def _load_bench_oracles():
    path = Path(__file__).resolve().parents[1] / "txbench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("txbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    # the module's dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


bench = _load_bench_oracles()


def bench_law(spec):
    """The oracle's Law of a spectrum, with its s and weights bit for bit.

    Not Law.from_counts, which renormalizes and can move s by an ulp.
    """
    return bench.Law(s=tuple(spec.s), w=tuple(spec.weights))


def arrowhead_only(x, spec, z):
    """(m, ncand) of the arrowhead eigensolve alone at real x > 0.

    Two threads on one BLAS thread each take half the points: the
    eigensolves release the GIL, and each row is solved alone.
    """
    def solve(xs):
        return _solve_arrowhead(xs.astype(complex), np.sqrt(xs), spec, z)

    with blas_threads(1), ThreadPoolExecutor(2) as pool:
        parts = list(pool.map(solve, np.array_split(x, 2)))
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[2] for p in parts])


# every @given test draws the same examples on every run, and none are replayed
# from a .hypothesis/ directory (derandomize implies database=None)
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def identity_spec():
    return txlaw.SigmaSpectrum(s=(1.0,), l=(1000,), N=1000, M=1000)


@pytest.fixture(scope="session")
def fig2_spec():
    return txlaw.SigmaSpectrum(s=(32 / 17, 2 / 17), l=(500, 500), N=1000, M=1000)


@pytest.fixture(scope="session")
def twoband_spec():
    spec, _ = txlaw.normalize_spectrum([8.0, 0.2], [100, 900], 1000, 1000)
    return spec


@pytest.fixture(scope="session")
def many_spec():
    """Ten distinct values in two jittered clusters, like the law-many-atoms workload."""
    jitter = np.array([[0.002, -0.004, 0.001, 0.003, -0.002],
                       [-0.001, 0.004, -0.003, 0.002, 0.0]])
    spread = 1 + 0.03 * np.arange(5) + jitter
    s = np.concatenate([6.0 * spread[0] ** 2, 0.3 * spread[1] ** 2])
    spec, _ = txlaw.normalize_spectrum(s, [4] * 5 + [36] * 5, 200, 200)
    return spec


@pytest.fixture(scope="session")
def identity_radial_profile(identity_spec):
    return txlaw.compute_radial_profile(identity_spec, 0.1, 2.0, h=0.005)


@pytest.fixture(scope="session")
def fig2_radial_profile(fig2_spec):
    return txlaw.compute_radial_profile(fig2_spec, 0.1, 2.0, h=0.005)


def mp_stieltjes(w):
    """Closed-form Stieltjes transform: root of w m^2 + w m + 1 with Im m > 0."""
    w = complex(w)
    disc = np.sqrt(w * w - 4 * w)
    for sgn in (1, -1):
        m = (-w + sgn * disc) / (2 * w)
        if m.imag > 0:
            return m
    raise AssertionError("no upper-half-plane root")
