"""Oracles independent of the engine: numpy only, importing nothing from txlaw."""

import numpy as np


def mp_density(x):
    """Closed-form square-ratio limiting density of X^dag X (support [0, 4])."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(x)
    m = (x > 0) & (x < 4)
    out[m] = np.sqrt((4.0 - x[m]) / x[m]) / (2.0 * np.pi)
    return out


def bisect_g_oracle(spec, z, lo=-64.0, hi=0.0, iters=200):
    """Zero-edge scale t by plain bisection on the decreasing auxiliary g;
    its root is -t."""
    z2 = z * z
    s = np.asarray(spec.s)
    wts = spec.weights

    def g(x):
        return 1.0 + np.dot(wts * s, (x - z2) / (-(s + z2) * x + z2 * z2))

    while g(lo) <= 0:
        lo *= 2
    a, b = lo, hi
    for _ in range(iters):
        mid = 0.5 * (a + b)
        if g(mid) > 0:
            a = mid
        else:
            b = mid
    return -0.5 * (a + b)
