"""A fixed reference computation that tracks the host's current speed.

The host the bounds were set on slows down and speeds up by 10-30 % over
minutes, whatever runs on it. Timing this kernel between passes, and
scaling each pass's time by it, cancels much of that drift (over ten seeds
it cut the interquartile spread of the pass time by 2-3x). The kernel mixes
the two kinds of work the workloads do: small-array NumPy calls (per-call
overhead, as in MLP training) and a Gaussian bit metric on (S, M) arrays
(as in llr_exact and Gaussian training). It is frozen here, apart from the
package, so a change to shapegain never changes it.
"""

from __future__ import annotations

import time

import numpy as np

# kernel time on the host the bounds were set on (2-core Intel Xeon VM,
# numpy 2.4.6), so normalized times read in that host's seconds
NOMINAL_S = 0.22

_rng = np.random.default_rng(20230103)
_X = _rng.standard_normal((1024, 2))
_W1 = _rng.standard_normal((2, 4))
_W2 = _rng.standard_normal((4, 4))
_Y = _rng.standard_normal(4096) + 1j * _rng.standard_normal(4096)
_P = _rng.standard_normal(64) + 1j * _rng.standard_normal(64)
_BITS = ((np.arange(64)[:, None] >> np.arange(5, -1, -1)) & 1).astype(bool)


def _small_arrays() -> float:
    acc = 0.0
    for _ in range(1800):
        h = np.maximum(_X @ _W1, 0.0)
        o = h @ _W2
        g = 1.0 / (1.0 + np.exp(-o))
        gw = h.T @ g
        dx = (g @ _W2.T) * (h > 0)
        m = 0.9 * gw + 0.1 * gw * gw
        acc += float(np.sum(m / (np.sqrt(m * m) + 1e-8)) + dx.sum())
    return acc


def _bit_metric() -> float:
    acc = 0.0
    for _ in range(8):
        ll = -np.abs(_Y[:, None] - _P[None, :]) ** 2 / 0.05
        top = ll.max(axis=1, keepdims=True)
        p = np.exp(ll - top)
        for k in range(_BITS.shape[1]):
            acc += float(np.sum(np.log(p[:, _BITS[:, k]].sum(axis=1))
                                - np.log(p[:, ~_BITS[:, k]].sum(axis=1))))
    return acc


def kernel_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    _small_arrays()
    _bit_metric()
    return time.perf_counter() - t0
