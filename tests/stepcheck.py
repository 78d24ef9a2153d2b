"""Single training steps and their finite-difference check, for the tests.

forward_loss and backward run one step of the package's training loop
through the same step functions train() runs, so train() and a loop over
them and the Adam update give identical bits. gradient_check compares
backward() with central differences of forward_loss on a fixed batch; it
backs acceptance criterion 3. Either runs on a batch of given noise or,
with noise None, on train's Gauss-Hermite batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from shapegain.constellation import check_labels
from shapegain.demapper import LLR_CLIP, _check_noise_variance
from shapegain.errors import ParameterError
from shapegain.training import (
    ForwardState,
    MlpDemapper,
    Workspace,
    _backward,
    _flatten,
    _forward,
    _grid_shape,
    _make_batch,
    _mapper_power,
    trainable_arrays,
    with_arrays,
)


def forward_loss(raw: np.ndarray, demapper, labels: np.ndarray,
                 noise: np.ndarray, noise_variance: float):
    """Surrogate loss (bits/symbol) plus cached intermediates.

    raw is the (M, 2) mapper table. `labels` must be train()'s batch: each
    of the M labels S // M times, in sorted order, since the step sums each
    label's samples as one run; `noise` is the complex additive noise
    realization, one entry per label, or None for train's Gauss-Hermite
    batch, whose noise is its unit offsets times sqrt(noise_variance); that
    needs S // M = n1 n2 samples per label with n1, n2 >= 8. noise_variance
    must be finite and positive, which the step itself does not check. Each
    call takes a fresh workspace, so the states of two calls share no array.
    """
    _check_noise_variance(noise_variance)
    labels = np.asarray(labels)
    M = raw.shape[0]
    grid = None
    if noise is None:
        grid = _grid_shape(labels.size // M)
        if grid is None:
            raise ParameterError("the Gauss-Hermite batch needs at least 8 x 8 samples per label")
    batch = _make_batch(M, labels.size, grid=grid)
    if noise is None:
        noise_iq = batch.offsets * math.sqrt(noise_variance)
    else:
        noise = np.asarray(noise, dtype=np.complex128)
        if labels.shape != noise.shape:
            raise ParameterError("labels and noise must have matching shapes")
        noise_iq = np.stack([noise.real, noise.imag])
    if not np.array_equal(check_labels(labels, M), batch.labels):
        raise ParameterError("labels must list each label S // M times, in sorted order")
    st = _forward(raw, demapper, batch, noise_iq, [noise_variance], Workspace(),
                  _mapper_power(raw))
    return float(st.loss), st


def backward(raw: np.ndarray, demapper, state: ForwardState) -> dict:
    """Gradients of the surrogate loss w.r.t. every trainable array.

    The differentiable path runs through the power normalization, the
    transmit symbols, and the receiver when the points enter it (Gaussian);
    clipped LLR entries receive zero gradient. The returned arrays are
    views into one flat vector, in trainable_arrays() order.
    """
    grad, grads = _flatten(trainable_arrays(raw, demapper))  # every entry is overwritten
    _backward(demapper, state, grad, grads)
    return grads


@dataclass(frozen=True)
class GradProbe:
    array: str
    index: tuple
    analytic: float
    numeric: float
    rel_err: float


@dataclass(frozen=True)
class GradCheckReport:
    probes: list
    max_rel_err: float
    passed: bool


def finite_difference_check(loss_fn: Callable[[dict], float], arrays: dict,
                            grads: dict, n_probes: int, tolerance: float,
                            rng: np.random.Generator, step: float = 1e-5,
                            region_fn: Optional[Callable[[dict], list]] = None
                            ) -> GradCheckReport:
    """Probe random coordinates of `arrays` with central differences.

    loss_fn maps an array dict to a scalar loss; grads holds the analytic
    gradients under test. Relative error per probe is
    |g_analytic - g_fd| / max(1e-8, |g_fd|).

    A piecewise-linear model is non-differentiable exactly where an
    activation changes state, and a central difference straddling such a
    kink measures a mixture of two slopes rather than either one. When
    region_fn is given it must return the activation pattern (a list of
    boolean arrays) at an array setting; probes whose two evaluation
    points land in different patterns are discarded and another
    coordinate is drawn instead.
    """
    if not tolerance > 0:
        raise ParameterError("tolerance must be positive")
    coords = [(name, idx) for name in sorted(arrays)
              for idx in np.ndindex(arrays[name].shape)]
    take = min(n_probes, len(coords))
    probes = []
    for ci in rng.permutation(len(coords)):
        if len(probes) == take:
            break
        name, idx = coords[int(ci)]
        bumped = {k: v.copy() for k, v in arrays.items()}
        bumped[name][idx] += step
        up = loss_fn(bumped)
        sig_up = region_fn(bumped) if region_fn is not None else None
        bumped[name][idx] -= 2.0 * step
        down = loss_fn(bumped)
        if region_fn is not None:
            sig_down = region_fn(bumped)
            if not all(np.array_equal(a, b) for a, b in zip(sig_up, sig_down)):
                continue
        g_fd = (up - down) / (2.0 * step)
        g_an = float(grads[name][idx])
        rel = abs(g_an - g_fd) / max(1e-8, abs(g_fd))
        probes.append(GradProbe(name, idx, g_an, g_fd, rel))
    worst = max(p.rel_err for p in probes) if probes else 0.0
    return GradCheckReport(probes=probes, max_rel_err=worst, passed=worst < tolerance)


def _activation_pattern(demapper, st: ForwardState) -> list:
    """The LLR clip saturation, then for an MLP the sign of each rectified
    hidden layer (its cached input to the next layer, ones row dropped)."""
    pattern = [np.abs(st.llr_raw) > LLR_CLIP]
    if isinstance(demapper, MlpDemapper):
        pattern += [x[..., :-1, :] > 0 for x in st.cache[1:]]
    return pattern


def gradient_check(raw: np.ndarray, demapper, labels, noise,
                   noise_variance: float, n_probes: int = 20,
                   tolerance: float = 1e-4,
                   rng: Optional[np.random.Generator] = None,
                   step: float = 1e-5) -> GradCheckReport:
    """Finite-difference check of backward() on a fixed batch: the given
    noise, or the Gauss-Hermite batch for noise None (see forward_loss).

    Kinks of the model (rectifier sign flips, LLR clip saturation) make
    central differences meaningless at isolated points; probes straddling
    one are redrawn, see finite_difference_check.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    arrays = trainable_arrays(raw, demapper)
    _, st = forward_loss(raw, demapper, labels, noise, noise_variance)
    grads = backward(raw, demapper, st)

    def loss_fn(replaced: dict) -> float:
        r2, d2 = with_arrays(demapper, replaced)
        val, _ = forward_loss(r2, d2, labels, noise, noise_variance)
        return val

    def region_fn(replaced: dict) -> list:
        r2, d2 = with_arrays(demapper, replaced)
        _, st2 = forward_loss(r2, d2, labels, noise, noise_variance)
        return _activation_pattern(d2, st2)

    return finite_difference_check(loss_fn, arrays, grads, n_probes, tolerance,
                                   rng, step, region_fn=region_fn)
