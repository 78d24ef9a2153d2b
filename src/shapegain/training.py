"""Gradient-based constellation learning with hand-written reverse mode.

The trainable objects are a direct M x 2 point table (the mapper) and the
receiver's arrays, if it has any. The loss is the GMI surrogate

    loss = (1/S) sum_s w_s sum_k log2(1 + exp(-(1 - 2 b_{k,s}) L_{k,s}))

so surrogate GMI per symbol is m - loss by construction. When a label's
S/M samples factor as n1 x n2 with 8 <= n1, n2 <= 256, they take the fixed
Gauss-Hermite grid of noise offsets of those orders, and w_s is S/M times
the node's weight; otherwise every w_s is 1 and fresh noise is drawn for
every iteration, from each cell's generator, one window of iterations at a
time: NOISE_WINDOW_ENTRIES entries at most, or up to the end of the run.
Each cell trains at the one noise variance of its SnrTarget; link_target
makes a link one, the SNR it gives Gray QAM. Each term and its derivative
sigmoid(z) / ln 2, z = -(1 - 2 b) L, come from the one kernel
demapper.logistic. Unit average power is enforced inside the forward pass,
never by projection, by the one rule that emit() shares, so a trained
constellation is the points a step transmits.
Gradients are derived by hand and guarded by finite-difference checks
(tests/stepcheck.py).

A receiver is one object with three methods; GaussianDemapper (the exact
bit metric) and MlpDemapper (a small rectifier network) implement them, and
training never asks which one it holds:

    arrays()             named trainable arrays, in backward order
    with_arrays(arrays)  the same receiver rebuilt from such arrays
    bind(y_iq, points_iq, noise_variance, grads) -> bound
                         the receiver's part of one run's step: y_iq (2, S)
                         and points_iq (2, M = 2**m) are the step's arrays,
                         which every step refills, and grads the named views
                         its parameter gradients go to

A run binds its step once, before the first; the bound receiver allocates
what it needs then, and every step calls its two methods:

    forward() -> llr_raw     llr_raw (m, S) of the arrays' current values
    backward(dllr) -> (gy, gp)
                             writes its parameter gradients into grads;
                             dllr (m, S); gy = d loss / d y_iq (2, S),
                             gp = d loss / d points_iq (2, M) through the
                             receiver, or None

demapper.clip_llr clips the LLRs to +/- LLR_CLIP, their clipped entries of
dllr zero, and fails the step on a NaN or +/-inf one with NumericalError.

train_many() trains cells whose configs differ only in seed and target;
train() is train_many() of one config. MLP cells stack along a leading cell
axis K, as many per run as keep their summed entries
(TrainConfig.cell_entries) within MAX_CELL_ENTRIES; Gaussian cells run one
per run. Cell k keeps its own default_rng(seed) and its scalars as Python
floats, so it ends bit for bit where train() of its config ends, history
included. Only every HISTORY_STRIDE-th iteration and the last compute the
loss and gradient norm that TrainHistory records. README's Performance
section describes the loop's layout: one flat parameter array updated in
place, the sorted batch, the step bound once per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional

import numpy as np

from .channel import LinkConfig, linear_to_db, noise_variance_from_db, optimal_launch_power
from .constellation import MAX_QAM_M, Constellation, bit_table, moments, uniform_qam
from .demapper import (LN2, MAX_HERMITE_ORDER, GaussianDemapper, clip_llr,
                       gauss_hermite_grid, logistic)
from .errors import NumericalError, ParameterError, build_section, check_field_types, int_tuple


# ---------------------------------------------------------------------------
# configuration

# Caps on the work one config can ask for: a million iterations of the
# default batch take about 4 minutes at m = 4 (MLP receiver) and 1.5 hours
# at m = 8 (Gaussian). The largest training arrays of a cell, the Gaussian
# receiver's (M, S) log-likelihoods and the MLP receiver's (width, S)
# activations summed over its hidden layers, hold at most 2**24 entries:
# 134 MB, m = 8 at the largest batch of 2**16 symbols. train_many stacks MLP
# cells in runs whose summed entries stay within the same budget. Larger
# values are rejected when the config is built, before any array is allocated.
MAX_ITERATIONS = 10 ** 6
MAX_BATCH_SYMBOLS = 2 ** 16
MAX_CELL_ENTRIES = 2 ** 24
NOISE_WINDOW_ENTRIES = 2 ** 16  # 512 KB: the drawn noise of one window of iterations
HISTORY_STRIDE = 100  # iterations between two rows of a TrainHistory


@dataclass(frozen=True)
class SnrTarget:
    """Train against a fixed effective SNR in dB."""

    snr_db: float

    def __post_init__(self):
        check_field_types(self)
        noise_variance_from_db(self.snr_db)


def link_target(link: LinkConfig, m: int) -> SnrTarget:
    """The SNR that link gives Gray QAM of order m at its optimal launch
    power: the one target a link trains at, in a train section and in
    every ae cell of a sweep."""
    return SnrTarget(optimal_launch_power(link, moments(uniform_qam(m)))[1].snr_db)


@dataclass(frozen=True)
class TrainConfig:
    m: int
    target: SnrTarget
    iterations: int
    batch_symbols: int = 1024
    demapper_mode: str = "gaussian"
    mlp_hidden: tuple = (64, 64)
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if not isinstance(self.target, SnrTarget):
            raise ParameterError(f"target must be an SnrTarget, got {type(self.target).__name__}")
        if not 1 <= self.m <= MAX_QAM_M:  # the mapper starts from Gray QAM
            raise ParameterError(f"m must be in [1, {MAX_QAM_M}], got {self.m}")
        if not 0 <= self.iterations <= MAX_ITERATIONS:
            raise ParameterError(
                f"iterations must be in [0, {MAX_ITERATIONS}], got {self.iterations}")
        if self.seed < 0:
            raise ParameterError("seed must be >= 0")
        M = 1 << self.m
        if self.batch_symbols > MAX_BATCH_SYMBOLS:
            raise ParameterError(
                f"batch_symbols must be <= {MAX_BATCH_SYMBOLS}, got {self.batch_symbols}")
        if self.batch_symbols < M or self.batch_symbols % M != 0:
            raise ParameterError(
                f"batch_symbols must be a positive multiple of M = {M}, "
                f"got {self.batch_symbols}")
        if self.demapper_mode not in ("gaussian", "mlp"):
            raise ParameterError(f"unknown demapper_mode {self.demapper_mode!r}")
        if not self.learning_rate > 0:
            raise ParameterError(f"learning_rate must be positive, got {self.learning_rate}")
        object.__setattr__(self, "mlp_hidden", int_tuple("mlp_hidden", self.mlp_hidden))
        if not self.mlp_hidden:
            raise ParameterError("mlp_hidden must list at least one width")
        if any(w < 1 for w in self.mlp_hidden):
            raise ParameterError("mlp_hidden widths must be >= 1")
        if self.cell_entries > MAX_CELL_ENTRIES:
            units = "2**m" if self.demapper_mode == "gaussian" else "sum(mlp_hidden)"
            raise ParameterError(
                f"{units} * batch_symbols must be <= {MAX_CELL_ENTRIES} with the "
                f"{self.demapper_mode} receiver, got "
                f"{self.cell_entries // self.batch_symbols} * {self.batch_symbols}")

    @property
    def cell_entries(self) -> int:
        """Entries of the cell's largest training arrays: the Gaussian
        receiver's (M, S) log-likelihoods, or the MLP receiver's (width, S)
        activations summed over its hidden layers."""
        units = 1 << self.m if self.demapper_mode == "gaussian" else sum(self.mlp_hidden)
        return units * self.batch_symbols


def _grid_shape(n: int) -> Optional[tuple]:
    """The Gauss-Hermite grid of a label's n training samples: (n1, n2),
    n1 <= n2, the most nearly square factors n1 * n2 = n, or None if
    n1 < 8, too few nodes, or n2 > MAX_HERMITE_ORDER, and the samples draw
    their noise."""
    n1 = max(d for d in range(1, math.isqrt(n) + 1) if n % d == 0)
    return (n1, n // n1) if n1 >= 8 and n // n1 <= MAX_HERMITE_ORDER else None


def train_config_from_dict(doc: dict) -> TrainConfig:
    """Parse the `train` section of a run-configuration file."""
    return build_section("train config", _train_config, doc)


def _train_config(target, **fields) -> TrainConfig:
    config = TrainConfig(target=SnrTarget(0.0), **fields)  # m is checked before a link needs it
    return replace(config, target=build_section("target config", partial(_target, config.m),
                                                target))


def _target(m: int, /, **fields) -> SnrTarget:
    if "link" in fields:
        return link_target(build_section("link config", LinkConfig, fields.pop("link")), m,
                           **fields)
    return SnrTarget(**fields)


# ---------------------------------------------------------------------------
# trainable objects


def emit(raw: np.ndarray) -> np.ndarray:
    """The complex points a training step transmits from one (M, 2) table of
    free coordinates, bit for bit: the step's scale _mapper_power(raw) ** -0.5."""
    return _mapper_power(raw)[0] ** -0.5 * (raw[:, 0] + 1j * raw[:, 1])


@dataclass
class MlpDemapper:
    """Fully-connected rectifier network mapping y = (I, Q) to m LLRs.

    A receiver as described in the module docstring; the points do not
    enter it, so its bound backward() returns gp = None. Layer i is one
    (fan_in + 1, fan_out) array, the weights in its first fan_in rows and
    the bias in its last. Each layer's input (y, then each rectified hidden
    layer) is (fan_in + 1, S) with a constant ones row last, so one GEMM
    gives a layer's output bias included, and in backward the GEMM that
    gives the weight gradient also gives the bias gradient, the sum of dx
    over the samples. The layers are stacked, (K, fan_in + 1, fan_out),
    when the inputs carry the cell axis.
    """

    layers: list

    def arrays(self) -> dict:
        return {f"mlp.layer{i}": self.layers[i] for i in range(len(self.layers) - 1, -1, -1)}

    def with_arrays(self, arrays: dict) -> "MlpDemapper":
        return MlpDemapper(layers=[arrays[f"mlp.layer{i}"] for i in range(len(self.layers))])

    def bind(self, y_iq: np.ndarray, points_iq: np.ndarray, noise_variance, grads: dict):
        return _MlpStep(self.layers, y_iq, grads)


class _MlpStep:
    """An MlpDemapper bound to a step's samples y_iq, (..., 2, S), and to its
    gradient views grads; see MlpDemapper.bind.

    It allocates the layer inputs, (..., fan_in + 1, S) each with its ones
    row, the LLRs, and each layer's dx and rectifier mask once, and takes
    the views its GEMMs read and write once: the layers keep their memory,
    as Adam updates them in place. inputs is the list of layer inputs, the
    rectifier applied in place, as h > 0 exactly where its pre-activation is.
    """

    def __init__(self, layers: list, y_iq: np.ndarray, grads: dict):
        lead, samples = y_iq.shape[:-2], y_iq.shape[-1]
        self.y_iq = y_iq
        self.inputs = [_with_ones_row(lead + (layer.shape[-2] - 1, samples)) for layer in layers]
        rows = [x[..., :-1, :] for x in self.inputs]  # each input without its ones row
        self.y_rows = rows[0]
        # forward: (W^T, the layer's input, its output's rows) per hidden layer
        self.hidden = [(layer.swapaxes(-1, -2), x, h)
                       for layer, x, h in zip(layers, self.inputs, rows[1:])]
        self.head = layers[-1].swapaxes(-1, -2)
        self.llr = np.empty(lead + (layers[-1].shape[-1], samples))
        # backward, from the head down: (the layer's input, its gradient, its
        # weights without the bias row, dx, dx^T, the input's rows, the mask)
        self.back = []
        for i in range(len(layers) - 1, -1, -1):
            dx = np.empty(rows[i].shape)
            self.back.append((self.inputs[i], grads[f"mlp.layer{i}"], layers[i][..., :-1, :],
                              dx, dx.swapaxes(-1, -2), rows[i],
                              np.empty(dx.shape, dtype=bool) if i > 0 else None))

    def forward(self) -> np.ndarray:
        np.copyto(self.y_rows, self.y_iq)
        for weights_t, x, h in self.hidden:
            np.matmul(weights_t, x, out=h)
            np.maximum(h, 0.0, out=h)
        return np.matmul(self.head, self.inputs[-1], out=self.llr)

    def backward(self, dllr: np.ndarray):
        dx, dx_t = dllr, dllr.swapaxes(-1, -2)
        for x, grad, weights, out, out_t, h, mask in self.back:
            np.matmul(x, dx_t, out=grad)
            dx = np.matmul(weights, dx, out=out)
            if mask is not None:
                dx *= np.greater(h, 0.0, out=mask)
            dx_t = out_t
        return dx, None


def _with_ones_row(shape: tuple) -> np.ndarray:
    """An array for a layer input of shape (..., n, S) with a ones row
    appended, (..., n + 1, S); only that last row is initialized."""
    x = np.empty(shape[:-2] + (shape[-2] + 1, shape[-1]))
    x[..., -1, :] = 1.0
    return x


def init_mlp(m: int, hidden, rng: np.random.Generator) -> MlpDemapper:
    """He-initialized rectifier MLP with the given hidden widths and zero biases."""
    widths = [2, *[int(w) for w in hidden], m]
    layers = []
    last = len(widths) - 2
    for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
        gain = 1.0 if i == last else 2.0  # He gain under the rectifier, plain for the linear head
        layer = np.zeros((fan_in + 1, fan_out))
        layer[:-1] = rng.standard_normal((fan_in, fan_out)) * math.sqrt(gain / fan_in)
        layers.append(layer)
    return MlpDemapper(layers=layers)


def init_mapper(config: TrainConfig, rng: np.random.Generator) -> np.ndarray:
    """Initial free points, an (M, 2) float64 table: Gray QAM plus 0.01
    times a standard-normal draw per coordinate."""
    base = uniform_qam(config.m).points
    raw = np.column_stack([base.real, base.imag])
    return raw + 0.01 * rng.standard_normal((1 << config.m, 2))


def trainable_arrays(raw: np.ndarray, demapper) -> dict:
    """Named real-valued parameter arrays, the unit Adam operates on.

    The order is that of the flat parameter vector: the mapper, then the
    receiver's arrays, the order backward() produces them in.
    """
    return {"mapper.raw": raw, **demapper.arrays()}


def with_arrays(demapper, arrays: dict):
    """Rebuild (raw, demapper) from a replacement array dict."""
    return arrays["mapper.raw"], demapper.with_arrays(arrays)


def _flatten(arrays: dict, cells: tuple = ()):
    """Copy named arrays into one new float64 array; returns (vec, views).

    cells is () for one unstacked set of arrays, which gives a vector, or
    (K,) for arrays that all carry the cell axis, which gives (K, n) with
    one row per cell.
    """
    sizes = {name: math.prod(np.shape(a)[len(cells):]) for name, a in arrays.items()}
    vec = np.empty(cells + (sum(sizes.values()),))
    views, lo = {}, 0
    for name, a in arrays.items():
        views[name] = vec[..., lo:lo + sizes[name]].reshape(np.shape(a))
        views[name][...] = a
        lo += sizes[name]
    return vec, views


# ---------------------------------------------------------------------------
# forward / backward


@dataclass(frozen=True)
class _Batch:
    """Label-dependent invariants of a training batch, built by _make_batch."""

    labels: np.ndarray   # (S,), each label S // M times, sorted
    flip: np.ndarray     # (..., m, S), 2 b_{k,s} - 1, so that z = flip * L
    # (..., m, S), flip * S ln 2 (divided by weight if given), so that
    # d loss / d L = sigmoid / flip_norm
    flip_norm: np.ndarray
    # the Gauss-Hermite batch only: the unit noise offsets (2, S), each
    # label's grid, and the samples' weights (S,), S/M times the grid's
    weight: Optional[np.ndarray] = None
    offsets: Optional[np.ndarray] = None

    @property
    def size(self) -> int:
        return self.labels.size


def _make_batch(M: int, S: int, cells: tuple = (), grid: Optional[tuple] = None) -> _Batch:
    """The batch of S symbols that lists each of the M labels S // M times,
    in sorted order, and its invariants. The label signs carry the cell
    axis, cells = (K,) in a stacked run: the step multiplies them with its
    (K, m, S) arrays, and same-shape operands multiply faster than
    broadcast ones. With a grid (n1, n2), n1 n2 = S // M, each label's
    samples take its Gauss-Hermite offsets, and their weights fold into
    flip_norm."""
    labels = np.repeat(np.arange(M), S // M)
    bits = bit_table(M.bit_length() - 1)
    flip = np.tile(2.0 * np.take(bits.T, labels, axis=1) - 1.0, cells + (1, 1))
    flip_norm = flip * (S * LN2)
    weight = offsets = None
    if grid is not None:
        unit, weight = gauss_hermite_grid(*grid)
        weight = np.tile(weight * (S // M), M)
        offsets = np.tile([unit.real, unit.imag], M)
        # the largest grid (m=1, 2^16 symbols) has weights near 3e-313, where
        # flip_norm overflows to inf: those nodes get no gradient
        with np.errstate(over="ignore"):
            flip_norm /= weight
    return _Batch(labels=labels, flip=flip, flip_norm=flip_norm, weight=weight, offsets=offsets)


def _mapper_power(raw: np.ndarray) -> list:
    """Mean power of each cell's raw mapper points, which must be finite and
    positive, as Python floats."""
    powers = ((raw ** 2).sum(axis=-1).sum(axis=-1) / raw.shape[-2]).reshape(-1).tolist()
    for power in powers:
        if not 0.0 < power < math.inf:
            raise NumericalError(f"mapper power is {power}, points cannot be normalized")
    return powers


def _per_cell(values: list, like: np.ndarray):
    """One float per cell as an operand that scales each cell of like: the
    Python float itself for a lone cell."""
    if len(values) == 1:
        return values[0]
    return np.array(values).reshape((-1,) + (1,) * (like.ndim - 1))


class _Step:
    """The training step of one run, bound when the run starts.

    raw is the mapper table Adam updates in place, (M, 2), or (K, M, 2) for
    K stacked MLP cells; grad is the flat gradient array and grads its named
    views, which backward() overwrites. noise_variance (finite and positive,
    as the cells' targets give it) holds one Python float per cell. Signals
    are real: points_iq (2, M) and y_iq (2, S) hold I and Q in their rows,
    and every per-sample array has the samples on its last axis, after the
    cell axis of a stacked run. The step allocates its arrays once and binds
    the receiver to them (the receiver's bind() allocates its own); every
    step refills them, so a step's state is valid only until the next step.
    A step outside a run binds its own, and its state is its own.
    """

    def __init__(self, raw: np.ndarray, demapper, batch: _Batch, noise_variance: list,
                 grad: np.ndarray, grads: dict):
        lead, M = raw.shape[:-2], raw.shape[-2]
        S = batch.size
        self.raw, self.raw_t, self.batch, self.grad = raw, raw.swapaxes(-1, -2), batch, grad
        self.points_iq = np.empty(lead + (2, M))
        self.y_iq = np.empty(lead + (2, S))
        # z = flip * llr goes where its loss terms will, (..., m, S) each
        self.penalties = np.empty(batch.flip.shape)
        self.penalty_rows = self.penalties.reshape(lead + (-1,))
        self.sigmoid = np.empty(batch.flip.shape)
        self.dllr = np.empty(batch.flip.shape)
        self.receiver = demapper.bind(self.y_iq, self.points_iq,
                                      noise_variance if lead else noise_variance[0], grads)
        # backward: each label's run of samples, their sums (..., 2, M), the
        # mapper's gradient and the terms of the normalization chain
        self.label_runs = lead + (2, M, S // M)
        self.dp = np.empty(lead + (2, M))
        self.dp_t = self.dp.swapaxes(-1, -2)  # (..., M, 2), the layout of raw
        self.dscale = np.empty(raw.shape)
        self.dscale_rows = self.dscale.reshape(lead + (-1,))
        self.draw = grads["mapper.raw"]
        self.grads = grads
        self.finite = np.empty(grad.shape, dtype=bool)
        self.power_gain = 2.0 / M

    def forward(self, noise_iq: np.ndarray, power: list, with_loss: bool = True) -> None:
        """The loss gradient's sigmoids of one batch per cell, and its loss
        if with_loss, one value per cell, else loss None.

        noise_iq is the real noise, (..., 2, S), and power, _mapper_power(raw),
        one Python float per cell. The scale power ** -0.5, the one unit-power
        rule that emit() shares, is taken in Python: numpy's array power
        rounds it differently. Only the LLRs are checked: a finite power gives
        finite points, a non-finite received sample shows in the LLRs, and
        clipped LLRs give finite loss terms.
        """
        batch = self.batch
        self.scale = scale = _per_cell([p ** -0.5 for p in power], self.raw)
        np.multiply(self.raw_t, scale, out=self.points_iq)
        # every label is in range, and "clip" takes without buffering its output
        np.take(self.points_iq, batch.labels, axis=-1, out=self.y_iq, mode="clip")
        self.y_iq += noise_iq
        self.llr_raw = self.receiver.forward()
        self.llr = llr = clip_llr(self.llr_raw)  # llr_raw itself when nothing clips
        z = np.multiply(batch.flip, llr, out=self.penalties)
        logistic(z, (z, self.sigmoid), softplus=with_loss)
        if not with_loss:
            self.loss = None
            return
        if batch.weight is not None:
            z *= batch.weight  # the loss terms in bits, times the weights
        self.loss = self.penalty_rows.sum(axis=-1) / batch.size

    def backward(self) -> None:
        """Write every gradient of the last forward() into grads."""
        raw = self.raw
        dllr = np.divide(self.sigmoid, self.batch.flip_norm, out=self.dllr)  # d loss / d llr
        if self.llr is not self.llr_raw:
            dllr[self.llr != self.llr_raw] = 0.0  # the clipped entries

        gy, gp = self.receiver.backward(dllr)
        # transmit path, y = points[labels] + noise: each label's samples form
        # one run of the batch, summed in sample order into (..., 2, M)
        dp = gy.reshape(self.label_runs).sum(axis=-1, out=self.dp)
        if gp is not None:
            dp += gp  # receiver path

        # normalization chain: points = scale * raw, scale = power^(-1/2)
        np.multiply(self.dp_t, raw, out=self.dscale)
        dscale = self.dscale_rows.sum(axis=-1)
        try:
            dpower = [-0.5 * s ** 3 * d
                      for s, d in zip(np.ravel(self.scale).tolist(), dscale.reshape(-1).tolist())]
        except OverflowError as exc:  # a float power raises instead of giving inf
            raise NumericalError("non-finite values in gradient mapper.raw") from exc
        np.multiply(self.dp_t, self.scale, out=self.draw)
        self.draw += self.power_gain * raw * _per_cell(dpower, raw)

        if not np.isfinite(self.grad, out=self.finite).all():
            bad = next(name for name, g in self.grads.items() if not np.isfinite(g).all())
            raise NumericalError(f"non-finite values in gradient {bad}")


# ---------------------------------------------------------------------------
# Adam

# Adam's decays and offset as Kingma and Ba (ICLR 2015) recommend them
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# the decays and gains of the two moments, as a (2, 1) operand of (2, n) arrays
_ADAM_DECAY = np.array([[ADAM_BETA1], [ADAM_BETA2]])
_ADAM_GAIN = 1.0 - _ADAM_DECAY


def _adam_update(theta: np.ndarray, grad: np.ndarray, moments: np.ndarray, t: int,
                 config: TrainConfig, scratch: np.ndarray) -> None:
    """Adam step t on flat vectors theta and grad, (n,), in place, with the
    config's learning rate and ADAM_BETA1/2 and ADAM_EPS; moments is
    [m; v], (2, n), and scratch is (2, n).

        m <- beta1 m + (1 - beta1) g
        v <- beta2 v + (1 - beta2) g g
        theta <- theta - lr (m / c1) / (sqrt(v / c2) + eps),  ci = 1 - betai^t

    evaluated left to right in exactly this order, both moments in one
    multiply and one add.
    """
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    a, b = scratch
    m, v = moments
    np.multiply(grad, _ADAM_GAIN, out=scratch)
    b *= grad
    moments *= _ADAM_DECAY
    moments += scratch
    np.divide(m, c1, out=a)
    a *= config.learning_rate
    np.divide(v, c2, out=b)
    np.sqrt(b, out=b)
    b += ADAM_EPS
    a /= b
    theta -= a


# ---------------------------------------------------------------------------
# training loop


@dataclass
class TrainHistory:
    """Loss, surrogate GMI (m - loss) and gradient norm at every
    HISTORY_STRIDE-th iteration and the last."""

    iteration: np.ndarray
    loss: np.ndarray
    surrogate_gmi: np.ndarray
    grad_norm: np.ndarray

    def to_csv(self) -> str:
        lines = ["iteration,loss,surrogate_gmi,grad_norm"]
        for i, it in enumerate(self.iteration.tolist()):
            lines.append(f"{it},{float(self.loss[i])!r},{float(self.surrogate_gmi[i])!r},"
                         f"{float(self.grad_norm[i])!r}")
        return "\n".join(lines) + "\n"


def _emit_constellation(raw: np.ndarray, config: TrainConfig,
                        noise_variance: float) -> Constellation:
    meta = {
        "generator": "train",
        "trained_snr_db": linear_to_db(1.0 / noise_variance),
        "seed": config.seed,
        "demapper_mode": config.demapper_mode,
        "iterations": config.iterations,
    }
    return Constellation(m=config.m, points=emit(raw), metadata=meta)


def train(config: TrainConfig):
    """Run the full optimization; returns (Constellation, TrainHistory).
    Deterministic for a fixed config (seed included)."""
    return train_many([config])[0]


def train_many(configs) -> list:
    """Train one cell per config; returns [(Constellation, TrainHistory)] in
    config order, each equal to train() of its config.

    The configs may differ only in seed and target, for either receiver.
    The runs are sized here (see the module docstring): MLP cells stack, in
    config order, as many per run as MAX_CELL_ENTRIES holds, and Gaussian
    cells run one per run. A NumericalError names the iteration, 0 before
    the first step, not the cell; train the configs alone to find it.
    """
    configs = list(configs)
    for config in configs[1:]:
        if replace(config, seed=configs[0].seed, target=configs[0].target) != configs[0]:
            raise ParameterError("stacked training configs may differ only in seed and target")
    per_run = 1
    if configs and configs[0].demapper_mode == "mlp":
        per_run = MAX_CELL_ENTRIES // configs[0].cell_entries
    return [cell for lo in range(0, len(configs), per_run)
            for cell in _train_run(configs[lo:lo + per_run])]


def _train_run(configs: list) -> list:
    """One training loop over K cells whose configs differ only in seed and
    target; K > 1 needs MLP receivers within the MAX_CELL_ENTRIES budget.
    Only the iterations TrainHistory records compute their loss."""
    first = configs[0]
    K = len(configs)
    rngs = [np.random.default_rng(config.seed) for config in configs]
    cells = []
    for config, rng in zip(configs, rngs):
        raw = init_mapper(config, rng)
        if config.demapper_mode == "mlp":
            demapper = init_mlp(config.m, config.mlp_hidden, rng)
        else:
            demapper = GaussianDemapper()
        cells.append(trainable_arrays(raw, demapper))

    S = first.batch_symbols
    axis = (K,) if K > 1 else ()  # the cell axis of a stacked run
    batch = _make_batch(1 << first.m, S, axis, _grid_shape(S >> first.m))
    # from here on the trainable arrays are views into theta, (n,) or
    # (K, n), which Adam updates in place together with its moment arrays
    theta, arrays = _flatten({name: np.reshape([cell[name] for cell in cells],
                                                axis + cells[0][name].shape)
                              for name in cells[0]}, axis)
    raw, demapper = with_arrays(demapper, arrays)
    grad, grads = _flatten(arrays, axis)  # the step's backward overwrites every entry
    # Adam runs on flat views of theta and grad, with its moments [m; v]
    flat_theta, flat_grad = theta.reshape(-1), grad.reshape(-1)
    adam_moments = np.zeros((2, theta.size))
    adam_scratch = np.empty((2, theta.size))
    # the noise of a window of iterations, step j of the window taking noise[j]
    window = max(1, NOISE_WINDOW_ENTRIES // (K * 2 * S)) if batch.offsets is None else 1
    noise = np.empty((window,) + axis + (2, S))
    noise_steps = list(noise)
    # cell k's raw points and gradient, as views with the cell axis first
    raws, grad_rows = (a.reshape((K,) + a.shape[len(axis):]) for a in (raw, grad))
    noises = noise.reshape((window, K, 2, S))

    noise_variance = [noise_variance_from_db(config.target.snr_db) for config in configs]
    step = _Step(raw, demapper, batch, noise_variance, grad, grads)
    if batch.offsets is not None:  # a grid batch's noise, else the rngs draw it
        for k in range(K):
            np.multiply(batch.offsets, math.sqrt(noise_variance[k]), out=noises[0, k])

    n = first.iterations
    recorded = sorted({*range(0, n, HISTORY_STRIDE), *range(n)[-1:]})
    rows = {it: row for row, it in enumerate(recorded)}
    loss_hist, sq_norm_hist = np.empty((2, K, len(rows)))
    # an overflow leaves an inf or NaN, which a check of the run raises
    # unwarned (the power check of each step's points among them), naming
    # the iteration: 0 before the first step
    it = 0
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            power = _mapper_power(raw)  # of the points the next step transmits
            for it in range(n):
                if batch.offsets is None and it % window == 0:
                    # the draws of awgn_sample, noise_variance / 2 per real
                    # dimension, w iterations' at once in the order they would come
                    w = min(window, n - it)
                    for k, rng in enumerate(rngs):
                        np.multiply(rng.standard_normal((w, S, 2)).transpose(0, 2, 1),
                                    math.sqrt(noise_variance[k] / 2.0), out=noises[:w, k])
                step.forward(noise_steps[it % window], power, it in rows)
                step.backward()
                _adam_update(flat_theta, flat_grad, adam_moments, it + 1, first, adam_scratch)
                power = _mapper_power(raw)
                if it in rows:
                    loss_hist[:, rows[it]] = step.loss
                    sq_norm_hist[:, rows[it]] = np.matmul(grad_rows[:, None, :],
                                                          grad_rows[:, :, None]).reshape(K)
        except NumericalError as exc:
            raise NumericalError(f"iteration {it}: {exc}") from exc
        constellations = [
            _emit_constellation(raws[k], config, noise_variance[k])
            for k, config in enumerate(configs)]

    return [(c, TrainHistory(iteration=np.fromiter(rows, int), loss=loss_hist[k],
                             surrogate_gmi=first.m - loss_hist[k],
                             grad_norm=np.sqrt(sq_norm_hist[k])))
            for k, c in enumerate(constellations)]
