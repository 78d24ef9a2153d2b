"""Gradient-based constellation learning with hand-written reverse mode.

The trainable objects are a direct M x 2 point table (the mapper) and the
receiver's arrays, if it has any. The loss is the GMI surrogate

    loss = (1/S) sum_s sum_k log2(1 + exp(-(1 - 2 b_{k,s}) L_{k,s}))

so surrogate GMI per symbol is m - loss by construction. Each term and
its derivative d/dz log2(1 + exp(z)) = sigmoid(z) / ln 2, with
z = -(1 - 2 b) L, come from the one kernel demapper.logistic, which the
forward pass calls once; backward reuses the cached sigmoid. Unit average
power is enforced inside the forward pass (differentiable normalization),
never by projection. Everything is plain numpy; gradients are derived by
hand and guarded by finite-difference checks.

A receiver is one object with six methods; GaussianDemapper (the exact
bit metric) and MlpDemapper (a small rectifier network) implement them, and
training never asks which one it holds:

    arrays()             named trainable arrays, in backward order
    with_arrays(arrays)  the same receiver rebuilt from such arrays
    forward(y_iq, points_iq, bits, noise_variance) -> (llr_raw, cache)
                         y_iq (2, S), points_iq (2, M) and llr_raw (m, S)
    check_llr(llr_raw)   raises NumericalError on LLRs the loss cannot
                         take: NaN, and for the MLP +/-inf too; called
                         only when some LLR lies beyond the clip, since
                         otherwise every LLR is finite
    backward(dllr, cache, grads) -> (gy, gp)
                         writes its parameter gradients into grads;
                         dllr (m, S); gy = d loss / d y_iq (2, S),
                         gp = d loss / d points_iq (2, M) through the
                         receiver, or None
    kinks(cache)         the activation pattern (boolean arrays) that a
                         finite-difference probe must not straddle

train_many() trains cells whose configs differ only in seed and target,
and sizes its own runs: MLP cells stack, in config order, as many per run
as keep their summed entries (TrainConfig.cell_entries) within
MAX_CELL_ENTRIES, the budget of one cell; Gaussian cells run one per run,
because each picks its own form of the bit metric, so stacking batches
nothing. train() is one run of one config. Only a stacked run (K > 1)
carries a leading cell axis K on every array: the raw points are
(K, M, 2), an MLP layer (K, fan_in + 1, fan_out), the received samples
(K, 2, S), and the LLRs, sigmoids and loss terms (K, m, S);
noise_variance then holds one value per cell. A lone run has the shapes
of the public step wrappers, and the loop reaches cell k through
reshape(K, ...) views. Cell k draws from its own default_rng(seed) in the
order a lone run would, and its per-cell scalars (power, scale, noise
variance) stay Python floats, so it ends bit for bit where train() of its
config ends.

The loop keeps every trainable array (the mapper's raw points, then the
receiver's) as a named view into one float64 parameter array, (n,) or
(K, n), laid out in the order backward() produces the gradients. Each
iteration writes the gradients into one matching array, checks it for
non-finite values once, and Adam updates the parameters and both moment
arrays in place.
What depends only on the labels (the balance check, the bit table, the
label signs and the order that groups each label's samples into one run)
is built once per run. Signals stay real, and every per-sample array of
the step is C-contiguous with the S samples on its last axis: points and
received samples are (2, M) and (2, S) I/Q rows, LLRs, label signs,
sigmoids and loss terms are (m, S), and an MLP layer's input is
(fan_in + 1, S), a ones row last that meets the layer's bias row (see
MlpDemapper). The noise is the standard-normal draw awgn_sample would
make, transposed into (2, S). The mapper's power is computed once per
iteration, right after the update, and feeds the next forward pass. The
LLRs are checked and clipped only when one lies beyond the clip (any NaN
or +/-inf counts as beyond): else every LLR is finite, llr is llr_raw
itself, and backward skips the mask of the clipped entries.
forward_loss and backward are thin wrappers over the same step functions,
so train() and a loop over them and the Adam update give identical bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

import numpy as np

from .channel import (
    LinkConfig,
    check_launch_power,
    launch_channel,
    linear_to_db,
    noise_variance_from_db,
)
from .constellation import Constellation, bit_table, check_labels, moments, uniform_qam
from .demapper import LN2, GaussianDemapper, _clipped, check_llr_clip, logistic
from .errors import NumericalError, ParameterError, build_section, check_field_types, int_tuple


# ---------------------------------------------------------------------------
# configuration

# Caps on the work one config can ask for: a million iterations of the
# default batch take about 4 minutes at m = 4 (MLP receiver) and 1.5 hours
# at m = 8 (Gaussian). A batch holds at most 2**16 symbols, so m <= 16.
# The largest training arrays of a cell, the Gaussian receiver's (M, S)
# log-likelihoods and the MLP receiver's (width, S) activations summed over
# its hidden layers, hold at most 2**24 entries: 134 MB, m = 8 at the
# largest batch. train_many stacks MLP cells in runs whose summed entries
# stay within the same budget. Larger values are rejected when the config
# is built, before any array is allocated.
MAX_ITERATIONS = 10 ** 6
MAX_BATCH_SYMBOLS = 2 ** 16
MAX_CELL_ENTRIES = 2 ** 24


@dataclass(frozen=True)
class SnrTarget:
    """Train against a fixed effective SNR in dB."""

    snr_db: float

    def __post_init__(self):
        check_field_types(self)
        noise_variance_from_db(self.snr_db)

    def resolve(self, c: Constellation) -> float:
        """Noise variance for a unit-power constellation; ignores c."""
        return noise_variance_from_db(self.snr_db)


@dataclass(frozen=True)
class LinkTarget:
    """Train against the effective SNR of a fiber link.

    The noise variance depends on the constellation's own moments through
    the nonlinear-interference term, so it is refreshed from the current
    points every `refresh_every` iterations and held constant in between
    (the dependence is weak; differentiating through it is out of scope).
    """

    link: LinkConfig
    launch_power: Union[float, str] = "optimal"
    refresh_every: int = 200

    def __post_init__(self):
        check_field_types(self)
        check_launch_power(self.launch_power)
        if self.refresh_every < 1:
            raise ParameterError("refresh_every must be >= 1")

    def resolve(self, c: Constellation) -> float:
        return launch_channel(self.link, moments(c), self.launch_power)[1].noise_variance


@dataclass(frozen=True)
class TrainConfig:
    m: int
    target: Union[SnrTarget, LinkTarget]
    iterations: int
    batch_symbols: int = 1024
    demapper_mode: str = "gaussian"
    mlp_hidden: tuple = (64, 64)
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    init: str = "qam"
    llr_clip: float = 50.0

    def __post_init__(self):
        check_field_types(self)
        max_m = MAX_BATCH_SYMBOLS.bit_length() - 1
        if not 1 <= self.m <= max_m:
            raise ParameterError(f"m must be in [1, {max_m}], got {self.m}")
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
        if self.init not in ("random", "qam"):
            raise ParameterError(f"unknown init {self.init!r}")
        for name in ("learning_rate", "adam_eps"):
            if not getattr(self, name) > 0:
                raise ParameterError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ParameterError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        object.__setattr__(self, "mlp_hidden", int_tuple("mlp_hidden", self.mlp_hidden))
        if any(w < 1 for w in self.mlp_hidden):
            raise ParameterError("mlp_hidden widths must be >= 1")
        if self.cell_entries > MAX_CELL_ENTRIES:
            units = "2**m" if self.demapper_mode == "gaussian" else "sum(mlp_hidden)"
            raise ParameterError(
                f"{units} * batch_symbols must be <= {MAX_CELL_ENTRIES} with the "
                f"{self.demapper_mode} receiver, got "
                f"{self.cell_entries // self.batch_symbols} * {self.batch_symbols}")
        check_llr_clip(self.llr_clip)

    @property
    def cell_entries(self) -> int:
        """Entries of the cell's largest training arrays: the Gaussian
        receiver's (M, S) log-likelihoods, or the MLP receiver's (width, S)
        activations summed over its hidden layers."""
        units = 1 << self.m if self.demapper_mode == "gaussian" else sum(self.mlp_hidden)
        return units * self.batch_symbols


def train_config_from_dict(doc: dict) -> TrainConfig:
    """Parse the `train` section of a run-configuration file."""
    return build_section("train", _train_config, doc)


def _train_config(target=None, **fields) -> TrainConfig:
    if not isinstance(target, dict):
        raise ParameterError("train config needs a 'target' object")
    if "snr_db" in target:
        tgt: Union[SnrTarget, LinkTarget] = SnrTarget(target["snr_db"])
    elif "link" in target:
        tgt = LinkTarget(link=build_section("link", LinkConfig, target["link"]),
                         launch_power=target.get("launch_power", "optimal"),
                         refresh_every=target.get("refresh_every", 200))
    else:
        raise ParameterError("target must contain 'snr_db' or 'link'")
    return TrainConfig(target=tgt, **fields)


# ---------------------------------------------------------------------------
# trainable objects


@dataclass
class MapperParams:
    """Free (pre-normalization) constellation coordinates, shape (M, 2).

    In the stacked training loop raw is (K, M, 2), one table per cell;
    emit() needs a single table.
    """

    raw: np.ndarray

    @property
    def size(self) -> int:
        return self.raw.shape[-2]

    def emit(self) -> np.ndarray:
        """Normalized complex points as transmitted."""
        scale = 1.0 / math.sqrt(float(np.mean(np.sum(self.raw ** 2, axis=1))))
        return scale * (self.raw[:, 0] + 1j * self.raw[:, 1])


@dataclass
class MlpDemapper:
    """Fully-connected rectifier network mapping y = (I, Q) to m LLRs.

    A receiver as described in the module docstring; the points do not
    enter it, so its backward() returns gp = None. Layer i is one
    (fan_in + 1, fan_out) array, the weights in its first fan_in rows and
    the bias in its last. Each layer's input (y, then each rectified hidden
    layer) is (fan_in + 1, S) with a constant ones row last, so one GEMM
    gives a layer's output bias included, and in backward the GEMM that
    gives the weight gradient also gives the bias gradient, the sum of dx
    over the samples. The layers are stacked, (K, fan_in + 1, fan_out),
    when the inputs carry the cell axis.
    """

    layers: list
    llr_clip: float = 50.0

    def arrays(self) -> dict:
        return {f"mlp.layer{i}": self.layers[i] for i in range(len(self.layers) - 1, -1, -1)}

    def with_arrays(self, arrays: dict) -> "MlpDemapper":
        return MlpDemapper(layers=[arrays[f"mlp.layer{i}"] for i in range(len(self.layers))],
                           llr_clip=self.llr_clip)

    def forward(self, y_iq: np.ndarray, points_iq: np.ndarray, bits: np.ndarray,
                noise_variance: float):
        """The cache is the list of layer inputs, (..., fan_in + 1, S) each;
        the rectifier is applied in place, as h > 0 exactly where its
        pre-activation is."""
        lead, samples = y_iq.shape[:-2], y_iq.shape[-1]
        x = _with_ones_row(y_iq.shape)
        x[..., :-1, :] = y_iq
        inputs = [x]
        for layer in self.layers[:-1]:
            x = _with_ones_row(lead + (layer.shape[-1], samples))
            h = x[..., :-1, :]
            np.matmul(layer.swapaxes(-1, -2), inputs[-1], out=h)
            np.maximum(h, 0.0, out=h)
            inputs.append(x)
        llr_raw = self.layers[-1].swapaxes(-1, -2) @ inputs[-1]
        return llr_raw, inputs

    def check_llr(self, llr_raw: np.ndarray) -> None:
        _ensure_finite("llr", llr_raw)

    def backward(self, dllr: np.ndarray, cache, grads: dict):
        dx = dllr
        for i in range(len(self.layers) - 1, -1, -1):
            np.matmul(cache[i], dx.swapaxes(-1, -2), out=grads[f"mlp.layer{i}"])
            dx = self.layers[i][..., :-1, :] @ dx
            if i > 0:
                dx *= cache[i][..., :-1, :] > 0
        return dx, None

    def kinks(self, cache) -> list:
        return [x[..., :-1, :] > 0 for x in cache[1:]]


def _with_ones_row(shape: tuple) -> np.ndarray:
    """An array for a layer input of shape (..., n, S) with a ones row
    appended, (..., n + 1, S); only that last row is initialized."""
    x = np.empty(shape[:-2] + (shape[-2] + 1, shape[-1]))
    x[..., -1, :] = 1.0
    return x


def init_mlp(m: int, hidden, rng: np.random.Generator,
             llr_clip: float = 50.0) -> MlpDemapper:
    """He-initialized rectifier MLP with the given hidden widths and zero biases."""
    widths = [2, *[int(w) for w in hidden], m]
    layers = []
    last = len(widths) - 2
    for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
        gain = 1.0 if i == last else 2.0  # He gain under the rectifier, plain for the linear head
        layer = np.zeros((fan_in + 1, fan_out))
        layer[:-1] = rng.standard_normal((fan_in, fan_out)) * math.sqrt(gain / fan_in)
        layers.append(layer)
    return MlpDemapper(layers=layers, llr_clip=llr_clip)


def init_mapper(config: TrainConfig, rng: np.random.Generator,
                jitter: float = 0.01) -> MapperParams:
    """Initial free points: circular Gaussian or jittered Gray QAM.

    `jitter` only applies to init="qam"; pass 0.0 to start exactly on the
    QAM grid (useful in tests).
    """
    M = 1 << config.m
    if config.init == "random":
        raw = rng.standard_normal((M, 2))
        raw /= math.sqrt(float(np.mean(np.sum(raw ** 2, axis=1))))
    else:
        base = uniform_qam(config.m).points
        raw = np.column_stack([base.real, base.imag])
        raw = raw + jitter * rng.standard_normal((M, 2))
    if not np.all(np.isfinite(raw)):
        raise NumericalError("non-finite values in initial mapper parameters")
    if np.unique(raw, axis=0).shape[0] < 2:
        raise ParameterError("initial mapper must contain at least two distinct points")
    return MapperParams(raw=raw)


def trainable_arrays(params: MapperParams, demapper) -> dict:
    """Named real-valued parameter arrays, the unit Adam operates on.

    The order is that of the flat parameter vector: the mapper, then the
    receiver's arrays, the order backward() produces them in.
    """
    return {"mapper.raw": params.raw, **demapper.arrays()}


def with_arrays(params: MapperParams, demapper, arrays: dict):
    """Rebuild (params, demapper) from a replacement array dict."""
    return MapperParams(raw=arrays["mapper.raw"]), demapper.with_arrays(arrays)


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

    labels: np.ndarray   # (S,)
    bits: np.ndarray     # (M, m) bit table
    flip: np.ndarray     # (m, S), 2 b_{k,s} - 1, so that z = flip * L
    flip_norm: np.ndarray  # (m, S), flip * S ln 2, so that d loss / d L = sigmoid / flip_norm
    order: Union[slice, np.ndarray]  # stable sample order that sorts the labels

    @property
    def size(self) -> int:
        return self.labels.size


def _make_batch(labels, M: int) -> _Batch:
    """Validate a label batch (every label equally often) and build its invariants."""
    labels = check_labels(labels, M)
    counts = np.bincount(labels, minlength=M)
    if not np.all(counts == counts[0]):
        raise ParameterError("batch must contain every label equally often")
    bits = bit_table(M.bit_length() - 1)
    # a sorted batch (train()'s) is its own order, and indexing by a slice
    # takes no copy
    order = (slice(None) if np.all(labels[:-1] <= labels[1:])
             else np.argsort(labels, kind="stable"))
    flip = 2.0 * np.take(bits.T, labels, axis=1) - 1.0
    return _Batch(labels=labels, bits=bits, flip=flip,
                  flip_norm=flip * (labels.size * LN2), order=order)


def _per_label_sum(batch: _Batch, g: np.ndarray, M: int) -> np.ndarray:
    """Sum the columns of g (..., 2, S) by label into (..., 2, M).

    Each label's samples form one run in batch order, summed in sample order.
    """
    runs = g[..., batch.order]
    return runs.reshape(*runs.shape[:-1], M, -1).sum(axis=-1)


@dataclass
class ForwardState:
    """Everything backward() needs, cached by forward_loss.

    Signals are real: points_iq (2, M) and y_iq (2, S) hold I and Q in
    their rows, and every per-sample array has the samples on its last
    axis. Arrays carry the cell axis first in the stacked loop; scale holds
    one Python float per cell, and loss is one value per cell.
    """

    batch: _Batch
    llr_clip: float
    raw: np.ndarray
    scale: list
    points_iq: np.ndarray
    y_iq: np.ndarray
    llr_raw: np.ndarray  # (m, S)
    llr: np.ndarray  # (m, S), llr_raw clipped; llr_raw itself when nothing clips
    sigmoid: np.ndarray  # (m, S) sigmoid(z), z = flip * llr
    loss: np.ndarray
    penalties: np.ndarray  # (m, S) loss terms, in bits
    cache: object  # the receiver's forward() cache


def _ensure_finite(name: str, value) -> None:
    if not np.isfinite(value).all():
        raise NumericalError(f"non-finite values in {name}")


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


def _forward(raw: np.ndarray, demapper, batch: _Batch, noise_iq: np.ndarray,
             noise_variance: list, power: Optional[list] = None) -> ForwardState:
    """The surrogate loss of one batch per cell.

    raw is (M, 2) and noise_iq, the real noise, (2, S), or (K, M, 2) and
    (K, 2, S) for K stacked MLP cells. noise_variance and power hold one Python
    float per cell; power is _mapper_power(raw) when the caller has it
    already. The scale power ** -0.5 is taken in Python: numpy's array power
    rounds it differently.
    """
    for v in noise_variance:
        if not v > 0:
            raise ParameterError(f"noise_variance must be positive, got {v}")
    if power is None:
        power = _mapper_power(raw)
    scale = [p ** -0.5 for p in power]
    points = np.multiply(raw.swapaxes(-1, -2), _per_cell(scale, raw), order="C")
    _ensure_finite("points", points)
    y = np.take(points, batch.labels, axis=-1)
    y += noise_iq
    _ensure_finite("y", y)

    stacked = raw.ndim == 3
    llr_raw, cache = demapper.forward(y, points, batch.bits,
                                      noise_variance if stacked else noise_variance[0])
    clip = demapper.llr_clip
    if -clip <= llr_raw.min() and llr_raw.max() <= clip:  # so every LLR is finite
        llr = llr_raw
    else:  # NaN and +/-inf fail the test, and the receiver rules on them
        demapper.check_llr(llr_raw)
        llr = _clipped(llr_raw, clip)
    penalties, sigmoid = logistic(batch.flip * llr)  # (..., m, S) each
    loss = penalties.reshape(*penalties.shape[:-2], -1).sum(axis=-1) / batch.size
    _ensure_finite("loss", loss)
    return ForwardState(
        batch=batch, llr_clip=clip,
        raw=raw, scale=scale, points_iq=points, y_iq=y,
        llr_raw=llr_raw, llr=llr, sigmoid=sigmoid, loss=loss, penalties=penalties,
        cache=cache,
    )


def _backward(demapper, st: ForwardState, grad: np.ndarray, grads: dict) -> None:
    """Write every gradient into grads, named views of the flat array grad."""
    batch = st.batch
    raw = st.raw
    M = raw.shape[-2]

    dllr = st.sigmoid / batch.flip_norm  # d loss / d llr
    if st.llr is not st.llr_raw:
        dllr[st.llr != st.llr_raw] = 0.0  # the clipped entries

    gy, gp = demapper.backward(dllr, st.cache, grads)
    dp = _per_label_sum(batch, gy, M)  # transmit path: y = points[labels] + noise
    if gp is not None:
        dp += gp  # receiver path
    dp = dp.swapaxes(-1, -2)  # (..., M, 2), the layout of raw

    # normalization chain: points = scale * raw, scale = power^(-1/2)
    dscale = np.multiply(dp, raw, order="C")
    dscale = dscale.reshape(*dscale.shape[:-2], -1).sum(axis=-1)
    try:
        dpower = [-0.5 * s ** 3 * d
                  for s, d in zip(st.scale, dscale.reshape(-1).tolist())]
    except OverflowError as exc:  # a float power raises instead of giving inf
        raise NumericalError("non-finite values in gradient mapper.raw") from exc
    draw = grads["mapper.raw"]
    np.multiply(dp, _per_cell(st.scale, raw), out=draw)
    draw += (2.0 / M) * raw * _per_cell(dpower, raw)

    if not np.isfinite(grad).all():
        bad = next(name for name, g in grads.items() if not np.isfinite(g).all())
        raise NumericalError(f"non-finite values in gradient {bad}")


def forward_loss(params: MapperParams, demapper, labels: np.ndarray,
                 noise: np.ndarray, noise_variance: float):
    """Surrogate loss (bits/symbol) plus cached intermediates.

    `labels` must contain each of the M labels equally often, in any
    order; `noise` is the complex additive noise realization, one entry
    per label.
    """
    labels = np.asarray(labels)
    noise = np.asarray(noise, dtype=np.complex128)
    if labels.shape != noise.shape:
        raise ParameterError("labels and noise must have matching shapes")
    st = _forward(params.raw, demapper, _make_batch(labels, params.size),
                  np.stack([noise.real, noise.imag]), [noise_variance])
    return float(st.loss), st


def backward(params: MapperParams, demapper, state: ForwardState) -> dict:
    """Gradients of the surrogate loss w.r.t. every trainable array.

    The differentiable path runs through the power normalization, the
    transmit symbols, and the receiver when the points enter it (Gaussian);
    clipped LLR entries receive zero gradient. The returned arrays are
    views into one flat vector, in trainable_arrays() order.
    """
    grad, grads = _flatten(trainable_arrays(params, demapper))  # every entry is overwritten
    _backward(demapper, state, grad, grads)
    return grads


# ---------------------------------------------------------------------------
# finite-difference verification


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


def gradient_check(params: MapperParams, demapper, labels, noise,
                   noise_variance: float, n_probes: int = 20,
                   tolerance: float = 1e-4,
                   rng: Optional[np.random.Generator] = None,
                   step: float = 1e-5) -> GradCheckReport:
    """Finite-difference check of backward() on a fixed batch.

    Kinks of the model (rectifier sign flips, LLR clip saturation) make
    central differences meaningless at isolated points; probes straddling
    one are redrawn, see finite_difference_check.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    arrays = trainable_arrays(params, demapper)
    _, st = forward_loss(params, demapper, labels, noise, noise_variance)
    grads = backward(params, demapper, st)

    def loss_fn(replaced: dict) -> float:
        p2, d2 = with_arrays(params, demapper, replaced)
        val, _ = forward_loss(p2, d2, labels, noise, noise_variance)
        return val

    def region_fn(replaced: dict) -> list:
        p2, d2 = with_arrays(params, demapper, replaced)
        _, st2 = forward_loss(p2, d2, labels, noise, noise_variance)
        return [np.abs(st2.llr_raw) > st2.llr_clip, *d2.kinks(st2.cache)]

    return finite_difference_check(loss_fn, arrays, grads, n_probes, tolerance,
                                   rng, step, region_fn=region_fn)


# ---------------------------------------------------------------------------
# Adam


@dataclass(frozen=True)
class AdamHyper:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def _adam_update(theta: np.ndarray, grad: np.ndarray, m: np.ndarray,
                 v: np.ndarray, t: int, hyper: AdamHyper,
                 work: np.ndarray) -> None:
    """Adam step t on flat vectors, in place; work is (2, n) scratch.

        m <- beta1 m + (1 - beta1) g
        v <- beta2 v + (1 - beta2) g g
        theta <- theta - lr (m / c1) / (sqrt(v / c2) + eps),  ci = 1 - betai^t

    evaluated left to right in exactly this order.
    """
    c1 = 1.0 - hyper.beta1 ** t
    c2 = 1.0 - hyper.beta2 ** t
    a, b = work
    np.multiply(grad, 1.0 - hyper.beta1, out=a)
    m *= hyper.beta1
    m += a
    np.multiply(grad, 1.0 - hyper.beta2, out=a)
    a *= grad
    v *= hyper.beta2
    v += a
    np.divide(m, c1, out=a)
    a *= hyper.learning_rate
    np.divide(v, c2, out=b)
    np.sqrt(b, out=b)
    b += hyper.eps
    a /= b
    theta -= a


# ---------------------------------------------------------------------------
# training loop


@dataclass
class TrainHistory:
    loss: np.ndarray
    surrogate_gmi: np.ndarray
    grad_norm: np.ndarray

    def __len__(self) -> int:
        return len(self.loss)

    def to_csv(self) -> str:
        lines = ["iteration,loss,surrogate_gmi,grad_norm"]
        for i in range(len(self.loss)):
            lines.append(f"{i},{float(self.loss[i])!r},{float(self.surrogate_gmi[i])!r},"
                         f"{float(self.grad_norm[i])!r}")
        return "\n".join(lines) + "\n"


def _emit_constellation(params: MapperParams, config: TrainConfig,
                        noise_variance: float) -> Constellation:
    points = params.emit()
    meta = {
        "generator": "train",
        "trained_snr_db": linear_to_db(1.0 / noise_variance),
        "seed": config.seed,
        "demapper_mode": config.demapper_mode,
        "iterations": config.iterations,
        "init": config.init,
    }
    return Constellation(m=config.m, points=points, metadata=meta)


def train(config: TrainConfig):
    """Run the full optimization; returns (Constellation, TrainHistory).

    Fresh noise is drawn every iteration; batches contain every label
    batch_symbols/M times. Deterministic for a fixed config (seed included).
    """
    return _train_run([config])[0]


def train_many(configs) -> list:
    """Train one cell per config; returns [(Constellation, TrainHistory)] in
    config order.

    The configs may differ only in seed and target, for either receiver.
    The runs are sized here (see the module docstring): MLP cells stack, in
    config order, as many per run as MAX_CELL_ENTRIES holds, and Gaussian
    cells run one per run. Each cell's result equals train() of its config
    bit for bit. A NumericalError names the iteration, not the cell; train
    the configs alone to find it.
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
    target; K > 1 needs MLP receivers within the MAX_CELL_ENTRIES budget."""
    first = configs[0]
    K = len(configs)
    rngs = [np.random.default_rng(config.seed) for config in configs]
    cells = []
    for config, rng in zip(configs, rngs):
        params = init_mapper(config, rng)
        if config.demapper_mode == "mlp":
            demapper = init_mlp(config.m, config.mlp_hidden, rng, config.llr_clip)
        else:
            demapper = GaussianDemapper(llr_clip=config.llr_clip)
        cells.append(trainable_arrays(params, demapper))

    M = 1 << first.m
    S = first.batch_symbols
    batch = _make_batch(np.repeat(np.arange(M), S // M), M)
    hyper = AdamHyper(first.learning_rate, first.adam_beta1,
                      first.adam_beta2, first.adam_eps)
    axis = (K,) if K > 1 else ()  # the cell axis of a stacked run
    # from here on the trainable arrays are views into theta, (n,) or
    # (K, n), which Adam updates in place together with its moment arrays
    theta, arrays = _flatten({name: np.reshape([cell[name] for cell in cells],
                                                axis + cells[0][name].shape)
                              for name in cells[0]}, axis)
    params, demapper = with_arrays(params, demapper, arrays)
    grad, grads = _flatten(arrays, axis)  # _backward overwrites every entry
    moments = np.zeros((2,) + theta.shape)
    work = np.empty((2,) + theta.shape)
    noise = np.empty(axis + (2, S))
    power = None  # of the current points, once an iteration has computed it
    # cell k's raw points, noise and gradient, as views with the cell axis first
    raws, noises, grad_rows = (a.reshape((K,) + a.shape[len(axis):])
                               for a in (params.raw, noise, grad))

    def resolve(k: int) -> float:
        points = MapperParams(raw=raws[k]).emit()
        return configs[k].target.resolve(Constellation(m=first.m, points=points, metadata={}))

    refresh = [(k, config.target.refresh_every) for k, config in enumerate(configs)
               if isinstance(config.target, LinkTarget)]
    loss_hist = np.empty((K, first.iterations))
    sq_norm_hist = np.empty((K, first.iterations))
    # an overflow leaves an inf or NaN, which the checks of the step (the
    # power check after the update among them) raise, naming the iteration,
    # unwarned
    with np.errstate(over="ignore", invalid="ignore"):
        noise_variance = [resolve(k) for k in range(K)]
        for it in range(first.iterations):
            for k, every in refresh:
                if it > 0 and it % every == 0:
                    noise_variance[k] = resolve(k)
            # the draws of awgn_sample, noise_variance / 2 per real dimension
            for k, rng in enumerate(rngs):
                np.multiply(rng.standard_normal((S, 2)).T,
                            math.sqrt(noise_variance[k] / 2.0), out=noises[k])
            try:
                st = _forward(params.raw, demapper, batch, noise, noise_variance, power)
                _backward(demapper, st, grad, grads)
                _adam_update(theta, grad, *moments, it + 1, hyper, work)
                power = _mapper_power(params.raw)
            except NumericalError as exc:
                raise NumericalError(f"iteration {it}: {exc}") from exc
            loss_hist[:, it] = st.loss
            sq_norm_hist[:, it] = np.matmul(grad_rows[:, None, :],
                                            grad_rows[:, :, None]).reshape(K)
        constellations = [
            _emit_constellation(MapperParams(raw=raws[k]), config, noise_variance[k])
            for k, config in enumerate(configs)]

    gmi_hist = first.m - loss_hist
    norm_hist = np.sqrt(sq_norm_hist)
    return [(c, TrainHistory(loss=loss_hist[k], surrogate_gmi=gmi_hist[k],
                             grad_norm=norm_hist[k]))
            for k, c in enumerate(constellations)]
