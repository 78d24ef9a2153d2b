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

A receiver is one object with five methods; GaussianDemapper (the exact
bit metric) and MlpDemapper (a small rectifier network) implement them, and
training never asks which one it holds:

    arrays()             named trainable arrays, in backward order
    with_arrays(arrays)  the same receiver rebuilt from such arrays
    forward(y_iq, points_iq, bits, noise_variance) -> (llr_raw, cache)
                         after the receiver's own check of llr_raw
    backward(dllr, cache, grads) -> (gy, gp)
                         writes its parameter gradients into grads;
                         gy = d loss / d y_iq, gp = d loss / d points_iq
                         through the receiver, or None
    kinks(cache)         the activation pattern (boolean arrays) that a
                         finite-difference probe must not straddle

train() keeps every trainable array (the mapper's raw points, then the
receiver's) as a named view into one float64 parameter vector, laid out
in the order backward() produces the gradients. Each iteration writes the
gradients into one matching flat vector, checks it for non-finite values
once, and Adam updates the parameters and both moment vectors in place.
What depends only on the labels (the balance check, the bit table, the
label signs and the label-ordered scatter of the transmit path) is built
once per run. Signals stay real: points and received samples are (M, 2)
and (S, 2) I/Q arrays, and the noise is the (S, 2) standard-normal draw
awgn_sample would make. forward_loss, backward and adam_step are thin
wrappers over the same step functions, so train() and a loop over them
give identical bits.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .channel import (
    LinkConfig,
    effective_snr,
    linear_to_db,
    noise_variance_from_db,
    optimal_launch_power,
)
from .constellation import Constellation, bit_table, moments, uniform_qam
from .demapper import LN2, GaussianDemapper, _complex_view, check_llr_clip, logistic
from .errors import NumericalError, ParameterError, build_section, check_field_types, int_tuple


# ---------------------------------------------------------------------------
# configuration


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
        power = self.launch_power
        if power != "optimal" and (isinstance(power, (str, bool))
                                   or not isinstance(power, numbers.Real)):
            shown = repr(power) if isinstance(power, str) else type(power).__name__
            raise ParameterError(f"launch_power must be a number or 'optimal', got {shown}")
        if self.refresh_every < 1:
            raise ParameterError("refresh_every must be >= 1")

    def resolve(self, c: Constellation) -> float:
        mom = moments(c)
        if self.launch_power == "optimal":
            _, ch = optimal_launch_power(self.link, mom)
        else:
            ch = effective_snr(self.link, float(self.launch_power), mom)
        return ch.noise_variance


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
        if self.m < 1:
            raise ParameterError(f"m must be >= 1, got {self.m}")
        if self.iterations < 0:
            raise ParameterError("iterations must be >= 0")
        if self.seed < 0:
            raise ParameterError("seed must be >= 0")
        M = 1 << self.m
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
        check_llr_clip(self.llr_clip)


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
    """Free (pre-normalization) constellation coordinates, shape (M, 2)."""

    raw: np.ndarray

    @property
    def size(self) -> int:
        return self.raw.shape[0]

    def emit(self) -> np.ndarray:
        """Normalized complex points as transmitted."""
        scale = 1.0 / math.sqrt(float(np.mean(np.sum(self.raw ** 2, axis=1))))
        return scale * (self.raw[:, 0] + 1j * self.raw[:, 1])


@dataclass
class MlpDemapper:
    """Fully-connected rectifier network mapping y = (I, Q) to m LLRs.

    A receiver as described in the module docstring; the points do not
    enter it, so its backward() returns gp = None.
    """

    weights: list
    biases: list
    llr_clip: float = 50.0

    def arrays(self) -> dict:
        arrays = {}
        for i in range(len(self.weights) - 1, -1, -1):
            arrays[f"mlp.W{i}"] = self.weights[i]
            arrays[f"mlp.b{i}"] = self.biases[i]
        return arrays

    def with_arrays(self, arrays: dict) -> "MlpDemapper":
        n = len(self.weights)
        return MlpDemapper(weights=[arrays[f"mlp.W{i}"] for i in range(n)],
                           biases=[arrays[f"mlp.b{i}"] for i in range(n)],
                           llr_clip=self.llr_clip)

    def forward(self, y_iq: np.ndarray, points_iq: np.ndarray, bits: np.ndarray,
                noise_variance: float):
        activations = [y_iq]
        preacts = []
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            pre = activations[-1] @ w + b
            preacts.append(pre)
            activations.append(np.maximum(pre, 0.0))
        llr_raw = activations[-1] @ self.weights[-1] + self.biases[-1]
        _ensure_finite("llr", llr_raw)
        return llr_raw, (activations, preacts)

    def backward(self, dllr: np.ndarray, cache, grads: dict):
        activations, preacts = cache
        dx = dllr
        ones = np.ones(len(dx))
        for i in range(len(self.weights) - 1, -1, -1):
            np.matmul(activations[i].T, dx, out=grads[f"mlp.W{i}"])
            np.matmul(ones, dx, out=grads[f"mlp.b{i}"])  # faster than dx.sum(axis=0)
            dx = dx @ self.weights[i].T
            if i > 0:
                dx = dx * (preacts[i - 1] > 0)
        return dx, None

    def kinks(self, cache) -> list:
        return [pre > 0 for pre in cache[1]]


def init_mlp(m: int, hidden, rng: np.random.Generator,
             llr_clip: float = 50.0) -> MlpDemapper:
    """He-initialized rectifier MLP with the given hidden widths."""
    widths = [2, *[int(w) for w in hidden], m]
    ws, bs = [], []
    last = len(widths) - 2
    for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
        gain = 1.0 if i == last else 2.0  # He gain under the rectifier, plain for the linear head
        ws.append(rng.standard_normal((fan_in, fan_out)) * math.sqrt(gain / fan_in))
        bs.append(np.zeros(fan_out))
    return MlpDemapper(weights=ws, biases=bs, llr_clip=llr_clip)


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


def _flatten(arrays: dict):
    """Copy named arrays into one new float64 vector; returns (vec, views)."""
    vec = np.empty(sum(np.size(a) for a in arrays.values()))
    views, lo = {}, 0
    for name, a in arrays.items():
        views[name] = vec[lo:lo + np.size(a)].reshape(np.shape(a))
        views[name][...] = a
        lo += np.size(a)
    return vec, views


# ---------------------------------------------------------------------------
# forward / backward


@dataclass(frozen=True)
class _Batch:
    """Label-dependent invariants of a training batch, built by _make_batch."""

    labels: np.ndarray   # (S,)
    bits: np.ndarray     # (M, m) bit table
    flip: np.ndarray     # (S, m), 2 b_{k,s} - 1, so that z = flip * L
    scatter: np.ndarray  # (2S,) bin of each entry of an (S, 2) array in (M, 2)

    @property
    def size(self) -> int:
        return self.labels.size


def _make_batch(labels, M: int) -> _Batch:
    """Validate a label batch (every label equally often) and build its invariants."""
    labels = np.asarray(labels)
    counts = np.bincount(labels, minlength=M)
    if not np.all(counts == counts[0]):
        raise ParameterError("batch must contain every label equally often")
    bits = bit_table(M.bit_length() - 1)
    scatter = (2 * labels[:, None] + np.arange(2)).ravel()
    return _Batch(labels=labels, bits=bits, flip=2.0 * bits[labels] - 1.0,
                 scatter=scatter)


def _per_label_sum(batch: _Batch, g: np.ndarray, M: int) -> np.ndarray:
    """Sum the rows of g (S, 2) by label into (M, 2), in sample order."""
    return np.bincount(batch.scatter, weights=g.ravel(),
                       minlength=2 * M).reshape(M, 2)


@dataclass
class ForwardState:
    """Everything backward() needs, cached by forward_loss.

    Signals are real: points_iq (M, 2) and y_iq (S, 2) hold I and Q in
    their columns; points is a complex view of points_iq.
    """

    batch: _Batch
    llr_clip: float
    raw: np.ndarray
    power: float
    scale: float
    points_iq: np.ndarray
    y_iq: np.ndarray
    llr_raw: np.ndarray
    llr: np.ndarray
    sigmoid: np.ndarray  # (S, m) sigmoid(z), z = flip * llr
    loss: float
    penalties: np.ndarray  # (S, m) loss terms, in bits
    cache: object  # the receiver's forward() cache

    @property
    def points(self) -> np.ndarray:
        return _complex_view(self.points_iq)

    @property
    def per_bit_surrogate(self) -> np.ndarray:
        return 1.0 - self.penalties.sum(axis=0) / self.batch.size


def _ensure_finite(name: str, value) -> None:
    if not np.isfinite(value).all():
        raise NumericalError(f"non-finite values in {name}")


def _mapper_power(raw: np.ndarray) -> float:
    """Mean power of the raw mapper points, which must be finite and positive."""
    power = float((raw ** 2).sum(axis=1).mean())
    if not 0.0 < power < math.inf:
        raise NumericalError(f"mapper power is {power}, points cannot be normalized")
    return power


def _forward(raw: np.ndarray, demapper, batch: _Batch, noise_iq: np.ndarray,
             noise_variance: float) -> ForwardState:
    """The surrogate loss of one batch; noise_iq (S, 2) is the real noise."""
    if not noise_variance > 0:
        raise ParameterError(f"noise_variance must be positive, got {noise_variance}")
    power = _mapper_power(raw)
    scale = power ** -0.5
    points = scale * raw
    _ensure_finite("points", points)
    y = np.take(points, batch.labels, axis=0)
    y += noise_iq
    _ensure_finite("y", y)

    llr_raw, cache = demapper.forward(y, points, batch.bits, noise_variance)
    clip = demapper.llr_clip
    llr = np.clip(llr_raw, -clip, clip)
    penalties, sigmoid = logistic(batch.flip * llr)  # (S, m) each
    loss = float(penalties.sum() / batch.size)
    _ensure_finite("loss", loss)
    return ForwardState(
        batch=batch, llr_clip=clip,
        raw=raw, power=power, scale=scale, points_iq=points, y_iq=y,
        llr_raw=llr_raw, llr=llr, sigmoid=sigmoid, loss=loss, penalties=penalties,
        cache=cache,
    )


def _backward(demapper, st: ForwardState, grad: np.ndarray, grads: dict) -> None:
    """Write every gradient into grads, named views of the flat vector grad."""
    batch = st.batch
    M = st.raw.shape[0]

    # d loss / d llr
    dllr = st.sigmoid / (batch.size * LN2)  # d loss / d z
    dllr *= batch.flip
    dllr[np.abs(st.llr_raw) > st.llr_clip] = 0.0

    gy, gp = demapper.backward(dllr, st.cache, grads)
    dp = _per_label_sum(batch, gy, M)  # transmit path: y = points[labels] + noise
    if gp is not None:
        dp += gp  # receiver path

    # normalization chain: points = scale * raw, scale = power^(-1/2)
    dscale = float((dp * st.raw).sum())
    try:
        dpower = -0.5 * st.scale ** 3 * dscale
    except OverflowError as exc:  # a float power raises instead of giving inf
        raise NumericalError("non-finite values in gradient mapper.raw") from exc
    draw = grads["mapper.raw"]
    np.multiply(dp, st.scale, out=draw)
    draw += (2.0 / M) * st.raw * dpower

    if not np.isfinite(grad).all():
        bad = next(name for name, g in grads.items() if not np.isfinite(g).all())
        raise NumericalError(f"non-finite values in gradient {bad}")


def forward_loss(params: MapperParams, demapper, labels: np.ndarray,
                 noise: np.ndarray, noise_variance: float):
    """Surrogate loss (bits/symbol) plus cached intermediates.

    `labels` must contain each of the M labels equally often; `noise` is
    the complex additive noise realization, one entry per label.
    """
    labels = np.asarray(labels)
    noise = np.asarray(noise, dtype=np.complex128)
    if labels.shape != noise.shape:
        raise ParameterError("labels and noise must have matching shapes")
    st = _forward(params.raw, demapper, _make_batch(labels, params.size),
                  np.stack([noise.real, noise.imag], axis=-1), noise_variance)
    return st.loss, st


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


@dataclass
class AdamState:
    t: int
    m: dict
    v: dict


def adam_init(arrays: dict) -> AdamState:
    return AdamState(t=0,
                     m={k: np.zeros_like(v) for k, v in arrays.items()},
                     v={k: np.zeros_like(v) for k, v in arrays.items()})


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


def adam_step(arrays: dict, grads: dict, state: AdamState,
              hyper: AdamHyper):
    """One bias-corrected Adam update; returns (new arrays, new state)."""
    theta, out = _flatten(arrays)
    grad, _ = _flatten({k: grads[k] for k in arrays})
    m, new_m = _flatten({k: state.m[k] for k in arrays})
    v, new_v = _flatten({k: state.v[k] for k in arrays})
    _adam_update(theta, grad, m, v, state.t + 1, hyper, np.empty((2, theta.size)))
    return out, AdamState(t=state.t + 1, m=new_m, v=new_v)


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
    rng = np.random.default_rng(config.seed)
    params = init_mapper(config, rng)
    if config.demapper_mode == "mlp":
        demapper = init_mlp(config.m, config.mlp_hidden, rng, config.llr_clip)
    else:
        demapper = GaussianDemapper(llr_clip=config.llr_clip)

    M = 1 << config.m
    S = config.batch_symbols
    batch = _make_batch(np.repeat(np.arange(M), S // M), M)
    hyper = AdamHyper(config.learning_rate, config.adam_beta1,
                      config.adam_beta2, config.adam_eps)
    # from here on the trainable arrays are views into theta, which Adam
    # updates in place together with its moment vectors
    theta, arrays = _flatten(trainable_arrays(params, demapper))
    params, demapper = with_arrays(params, demapper, arrays)
    grad, grads = _flatten(arrays)  # _backward overwrites every entry
    moments = np.zeros((2, theta.size))
    work = np.empty((2, theta.size))

    refresh = (config.target.refresh_every
               if isinstance(config.target, LinkTarget) else 0)
    loss_hist = np.empty(config.iterations)
    gmi_hist = np.empty(config.iterations)
    norm_hist = np.empty(config.iterations)
    # an overflow leaves an inf or NaN, which the checks of the step (and the
    # power check after the last one) raise, naming the iteration, unwarned
    with np.errstate(over="ignore", invalid="ignore"):
        noise_variance = config.target.resolve(
            Constellation(m=config.m, points=params.emit(), metadata={}))
        for it in range(config.iterations):
            if refresh and it > 0 and it % refresh == 0:
                noise_variance = config.target.resolve(
                    Constellation(m=config.m, points=params.emit(), metadata={}))
            # the draws of awgn_sample: noise_variance / 2 per real dimension
            noise = rng.standard_normal((S, 2))
            noise *= math.sqrt(noise_variance / 2.0)
            try:
                st = _forward(params.raw, demapper, batch, noise, noise_variance)
                _backward(demapper, st, grad, grads)
                _adam_update(theta, grad, *moments, it + 1, hyper, work)
                if it == config.iterations - 1:
                    _mapper_power(params.raw)
            except NumericalError as exc:
                raise NumericalError(f"iteration {it}: {exc}") from exc
            loss_hist[it] = st.loss
            gmi_hist[it] = config.m - st.loss
            norm_hist[it] = math.sqrt(float(grad @ grad))
        c = _emit_constellation(params, config, noise_variance)

    history = TrainHistory(loss=loss_hist, surrogate_gmi=gmi_hist,
                           grad_norm=norm_hist)
    return c, history
