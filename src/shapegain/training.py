"""Gradient-based constellation learning with hand-written reverse mode.

The trainable objects are a direct M x 2 point table (the mapper) and,
optionally, a small MLP demapper. The loss is the GMI surrogate

    loss = (1/S) sum_s sum_k log2(1 + exp(-(1 - 2 b_{k,s}) L_{k,s}))

so surrogate GMI per symbol is m - loss by construction. Unit average
power is enforced inside the forward pass (differentiable normalization),
never by projection. Everything is plain numpy; gradients are derived by
hand and guarded by finite-difference checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
from scipy.special import expit

from .channel import (
    LinkConfig,
    awgn_sample,
    db_to_linear,
    effective_snr,
    linear_to_db,
    optimal_launch_power,
)
from .constellation import Constellation, bit_table, moments, uniform_qam
from .demapper import check_llr_clip, gaussian_bit_metric, gaussian_bit_metric_grad
from .errors import NumericalError, ParameterError

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class SnrTarget:
    """Train against a fixed effective SNR in dB."""

    snr_db: float

    def resolve(self, c: Constellation) -> float:
        """Noise variance for a unit-power constellation; ignores c."""
        return 1.0 / db_to_linear(self.snr_db)


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
        if isinstance(self.launch_power, str) and self.launch_power != "optimal":
            raise ParameterError(
                f"launch_power must be a number or 'optimal', got {self.launch_power!r}")
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
        if self.m < 1:
            raise ParameterError(f"m must be >= 1, got {self.m}")
        if self.iterations < 0:
            raise ParameterError("iterations must be >= 0")
        M = 1 << self.m
        if self.batch_symbols < M or self.batch_symbols % M != 0:
            raise ParameterError(
                f"batch_symbols must be a positive multiple of M = {M}, "
                f"got {self.batch_symbols}")
        if self.demapper_mode not in ("gaussian", "mlp"):
            raise ParameterError(f"unknown demapper_mode {self.demapper_mode!r}")
        if self.init not in ("random", "qam"):
            raise ParameterError(f"unknown init {self.init!r}")
        if not self.learning_rate > 0:
            raise ParameterError("learning_rate must be positive")
        check_llr_clip(self.llr_clip)


def train_config_from_dict(doc: dict) -> TrainConfig:
    """Parse the `train` section of a run-configuration file."""
    doc = dict(doc)
    tgt = doc.pop("target", None)
    if not isinstance(tgt, dict):
        raise ParameterError("train config needs a 'target' object")
    if "snr_db" in tgt:
        target: Union[SnrTarget, LinkTarget] = SnrTarget(float(tgt["snr_db"]))
    elif "link" in tgt:
        try:
            link = LinkConfig(**tgt["link"])
        except TypeError as exc:
            raise ParameterError(f"bad link config: {exc}") from exc
        target = LinkTarget(
            link=link,
            launch_power=tgt.get("launch_power", "optimal"),
            refresh_every=int(tgt.get("refresh_every", 200)),
        )
    else:
        raise ParameterError("target must contain 'snr_db' or 'link'")
    if "mlp_hidden" in doc:
        doc["mlp_hidden"] = tuple(int(w) for w in doc["mlp_hidden"])
    try:
        return TrainConfig(target=target, **doc)
    except TypeError as exc:
        raise ParameterError(f"bad train config: {exc}") from exc


# ---------------------------------------------------------------------------
# trainable objects


@dataclass
class MapperParams:
    """Free (pre-normalization) constellation coordinates, shape (M, 2)."""

    raw: np.ndarray

    @property
    def raw_points(self) -> np.ndarray:
        """Complex view of the free parameters."""
        return self.raw[:, 0] + 1j * self.raw[:, 1]

    @property
    def size(self) -> int:
        return self.raw.shape[0]

    def emit(self) -> np.ndarray:
        """Normalized complex points as transmitted."""
        scale = 1.0 / math.sqrt(float(np.mean(np.sum(self.raw ** 2, axis=1))))
        return scale * self.raw_points


@dataclass
class GaussianDemapper:
    """Differentiable exact bit-metric receiver, no trainable state."""

    llr_clip: float = 50.0

    def __post_init__(self):
        check_llr_clip(self.llr_clip)


@dataclass
class MlpDemapper:
    """Fully-connected rectifier network mapping y = (I, Q) to m LLRs."""

    weights: list
    biases: list
    llr_clip: float = 50.0

    @property
    def n_outputs(self) -> int:
        return self.weights[-1].shape[1]


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
    """Named real-valued parameter arrays, the unit Adam operates on."""
    arrays = {"mapper.raw": params.raw}
    if isinstance(demapper, MlpDemapper):
        for i, (w, b) in enumerate(zip(demapper.weights, demapper.biases)):
            arrays[f"mlp.W{i}"] = w
            arrays[f"mlp.b{i}"] = b
    return arrays


def with_arrays(params: MapperParams, demapper, arrays: dict):
    """Rebuild (params, demapper) from a replacement array dict."""
    new_params = MapperParams(raw=arrays["mapper.raw"])
    if isinstance(demapper, MlpDemapper):
        n = len(demapper.weights)
        new_demapper = MlpDemapper(
            weights=[arrays[f"mlp.W{i}"] for i in range(n)],
            biases=[arrays[f"mlp.b{i}"] for i in range(n)],
            llr_clip=demapper.llr_clip,
        )
    else:
        new_demapper = demapper
    return new_params, new_demapper


# ---------------------------------------------------------------------------
# forward / backward


@dataclass
class ForwardState:
    """Everything backward() needs, cached by forward_loss."""

    mode: str
    labels: np.ndarray
    noise_variance: float
    llr_clip: float
    raw: np.ndarray
    power: float
    scale: float
    points: np.ndarray
    y: np.ndarray
    sgn: np.ndarray
    llr_raw: np.ndarray
    llr: np.ndarray
    z: np.ndarray
    loss: float
    per_bit_surrogate: np.ndarray
    # gaussian mode: the cache of gaussian_bit_metric
    metric_cache: Optional[tuple] = None
    # mlp mode
    activations: Optional[list] = None
    preacts: Optional[list] = None


def _ensure_finite(name: str, value) -> None:
    if not np.all(np.isfinite(value)):
        raise NumericalError(f"non-finite values in {name}")


def forward_loss(params: MapperParams, demapper, labels: np.ndarray,
                 noise: np.ndarray, noise_variance: float):
    """Surrogate loss (bits/symbol) plus cached intermediates.

    `labels` must contain each of the M labels equally often; `noise` is
    the complex additive noise realization, one entry per label.
    """
    if not noise_variance > 0:
        raise ParameterError(f"noise_variance must be positive, got {noise_variance}")
    labels = np.asarray(labels)
    noise = np.asarray(noise, dtype=np.complex128)
    if labels.shape != noise.shape:
        raise ParameterError("labels and noise must have matching shapes")
    M = params.size
    counts = np.bincount(labels, minlength=M)
    if not np.all(counts == counts[0]):
        raise ParameterError("batch must contain every label equally often")
    m = M.bit_length() - 1
    S = labels.size

    raw = params.raw
    power = float(np.mean(np.sum(raw ** 2, axis=1)))
    if not power > 0:
        raise NumericalError("non-finite values in points")  # all-zero mapper
    scale = power ** -0.5
    points = scale * (raw[:, 0] + 1j * raw[:, 1])
    _ensure_finite("points", points)

    y = points[labels] + noise
    _ensure_finite("y", y)

    bits = bit_table(m)
    clip = demapper.llr_clip
    state = ForwardState(
        mode="mlp" if isinstance(demapper, MlpDemapper) else "gaussian",
        labels=labels, noise_variance=noise_variance, llr_clip=clip,
        raw=raw, power=power, scale=scale, points=points, y=y,
        sgn=1.0 - 2.0 * bits[labels],
        llr_raw=None, llr=None, z=None, loss=0.0, per_bit_surrogate=None,
    )

    if state.mode == "gaussian":
        llr_raw, state.metric_cache = gaussian_bit_metric(y, points, bits, noise_variance)
        # +/-inf marks an underflowed partition and clips exactly; NaN does not
        if np.isnan(llr_raw).any():
            raise NumericalError("NaN values in llr")
    else:
        x = np.column_stack([y.real, y.imag])
        activations = [x]
        preacts = []
        for w, b in zip(demapper.weights[:-1], demapper.biases[:-1]):
            pre = activations[-1] @ w + b
            preacts.append(pre)
            activations.append(np.maximum(pre, 0.0))
        llr_raw = activations[-1] @ demapper.weights[-1] + demapper.biases[-1]
        state.activations, state.preacts = activations, preacts
        _ensure_finite("llr", llr_raw)

    llr = np.clip(llr_raw, -clip, clip)
    z = -state.sgn * llr
    penalties = np.logaddexp(0.0, z) / LN2  # (S, m)
    loss = float(penalties.sum() / S)
    _ensure_finite("loss", loss)

    state.llr_raw, state.llr, state.z = llr_raw, llr, z
    state.loss = loss
    state.per_bit_surrogate = 1.0 - penalties.sum(axis=0) / S
    return loss, state


def backward(params: MapperParams, demapper, state: ForwardState) -> dict:
    """Gradients of the surrogate loss w.r.t. every trainable array.

    The differentiable path runs through the power normalization, the
    transmit symbols, and (gaussian mode) the receiver metric itself;
    clipped LLR entries receive zero gradient.
    """
    S = state.labels.size
    M = params.size

    # d loss / d llr
    dz = expit(state.z) / (S * LN2)
    dllr = -state.sgn * dz
    dllr[np.abs(state.llr_raw) > state.llr_clip] = 0.0

    if state.mode == "gaussian":
        da = gaussian_bit_metric_grad(dllr, state.metric_cache)
        dd2 = -da / state.noise_variance
        diff = state.y[:, None] - state.points[None, :]
        weighted = dd2 * diff
        gy = 2.0 * weighted.sum(axis=1)            # d loss / d y (complex convention)
        gp = -2.0 * weighted.sum(axis=0)           # receiver-path d loss / d points
        grads_mlp = {}
    else:
        dx = dllr
        grads_mlp = {}
        n_layers = len(demapper.weights)
        for i in range(n_layers - 1, -1, -1):
            x_in = state.activations[i]
            grads_mlp[f"mlp.W{i}"] = x_in.T @ dx
            grads_mlp[f"mlp.b{i}"] = dx.sum(axis=0)
            dx = dx @ demapper.weights[i].T
            if i > 0:
                dx = dx * (state.preacts[i - 1] > 0)
        gy = dx[:, 0] + 1j * dx[:, 1]
        gp = np.zeros(M, dtype=np.complex128)

    # transmit path: y = points[labels] + noise
    gp = gp + (np.bincount(state.labels, weights=gy.real, minlength=M)
               + 1j * np.bincount(state.labels, weights=gy.imag, minlength=M))
    dp = np.column_stack([gp.real, gp.imag])

    # normalization chain: points = scale * raw, scale = power^(-1/2)
    dscale = float(np.sum(dp * state.raw))
    dpower = -0.5 * state.scale ** 3 * dscale
    draw = dp * state.scale + (2.0 / M) * state.raw * dpower

    grads = {"mapper.raw": draw}
    grads.update(grads_mlp)
    for name, g in grads.items():
        _ensure_finite(f"gradient {name}", g)
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
        sig = [np.abs(st2.llr_raw) > st2.llr_clip]
        if st2.preacts is not None:
            sig.extend(pre > 0 for pre in st2.preacts)
        return sig

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


def adam_step(arrays: dict, grads: dict, state: AdamState,
              hyper: AdamHyper):
    """One bias-corrected Adam update; returns (new arrays, new state)."""
    t = state.t + 1
    c1 = 1.0 - hyper.beta1 ** t
    c2 = 1.0 - hyper.beta2 ** t
    out, new_m, new_v = {}, {}, {}
    for key, x in arrays.items():
        g = grads[key]
        mk = hyper.beta1 * state.m[key] + (1.0 - hyper.beta1) * g
        vk = hyper.beta2 * state.v[key] + (1.0 - hyper.beta2) * g * g
        out[key] = x - hyper.learning_rate * (mk / c1) / (np.sqrt(vk / c2) + hyper.eps)
        new_m[key], new_v[key] = mk, vk
    return out, AdamState(t=t, m=new_m, v=new_v)


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
    labels = np.repeat(np.arange(M), config.batch_symbols // M)
    hyper = AdamHyper(config.learning_rate, config.adam_beta1,
                      config.adam_beta2, config.adam_eps)
    arrays = trainable_arrays(params, demapper)
    opt = adam_init(arrays)

    refresh = (config.target.refresh_every
               if isinstance(config.target, LinkTarget) else 0)
    noise_variance = config.target.resolve(
        Constellation(m=config.m, points=params.emit(), metadata={}))

    loss_hist = np.empty(config.iterations)
    gmi_hist = np.empty(config.iterations)
    norm_hist = np.empty(config.iterations)
    for it in range(config.iterations):
        if refresh and it > 0 and it % refresh == 0:
            noise_variance = config.target.resolve(
                Constellation(m=config.m, points=params.emit(), metadata={}))
        noise = awgn_sample(rng, np.zeros(config.batch_symbols), noise_variance)
        try:
            loss, st = forward_loss(params, demapper, labels, noise, noise_variance)
            grads = backward(params, demapper, st)
        except NumericalError as exc:
            raise NumericalError(f"iteration {it}: {exc}") from exc
        arrays, opt = adam_step(trainable_arrays(params, demapper), grads, opt, hyper)
        params, demapper = with_arrays(params, demapper, arrays)
        loss_hist[it] = loss
        gmi_hist[it] = config.m - loss
        norm_hist[it] = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))

    history = TrainHistory(loss=loss_hist, surrogate_gmi=gmi_hist,
                           grad_norm=norm_hist)
    return _emit_constellation(params, config, noise_variance), history
