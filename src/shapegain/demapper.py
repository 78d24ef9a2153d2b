"""Gaussian bit-metric LLRs and per-bit GMI estimation.

LLR sign convention: L_k = ln[P(y | b_k = 0) / P(y | b_k = 1)] under
uniform symbol priors, so positive values favor bit 0. Per-bit GMI uses
the standard BICM bound

    I_k = 1 - E[log2(1 + exp(-(1 - 2 b_k) L_k))]

clamped to [0, 1]; the total is the sum over bit levels. Dual-polarization
fields duplicate the single-polarization statistics (both polarizations
see the same effective channel).

The surrogate loss of training and every GMI estimate below are sums of
these softplus terms, log2(1 + exp(z)) with z = -(1 - 2 b_k) L_k, and the
loss gradient is their logistic sigmoid. Both come from one kernel,
logistic, that exponentiates once: with e = exp(-|z|) in (0, 1],

    log(1 + exp(z)) = max(z, 0) + log1p(e)
    sigmoid(z)      = (1 if z >= 0 else e) / (1 + e)

neither of which overflows for any finite z.

Every exact LLR in the package (llr_exact, the GMI estimators built on it
and GaussianDemapper, the exact receiver of training) comes from one kernel,
gaussian_bit_metric, in matrix form: with P_sj = exp(-|y_s - x_j|^2 / sigma^2)
scaled by its row maximum and the bit table B (M x m), both partition sums
of every bit level are one product

    [Z0 | Z1] = P @ [1 - B | B],    L = ln Z0 - ln Z1.

The row maximum contributes 1 to Z0 or Z1 of every level, so at most one
partition of a level can underflow to zero. The LLR is then +/-inf while
its true magnitude exceeds 744, and any clip up to MAX_LLR_CLIP = 700 maps
both to the same +/-clip. Whenever |L| <= 700 the smaller partition is at
least exp(-700), a normal double, so unclipped LLRs keep full precision.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .channel import awgn_sample
from .constellation import Constellation
from .errors import CapabilityError, NumericalError, ParameterError

LN2 = math.log(2.0)
DEFAULT_LLR_CLIP = 50.0
MAX_LLR_CLIP = 700.0

_MC_CHUNK = 32768

# OpenBLAS threads a GEMM once m*n*k exceeds 2**18. On the skinny products
# below the threaded call saves no wall time and leaves its workers spinning
# (about 0.13 s of CPU per call), so they run in row blocks under that size.
_GEMM_UNTHREADED = 2 ** 18


def check_llr_clip(llr_clip: float) -> None:
    """Reject clips outside (0, MAX_LLR_CLIP], see the module docstring."""
    if not 0.0 < llr_clip <= MAX_LLR_CLIP:
        raise ParameterError(
            f"llr_clip must be in (0, {MAX_LLR_CLIP:g}], got {llr_clip}")


def logistic(z: np.ndarray):
    """(log2(1 + exp(z)), 1 / (1 + exp(-z))) elementwise, from one exp.

    See the module docstring for the two formulas.
    """
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    softplus = np.maximum(z, 0.0)
    softplus += np.log1p(e)
    softplus /= LN2
    sigmoid = np.where(z >= 0, 1.0, e)
    e += 1.0
    sigmoid /= e
    return softplus, sigmoid


def _sq_dist(y: np.ndarray, points: np.ndarray) -> np.ndarray:
    """|y_s - x_j|^2 as a float64 (S, M) array.

    Built in place from the real and imaginary differences, so at most two
    (S, M) arrays exist at once and no complex (S, M) temporary is made.
    """
    d2 = np.subtract.outer(y.real, points.real)
    d2 *= d2
    im = np.subtract.outer(y.imag, points.imag)
    im *= im
    d2 += im
    return d2


def _matmul_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b computed in row blocks that stay below _GEMM_UNTHREADED."""
    out = np.empty((a.shape[0], b.shape[1]))
    step = max(1, _GEMM_UNTHREADED // (a.shape[1] * b.shape[1]))
    for lo in range(0, a.shape[0], step):
        np.matmul(a[lo:lo + step], b, out=out[lo:lo + step])
    return out


def gaussian_bit_metric(y: np.ndarray, points: np.ndarray, bits: np.ndarray,
                        noise_variance: float):
    """Unclipped exact bit LLRs of samples y (S,) against points (M,).

    bits is the (M, m) label table. Returns (llr_raw, cache): llr_raw has
    shape (S, m) and may hold +/-inf where a partition underflowed (see the
    module docstring); NaN only arises from NaN inputs or a noise variance
    so small that every distance overflows. cache feeds
    gaussian_bit_metric_grad.
    """
    p = _sq_dist(y, points)
    p /= -noise_variance
    p -= p.max(axis=1, keepdims=True)
    np.exp(p, out=p)
    w = np.hstack([1 - bits, bits]).astype(np.float64)
    z = _matmul_rows(p, w)
    m = bits.shape[1]
    with np.errstate(divide="ignore"):
        logz = np.log(z)
    return logz[:, :m] - logz[:, m:], (p, z, w)


def gaussian_bit_metric_grad(dllr: np.ndarray, cache) -> np.ndarray:
    """d loss / d loglik, shape (S, M), from d loss / d llr_raw, shape (S, m).

    loglik is -|y - x_j|^2 / sigma^2. dllr must be zero wherever llr_raw
    was clipped, which includes every infinite entry; those entries are
    skipped rather than divided by their zero partition.
    """
    p, z, w = cache
    a = np.concatenate([dllr, -dllr], axis=1)
    np.divide(a, z, out=a, where=a != 0)
    da = _matmul_rows(a, w.T)
    da *= p
    return da


def _complex_view(iq: np.ndarray) -> np.ndarray:
    """(n,) complex view of an (n, 2) array of I/Q pairs."""
    return np.ascontiguousarray(iq, dtype=np.float64).view(np.complex128)[:, 0]


@dataclass
class GaussianDemapper:
    """Differentiable exact bit-metric receiver, no trainable state.

    Implements the receiver interface described in shapegain.training.
    """

    llr_clip: float = DEFAULT_LLR_CLIP

    def __post_init__(self):
        check_llr_clip(self.llr_clip)

    def arrays(self) -> dict:
        return {}

    def with_arrays(self, arrays: dict) -> "GaussianDemapper":
        return self

    def forward(self, y_iq: np.ndarray, points_iq: np.ndarray, bits: np.ndarray,
                noise_variance: float):
        """(llr_raw, cache) for samples y_iq (S, 2) against points_iq (M, 2)."""
        llr_raw, metric = gaussian_bit_metric(_complex_view(y_iq), _complex_view(points_iq),
                                              bits, noise_variance)
        # +/-inf marks an underflowed partition and clips exactly; NaN does not
        if np.isnan(llr_raw).any():
            raise NumericalError("NaN values in llr")
        return llr_raw, (metric, y_iq, points_iq, noise_variance)

    def backward(self, dllr: np.ndarray, cache, grads: dict):
        """(d loss / d y_iq, d loss / d points_iq through the receiver).

        With dd2 = d loss / d |y_s - x_j|^2 = -da / noise_variance,
          d loss / d y      = 2 (y * dd2.sum(1) - dd2 @ x)
          d loss / d points = 2 (x * dd2.sum(0) - dd2.T @ y)
        The rows of da sum to zero (a common shift of one sample's
        log-likelihoods leaves its LLRs unchanged), so the first term of
        d loss / d y vanishes; a column of ones gives dd2.sum(0) with dd2.T @ y.
        """
        metric, y_iq, points_iq, noise_variance = cache
        da = gaussian_bit_metric_grad(dllr, metric)
        f = 2.0 / noise_variance
        gy = _matmul_rows(da, points_iq)
        gy *= f
        ys = _matmul_rows(da.T, np.column_stack([y_iq, np.ones(len(y_iq))]))
        gp = ys[:, :2] - points_iq * ys[:, 2:]
        gp *= f
        return gy, gp

    def kinks(self, cache) -> list:
        return []


def llr_exact(y, c: Constellation, noise_variance: float,
              llr_clip: float = DEFAULT_LLR_CLIP) -> np.ndarray:
    """Exact log-MAP bit LLRs for received sample(s) y.

    Returns an array of shape (m,) for scalar y or (len(y), m) for a batch,
    clipped to +/- llr_clip with 0 < llr_clip <= MAX_LLR_CLIP. Computed by
    gaussian_bit_metric in matrix form; a level whose partition underflows
    returns exactly +/- llr_clip.
    """
    if not noise_variance > 0:
        raise ParameterError(f"noise_variance must be positive, got {noise_variance}")
    check_llr_clip(llr_clip)
    scalar = np.ndim(y) == 0
    yb = np.atleast_1d(np.asarray(y, dtype=np.complex128))
    out, _ = gaussian_bit_metric(yb, c.points, c.bits(), noise_variance)
    np.clip(out, -llr_clip, llr_clip, out=out)
    return out[0] if scalar else out


@dataclass(frozen=True)
class GmiReport:
    """Per-bit-level GMI estimates (bits/level) with Monte-Carlo error bar.

    per_bit_dualpol concatenates polarization X (levels 0..m-1) and Y
    (levels m..2m-1); with identical per-polarization statistics it is two
    copies of per_bit and total_dualpol == 2 * total.
    """

    per_bit: np.ndarray
    total: float
    per_bit_dualpol: np.ndarray
    total_dualpol: float
    n_samples: int
    stderr_total: float

    @property
    def m(self) -> int:
        return len(self.per_bit)

    def to_dict(self) -> dict:
        return {
            "per_bit": [float(v) for v in self.per_bit],
            "total": self.total,
            "per_bit_dualpol": [float(v) for v in self.per_bit_dualpol],
            "total_dualpol": self.total_dualpol,
            "n_samples": self.n_samples,
            "stderr_total": self.stderr_total,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, doc: dict) -> "GmiReport":
        """Parse a report dict; per-bit values must be finite and in [0, 1]."""
        try:
            report = cls(
                per_bit=np.asarray(doc["per_bit"], dtype=np.float64),
                total=float(doc["total"]),
                per_bit_dualpol=np.asarray(doc["per_bit_dualpol"], dtype=np.float64),
                total_dualpol=float(doc["total_dualpol"]),
                n_samples=int(doc["n_samples"]),
                stderr_total=float(doc["stderr_total"]),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParameterError(f"malformed GMI report: {exc}") from exc
        per_bit, dual = report.per_bit, report.per_bit_dualpol
        if per_bit.ndim != 1 or per_bit.size == 0 or dual.shape != (2 * per_bit.size,):
            raise ParameterError(
                f"malformed GMI report: per_bit_dualpol must hold twice the "
                f"{per_bit.size} per_bit values, got shape {dual.shape}")
        for name, values in (("per_bit", per_bit), ("per_bit_dualpol", dual)):
            if not np.all((values >= 0.0) & (values <= 1.0)):
                raise ParameterError(
                    f"malformed GMI report: {name} values must be finite and in [0, 1]")
        return report


def make_report(per_bit: np.ndarray, n_samples: int, stderr_total: float) -> GmiReport:
    """Assemble a GmiReport from clamped single-polarization per-bit values."""
    per_bit = np.asarray(per_bit, dtype=np.float64)
    total = float(per_bit.sum())
    dual = np.concatenate([per_bit, per_bit])
    return GmiReport(
        per_bit=per_bit,
        total=total,
        per_bit_dualpol=dual,
        total_dualpol=2.0 * total,
        n_samples=int(n_samples),
        stderr_total=float(stderr_total),
    )


def _bit_penalties(y, c, labels, noise_variance, llr_clip):
    """log2(1 + exp(-(1-2b) L)) per sample and bit level, shape (S, m)."""
    llr = llr_exact(y, c, noise_variance, llr_clip)
    flip = 2.0 * c.bits()[labels] - 1.0
    return logistic(flip * llr)[0]


def per_bit_gmi_from_samples(c: Constellation, labels: np.ndarray, y: np.ndarray,
                             noise_variance: float,
                             llr_clip: float = DEFAULT_LLR_CLIP) -> GmiReport:
    """Deterministic GMI estimate from given (label, received sample) pairs.

    This is the estimation core of per_bit_gmi_mc; it is exposed so tests
    can replay identical noise realizations against modified labelings.
    """
    labels = np.asarray(labels)
    y = np.asarray(y, dtype=np.complex128)
    if labels.shape != y.shape:
        raise ParameterError("labels and samples must have matching shapes")
    s_total = labels.size
    penalty_sums = np.zeros(c.m)
    sample_totals = np.empty(s_total)
    # fixed-size chunks keep memory bounded and the summation order reproducible
    for lo in range(0, s_total, _MC_CHUNK):
        hi = min(lo + _MC_CHUNK, s_total)
        t = _bit_penalties(y[lo:hi], c, labels[lo:hi], noise_variance, llr_clip)
        penalty_sums += t.sum(axis=0)
        sample_totals[lo:hi] = c.m - t.sum(axis=1)
    per_bit = np.clip(1.0 - penalty_sums / s_total, 0.0, 1.0)
    stderr = float(np.std(sample_totals, ddof=1) / math.sqrt(s_total)) if s_total > 1 else 0.0
    return make_report(per_bit, s_total, stderr)


def per_bit_gmi_mc(c: Constellation, noise_variance: float, n_samples: int,
                   rng: np.random.Generator,
                   llr_clip: float = DEFAULT_LLR_CLIP) -> GmiReport:
    """Monte-Carlo per-bit GMI over the AWGN channel.

    Samples are stratified: n_samples is rounded up to a multiple of M and
    every label is transmitted equally often, which removes label-frequency
    noise from the per-bit estimates. stderr_total is the sample standard
    deviation of the per-sample information total divided by sqrt(S)
    (slightly conservative under stratification).

    Parameters
    ----------
    c : Constellation
    noise_variance : float
        Total complex noise variance (1/SNR for unit-power constellations).
    n_samples : int
        Requested sample count, must be >= M.
    rng : numpy Generator
        Source of the noise draws; results are deterministic per state.
    """
    if n_samples < c.size:
        raise ParameterError(f"n_samples must be >= M = {c.size}, got {n_samples}")
    if not noise_variance > 0:
        raise ParameterError(f"noise_variance must be positive, got {noise_variance}")
    per_label = -(-n_samples // c.size)  # ceil division
    labels = np.repeat(np.arange(c.size), per_label)
    y = awgn_sample(rng, c.points[labels], noise_variance)
    return per_bit_gmi_from_samples(c, labels, y, noise_variance, llr_clip)


def gmi_oracle_quadrature(c: Constellation, noise_variance: float,
                          n_nodes: int = 48,
                          llr_clip: float = DEFAULT_LLR_CLIP) -> float:
    """Deterministic GMI via 2-D Gauss-Hermite quadrature over the noise.

    Integrates the same per-bit integrand as per_bit_gmi_mc with n_nodes
    Hermite nodes per noise dimension (node span far exceeds +/-6 sigma at
    the default order). Intended as an independent oracle for Monte-Carlo
    validation; limited to M <= 64 since the cost grows as M^2 * n_nodes^2.
    """
    if c.size > 64:
        raise CapabilityError(f"quadrature oracle supports M <= 64, got M = {c.size}")
    if not noise_variance > 0:
        raise ParameterError(f"noise_variance must be positive, got {noise_variance}")
    nodes, weights = hermgauss(n_nodes)
    # E[f(n)] over complex n with E|n|^2 = v: n = sqrt(v) * (t1 + j t2), weight w1*w2/pi
    offsets = math.sqrt(noise_variance) * (nodes[:, None] + 1j * nodes[None, :]).ravel()
    w2 = (weights[:, None] * weights[None, :]).ravel() / math.pi

    penalty_per_bit = np.zeros(c.m)
    for label in range(c.size):
        y = c.points[label] + offsets
        t = _bit_penalties(y, c, np.full(offsets.size, label), noise_variance, llr_clip)
        penalty_per_bit += w2 @ t
    per_bit = np.clip(1.0 - penalty_per_bit / c.size, 0.0, 1.0)
    return float(per_bit.sum())
