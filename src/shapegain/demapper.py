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
logistic, that exponentiates once: with e = exp(z),

    log(1 + exp(z)) = log1p(e)
    sigmoid(z)      = e / (1 + e)

Every caller clips its LLRs to |L| <= MAX_LLR_CLIP = 700, so |z| <= 700
and e lies in [exp(-700), exp(700)], normal doubles on both sides: e never
overflows (exp does from 709.8 on) and never goes subnormal, and both
results keep full relative precision.

Every exact LLR in the package (llr_exact, the GMI estimators built on it
and GaussianDemapper, the exact receiver of training) comes from one kernel,
gaussian_bit_metric. Its arrays keep the S samples on their last axis:
samples and points enter as I/Q rows, y (2, S) and x (2, M), and it works
on l (M, S), the log-likelihoods ln p(y_s | x_j) up to a constant per
sample. With P = exp(l - column max) (or its floored form, below) and the
bit table B (M x m), both partition sums of every bit level are one
product, [Z0; Z1] = [1 - B | B]^T @ P (2m x S), and L = ln Z0 - ln Z1 (m x S).
llr_exact hands its callers the transpose, (S, m).

numpy's exp is fast only for arguments from -707 up: below, through the
subnormal results down to -745, it takes 20-190 times as long per element,
and 6-20 times beyond (numpy 2.4, x86-64); BLAS also multiplies subnormal
entries many times slower. A sample's log-likelihoods span at most
D = (max|y| + max|x|)^2 / sigma^2, from the two radii _loglik uses. If
D <= 700, every l - column max is >= -700 and P = exp(l - column max) as
above. Otherwise each column is shifted so that its maximum is +64, the
entries below -700 are noted, clamped to -700, exponentiated and set to 0:
every exp argument lies in [-700, 64], P holds no subnormal, and the
partition with the maximum lies in [e^64, (M/2) e^64], far from overflow.
A partition is 0 only when all its entries were dropped, i.e. lie more than
764 below the maximum. The LLR is then +/-inf while its true magnitude
exceeds 700, and any clip up to MAX_LLR_CLIP = 700 maps both to the same
+/-clip. Whenever |L| <= 700 the smaller partition is at least e^(64-700),
a normal double, and its dropped entries, each below e^-700, sum to at most
(M/2) e^-700 of it, a relative error of at most (M/2) e^-64 < 6e-24 for
m <= 16: unclipped LLRs keep full precision. The shift cancels in the
gradient's ratios P / Z.

gmi_oracle_quadrature drops the product nodes of weight w_i w_j / pi below
1e-21. Of the default 48 x 48 grid it keeps 1224 of 2304 nodes, and the
dropped weights sum to 2.1e-20; with penalties of at most 700 / ln 2 bits
(clip 700) each level moves by at most 2.2e-17 bits. The kept penalties are
summed in the full grid's order, with zeros at the dropped nodes, so the
rounding of the sum does not change either.

The GEMM form of l drops |y_s|^2 / sigma^2 from -|y_s - x_j|^2 / sigma^2:
l = [2 Re x, 2 Im x, -|x|^2] / sigma^2 @ [Re y; Im y; 1], whose derivative
in y_s differs by a shift common to all points, which the LLRs ignore. It
rounds relative to its terms, whose magnitudes sum to at most
T = (2 max|y| max|x| + max|x|^2) / sigma^2. Each takes at most four
roundings of eps/2 (input, product, two accumulations in order), so l is
within 2 eps T and an LLR, a difference of two log-sum-exps, within 4 eps T.
For the 1e-12 the tests demand of every LLR, the GEMM form serves while
eps T <= 2.5e-13 (Gray QAM: 1.4e-14 at m=4 and 9.3 dB, 2.3e-13 at m=8 and
21 dB), the subtraction form otherwise (1.2e-11 at m=4 and 40 dB).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .channel import awgn_sample
from .constellation import Constellation, partition_weights
from .errors import (CapabilityError, NumericalError, ParameterError, check_field_types,
                     float_tuple, reading)

LN2 = math.log(2.0)
DEFAULT_LLR_CLIP = 50.0
MAX_LLR_CLIP = 700.0
# Cap on one Monte-Carlo estimate: 10**7 samples hold 240 MB of labels and
# samples, and their stderr is about 1e-4 bits; more is rejected before
# anything is drawn.
MAX_SAMPLES = 10 ** 7

# the Monte-Carlo GMI runs in blocks of this many log-likelihoods, which
# stay in a core's cache; the fixed size also fixes the summation order
_MC_BLOCK = 2 ** 16
_GEMM_TAU = 2.5e-13  # see the module docstring
_EPS = float(np.finfo(np.float64).eps)
# the floored exp of gaussian_bit_metric, see the module docstring
_EXP_FLOOR = -MAX_LLR_CLIP
_EXP_SHIFT = 64.0
# product nodes of the quadrature oracle below this weight are dropped
_QUAD_MIN_WEIGHT = 1e-21

# OpenBLAS threads a GEMM once m*n*k exceeds 2**18. On the skinny products
# below the threaded call saves no wall time and leaves its workers spinning
# (about 0.13 s of CPU per call), so they run in blocks under that size.
_GEMM_UNTHREADED = 2 ** 18


def check_llr_clip(llr_clip: float) -> None:
    """Reject clips outside (0, MAX_LLR_CLIP], see the module docstring."""
    if not 0.0 < llr_clip <= MAX_LLR_CLIP:
        raise ParameterError(
            f"llr_clip must be in (0, {MAX_LLR_CLIP:g}], got {llr_clip}")


def logistic(z: np.ndarray):
    """(log2(1 + exp(z)), 1 / (1 + exp(-z))) elementwise, from one exp.

    Requires |z| <= MAX_LLR_CLIP (clipped LLRs times +/-1); beyond 709.8
    exp(z) overflows. See the module docstring for the two formulas.
    """
    e = np.exp(z)
    softplus = np.log1p(e)
    softplus /= LN2
    sigmoid = e + 1.0
    np.divide(e, sigmoid, out=sigmoid)
    return softplus, sigmoid


def _radius(rows: np.ndarray) -> float:
    """max |v| over the columns v of I/Q rows (2, n); 0.0 when n = 0."""
    sq = rows * rows
    return math.sqrt(float((sq[0] + sq[1]).max(initial=0.0)))


def _radii(y: np.ndarray, points: np.ndarray):
    """(max |y_s|, max |x_j|) of I/Q rows y (2, S) and points (2, M).

    One sqrt of the largest squared norm, a third of hypot's time at
    S = 1024, within a few ulp of hypot for components of magnitude 1e-150
    to 1e150. The bounds absorb that: an exp argument may then undercut -700
    by a few ulp, far above -707, and T's threshold has a factor of four to
    spare. A squared norm that overflows gives inf, so T (inf, or NaN when
    max |x| = 0) and D = inf select the subtraction form and the floored
    exp, the forms that hold for any finite input.
    """
    return _radius(y), _radius(points)


def _loglik(y: np.ndarray, points: np.ndarray, noise_variance: float,
            radii=None) -> np.ndarray:
    """l (M, S) of I/Q rows y (2, S) against points (2, M), see the module docstring.

    radii is _radii(y, points), passed by callers that already hold it.
    """
    ymax, xmax = _radii(y, points) if radii is None else radii
    t = (2.0 * ymax + xmax) * xmax / float(noise_variance)
    if _EPS * t <= _GEMM_TAU:  # a Python float overflows to inf
        x = np.empty((points.shape[1], 3))
        x[:, :2] = points.T
        x[:, 2] = -0.5 * (points[0] ** 2 + points[1] ** 2)
        x /= 0.5 * noise_variance
        ys = np.empty((3, y.shape[1]))
        ys[:2] = y
        ys[2] = 1.0
        return _matmul(x, ys)
    p = np.subtract.outer(points[0], y[0])
    p *= p
    im = np.subtract.outer(points[1], y[1])
    im *= im
    p += im
    p /= -noise_variance
    return p


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b in blocks below _GEMM_UNTHREADED: row blocks of a or column blocks of b.

    The larger operand is the one split, so BLAS packs the smaller one again
    for every block rather than the larger one.
    """
    if a.size * b.shape[1] <= _GEMM_UNTHREADED:
        return a @ b
    out = np.empty((a.shape[0], b.shape[1]))
    if a.size >= b.size:
        step = max(1, _GEMM_UNTHREADED // b.size)
        for lo in range(0, a.shape[0], step):
            np.matmul(a[lo:lo + step], b, out=out[lo:lo + step])
    else:
        step = max(1, _GEMM_UNTHREADED // a.size)
        for lo in range(0, b.shape[1], step):
            np.matmul(a, b[:, lo:lo + step], out=out[:, lo:lo + step])
    return out


def gaussian_bit_metric(y: np.ndarray, points: np.ndarray, bits: np.ndarray,
                        noise_variance: float):
    """Unclipped exact bit LLRs of I/Q rows y (2, S) against points (2, M).

    bits is the (M, m) label table bit_table(m); the partition sums use
    its cached partition_weights(m). Returns (llr_raw, cache): llr_raw has
    shape (m, S) and may hold +/-inf where a partition underflowed (see the
    module docstring); NaN only arises from NaN inputs or a noise variance
    so small that every distance overflows. cache feeds
    gaussian_bit_metric_grad.
    """
    ymax, xmax = radii = _radii(y, points)
    p = _loglik(y, points, noise_variance, radii)
    top = p.max(axis=0)
    spread = (ymax + xmax) * (ymax + xmax) / float(noise_variance)
    floored = not spread <= -_EXP_FLOOR
    if not floored:  # every l - top is >= _EXP_FLOOR
        p -= top
        np.exp(p, out=p)
    else:
        top -= _EXP_SHIFT
        p -= top
        keep = p >= _EXP_FLOOR
        np.maximum(p, _EXP_FLOOR, out=p)
        np.exp(p, out=p)
        p *= keep
    m = bits.shape[1]
    w = partition_weights(m)
    # z = w.T @ p, computed as the transpose of p.T @ w; with p free of
    # subnormals neither orientation is faster throughout (M, S from
    # (4, 16384) to (256, 256)), and this one fixes the training's rounding
    z = _matmul(p.T, w).T
    with np.errstate(divide="ignore"):
        logz = np.log(z)
    return np.subtract(logz[:m], logz[m:], order="C"), (p, z, w, floored)


def gaussian_bit_metric_grad(dllr: np.ndarray, cache) -> np.ndarray:
    """d loss / d loglik, shape (M, S), from d loss / d llr_raw, shape (m, S).

    loglik is the (M, S) array of _loglik. dllr must be zero wherever
    llr_raw was clipped, which includes every infinite entry. Where the
    exp was floored, those entries are skipped rather than divided by their
    zero partition; otherwise every partition is at least e^-700 and the
    division needs no mask.
    """
    p, z, w, floored = cache
    a = np.concatenate([dllr, -dllr])
    if floored:
        np.divide(a, z, out=a, where=a != 0)
    else:
        a /= z
    da = _matmul(w, a)
    da *= p
    return da


def _iq_rows(z: np.ndarray) -> np.ndarray:
    """(2, n) I/Q rows of a complex array, a strided view where z allows one."""
    return np.ascontiguousarray(z, dtype=np.complex128).view(np.float64).reshape(-1, 2).T


@dataclass
class GaussianDemapper:
    """Differentiable exact bit-metric receiver, no trainable state.

    Implements the receiver interface described in shapegain.training on
    one cell's arrays, without the cell axis: training stacks only cells
    with an MLP receiver, and trains a Gaussian cell alone.
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
        """(llr_raw (m, S), cache) for I/Q rows y_iq (2, S) against points_iq (2, M)."""
        llr_raw, metric = gaussian_bit_metric(y_iq, points_iq, bits, noise_variance)
        # +/-inf marks an underflowed partition and clips exactly; NaN does not
        if np.isnan(llr_raw).any():
            raise NumericalError("NaN values in llr")
        return llr_raw, (metric, y_iq, points_iq, noise_variance)

    def backward(self, dllr: np.ndarray, cache, grads: dict):
        """(d loss / d y_iq (2, S), d loss / d points_iq (2, M) through the receiver).

        With da (M, S), dd2 = d loss / d |y_s - x_j|^2 = -da / noise_variance,
          d loss / d y      = 2 (y * dd2.sum(0) - x @ dd2)
          d loss / d points = 2 (x * dd2.sum(1) - y @ dd2.T)
        The columns of da sum to zero (a common shift of one sample's
        log-likelihoods leaves its LLRs unchanged), so the first term of
        d loss / d y vanishes.
        """
        metric, y_iq, points_iq, noise_variance = cache
        da = gaussian_bit_metric_grad(dllr, metric)
        f = 2.0 / noise_variance
        gy = _matmul(points_iq, da)
        gy *= f
        gp = _matmul(y_iq, da.T)
        gp -= points_iq * da.sum(axis=1)
        gp *= f
        return gy, gp

    def kinks(self, cache) -> list:
        return []


def _clipped(llr: np.ndarray, llr_clip: float) -> np.ndarray:
    """llr clipped to +/- llr_clip into a new array; NaN stays NaN."""
    out = np.maximum(llr, -llr_clip)
    np.minimum(out, llr_clip, out=out)
    return out


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
    raw, _ = gaussian_bit_metric(_iq_rows(np.atleast_1d(y)), _iq_rows(c.points), c.bits(),
                                 noise_variance)
    out = _clipped(raw, llr_clip)
    return out[:, 0] if scalar else out.T


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
    def from_dict(cls, doc) -> "GmiReport":
        """The report of a document to_dict wrote; ParameterError unless it has
        to_dict's keys and no other, n_samples >= 1 is an integer, the totals
        are finite, stderr_total >= 0, and the per-bit values lie in [0, 1],
        per_bit_dualpol holding twice as many as per_bit."""
        with reading("GMI report", doc, [f.name for f in fields(cls)]):
            arrays = {key: np.array(float_tuple(key, doc[key]))
                      for key in ("per_bit", "per_bit_dualpol")}
            report = cls(**{**doc, **arrays})
            check_field_types(report)
            per_bit, dual = report.per_bit, report.per_bit_dualpol
            if per_bit.size == 0 or dual.shape != (2 * per_bit.size,):
                raise ParameterError(
                    f"per_bit_dualpol must hold twice the {per_bit.size} per_bit "
                    f"values, got shape {dual.shape}")
            for name, values in (("per_bit", per_bit), ("per_bit_dualpol", dual)):
                if not np.all((values >= 0.0) & (values <= 1.0)):
                    raise ParameterError(f"{name} values must lie in [0, 1]")
            if report.n_samples < 1 or report.stderr_total < 0:
                raise ParameterError(f"need n_samples >= 1 and stderr_total >= 0, got "
                                     f"{report.n_samples} and {report.stderr_total}")
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
    """log2(1 + exp(-(1-2b) L)) per bit level and sample, shape (m, S)."""
    llr = llr_exact(y, c, noise_variance, llr_clip).T  # a C-contiguous view
    flip = 2.0 * np.take(c.bits().T, labels, axis=1) - 1.0
    flip *= llr
    return logistic(flip)[0]


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
    step = max(1, _MC_BLOCK // c.size)
    for lo in range(0, s_total, step):
        hi = min(lo + step, s_total)
        t = _bit_penalties(y[lo:hi], c, labels[lo:hi], noise_variance, llr_clip)
        penalty_sums += t.sum(axis=1)
        sample_totals[lo:hi] = c.m - t.sum(axis=0)
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
        Requested sample count, in [M, MAX_SAMPLES].
    rng : numpy Generator
        Source of the noise draws; results are deterministic per state.
    """
    if not c.size <= n_samples <= MAX_SAMPLES:
        raise ParameterError(
            f"n_samples must be in [M = {c.size}, {MAX_SAMPLES}], got {n_samples}")
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
    kept = np.flatnonzero(w2 >= _QUAD_MIN_WEIGHT)  # see the module docstring
    offsets = offsets[kept]

    penalty_per_bit = np.zeros(c.m)
    t = np.zeros((c.m, w2.size))
    for label in range(c.size):
        y = c.points[label] + offsets
        t[:, kept] = _bit_penalties(y, c, np.full(offsets.size, label), noise_variance, llr_clip)
        penalty_per_bit += t @ w2
    per_bit = np.clip(1.0 - penalty_per_bit / c.size, 0.0, 1.0)
    return float(per_bit.sum())
