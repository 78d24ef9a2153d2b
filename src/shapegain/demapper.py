"""Gaussian bit-metric LLRs and per-bit GMI estimation.

LLR sign convention: L_k = ln[P(y | b_k = 0) / P(y | b_k = 1)] under
uniform symbol priors, so positive values favor bit 0. Per-bit GMI uses
the standard BICM bound

    I_k = 1 - E[log2(1 + exp(-(1 - 2 b_k) L_k))]

clamped to [0, 1]; the total is the sum over bit levels. Both
polarizations see the same effective channel, so a GmiReport stores the
single-polarization values only and derives its dual-polarization ones.

The surrogate loss of training and every GMI estimate below are sums of
these softplus terms, log2(1 + exp(z)) with z = -(1 - 2 b_k) L_k, and the
loss gradient is their logistic sigmoid. Both come from one kernel,
logistic, that exponentiates once: with e = exp(z),

    log(1 + exp(z)) = log1p(e)
    sigmoid(z)      = e / (1 + e)

clip_llr clips every LLR to |L| <= LLR_CLIP = 50 (and fails a NaN or
+/-inf one), so |z| <= 50 and e lies in [e^-50, e^50]: e never overflows
(exp does from 709.8 on) and never goes subnormal, and both results keep
full relative precision, as they do for any |z| <= 700.

Every exact LLR in the package (llr_exact, the GMI estimators and
GaussianDemapper, the exact receiver of training) comes from one kernel,
gaussian_bit_metric. Its arrays keep the S samples on their last axis:
samples and points enter as I/Q rows, y (2, S) and x (2, M), and it works
on l (M, S), the log-likelihoods ln p(y_s | x_j) up to a constant per
sample. With P = exp(l - column max) (or its floored form, below) and the
bit table B (M x m), both partition sums of every bit level are one
product, [Z0; Z1] = [1 - B | B]^T @ P (2m x S), and L = ln Z0 - ln Z1 (m x S).
The product is C-ordered, so the log, the difference and the gradient's
division all run along contiguous rows. llr_exact hands its callers the
transpose of L, (S, m).

numpy's exp is fast only for arguments from -707 up: below, through the
subnormal results down to -745, it takes 20-190 times as long per element,
and 6-20 times beyond (numpy 2.4, x86-64); BLAS also multiplies subnormal
entries many times slower. A sample's log-likelihoods span at most
D = (max|y| + max|x|)^2 / sigma^2, from the two radii _loglik uses. If
D <= 700, every l - column max is >= -700 and P = exp(l - column max) as
above. Otherwise each column is shifted so that its maximum is +64, and
the entries below -700 are clamped to -700 before the exp, so they count
as e^-700: every exp argument lies in [-700, 64], P holds no subnormal,
and the partition with the maximum lies in [e^64, (M/2) e^64], far from
overflow. (Setting them to -inf instead, so that they count as 0, costs
about nine times as much per exp, and from about 25 dB most entries are
clamped.) Every partition is then at least e^-700. One whose entries were
all clamped, i.e. lie more than 764 below the maximum, holds at most
(M/2) e^-700, so its LLR has magnitude at least 764 - ln(M/2) > 700 for
m <= 62, as the true one does, and the clip maps both to the same
+/-LLR_CLIP. Whenever |L| <= 700 the smaller partition is at least
e^(64-700), a normal double, and its clamped entries, each off by
less than e^-700, move it by at most (M/2) e^-700, a relative error of at
most (M/2) e^-64 < 6e-24 for m <= 16: unclipped LLRs keep full precision.
The shift cancels in the gradient's ratios P / Z. So every LLR is finite
unless an input is NaN or a distance overflows, and the gradient divides
by the partitions, each at least e^-700, without a mask.

gauss_hermite_grid is the one Gauss-Hermite product grid, of
per_bit_gmi_quadrature and of training's noise-free batch. The quadrature
drops the product nodes of weight w_i w_j / pi below 1e-21. Of the default
48 x 48 grid it keeps 1224 of 2304 nodes, and the dropped weights sum to
2.1e-20; with penalties of at most log2(1 + e^LLR_CLIP) = 72.2 bits each
level moves by at most 1.6e-18 bits. The kept penalties are summed in the
full grid's order, with zeros at the dropped nodes, so the rounding of the
sum does not change either.

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

import functools
import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .channel import awgn_sample
from .constellation import Constellation, check_labels, partition_weights
from .errors import (NumericalError, ParameterError, build_section, check_field_types,
                     check_value, check_written, float_tuple)

LN2 = math.log(2.0)
# the saturation of every LLR the package uses, see the module docstring
LLR_CLIP = 50.0
# Cap on one Monte-Carlo estimate, counted after the round-up to a multiple of
# M: 10**7 samples hold 240 MB of labels and samples, and their stderr is about
# 1e-4 bits; more is rejected before anything is drawn.
MAX_SAMPLES = 10 ** 7

# the Monte-Carlo GMI runs in blocks of this many log-likelihoods, which
# stay in a core's cache; the fixed size also fixes the summation order
_MC_BLOCK = 2 ** 16
_GEMM_TAU = 2.5e-13  # see the module docstring
_EPS = float(np.finfo(np.float64).eps)
# the floored exp of gaussian_bit_metric, see the module docstring
_EXP_FLOOR = -700.0
_EXP_SHIFT = 64.0
# product nodes of the quadrature below this weight are dropped
_QUAD_MIN_WEIGHT = 1e-21
MAX_QUADRATURE_M = 6  # the largest order the quadrature integrates, M = 64

# OpenBLAS threads a GEMM once m*n*k exceeds 2**18. On the skinny products
# below the threaded call saves no wall time and leaves its workers spinning
# (about 0.13 s of CPU per call), so they run in blocks under that size.
_GEMM_UNTHREADED = 2 ** 18


def _check_noise_variance(noise_variance: float) -> None:
    """Reject a noise variance that is not finite and positive."""
    if not 0.0 < noise_variance < math.inf:
        raise ParameterError(
            f"noise_variance must be finite and positive, got {noise_variance}")


def _log2_1p(e: np.ndarray, out=None) -> np.ndarray:
    """log2(1 + e) elementwise, as log1p(e) / ln 2; out may be e."""
    out = np.log1p(e, out=out)
    out /= LN2
    return out


def logistic(z: np.ndarray, out=(None, None), softplus: bool = True):
    """(log2(1 + exp(z)), 1 / (1 + exp(-z))) elementwise, from one exp.

    Requires |z| <= 700, as LLRs clipped to LLR_CLIP times +/-1 are; beyond
    709.8 exp(z) overflows. See the module docstring for the two formulas.
    The results go into out = (softplus, sigmoid) where given, else into new
    arrays; softplus may be z itself. Without softplus the first result is
    None, out[0] holds exp(z), and the sigmoid has the same bytes.
    """
    e = np.exp(z, out=out[0])
    sigmoid = np.add(e, 1.0, out=out[1])
    np.divide(e, sigmoid, out=sigmoid)
    return _log2_1p(e, out=e) if softplus else None, sigmoid


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


def gaussian_bit_metric(y: np.ndarray, points: np.ndarray, noise_variance: float):
    """Unclipped exact bit LLRs of I/Q rows y (2, S) against points (2, M).

    points[:, i] carries label i, so M = 2**m gives the bit count m, and the
    partition sums use the cached partition_weights(m). Returns (llr_raw,
    cache): llr_raw has shape (m, S) and is finite, beyond 700 where a
    partition's entries were all clamped (see the module docstring); NaN
    only arises from NaN inputs or a noise variance so small that every
    distance overflows. cache feeds gaussian_bit_metric_grad.
    """
    ymax, xmax = radii = _radii(y, points)
    p = _loglik(y, points, noise_variance, radii)
    top = p.max(axis=0)
    spread = (ymax + xmax) * (ymax + xmax) / float(noise_variance)
    if spread <= -_EXP_FLOOR:  # every l - top is >= _EXP_FLOOR
        p -= top
    else:  # floored
        top -= _EXP_SHIFT
        p -= top
        np.maximum(p, _EXP_FLOOR, out=p)
    np.exp(p, out=p)
    m = points.shape[1].bit_length() - 1
    w = partition_weights(m)
    z = _matmul(w.T, p)
    logz = np.log(z)
    return logz[:m] - logz[m:], (p, z, w)


def gaussian_bit_metric_grad(dllr: np.ndarray, cache) -> np.ndarray:
    """d loss / d loglik, shape (M, S), from d loss / d llr_raw, shape (m, S).

    loglik is the (M, S) array of _loglik. Every partition is at least
    e^-700, so the division by them needs no mask (see the module
    docstring); dllr is zero wherever llr_raw was clipped.
    """
    p, z, w = cache
    a = np.concatenate([dllr, -dllr])
    a /= z
    da = _matmul(w, a)
    da *= p
    return da


def _iq_rows(z: np.ndarray) -> np.ndarray:
    """(2, n) I/Q rows of a complex array, a strided view where z allows one."""
    return np.ascontiguousarray(z, dtype=np.complex128).view(np.float64).reshape(-1, 2).T


class GaussianDemapper:
    """Differentiable exact bit-metric receiver, no trainable state.

    Implements the receiver interface described in shapegain.training on
    one cell's arrays, without the cell axis: training stacks only cells
    with an MLP receiver, and trains a Gaussian cell alone.
    """

    def arrays(self) -> dict:
        return {}

    def with_arrays(self, arrays: dict) -> "GaussianDemapper":
        return self

    def forward(self, y_iq: np.ndarray, points_iq: np.ndarray, noise_variance: float, work):
        """(llr_raw (m, S), cache) for I/Q rows y_iq (2, S) against points_iq (2, M);
        work goes unused, as the bit metric allocates its own arrays."""
        llr_raw, metric = gaussian_bit_metric(y_iq, points_iq, noise_variance)
        return llr_raw, (metric, y_iq, points_iq, noise_variance)

    def backward(self, dllr: np.ndarray, cache, grads: dict, work):
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


def clip_llr(llr_raw: np.ndarray) -> np.ndarray:
    """llr_raw clipped to +/- LLR_CLIP into a new array, or llr_raw itself
    when no entry lies beyond; NaN or +/-inf raises NumericalError."""
    lo, hi = llr_raw.min(initial=math.inf), llr_raw.max(initial=-math.inf)
    if -LLR_CLIP <= lo and hi <= LLR_CLIP:
        return llr_raw
    if not (math.isfinite(lo) and math.isfinite(hi)):  # NaN propagates to both
        raise NumericalError("non-finite values in llr")
    out = np.maximum(llr_raw, -LLR_CLIP)
    return np.minimum(out, LLR_CLIP, out=out)


def llr_exact(y, c: Constellation, noise_variance: float) -> np.ndarray:
    """Exact log-MAP bit LLRs for received sample(s) y.

    Returns an array of shape (m,) for scalar y or (len(y), m) for a batch,
    clipped to +/- LLR_CLIP. Computed by gaussian_bit_metric in matrix form;
    a level with a partition of clamped entries only returns exactly
    +/- LLR_CLIP.
    """
    _check_noise_variance(noise_variance)
    scalar = np.ndim(y) == 0
    raw, _ = gaussian_bit_metric(_iq_rows(np.atleast_1d(y)), _iq_rows(c.points), noise_variance)
    out = clip_llr(raw)
    return out[:, 0] if scalar else out.T


@dataclass(frozen=True, eq=False)
class GmiReport:
    """Per-bit-level GMI estimates (bits/level) with Monte-Carlo error bar.

    Both polarizations see the same channel, so per_bit is all that is
    measured. The total and the dual-polarization values are derived:
    per_bit_dualpol concatenates polarization X (levels 0..m-1) and Y
    (levels m..2m-1), two copies of per_bit, and total_dualpol is 2 * total.
    """

    per_bit: np.ndarray
    n_samples: int
    stderr_total: float

    @property
    def m(self) -> int:
        return len(self.per_bit)

    @property
    def total(self) -> float:
        return float(self.per_bit.sum())

    @property
    def per_bit_dualpol(self) -> np.ndarray:
        return np.concatenate([self.per_bit, self.per_bit])

    @property
    def total_dualpol(self) -> float:
        return 2.0 * self.total

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
        to_dict's keys and no other, n_samples >= 1 is an integer,
        stderr_total >= 0 is finite, per_bit holds values in [0, 1], and the
        document is what to_dict writes for this report."""
        def build(per_bit, total, per_bit_dualpol, total_dualpol, n_samples, stderr_total):
            report = cls(np.array(float_tuple("per_bit", per_bit)), n_samples, stderr_total)
            check_field_types(report)
            if report.m == 0 or not np.all((report.per_bit >= 0.0) & (report.per_bit <= 1.0)):
                raise ParameterError("per_bit must hold values in [0, 1], at least one")
            if report.n_samples < 1 or report.stderr_total < 0:
                raise ParameterError(f"need n_samples >= 1 and stderr_total >= 0, got "
                                     f"{report.n_samples} and {report.stderr_total}")
            check_written(doc, report.to_dict())
            return report
        return build_section("GMI report", build, doc)


def make_report(per_bit: np.ndarray, n_samples: int, stderr_total: float) -> GmiReport:
    """Assemble a GmiReport from clamped single-polarization per-bit values."""
    return GmiReport(np.asarray(per_bit, dtype=np.float64), int(n_samples), float(stderr_total))


def _bit_penalties(y, c, labels, noise_variance):
    """log2(1 + exp(-(1-2b) L)) per bit level and sample, shape (m, S), of
    the exact LLRs L of samples y, clipped by clip_llr."""
    raw, _ = gaussian_bit_metric(_iq_rows(y), _iq_rows(c.points), noise_variance)
    z = 2.0 * np.take(c.bits().T, labels, axis=1) - 1.0
    z *= clip_llr(raw)
    # the softplus of logistic, without the sigmoid, in place
    np.exp(z, out=z)
    return _log2_1p(z, out=z)


def per_bit_gmi_from_samples(c: Constellation, labels: np.ndarray, y: np.ndarray,
                             noise_variance: float) -> GmiReport:
    """Deterministic GMI estimate from given (label, received sample) pairs,
    at least one, each label an integer in [0, M).

    This is the estimation core of per_bit_gmi_mc; it is exposed so tests
    can replay identical noise realizations against modified labelings.
    """
    labels = check_labels(labels, c.size)
    y = np.asarray(y, dtype=np.complex128)
    if labels.shape != y.shape:
        raise ParameterError("labels and samples must have matching shapes")
    s_total = labels.size
    if s_total == 0:
        raise ParameterError("need at least one sample")
    _check_noise_variance(noise_variance)
    penalty_sums = np.zeros(c.m)
    sample_totals = np.empty(s_total)
    step = max(1, _MC_BLOCK // c.size)
    for lo in range(0, s_total, step):
        hi = min(lo + step, s_total)
        t = _bit_penalties(y[lo:hi], c, labels[lo:hi], noise_variance)
        penalty_sums += t.sum(axis=1)
        sample_totals[lo:hi] = c.m - t.sum(axis=0)
    per_bit = np.clip(1.0 - penalty_sums / s_total, 0.0, 1.0)
    stderr = float(np.std(sample_totals, ddof=1) / math.sqrt(s_total)) if s_total > 1 else 0.0
    return make_report(per_bit, s_total, stderr)


def per_bit_gmi_mc(c: Constellation, noise_variance: float, n_samples: int,
                   rng: np.random.Generator) -> GmiReport:
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
        Requested sample count, in [M, MAX_SAMPLES rounded down to a multiple of M].
    rng : numpy Generator
        Source of the noise draws; results are deterministic per state.
    """
    check_value("n_samples", "int", n_samples)
    if not c.size <= n_samples <= MAX_SAMPLES // c.size * c.size:
        raise ParameterError(f"n_samples must be in [M = {c.size}, "
                             f"{MAX_SAMPLES // c.size * c.size}], got {n_samples}")
    _check_noise_variance(noise_variance)
    per_label = -(-n_samples // c.size)  # ceil division
    labels = np.repeat(np.arange(c.size), per_label)
    y = awgn_sample(rng, c.points[labels], noise_variance)
    return per_bit_gmi_from_samples(c, labels, y, noise_variance)


# numpy's hermgauss gives non-finite nodes from order 372 on (numpy 2.4); 256
# serves every power-of-two training batch: 2**15 samples per label are 128 x 256
MAX_HERMITE_ORDER = 256


@functools.lru_cache(maxsize=32)
def gauss_hermite_grid(n1: int, n2: int):
    """The n1 x n2 Gauss-Hermite product grid for complex noise of unit variance.

    Returns (offsets, weights), each of n1 * n2 entries, the second node
    index running fastest: offsets t1 + j t2 over the nodes of hermgauss(n1)
    and hermgauss(n2), and weights w1 w2 / pi, which sum to 1, so that
    E[f(n)] over n with E|n|^2 = v is sum_i weights_i f(sqrt(v) offsets_i).
    An order above MAX_HERMITE_ORDER raises ParameterError. The grid is
    built once per pair of orders and shared, so its arrays are read-only.
    """
    if max(n1, n2) > MAX_HERMITE_ORDER:
        raise ParameterError(f"Gauss-Hermite n_nodes must be <= {MAX_HERMITE_ORDER} per "
                             f"dimension, got {n1} x {n2}")
    (t1, w1), (t2, w2) = hermgauss(n1), hermgauss(n2)
    offsets = (t1[:, None] + 1j * t2[None, :]).ravel()
    weights = (w1[:, None] * w2[None, :]).ravel() / math.pi
    offsets.flags.writeable = weights.flags.writeable = False
    return offsets, weights


def per_bit_gmi_quadrature(c: Constellation, noise_variance: float,
                           n_nodes: int = 48) -> GmiReport:
    """Deterministic per-bit GMI via 2-D Gauss-Hermite quadrature over the noise.

    Integrates per_bit_gmi_mc's per-bit integrand on n_nodes in [1, MAX_HERMITE_ORDER]
    Hermite nodes per noise dimension, for M <= 64: the cost grows as M^2 n_nodes^2.
    n_samples counts the kept product nodes times M; stderr_total is 0.0.
    """
    if c.m > MAX_QUADRATURE_M:
        raise ParameterError(f"quadrature oracle supports M <= {1 << MAX_QUADRATURE_M}, "
                             f"got M = {c.size}")
    _check_noise_variance(noise_variance)
    check_value("n_nodes", "int", n_nodes)
    if n_nodes < 1:
        raise ParameterError(f"n_nodes must be >= 1, got {n_nodes}")
    offsets, w2 = gauss_hermite_grid(n_nodes, n_nodes)
    kept = np.flatnonzero(w2 >= _QUAD_MIN_WEIGHT)  # see the module docstring
    offsets = math.sqrt(noise_variance) * offsets[kept]

    penalty_per_bit = np.zeros(c.m)
    t = np.zeros((c.m, w2.size))
    for label in range(c.size):
        y = c.points[label] + offsets
        t[:, kept] = _bit_penalties(y, c, np.full(offsets.size, label), noise_variance)
        penalty_per_bit += t @ w2
    per_bit = np.clip(1.0 - penalty_per_bit / c.size, 0.0, 1.0)
    return make_report(per_bit, kept.size * c.size, 0.0)


def gmi_oracle_quadrature(c: Constellation, noise_variance: float, n_nodes: int = 48) -> float:
    """per_bit_gmi_quadrature's total, the oracle of Monte-Carlo validation."""
    return per_bit_gmi_quadrature(c, noise_variance, n_nodes).total
