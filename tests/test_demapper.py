"""LLR and GMI estimator tests against closed forms and independent oracles."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite import hermgauss
from scipy.special import expit, logsumexp

import shapegain.demapper as demapper_module
from shapegain import (
    Constellation,
    GmiReport,
    ParameterError,
    NumericalError,
    SnrTarget,
    TrainConfig,
    awgn_sample,
    db_to_linear,
    gmi_oracle_quadrature,
    llr_exact,
    per_bit_gmi_from_samples,
    per_bit_gmi_mc,
    select_dummy_bits,
    train,
    uniform_qam,
)
from shapegain.constellation import MAX_QAM_M, bit_table, labels_from_bits, normalize
from shapegain.demapper import (
    _GEMM_UNTHREADED,
    LLR_CLIP,
    LN2,
    MAX_HERMITE_ORDER,
    MAX_SAMPLES,
    _bit_penalties,
    _iq_rows,
    _loglik,
    _matmul,
    _radii,
    clip_llr,
    gauss_hermite_grid,
    gaussian_bit_metric,
    gaussian_bit_metric_grad,
    logistic,
    make_report,
    per_bit_gmi_quadrature,
)
from shapegain.sweep import SCORE_NODES

# the largest clip the floored exp serves with full precision, see the
# demapper module docstring; the precision tests clip their raw LLRs to it
WIDE_CLIP = 700.0


# ---------------------------------------------------------------- exact LLRs


class TestLlrClosedForms:
    def test_bpsk_matches_4_re_y_over_sigma2(self):
        # L = ln p(y|+1)/p(y|-1) = (|y+1|^2 - |y-1|^2)/s2 = 4 Re(y)/s2
        c = uniform_qam(1)
        rng = np.random.default_rng(42)
        for s2 in (0.5, 1.0, 2.0):
            y = awgn_sample(rng, c.points[rng.integers(0, 2, 10_000)], s2)
            expect = 4.0 * y.real / s2
            keep = np.abs(expect) < 50.0  # stay clear of the clip
            got = llr_exact(y, c, s2)[:, 0]
            np.testing.assert_allclose(got[keep], expect[keep], atol=1e-12, rtol=0)

    def test_qpsk_against_naive_four_term_sum(self):
        c = uniform_qam(2)
        rng = np.random.default_rng(3)
        s2 = 0.8
        y = awgn_sample(rng, c.points[rng.integers(0, 4, 500)], s2)
        bits = c.bits()
        lik = np.exp(-np.abs(y[:, None] - c.points[None, :]) ** 2 / s2)
        for k in range(2):
            naive = np.log(lik[:, bits[:, k] == 0].sum(axis=1)
                           / lik[:, bits[:, k] == 1].sum(axis=1))
            keep = np.abs(naive) < 49.0
            got = llr_exact(y, c, s2)[:, k]
            np.testing.assert_allclose(got[keep], naive[keep], atol=1e-9, rtol=0)

    def test_scalar_input_gives_1d_output(self):
        c = uniform_qam(2)
        out = llr_exact(0.3 + 0.1j, c, 1.0)
        assert out.shape == (2,)
        batch = llr_exact(np.array([0.3 + 0.1j]), c, 1.0)
        np.testing.assert_array_equal(out, batch[0])

    def test_clip_is_respected(self):
        c = uniform_qam(4)
        y = 10.0 * c.points  # far outside: raw LLRs are huge
        out = llr_exact(y, c, 1e-3)
        assert LLR_CLIP == 50.0
        assert np.all(np.abs(out) <= 50.0)
        assert np.any(np.abs(out) == 50.0)

    def test_nonpositive_noise_rejected(self):
        c = uniform_qam(2)
        with pytest.raises(ParameterError):
            llr_exact(0.1 + 0j, c, 0.0)


def _llr_logsumexp_loop(y, c, noise_variance, llr_clip):
    """Reference: one masked log-sum-exp per bit level and hypothesis."""
    ll = -np.abs(y[:, None] - c.points[None, :]) ** 2 / noise_variance
    bits = c.bits()
    out = np.empty((y.size, c.m))
    for k in range(c.m):
        mask0 = bits[:, k] == 0
        out[:, k] = logsumexp(ll[:, mask0], axis=1) - logsumexp(ll[:, ~mask0], axis=1)
    return np.clip(out, -llr_clip, llr_clip)


def _random_constellation(m, rng):
    pts = rng.standard_normal(1 << m) + 1j * rng.standard_normal(1 << m)
    return Constellation(m=m, points=pts / np.sqrt(np.mean(np.abs(pts) ** 2)))


def _floored(p):
    """Whether gaussian_bit_metric took the floored exp, read from its P:
    each column's maximum is 1.0 unshifted and about e^64 floored."""
    top = p.max(axis=0)
    floored = top[0] != 1.0
    if floored:
        np.testing.assert_allclose(top, math.exp(64.0), rtol=1e-9)
    else:
        np.testing.assert_array_equal(top, 1.0)
    return floored


def _emptied(z, m):
    """(m, S) mask of the bit levels with a partition of at most M e^-700,
    which holds every partition whose entries were all clamped to e^-700."""
    empty = z <= (1 << m) * math.exp(-700.0)
    return empty[:m] | empty[m:]


class TestMatrixKernel:
    @pytest.mark.parametrize("labeling", ["gray_qam", "random"])
    @pytest.mark.parametrize("snr_db", [3.0, 17.0, 21.0, 25.0, 30.0, 40.0])
    @pytest.mark.parametrize("m", range(1, MAX_QAM_M + 1))
    def test_matches_logsumexp_loop(self, m, snr_db, labeling):
        rng = np.random.default_rng(1000 * m + int(snr_db))
        c = uniform_qam(m) if labeling == "gray_qam" else _random_constellation(m, rng)
        s2 = 1.0 / db_to_linear(snr_db)
        y = awgn_sample(rng, c.points[rng.integers(0, c.size, 1000)], s2)
        got = llr_exact(y, c, s2)
        np.testing.assert_allclose(got, _llr_logsumexp_loop(y, c, s2, 50.0),
                                   atol=1e-12, rtol=0)
        if snr_db == 40.0:
            raw, (_, z, _) = gaussian_bit_metric(_iq_rows(y), _iq_rows(c.points), s2)
            under = _emptied(z, c.m)
            assert under.any()  # some partition holds only clamped entries
            assert np.isfinite(raw).all()
            assert np.all(np.abs(raw[under]) > WIDE_CLIP)
            np.testing.assert_array_equal(got.T[under], np.sign(raw[under]) * 50.0)

        # far outside the constellation every likelihood underflows unless it
        # is scaled by the row maximum first; log-likelihoods there are large,
        # so the two agree to a few ulps of the nearest one
        far = 3.0 * c.points
        nearest = np.min(np.abs(far[:, None] - c.points) ** 2, axis=1) / s2
        gap = np.abs(llr_exact(far, c, s2) - _llr_logsumexp_loop(far, c, s2, 50.0))
        assert np.all(gap <= 1e-12 + 16 * np.finfo(float).eps * nearest[:, None])

    @pytest.mark.parametrize("snr_db, gemm", [(9.3, True), (40.0, False)])
    def test_form_follows_error_bound(self, snr_db, gemm):
        # Gray 16QAM: eps T is about 1.4e-14 at 9.3 dB and 1.2e-11 at 40 dB;
        # the GEMM form is -|y - x|^2 / s2 plus |y|^2 / s2 in every column
        c = uniform_qam(4)
        rng = np.random.default_rng(7)
        s2 = 1.0 / db_to_linear(snr_db)
        y = awgn_sample(rng, c.points[rng.integers(0, c.size, 1000)], s2)
        dist = np.abs(y - c.points[:, None]) ** 2 / s2
        shift = np.abs(y) ** 2 / s2 if gemm else np.zeros(y.size)
        np.testing.assert_allclose(_loglik(_iq_rows(y), _iq_rows(c.points), s2) + dist,
                                   np.broadcast_to(shift, dist.shape),
                                   rtol=0, atol=1e-12 * dist.max())

    @pytest.mark.parametrize("shape", [(16, 3, 100_000), (100_000, 16, 8), (64, 3000, 3),
                                       (256, 16, 20_000)])
    def test_blocked_matmul_stays_unthreaded(self, shape, monkeypatch):
        n, k, p = shape
        rng = np.random.default_rng(n + p)
        a, b = rng.standard_normal((n, k)), rng.standard_normal((k, p))
        sizes, real = [], np.matmul

        def spy(x, y, out):
            sizes.append(x.shape[0] * x.shape[1] * y.shape[1])
            return real(x, y, out=out)

        monkeypatch.setattr(np, "matmul", spy)
        got, got_t = _matmul(a, b), _matmul(b.T, a.T)
        assert n * k * p > _GEMM_UNTHREADED >= max(sizes)
        assert got.shape == (n, p) and got.flags.c_contiguous
        np.testing.assert_allclose(got, a @ b, rtol=0, atol=1e-13 * k)
        np.testing.assert_allclose(got_t, (a @ b).T, rtol=0, atol=1e-13 * k)

    @pytest.mark.parametrize("snr_db", [3.0, 40.0])
    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_gradient_rows_sum_to_zero(self, m, snr_db):
        # LLRs are unchanged by a common shift of one sample's log-likelihoods,
        # so d loss / d loglik (M, S) sums to zero over the points of every sample
        rng = np.random.default_rng(m)
        c = _random_constellation(m, rng)
        s2 = 1.0 / db_to_linear(snr_db)
        y = awgn_sample(rng, c.points[rng.integers(0, c.size, 500)], s2)
        pairs = rng.integers(0, c.size, (2, 100))  # midpoints keep unclipped LLRs at 40 dB
        y = np.concatenate([y, 0.5 * (c.points[pairs[0]] + c.points[pairs[1]])])
        raw, cache = gaussian_bit_metric(_iq_rows(y), _iq_rows(c.points), s2)
        dllr = rng.standard_normal(raw.shape)
        dllr[np.abs(raw) > 50.0] = 0.0
        da = gaussian_bit_metric_grad(dllr, cache)
        assert np.all(np.abs(da.sum(axis=0)) <= 1e-13 * (1.0 + np.abs(da).sum(axis=0)))
        assert np.any(da != 0.0)

    def test_floored_exp_keeps_large_llrs_accurate(self):
        # 256QAM at 35 dB, samples spread over the square the points span:
        # every block takes the floored exp (spread bound far above 700), and
        # LLRs of magnitude 600-700 are the ones whose small partition sums
        # likelihoods 600-764 below the largest
        c = uniform_qam(8)
        rng = np.random.default_rng(8)
        s2 = 1.0 / db_to_linear(35.0)
        y = rng.uniform(-1.2, 1.2, 20_000) + 1j * rng.uniform(-1.2, 1.2, 20_000)
        ref = _llr_logsumexp_loop(y, c, s2, WIDE_CLIP)
        large = (np.abs(ref) >= 600.0) & (np.abs(ref) <= 700.0)
        rows = large.any(axis=1)
        assert large.sum() >= 1000
        reach = np.abs(y).max() + np.abs(c.points).max()
        assert reach ** 2 / s2 > WIDE_CLIP
        raw, _ = gaussian_bit_metric(_iq_rows(y[rows]), _iq_rows(c.points), s2)
        got = np.clip(raw, -WIDE_CLIP, WIDE_CLIP).T
        np.testing.assert_allclose(got, ref[rows], atol=1e-12, rtol=0)

    @pytest.mark.parametrize("m, snr_db", [(2, 3.0), (4, 9.3), (6, 15.0)])
    def test_small_spread_block_is_unshifted(self, m, snr_db):
        # spread bound (max|y| + max|x|)^2 / s2 <= 700: exp(l - column max)
        # exactly, as before the floored exp existed
        c = uniform_qam(m)
        rng = np.random.default_rng(m)
        s2 = 1.0 / db_to_linear(snr_db)
        y = _iq_rows(awgn_sample(rng, c.points[rng.integers(0, c.size, 2000)], s2))
        x = _iq_rows(c.points)
        reach = np.hypot(*y).max() + np.hypot(*x).max()
        assert reach ** 2 / s2 <= WIDE_CLIP
        l = _loglik(y, x, s2)
        _, (p, *_) = gaussian_bit_metric(y, x, s2)
        np.testing.assert_array_equal(p, np.exp(l - l.max(axis=0)))

    @pytest.mark.parametrize("m, snr_db", [(m, s) for m in range(1, 7)
                                           for s in (0.0, 5.0, 10.0, 15.0)]
                             + [(1, 20.0), (2, 20.0), (4, 40.0), (8, 21.0)])
    def test_unshifted_block_divides_without_mask(self, m, snr_db):
        # the last two cases take the floored exp, and at 40 dB some of
        # their partitions hold only clamped entries, all of whose LLRs lie
        # beyond the clip; every partition is at least e^-700. With zeros
        # on the clipped entries, the division without a mask gives the
        # bits of the masked division, signed zeros included
        c = uniform_qam(m)
        rng = np.random.default_rng(50 + m)
        s2 = 1.0 / db_to_linear(snr_db)
        y = awgn_sample(rng, c.points[rng.integers(0, c.size, 1000)], s2)
        raw, cache = gaussian_bit_metric(_iq_rows(y), _iq_rows(c.points), s2)
        p, z, w = cache
        assert _floored(p) == (snr_db > 20.0)
        assert _emptied(z, m).any() == (snr_db == 40.0)
        dllr = rng.standard_normal(raw.shape)
        dllr[:, ::5] = 0.0
        dllr[:, 1::5] = -0.0
        dllr[np.abs(raw) > 50.0] = 0.0  # as the clipped entries are
        a = np.concatenate([dllr, -dllr])
        np.divide(a, z, out=a, where=a != 0)
        masked = _matmul(w, a)
        masked *= p
        assert gaussian_bit_metric_grad(dllr, cache).tobytes() == masked.tobytes()


# I or Q components of magnitude 1e-150 to 1e150, either sign: their squares
# are normal doubles
_COMPONENT = st.builds(lambda mag, negative: -mag if negative else mag,
                       st.floats(1e-150, 1e150), st.booleans())
_IQ_ROWS = st.lists(st.tuples(_COMPONENT, _COMPONENT), min_size=1, max_size=40).map(
    lambda pairs: np.array(pairs).T.copy())


class TestRadii:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(y=_IQ_ROWS, x=_IQ_ROWS)
    def test_within_four_ulp_of_hypot(self, y, x):
        for got, rows in zip(_radii(y, x), (y, x)):
            want = np.hypot(rows[0], rows[1]).max()
            assert abs(got - want) <= 4 * np.spacing(want)

    def test_overflow_selects_subtraction_form_and_floored_exp(self):
        # one sample whose squared norm overflows: hypot gives 1e155, the
        # radius inf, which must select the forms that hold for any input
        c = uniform_qam(4)
        rng = np.random.default_rng(11)
        s2 = 1.0 / db_to_linear(9.3)
        y = awgn_sample(rng, c.points[rng.integers(0, c.size, 200)], s2)
        y[0] = 1e155
        y, x = _iq_rows(y), _iq_rows(c.points)
        assert np.hypot(*y).max() == 1e155
        # the far sample's squares overflow, as its distances do in the
        # subtraction form, and its log-likelihoods, all -inf, leave NaN
        with np.errstate(over="ignore", invalid="ignore"):
            assert _radii(y, x)[0] == math.inf
            dist = (x[0][:, None] - y[0]) ** 2 + (x[1][:, None] - y[1]) ** 2
            np.testing.assert_array_equal(_loglik(y, x, s2), dist / -s2)
            _, (p, _, _) = gaussian_bit_metric(y, x, s2)
        assert np.isnan(p[:, 0]).all()
        assert _floored(p[:, 1:])


class TestClipLlr:
    """clip_llr, the one clip of training, llr_exact and both GMI estimators."""

    @pytest.mark.parametrize("shape", [(2, 5), (3, 0)], ids=["in-range", "empty"])
    def test_llrs_within_the_clip_are_returned_themselves(self, shape):
        llr = np.linspace(-LLR_CLIP, LLR_CLIP, math.prod(shape)).reshape(shape)
        assert clip_llr(llr) is llr

    def test_clipped_llrs_are_a_new_array_of_the_clipped_bytes(self):
        llr = np.array([[-700.0, -50.0, -1e-300], [49.9, 50.0 + 1e-12, 1e308]])
        before = llr.copy()
        out = clip_llr(llr)
        assert out is not llr
        assert out.tobytes() == np.clip(before, -LLR_CLIP, LLR_CLIP).tobytes()
        np.testing.assert_array_equal(llr, before)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("other", [0.0, 700.0], ids=["within", "beyond"])
    def test_non_finite_llr_is_numerical_error(self, bad, other):
        with pytest.raises(NumericalError, match="^non-finite values in llr$"):
            clip_llr(np.array([[other, bad], [1.0, -2.0]]))

    def test_nan_sample_is_numerical_error_in_llr_exact(self):
        c = uniform_qam(4)
        with pytest.raises(NumericalError):
            llr_exact(complex(math.nan, 0.0), c, 0.5)
        with pytest.raises(NumericalError):
            llr_exact(np.array([0.1, math.nan, 0.3j]), c, 0.5)

    def test_nan_sample_is_numerical_error_in_the_monte_carlo_estimate(self):
        c = uniform_qam(2)
        y = c.points.copy()
        y[2] = complex(0.0, math.nan)
        with pytest.raises(NumericalError):
            per_bit_gmi_from_samples(c, np.arange(c.size), y, 0.5)

    def test_overflowing_noise_is_numerical_error_in_the_oracle(self):
        # offsets of 1e154 and more: their squared distances overflow, and
        # every log-likelihood of such a node is -inf, its LLRs NaN
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError):
                gmi_oracle_quadrature(uniform_qam(2), 1e308)

    def test_empty_batch_gives_no_llrs(self):
        assert llr_exact(np.zeros(0, dtype=complex), uniform_qam(3), 0.5).shape == (0, 3)


class TestLogisticKernel:
    # the bound was set before the kernel was written: 4 eps relative
    BOUND = 4 * np.finfo(float).eps

    def _z(self):
        # 1 + exp(-|z|) starts to round to 1 between |z| = 36.7 and 36.8
        special = [0.0, -0.0, 1e-300, -1e-300, 36.7, -36.7, 36.75, -36.75, 36.8, -36.8]
        return np.concatenate([np.linspace(-700.0, 700.0, 140_001), special])

    def test_softplus_matches_logaddexp(self):
        z = self._z()
        ref = np.logaddexp(0.0, z) / LN2
        rel = np.abs(logistic(z)[0] - ref) / ref
        assert rel.max() <= self.BOUND

    def test_sigmoid_matches_expit(self):
        z = self._z()
        ref = expit(z)
        rel = np.abs(logistic(z)[1] - ref) / ref
        assert rel.max() <= self.BOUND

    def test_exact_values(self):
        sp, sig = logistic(np.array([0.0, 1e-300, -1e-300]))
        np.testing.assert_array_equal(sig, 0.5)
        np.testing.assert_array_equal(sp, 1.0)

    def test_clip_limits_are_finite_and_exact(self):
        # every caller keeps |z| <= LLR_CLIP, and the kernel holds up to
        # |z| = 700, where exp(z) is still a normal double
        clip = WIDE_CLIP
        sp, sig = logistic(np.array([clip, -clip]))
        assert np.all(np.isfinite(sp)) and np.all(np.isfinite(sig))
        assert sp[0] == clip / LN2 and sig[0] == 1.0
        tail = np.exp(-clip)
        assert sp[1] == tail / LN2 and sig[1] == tail

    def test_shape_preserved_and_input_untouched(self):
        z = np.linspace(-5.0, 5.0, 12).reshape(3, 4)
        before = z.copy()
        sp, sig = logistic(z)
        assert sp.shape == sig.shape == (3, 4)
        np.testing.assert_array_equal(z, before)


# ------------------------------------------------------------- GMI estimates


class TestMonteCarloGmi:
    @pytest.mark.parametrize("n", [MAX_SAMPLES + 1, 10 ** 400])
    def test_sample_cap(self, n):
        # rejected before the generator is touched, so nothing is drawn
        with pytest.raises(ParameterError, match="n_samples"):
            per_bit_gmi_mc(uniform_qam(2), 0.1, n, rng=None)

    def test_sample_cap_counts_the_rounded_samples(self):
        # 10**7 rounds up to 10,000,128 samples at M = 256
        with pytest.raises(ParameterError, match=r"^n_samples must be in \[M = 256, 9999872\]"):
            per_bit_gmi_mc(uniform_qam(8), 0.1, MAX_SAMPLES, rng=None)

    def test_qpsk_matches_quadrature_oracle(self):
        c = uniform_qam(2)
        s2 = 1.0 / db_to_linear(6.0)
        oracle = gmi_oracle_quadrature(c, s2)
        rep = per_bit_gmi_mc(c, s2, 200_000, np.random.default_rng(10))
        assert abs(rep.total - oracle) < max(0.02, 3.0 * rep.stderr_total)

    def test_16qam_matches_quadrature_oracle(self):
        c = uniform_qam(4)
        s2 = 1.0 / db_to_linear(8.0)
        oracle = gmi_oracle_quadrature(c, s2)
        rep = per_bit_gmi_mc(c, s2, 120_000, np.random.default_rng(11))
        assert abs(rep.total - oracle) < max(0.02, 3.0 * rep.stderr_total)

    def test_high_snr_approaches_m_bits(self):
        c = uniform_qam(4)
        s2 = 1.0 / db_to_linear(30.0)
        assert gmi_oracle_quadrature(c, s2) == pytest.approx(4.0, abs=1e-3)

    def test_huge_noise_gives_near_zero(self):
        c = uniform_qam(2)
        rep = per_bit_gmi_mc(c, 1e6, 20_000, np.random.default_rng(12))
        assert rep.total < 0.01
        assert np.all(rep.per_bit >= 0.0)  # clip keeps estimates in [0, 1]

    def test_stratification_rounds_up_to_label_multiple(self):
        c = uniform_qam(2)
        rep = per_bit_gmi_mc(c, 1.0, 5, np.random.default_rng(0))
        assert rep.n_samples == 8  # ceil(5/4) * 4
        rep = per_bit_gmi_mc(c, 1.0, 8, np.random.default_rng(0))
        assert rep.n_samples == 8

    def test_deterministic_under_fixed_rng_seed(self):
        c = uniform_qam(3)
        a = per_bit_gmi_mc(c, 0.5, 10_000, np.random.default_rng(5))
        b = per_bit_gmi_mc(c, 0.5, 10_000, np.random.default_rng(5))
        np.testing.assert_array_equal(a.per_bit, b.per_bit)
        assert a.stderr_total == b.stderr_total

    def test_requested_samples_below_m_rejected(self):
        with pytest.raises(ParameterError):
            per_bit_gmi_mc(uniform_qam(4), 1.0, 15, np.random.default_rng(0))

    def test_nonpositive_noise_rejected(self):
        with pytest.raises(ParameterError):
            per_bit_gmi_mc(uniform_qam(2), 0.0, 100, np.random.default_rng(0))


class TestFromSamples:
    def test_bit_reversal_permutes_per_bit_values(self):
        """Relabeling that permutes the bit positions permutes the per-bit
        GMI alike, on the same draws, and keeps the quadrature total:
        reversing the bit order reverses the values, and swapping two
        positions swaps their two values.

        Catches the bit-1 partitions taken in reversed bit order
        (`bits[:, ::-1]` for the second `bits` in `partition_weights`).
        """
        rng16 = np.random.default_rng(16)
        random16 = normalize(Constellation(4, rng16.standard_normal(16)
                                           + 1j * rng16.standard_normal(16)))
        # (constellation, order): new bit k is old bit order[k]
        cases = [(uniform_qam(3), [2, 1, 0]), (random16, [3, 2, 1, 0]),
                 (uniform_qam(4), [2, 1, 0, 3]), (uniform_qam(6), [0, 4, 2, 3, 1, 5])]
        for c, order in cases:
            # old label i is new label relabel[i], at the same point
            relabel = labels_from_bits(bit_table(c.m)[:, order])
            points = np.empty_like(c.points)
            points[relabel] = c.points
            c_perm = Constellation(c.m, points)
            rng = np.random.default_rng(21)
            labels = rng.integers(0, c.size, 6000)
            y = awgn_sample(rng, c.points[labels], 0.7)
            a = per_bit_gmi_from_samples(c, labels, y, 0.7)
            b = per_bit_gmi_from_samples(c_perm, relabel[labels], y, 0.7)
            np.testing.assert_allclose(b.per_bit, a.per_bit[order], atol=1e-12, rtol=0)
            assert abs(gmi_oracle_quadrature(c_perm, 0.7)
                       - gmi_oracle_quadrature(c, 0.7)) <= 1e-12

    def test_chunk_boundary_is_seamless(self):
        # spans the internal 32768-sample chunk edge
        c = uniform_qam(1)
        rng = np.random.default_rng(31)
        labels = rng.integers(0, 2, 32_769)
        y = awgn_sample(rng, c.points[labels], 1.0)
        rep = per_bit_gmi_from_samples(c, labels, y, 1.0)
        assert rep.n_samples == 32_769
        assert 0.0 <= rep.total <= 1.0

    def test_shape_mismatch_rejected(self):
        c = uniform_qam(2)
        with pytest.raises(ParameterError):
            per_bit_gmi_from_samples(c, np.zeros(4, int), np.zeros(5, complex), 1.0)

    @pytest.mark.parametrize("noise_variance", [0.0, -1.0, math.nan])
    def test_nonpositive_noise_rejected(self, noise_variance):
        c = uniform_qam(2)
        with pytest.raises(ParameterError):
            per_bit_gmi_from_samples(c, np.zeros(4, int), np.zeros(4, complex), noise_variance)

    @pytest.mark.parametrize("labels, message", [
        (np.array([-1]), "labels must be integers"), (np.array([4]), "labels must be integers"),
        (np.array([0.5]), "labels must be integers"), (np.zeros(0, int), "at least one sample")],
        ids=["-1", "M", "0.5", "empty"])
    def test_bad_labels_rejected(self, labels, message):
        with pytest.raises(ParameterError, match=message):
            per_bit_gmi_from_samples(uniform_qam(2), labels, np.full(labels.shape, 0.1 + 0j), 0.5)


class TestQuadratureOracle:
    def test_refuses_large_constellations(self):
        with pytest.raises(ParameterError,
                           match="^quadrature oracle supports M <= 64, got M = 128$"):
            gmi_oracle_quadrature(uniform_qam(7), 1.0)

    @pytest.mark.parametrize("n_nodes", [0, -3, 2.5, True, "48"],
                             ids=["0", "-3", "2.5", "True", "str"])
    def test_bad_node_count_rejected(self, n_nodes):
        with pytest.raises(ParameterError, match="n_nodes"):
            gmi_oracle_quadrature(uniform_qam(2), 0.5, n_nodes=n_nodes)

    def test_order_beyond_the_hermite_cap_rejected(self):
        # numpy's hermgauss gives non-finite nodes from order 372 on
        with pytest.raises(ParameterError, match=r"^Gauss-Hermite n_nodes must be <= 256 per "
                                                 r"dimension, got 257 x 257$"):
            gmi_oracle_quadrature(uniform_qam(2), 0.5, n_nodes=MAX_HERMITE_ORDER + 1)
        with pytest.raises(ParameterError, match="8 x 401"):
            gauss_hermite_grid(8, 401)
        assert math.isfinite(gmi_oracle_quadrature(uniform_qam(2), 0.5,
                                                   n_nodes=MAX_HERMITE_ORDER))

    def test_converged_in_node_count(self):
        c = uniform_qam(4)
        s2 = 1.0 / db_to_linear(10.0)
        a = gmi_oracle_quadrature(c, s2, n_nodes=48)
        b = gmi_oracle_quadrature(c, s2, n_nodes=96)
        assert abs(a - b) < 1e-6

    @pytest.mark.parametrize("clip", [50.0, 700.0])
    @pytest.mark.parametrize("snr_db", [0.0, 9.3, 40.0])
    @pytest.mark.parametrize("m", [1, 2, 4, 6])
    def test_pruned_grid_equals_full_grid(self, m, snr_db, clip, monkeypatch):
        # the oracle skips product nodes of weight below 1e-21 (2.1e-20 of
        # the mass at 48 nodes); the full 48 x 48 grid, summed here. Clip 700,
        # the exp floor's bound, is the oracle's LLR_CLIP raised to where the
        # dropped nodes' penalties are largest
        monkeypatch.setattr(demapper_module, "LLR_CLIP", clip)
        c = uniform_qam(m)
        s2 = 1.0 / db_to_linear(snr_db)
        nodes, weights = hermgauss(48)
        offsets = math.sqrt(s2) * (nodes[:, None] + 1j * nodes[None, :]).ravel()
        w2 = (weights[:, None] * weights[None, :]).ravel() / math.pi
        penalty = np.zeros(c.m)
        for label in range(c.size):
            t = _bit_penalties(c.points[label] + offsets, c, np.full(offsets.size, label), s2)
            penalty += t @ w2
        full = float(np.clip(1.0 - penalty / c.size, 0.0, 1.0).sum())
        assert gmi_oracle_quadrature(c, s2) == pytest.approx(full, abs=1e-16)

    @pytest.mark.parametrize("n1, n2", [(8, 8), (8, 12), (48, 48)])
    def test_grid_is_the_hermite_product(self, n1, n2):
        # the grid shared by the oracle and the training batch: the second
        # node index runs fastest
        offsets, weights = gauss_hermite_grid(n1, n2)
        (t1, w1), (t2, w2) = hermgauss(n1), hermgauss(n2)
        np.testing.assert_array_equal(offsets.real, np.repeat(t1, n2))
        np.testing.assert_array_equal(offsets.imag, np.tile(t2, n1))
        np.testing.assert_array_equal(weights, np.outer(w1, w2).ravel() / math.pi)
        assert weights.sum() == pytest.approx(1.0, abs=1e-14)
        # unit complex variance: E|t1 + j t2|^2 = 1
        assert weights @ np.abs(offsets) ** 2 == pytest.approx(1.0, abs=1e-14)
        # built once per pair of orders and shared, so no caller may write into it
        again = gauss_hermite_grid(n1, n2)
        assert again[0] is offsets and again[1] is weights
        assert not offsets.flags.writeable and not weights.flags.writeable

    def test_qpsk_equals_twice_bpsk(self):
        # QPSK is two orthogonal BPSKs at half the per-dimension energy
        s2 = 0.5
        qpsk = gmi_oracle_quadrature(uniform_qam(2), s2)
        bpsk = gmi_oracle_quadrature(uniform_qam(1), 2.0 * s2)
        assert qpsk == pytest.approx(2.0 * bpsk, abs=1e-9)



# gmi_oracle_quadrature at 9.3 dB, Gray m = 1..6, as the oracle gave it
# before it became the total of per_bit_gmi_quadrature's report
_ORACLE_AT_9_3_DB = {1: 0.9999212283348873, 2: 1.9855324596206179, 3: 2.574936944790948,
                     4: 2.9979202646993137, 5: 2.7537098983921213, 6: 2.958691729181089}


class TestPerBitQuadrature:
    @pytest.mark.parametrize("m", range(1, 7))
    def test_total_is_the_oracle_bit_for_bit(self, m):
        s2 = 1.0 / db_to_linear(9.3)
        report = per_bit_gmi_quadrature(uniform_qam(m), s2)
        assert report.total == gmi_oracle_quadrature(uniform_qam(m), s2) == _ORACLE_AT_9_3_DB[m]

    def test_trained_constellation_is_the_oracle_and_agrees_with_monte_carlo(self):
        c, _ = train(TrainConfig(m=3, target=SnrTarget(8.0), iterations=40, batch_symbols=64,
                                 seed=1))
        s2 = 1.0 / db_to_linear(8.0)
        report = per_bit_gmi_quadrature(c, s2)
        assert report.total == gmi_oracle_quadrature(c, s2) == 2.3775130153696233
        mc = per_bit_gmi_mc(c, s2, 100_000, np.random.default_rng(3))
        assert np.abs(report.per_bit - mc.per_bit).max() <= 4.0 * mc.stderr_total

    @pytest.mark.parametrize("m, snr_db", [(2, 3.0), (3, 7.0), (4, 10.0), (5, 13.0),
                                           (6, 16.0)])
    def test_each_level_within_4_stderr_of_monte_carlo(self, m, snr_db):
        c = uniform_qam(m)
        s2 = 1.0 / db_to_linear(snr_db)
        mc = per_bit_gmi_mc(c, s2, 100_000, np.random.default_rng(m))
        gap = np.abs(per_bit_gmi_quadrature(c, s2).per_bit - mc.per_bit)
        assert gap.max() <= 4.0 * mc.stderr_total, (gap, mc.stderr_total)

    def test_node_counts_are_converged_per_level(self):
        # the sweep's SCORE_NODES and the default 48 against 96 nodes, Gray
        # QAM m = 1..6 at 0-30 dB in 2 dB steps; on a 0.25 dB grid the worst
        # levels lie 4.4e-5 and 7.3e-6 bits off, near 18 dB at m = 5
        worst = {SCORE_NODES: 0.0, 48: 0.0}
        for m in range(1, 7):
            for snr_db in range(0, 31, 2):
                s2 = 1.0 / db_to_linear(snr_db)
                ref = per_bit_gmi_quadrature(uniform_qam(m), s2, 96).per_bit
                for n in worst:
                    gap = np.abs(per_bit_gmi_quadrature(uniform_qam(m), s2, n).per_bit - ref)
                    worst[n] = max(worst[n], float(gap.max()))
        assert worst[SCORE_NODES] <= 1e-4 and worst[48] <= 2e-5, worst

    @pytest.mark.parametrize("n_nodes, kept", [(SCORE_NODES, 776), (48, 1224)])
    def test_report_counts_nodes_and_round_trips(self, n_nodes, kept):
        report = per_bit_gmi_quadrature(uniform_qam(3), 0.3, n_nodes)
        assert (report.m, report.n_samples, report.stderr_total) == (3, kept * 8, 0.0)
        back = GmiReport.from_dict(json.loads(report.to_json()))
        np.testing.assert_array_equal(back.per_bit, report.per_bit)
        assert (back.n_samples, back.stderr_total) == (report.n_samples, 0.0)

    def test_refuses_large_constellations(self):
        with pytest.raises(ParameterError,
                           match="^quadrature oracle supports M <= 64, got M = 128$"):
            per_bit_gmi_quadrature(uniform_qam(7), 1.0)

_NOISE_VARIANCE_ENTRY_POINTS = {
    "llr_exact": lambda nv: llr_exact(0.1 + 0j, uniform_qam(2), nv),
    "per_bit_gmi_mc": lambda nv: per_bit_gmi_mc(uniform_qam(2), nv, 100,
                                                np.random.default_rng(0)),
    "per_bit_gmi_from_samples": lambda nv: per_bit_gmi_from_samples(
        uniform_qam(2), np.arange(4), np.full(4, 0.1 + 0j), nv),
    "gmi_oracle_quadrature": lambda nv: gmi_oracle_quadrature(uniform_qam(2), nv),
}


@pytest.mark.parametrize("noise_variance", [math.inf, math.nan, 0.0, -1.0])
@pytest.mark.parametrize("entry", list(_NOISE_VARIANCE_ENTRY_POINTS))
def test_noise_variance_must_be_finite_and_positive(entry, noise_variance):
    with pytest.raises(ParameterError, match="^noise_variance must be finite and positive"):
        _NOISE_VARIANCE_ENTRY_POINTS[entry](noise_variance)


@pytest.mark.parametrize("call, match", [
    (lambda: per_bit_gmi_mc(uniform_qam(2), 0.5, 2.5, np.random.default_rng(0)),
     "n_samples must be an integer"),
    (lambda: select_dummy_bits(make_report(np.array([0.9, 0.5]), 64, 0.0), 1.5, 0.75),
     "n_d must be an integer"),
    (lambda: awgn_sample(np.random.default_rng(0), 0.0, math.nan), "noise_variance"),
    (lambda: awgn_sample(np.random.default_rng(0), 0.0, math.inf), "noise_variance"),
], ids=["mc-fractional-samples", "fractional-dummy-count", "awgn-nan", "awgn-inf"])
def test_library_counts_and_variances_are_checked(call, match):
    with pytest.raises(ParameterError, match=match):
        call()


# ------------------------------------------------------------------- reports


class TestGmiReport:
    def _report(self):
        return make_report(np.array([0.9, 0.5, 0.25]), 4000, 0.003)

    def test_dual_pol_duplicates_single_pol(self):
        rep = self._report()
        assert rep.m == 3
        assert rep.total == pytest.approx(1.65)
        np.testing.assert_array_equal(rep.per_bit_dualpol[:3], rep.per_bit)
        np.testing.assert_array_equal(rep.per_bit_dualpol[3:], rep.per_bit)
        assert rep.total_dualpol == pytest.approx(2 * rep.total)

    def test_json_round_trip(self):
        rep = self._report()
        back = GmiReport.from_dict(json.loads(rep.to_json()))
        np.testing.assert_array_equal(back.per_bit, rep.per_bit)
        np.testing.assert_array_equal(back.per_bit_dualpol, rep.per_bit_dualpol)
        assert back.total == rep.total
        assert back.n_samples == rep.n_samples
        assert back.stderr_total == rep.stderr_total

    def test_malformed_dict_rejected(self):
        with pytest.raises(ParameterError):
            GmiReport.from_dict({"per_bit": [0.5]})

    @pytest.mark.parametrize("field, value", [
        ("per_bit_dualpol", [0.9, 0.5, 0.25, 0.9, 0.5]),      # not 2 * m long
        ("per_bit", [0.9, float("nan"), 0.25]),
        ("per_bit_dualpol", [0.9, 0.5, 0.25, 0.9, 1.5, 0.25]),
        ("per_bit", [0.9, -0.1, 0.25]),
        ("per_bit", [[0.9, 0.5, 0.25]]),
        ("per_bit", ["high", "low", "low"]),
        ("n_samples", float("inf")),
        ("n_samples", 3.9),
        ("n_samples", -7),
        ("total", "1.7"),
        ("total_dualpol", True),
        ("total", float("nan")),
        ("stderr_total", float("inf")),
        ("stderr_total", -0.1),
        ("per_bit", [0.9, True, 0.25]),
        ("extra", 1),
        ("total", 1.6),                                        # not sum(per_bit)
        ("total_dualpol", 3.29),                               # not 2 * total
        # make_report writes per_bit twice; adapt plans from this field
        ("per_bit_dualpol", [0.9, 0.5, 0.25, 0.1, 0.2, 0.3]),
        ("per_bit_dualpol", [0.25, 0.5, 0.9, 0.9, 0.5, 0.25]),  # same sum, reordered
    ], ids=[  # the ids pytest generated before they were pinned; a new case gets its own
        "per_bit_dualpol-value0", "per_bit-value1", "per_bit_dualpol-value2", "per_bit-value3",
        "per_bit-value4", "per_bit-value5", "n_samples-inf", "n_samples-3.9", "n_samples--7",
        "total-1.7", "total_dualpol-True", "total-nan", "stderr_total-inf",
        "stderr_total--0.1", "per_bit-value14", "extra-1", "total-1.6", "total_dualpol-3.29",
        "per_bit_dualpol-asymmetric", "per_bit_dualpol-reordered"])
    def test_inconsistent_values_rejected(self, field, value):
        doc = self._report().to_dict()
        doc[field] = value
        with pytest.raises(ParameterError):
            GmiReport.from_dict(doc)

    def test_stderr_scales_like_inverse_sqrt_samples(self):
        c = uniform_qam(2)
        small = per_bit_gmi_mc(c, 1.0, 4_000, np.random.default_rng(1))
        large = per_bit_gmi_mc(c, 1.0, 64_000, np.random.default_rng(1))
        ratio = small.stderr_total / large.stderr_total
        assert ratio == pytest.approx(math.sqrt(16.0), rel=0.2)
