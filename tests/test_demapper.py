"""LLR and GMI estimator tests against closed forms and independent oracles."""

import json
import math

import numpy as np
import pytest
from scipy.special import expit, logsumexp

from shapegain import (
    Constellation,
    GmiReport,
    ParameterError,
    CapabilityError,
    awgn_sample,
    db_to_linear,
    gmi_oracle_quadrature,
    llr_exact,
    per_bit_gmi_from_samples,
    per_bit_gmi_mc,
    uniform_qam,
)
from shapegain.demapper import (
    _GEMM_UNTHREADED,
    LN2,
    _loglik,
    _matmul,
    gaussian_bit_metric,
    gaussian_bit_metric_grad,
    logistic,
    make_report,
)


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
        out = llr_exact(y, c, 1e-3, llr_clip=50.0)
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


class TestMatrixKernel:
    @pytest.mark.parametrize("labeling", ["gray_qam", "random"])
    @pytest.mark.parametrize("snr_db", [3.0, 17.0, 21.0, 25.0, 30.0, 40.0])
    @pytest.mark.parametrize("m", range(1, 9))
    def test_matches_logsumexp_loop(self, m, snr_db, labeling):
        rng = np.random.default_rng(1000 * m + int(snr_db))
        c = uniform_qam(m) if labeling == "gray_qam" else _random_constellation(m, rng)
        s2 = 1.0 / db_to_linear(snr_db)
        y = awgn_sample(rng, c.points[rng.integers(0, c.size, 1000)], s2)
        got = llr_exact(y, c, s2)
        np.testing.assert_allclose(got, _llr_logsumexp_loop(y, c, s2, 50.0),
                                   atol=1e-12, rtol=0)
        if snr_db == 40.0:
            raw, _ = gaussian_bit_metric(y, c.points, c.bits(), s2)
            under = np.isinf(raw)
            assert under.any()  # some partition underflowed to zero
            np.testing.assert_array_equal(got[under], np.sign(raw[under]) * 50.0)

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
        np.testing.assert_allclose(_loglik(y, c.points, s2) + dist,
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
        raw, cache = gaussian_bit_metric(y, c.points, c.bits(), s2)
        dllr = rng.standard_normal(raw.shape)
        dllr[np.abs(raw) > 50.0] = 0.0
        da = gaussian_bit_metric_grad(dllr, cache)
        assert np.all(np.abs(da.sum(axis=0)) <= 1e-13 * (1.0 + np.abs(da).sum(axis=0)))
        assert np.any(da != 0.0)

    def test_clip_limit(self):
        c = uniform_qam(2)
        assert llr_exact(0.1 + 0j, c, 1e-3, llr_clip=700.0).shape == (2,)
        for bad in (0.0, -1.0, 701.0):
            with pytest.raises(ParameterError):
                llr_exact(0.1 + 0j, c, 1.0, llr_clip=bad)


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

    def test_shape_preserved_and_input_untouched(self):
        z = np.linspace(-5.0, 5.0, 12).reshape(3, 4)
        before = z.copy()
        sp, sig = logistic(z)
        assert sp.shape == sig.shape == (3, 4)
        np.testing.assert_array_equal(z, before)


# ------------------------------------------------------------- GMI estimates


class TestMonteCarloGmi:
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
        """Relabeling that reverses bit order reverses the per-bit GMI."""
        c = uniform_qam(3)
        m = c.m
        rev = np.array([int(format(i, f"0{m}b")[::-1], 2) for i in range(c.size)])
        c_rev = type(c)(points=c.points[rev], m=m, metadata={})
        rng = np.random.default_rng(21)
        labels = rng.integers(0, c.size, 6000)
        y = awgn_sample(rng, c.points[labels], 0.7)
        a = per_bit_gmi_from_samples(c, labels, y, 0.7)
        # same transmitted points, bit-reversed labels against reindexed table
        b = per_bit_gmi_from_samples(c_rev, rev.argsort()[labels], y, 0.7)
        np.testing.assert_allclose(b.per_bit, a.per_bit[::-1], atol=1e-12, rtol=0)

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


class TestQuadratureOracle:
    def test_refuses_large_constellations(self):
        with pytest.raises(CapabilityError):
            gmi_oracle_quadrature(uniform_qam(7), 1.0)

    def test_converged_in_node_count(self):
        c = uniform_qam(4)
        s2 = 1.0 / db_to_linear(10.0)
        a = gmi_oracle_quadrature(c, s2, n_nodes=48)
        b = gmi_oracle_quadrature(c, s2, n_nodes=96)
        assert abs(a - b) < 1e-6

    def test_qpsk_equals_twice_bpsk(self):
        # QPSK is two orthogonal BPSKs at half the per-dimension energy
        s2 = 0.5
        qpsk = gmi_oracle_quadrature(uniform_qam(2), s2)
        bpsk = gmi_oracle_quadrature(uniform_qam(1), 2.0 * s2)
        assert qpsk == pytest.approx(2.0 * bpsk, abs=1e-9)


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
    ])
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
