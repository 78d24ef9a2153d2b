import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from shapegain.channel import (
    EffectiveChannel,
    LinkConfig,
    awgn_sample,
    db_to_linear,
    effective_snr,
    linear_to_db,
    nlin_factor,
    noise_variance_from_db,
    optimal_launch_power,
)
from shapegain.constellation import moments, uniform_qam
from shapegain.errors import NumericalError, ParameterError


def link(**kw):
    base = dict(n_spans=10, ase_var_per_span=0.004, chi1=0.3, chi2=0.1)
    base.update(kw)
    return LinkConfig(**base)


QPSK_MOM = moments(uniform_qam(2))
QAM16_MOM = moments(uniform_qam(4))
_UNBOUNDED = r"^eta\(mom\) <= 0: SNR grows without bound in launch power$"


class TestDbConversions:
    def test_round_trip(self):
        assert linear_to_db(db_to_linear(7.3)) == pytest.approx(7.3, abs=1e-12)

    def test_known_values(self):
        assert db_to_linear(10.0) == pytest.approx(10.0)
        assert db_to_linear(3.0) == pytest.approx(1.9952623149688795)
        assert linear_to_db(2.0) == pytest.approx(3.0102999566398120)

    def test_nonpositive_rejected(self):
        with pytest.raises(ParameterError):
            linear_to_db(0.0)

    def test_noise_variance_is_inverse_linear_snr(self):
        assert noise_variance_from_db(7.3) == 1.0 / db_to_linear(7.3)

    @pytest.mark.parametrize("snr_db", [1e6, -1e308, math.inf, -math.inf, math.nan])
    def test_noise_variance_out_of_range_rejected(self, snr_db):
        with pytest.raises(ParameterError, match=r"^--snr-db .* is out of range$"):
            noise_variance_from_db(snr_db, "--snr-db")


class TestNlinFactor:
    def test_constant_modulus_drops_kurtosis_term(self):
        lk = link(chi1=0.5, chi2=0.2, chi3=0.0)
        # mu4_hat = 1 for QPSK: eta = chi1 + chi2 * (1 - 2)
        assert nlin_factor(lk, QPSK_MOM) == pytest.approx(0.3)

    def test_16qam_larger_than_qpsk(self):
        lk = link(chi1=0.3, chi2=0.1)
        assert nlin_factor(lk, QAM16_MOM) > nlin_factor(lk, QPSK_MOM)
        # difference is chi2 * (1.32 - 1.0)
        assert nlin_factor(lk, QAM16_MOM) - nlin_factor(lk, QPSK_MOM) == pytest.approx(0.032)

    def test_sixth_moment_term(self):
        lk = link(chi1=0.0, chi2=0.0, chi3=0.2)
        # for 16QAM: mu6_hat - 6 mu4_hat + 6 = 1.96 - 7.92 + 6 = 0.04
        assert nlin_factor(lk, QAM16_MOM) == pytest.approx(0.2 * 0.04, abs=1e-12)

    def test_clamped_at_zero(self):
        lk = link(chi1=0.0, chi2=0.5)
        # QPSK: chi2 * (1 - 2) < 0 -> clamp
        assert nlin_factor(lk, QPSK_MOM) == 0.0


class TestEffectiveSnr:
    def test_linear_regime(self):
        lk = link(chi1=0.0, chi2=0.0, n_spans=4, ase_var_per_span=0.002)
        ch = effective_snr(lk, 0.1, QPSK_MOM)
        assert ch.snr_linear == pytest.approx(0.1 / (4 * 0.002))

    def test_qpsk_beats_16qam_at_same_power(self):
        lk = link(chi2=0.1)
        assert (effective_snr(lk, 0.2, QPSK_MOM).snr_linear
                > effective_snr(lk, 0.2, QAM16_MOM).snr_linear)

    def test_more_spans_lower_snr(self):
        for p in (0.05, 0.2, 1.0):
            assert (effective_snr(link(n_spans=2), p, QPSK_MOM).snr_linear
                    < effective_snr(link(n_spans=1), p, QPSK_MOM).snr_linear)

    def test_nonpositive_power_rejected(self):
        with pytest.raises(ParameterError):
            effective_snr(link(), 0.0, QPSK_MOM)

    @pytest.mark.parametrize("power", [math.inf, math.nan, -math.inf])
    def test_non_finite_power_rejected(self, power):
        with pytest.raises(ParameterError, match="launch_power"):
            effective_snr(link(), power, QPSK_MOM)

    def test_vanishing_noise_is_an_error(self):
        lk = LinkConfig(n_spans=1, ase_var_per_span=1e-308, chi1=0.0, chi2=0.0)
        with pytest.raises(NumericalError):
            # snr = P / ase overflows to infinity
            effective_snr(lk, 1e10, QPSK_MOM)

    def test_huge_power_overflow_is_an_error(self):
        with pytest.raises(NumericalError):
            effective_snr(link(), 1e300, QAM16_MOM)

    def test_noise_variance_inverse(self):
        ch = effective_snr(link(), 0.3, QAM16_MOM)
        assert ch.snr_linear * ch.noise_variance == pytest.approx(1.0, abs=1e-12)


class TestOptimalLaunchPower:
    def test_nlin_equals_half_ase_at_optimum(self):
        lk = link(n_spans=8, eps_accum=0.05)
        p, ch = optimal_launch_power(lk, QAM16_MOM)
        ase = lk.n_spans * lk.ase_var_per_span
        nlin = p ** 3 * nlin_factor(lk, QAM16_MOM) * lk.n_spans ** (1 + lk.eps_accum)
        assert nlin == pytest.approx(ase / 2, abs=1e-9)

    def test_matches_scalar_search(self):
        # independent oracle: numeric maximization of snr over launch power
        rng = np.random.default_rng(42)
        done = 0
        while done < 25:
            lk = LinkConfig(
                n_spans=int(rng.integers(1, 30)),
                ase_var_per_span=float(rng.uniform(1e-4, 2e-2)),
                chi1=float(rng.uniform(0.01, 1.0)),
                chi2=float(rng.uniform(0.0, 0.5)),
                chi3=float(rng.uniform(0.0, 0.2)),
                eps_accum=float(rng.uniform(0.0, 0.2)),
            )
            if nlin_factor(lk, QAM16_MOM) <= 0:
                continue  # clamped eta has no finite optimum by design
            done += 1
            p_star, ch = optimal_launch_power(lk, QAM16_MOM)
            res = minimize_scalar(
                lambda p: -effective_snr(lk, p, QAM16_MOM).snr_linear,
                bracket=(p_star / 10, p_star, p_star * 10),
                method="golden", options={"xtol": 1e-12})
            assert p_star == pytest.approx(res.x, rel=1e-6)
            assert ch.snr_linear >= -res.fun - 1e-12

    def test_accumulation_overflow_is_numerical_error(self):
        lk = link(n_spans=2, eps_accum=1e308)
        with pytest.raises(NumericalError, match="accumulation"):
            optimal_launch_power(lk, QAM16_MOM)
        with pytest.raises(NumericalError, match="accumulation"):
            effective_snr(lk, 1.0, QAM16_MOM)

    def test_unbounded_without_nonlinearity(self):
        with pytest.raises(ParameterError, match=_UNBOUNDED):
            optimal_launch_power(link(chi1=0.0, chi2=0.0, chi3=0.0), QPSK_MOM)

    def test_unbounded_when_clamped(self):
        # negative kurtosis term clamps eta to zero for QPSK
        with pytest.raises(ParameterError, match=_UNBOUNDED):
            optimal_launch_power(link(chi1=0.0, chi2=0.4), QPSK_MOM)


class TestLinkConfigValidation:
    def test_bad_spans(self):
        with pytest.raises(ParameterError):
            link(n_spans=0)
        with pytest.raises(ParameterError):  # n_spans * ase_var_per_span would overflow
            link(n_spans=10 ** 400)

    def test_bad_ase(self):
        with pytest.raises(ParameterError):
            link(ase_var_per_span=0.0)

    @pytest.mark.parametrize("field", ["ase_var_per_span", "chi2", "eps_accum"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_float_rejected(self, field, value):
        with pytest.raises(ParameterError, match=f"{field} must be finite"):
            link(**{field: value})

    def test_bad_fec(self):
        with pytest.raises(ParameterError):
            link(fec_rate=0.0)
        with pytest.raises(ParameterError):
            link(fec_rate=1.5)

    def test_effective_channel_validates(self):
        with pytest.raises(ParameterError):
            EffectiveChannel(snr_linear=0.0)
        with pytest.raises(ParameterError, match="noise variance overflows"):
            EffectiveChannel(snr_linear=5e-324)  # 1 / snr is inf


class TestAwgnSampler:
    def test_mean_and_variance(self):
        rng = np.random.default_rng(7)
        x = np.full(200000, 1.0 + 1.0j)
        y = awgn_sample(rng, x, 0.5)
        noise = y - x
        assert np.mean(noise.real) == pytest.approx(0.0, abs=0.01)
        assert np.var(noise.real) + np.var(noise.imag) == pytest.approx(0.5, rel=0.02)

    def test_split_between_quadratures(self):
        rng = np.random.default_rng(8)
        noise = awgn_sample(rng, np.zeros(200000), 1.0)
        assert np.var(noise.real) == pytest.approx(0.5, rel=0.02)
        assert np.var(noise.imag) == pytest.approx(0.5, rel=0.02)

    def test_deterministic_per_seed(self):
        a = awgn_sample(np.random.default_rng(3), np.zeros(16), 1.0)
        b = awgn_sample(np.random.default_rng(3), np.zeros(16), 1.0)
        np.testing.assert_array_equal(a, b)

    def test_scalar_input(self):
        y = awgn_sample(np.random.default_rng(0), 1.0 + 0.0j, 0.1)
        assert isinstance(y, complex)

    def test_zero_variance_passthrough(self):
        y = awgn_sample(np.random.default_rng(0), np.ones(4) * 1j, 0.0)
        np.testing.assert_array_equal(y, np.ones(4) * 1j)

    def test_negative_variance_rejected(self):
        with pytest.raises(ParameterError):
            awgn_sample(np.random.default_rng(0), np.zeros(2), -0.1)
