"""Effective SNR of a multi-span WDM link with a parametric NLIN term.

All quantities are in linear normalized units: unit symbol energy at
launch power P = 1, so SNR = 1 / noise_variance for a unit-power
constellation. dB appears where an SNR is configured or reported (see cli).

Noise model per link: ASE accumulates linearly over spans, nonlinear
interference scales as P**3 with a modulation-dependent factor

    eta = chi1 + chi2 * (mu4_hat - 2) + chi3 * (mu6_hat - 6 * mu4_hat + 6)

(clamped below at 0) and accumulates as n_spans**(1 + eps_accum).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .constellation import Moments
from .errors import NumericalError, ParameterError, check_field_types


@dataclass(frozen=True)
class LinkConfig:
    """Per-span link parameters and the FEC rate used for net-rate bookkeeping."""

    n_spans: int
    ase_var_per_span: float
    chi1: float
    chi2: float
    chi3: float = 0.0
    eps_accum: float = 0.0
    span_length_km: float = 100.0
    fec_rate: float = 0.75

    def __post_init__(self):
        check_field_types(self)
        if self.n_spans < 1:
            raise ParameterError(f"n_spans must be >= 1, got {self.n_spans}")
        if self.n_spans > sys.float_info.max:  # exact: Python compares int and float exactly
            raise ParameterError("n_spans must not exceed the largest double")
        if not self.ase_var_per_span > 0:
            raise ParameterError("ase_var_per_span must be positive")
        if self.chi1 < 0:
            raise ParameterError("chi1 must be >= 0")
        if self.eps_accum < 0:
            raise ParameterError("eps_accum must be >= 0")
        if not 0 < self.fec_rate <= 1:
            raise ParameterError(f"fec_rate must be in (0, 1], got {self.fec_rate}")
        if not self.span_length_km > 0:
            raise ParameterError("span_length_km must be positive")


@dataclass(frozen=True)
class EffectiveChannel:
    """Effective SNR of the link; noise_variance = 1 / snr_linear."""

    snr_linear: float
    noise_variance: float = field(init=False)

    def __post_init__(self):
        if not self.snr_linear > 0 or not math.isfinite(self.snr_linear):
            raise ParameterError(f"snr_linear must be finite and positive, got {self.snr_linear}")
        noise_variance = 1.0 / self.snr_linear
        if noise_variance == math.inf:  # a subnormal SNR
            raise ParameterError(f"snr_linear {self.snr_linear} is too small: "
                                 "its noise variance overflows")
        object.__setattr__(self, "noise_variance", noise_variance)

    @property
    def snr_db(self) -> float:
        return linear_to_db(self.snr_linear)


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def noise_variance_from_db(snr_db: float, name: str = "snr_db") -> float:
    """1 / SNR for an SNR given in dB, which must make it finite and positive.

    Anything else (NaN, +/-inf, or a finite dB value whose linear SNR
    overflows or underflows) raises ParameterError naming `name`.
    """
    try:
        noise_variance = 1.0 / db_to_linear(snr_db)
    except (OverflowError, ZeroDivisionError):
        noise_variance = math.nan
    if not (math.isfinite(noise_variance) and noise_variance > 0):
        raise ParameterError(f"{name} {snr_db} is out of range")
    return noise_variance


def linear_to_db(x: float) -> float:
    if not x > 0:
        raise ParameterError(f"dB undefined for non-positive value {x}")
    return 10.0 * math.log10(x)


def nlin_factor(link: LinkConfig, mom: Moments) -> float:
    """Modulation-dependent NLIN coefficient eta(mom), clamped below at 0."""
    eta = (
        link.chi1
        + link.chi2 * (mom.mu4_hat - 2.0)
        + link.chi3 * (mom.mu6_hat - 6.0 * mom.mu4_hat + 6.0)
    )
    return max(eta, 0.0)


def span_accumulation(link: LinkConfig) -> float:
    """n_spans ** (1 + eps_accum), the growth of NLIN with the span count."""
    try:
        return link.n_spans ** (1.0 + link.eps_accum)
    except OverflowError as exc:
        raise NumericalError(
            f"NLIN accumulation overflowed: {link.n_spans} spans, "
            f"eps_accum = {link.eps_accum}") from exc


def _total_noise(link: LinkConfig, launch_power: float, eta: float) -> float:
    ase = link.n_spans * link.ase_var_per_span
    growth = span_accumulation(link)
    try:
        nlin = launch_power ** 3 * eta * growth
    except OverflowError as exc:
        raise NumericalError(f"NLIN term overflowed at P = {launch_power}") from exc
    return ase + nlin


def effective_snr(link: LinkConfig, launch_power: float, mom: Moments) -> EffectiveChannel:
    """Effective SNR = P / (ASE + NLIN) at the given launch power."""
    if not 0 < launch_power < math.inf:
        raise ParameterError(f"launch_power must be finite and positive, got {launch_power}")
    noise = _total_noise(link, launch_power, nlin_factor(link, mom))
    snr = launch_power / noise
    if not math.isfinite(snr):
        raise NumericalError("SNR overflowed: total noise vanished")
    return EffectiveChannel(snr_linear=snr)


def optimal_launch_power(link: LinkConfig, mom: Moments) -> tuple[float, EffectiveChannel]:
    """Launch power maximizing the effective SNR, with the SNR at that power.

    Closed form from d(SNR)/dP = 0: the NLIN power equals half the ASE
    power at the optimum, giving

        P_opt = (n_spans * ase_var_per_span / (2 * eta * n_spans**(1 + eps)))**(1/3)

    which is independent of n_spans when eps_accum == 0.
    """
    eta = nlin_factor(link, mom)
    if eta <= 0:
        raise ParameterError("eta(mom) <= 0: SNR grows without bound in launch power")
    ase = link.n_spans * link.ase_var_per_span
    p_opt = (ase / (2.0 * eta * span_accumulation(link))) ** (1.0 / 3.0)
    return p_opt, effective_snr(link, p_opt, mom)


def awgn_sample(rng: np.random.Generator, x, noise_variance: float):
    """Add circularly symmetric complex Gaussian noise, E|n|^2 = noise_variance.

    Accepts a scalar or an array of symbols; the noise is drawn from the
    caller-supplied generator (noise_variance/2 per real dimension), so the
    result is deterministic for a given generator state.
    """
    if not 0 <= noise_variance < math.inf:  # 0 is noise-free
        raise ParameterError(f"noise_variance must be finite and >= 0, got {noise_variance}")
    arr = np.asarray(x, dtype=np.complex128)
    draws = rng.standard_normal((*arr.shape, 2))
    draws *= math.sqrt(noise_variance / 2.0)
    out = draws.view(np.complex128)[..., 0]  # the (I, Q) pairs as complex noise
    out += arr
    return complex(out) if np.ndim(x) == 0 else out
