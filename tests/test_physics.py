"""Properties that any correct channel and GMI must have, beside the byte pins.

A pin says that an output changed; these say whether an output is right.
Each test names in its docstring a fault that it catches, a one-line change
to the package that it was seen to fail on. The constellations are Gray
QAM, a random one, and two seeded trained cells: one with the Gaussian
receiver and one of the example sweep's MLP cells.
"""

import functools
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from shapegain import (
    LinkConfig,
    SnrTarget,
    TrainConfig,
    awgn_sample,
    best_plan,
    db_to_linear,
    effective_snr,
    gmi_oracle_quadrature,
    moments,
    optimal_launch_power,
    per_bit_gmi_mc,
    train,
    uniform_qam,
)
from shapegain.constellation import Constellation, normalize
from shapegain.demapper import _bit_penalties
from shapegain.sweep import _ae_train_config, load_run_config
from shapegain.training import emit, init_mapper

SNRS_DB = np.arange(-5.0, 30.0 + 1e-9, 2.5)
# the example's link at 8 spans, with a sixth-moment term so that mu6 counts
LINK = LinkConfig(n_spans=8, ase_var_per_span=0.0041, chi1=0.3, chi2=0.1, chi3=0.02)
EXAMPLE = Path(__file__).resolve().parent.parent / "configs" / "example.json"
# the SNR at which Gray 16QAM's quadrature GMI is 3.0 bits, train_gauss16's
GRAY16_3BIT_SNR_DB = 9.308632135959519
# Gaussian-receiver cells, (m, training SNR in dB, iterations); gauss16 is
# train_gauss16's config at the benchmark's 500 iterations
GAUSSIAN_CELLS = {"gauss8": (3, 7.0, 500), "gauss16": (4, GRAY16_3BIT_SNR_DB, 500),
                  "gauss32": (5, 13.0, 300)}


def _gaussian_cell(name: str) -> TrainConfig:
    """train_gauss16's settings at m: 64 samples per label, the 8 x 8
    Gauss-Hermite batch, learning rate 2e-3 and seed 1."""
    m, snr_db, iterations = GAUSSIAN_CELLS[name]
    return TrainConfig(m=m, target=SnrTarget(snr_db), iterations=iterations,
                       batch_symbols=64 << m, learning_rate=2e-3, seed=1)


@functools.cache
def _constellation(name: str) -> Constellation:
    if name == "random16":
        rng = np.random.default_rng(16)
        return normalize(Constellation(4, rng.standard_normal(16) + 1j * rng.standard_normal(16)))
    if name == "ae24":  # the example sweep's 24-span ae cell at the benchmark's 600 iterations
        return train(replace(_ae_train_config(load_run_config(EXAMPLE), 24), iterations=600))[0]
    if name in GAUSSIAN_CELLS:
        return train(_gaussian_cell(name))[0]
    return uniform_qam(int(name.removeprefix("qam")))


NAMES = ["qam2", "qam3", "qam4", "qam5", "qam6", "random16", "gauss16", "ae24"]


@functools.cache
def _gmi_curve(name: str) -> np.ndarray:
    """Quadrature GMI at SNRS_DB, unit average power."""
    c = _constellation(name)
    return np.array([gmi_oracle_quadrature(c, 1.0 / db_to_linear(s)) for s in SNRS_DB])


@pytest.mark.parametrize("name", NAMES)
def test_gmi_lies_below_capacity_and_m(name):
    """GMI <= log2(1 + SNR), the AWGN capacity at unit power, and <= m.

    Catches the oracle's noise taken per real dimension where it is the
    complex variance (`sqrt(noise_variance / 2) * offsets` in
    gmi_oracle_quadrature): Gray QPSK then reads 0.574 bits at -5 dB, above
    the capacity of 0.396.
    """
    gmi = _gmi_curve(name)
    bound = np.minimum(np.log2(1.0 + 10.0 ** (SNRS_DB / 10.0)), _constellation(name).m)
    assert np.all(gmi <= bound), (gmi - bound).max()


@pytest.mark.parametrize("name", NAMES)
def test_gmi_does_not_decrease_with_snr(name):
    """Less noise never costs information.

    Catches the receiver given the SNR where it takes the noise variance
    (`1 / noise_variance` passed to `_bit_penalties` in
    gmi_oracle_quadrature): its LLRs are then right only at 0 dB, and the
    curve falls on both sides of it.
    """
    assert np.all(np.diff(_gmi_curve(name)) >= 0.0), np.diff(_gmi_curve(name)).min()


@pytest.mark.parametrize("theta", [0.3, 1.1])
@pytest.mark.parametrize("name", NAMES)
def test_link_snr_is_invariant_under_rotation(name, theta):
    """The NLIN model sees the constellation only through its power moments,
    which a rotation keeps, so the SNR at a given power, the optimal power and
    the SNR there move by rounding only.

    Catches moments taken from the in-phase coordinate alone
    (`2 * c.points.real ** 2` for `abs(c.points) ** 2` in `moments`), which
    square QAM does not show unrotated.
    """
    c = _constellation(name)
    turned = Constellation(c.m, c.points * np.exp(1j * theta))
    for a, b in zip(_link_view(c), _link_view(turned)):
        assert math.isclose(a, b, rel_tol=1e-12), (a, b)


def _link_view(c: Constellation) -> tuple:
    """The SNR at launch power 0.2, the optimal power and the SNR there."""
    mom = moments(c)
    p_opt, at_opt = optimal_launch_power(LINK, mom)
    return effective_snr(LINK, 0.2, mom).snr_linear, p_opt, at_opt.snr_linear


@pytest.mark.parametrize("snr_db", [3.0, 12.0, 30.0])
@pytest.mark.parametrize("name", NAMES)
def test_per_bit_gmi_is_invariant_under_conjugation(name, snr_db):
    """Conjugating the points and the received samples mirrors the plane
    about the in-phase axis, which keeps every distance and every product
    of the metric up to signs that cancel, so every per-sample bit penalty
    of the Monte-Carlo estimate on the mirrored draws keeps every byte.

    Catches the points' I and Q swapped in the GEMM form of the
    log-likelihoods (`points[::-1].T` for `points.T` in `_loglik`), which
    fails at 3 and 12 dB, and the subtraction form's Q difference taken
    against the samples' I (`y[0]` for `y[1]`), which fails at 30 dB.
    """
    c = _constellation(name)
    nv = 1.0 / db_to_linear(snr_db)
    rng = np.random.default_rng(12)
    labels = rng.integers(0, c.size, 4000)
    y = awgn_sample(rng, c.points[labels], nv)
    a = _bit_penalties(y, c, labels, nv)
    b = _bit_penalties(y.conj(), Constellation(c.m, c.points.conj()), labels, nv)
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("theta", [0.3, 1.1])
@pytest.mark.parametrize("snr_db", [3.0, 12.0, 30.0])
@pytest.mark.parametrize("name", NAMES)
def test_per_bit_gmi_is_invariant_under_rotation(name, snr_db, theta):
    """Rotating the points and the received samples together keeps every
    distance, so each level's mean bit penalty, the Monte-Carlo estimate
    of its GMI, on the rotated draws moves by rounding only.

    Catches log-likelihoods that weight Q unlike I, which conjugation
    keeps: `1.01 * points[1] ** 2` in `_loglik`'s GEMM form fails every case
    at 3 and 12 dB (bits move by 2e-5 to 7e-4), and `im *= 1.01` in its
    subtraction form, which runs at 30 dB, fails the random constellation
    (Gray QAM's bits are error-free there either way).
    """
    c = _constellation(name)
    nv = 1.0 / db_to_linear(snr_db)
    turn = np.exp(1j * theta)
    rng = np.random.default_rng(13)
    labels = rng.integers(0, c.size, 4000)
    y = awgn_sample(rng, c.points[labels], nv)
    a = _bit_penalties(y, c, labels, nv).mean(axis=1)
    b = _bit_penalties(y * turn, Constellation(c.m, c.points * turn), labels, nv).mean(axis=1)
    np.testing.assert_allclose(b, a, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("name", ["qam2", "qam4", "qam6", "random16", "gauss16", "ae24"])
def test_net_rate_does_not_increase_with_spans(name):
    """On the example link, at its optimal power, a fixed constellation's
    Monte-Carlo GMI and best_plan's net rate never rise as spans are added.
    Every span count draws from the same generator seed, so the draws
    differ only in their scale.

    Catches the Monte-Carlo draws given the SNR where they take the noise
    variance (`1.0 / noise_variance` passed to `awgn_sample` in
    per_bit_gmi_mc): the draws grow quieter as spans are added while the
    receiver expects more noise, and Gray 16QAM's GMI rises from 0 to 0.98
    bits over the 40 span counts.
    """
    c = _constellation(name)
    link = load_run_config(EXAMPLE).link
    totals, rates = [], []
    for n_spans in range(1, 41):
        _, ch = optimal_launch_power(replace(link, n_spans=n_spans), moments(c))
        report = per_bit_gmi_mc(c, ch.noise_variance, 20000, np.random.default_rng(5))
        totals.append(report.total)
        rates.append(best_plan(report, link.fec_rate).net_rate)
    assert all(b <= a for a, b in zip(rates, rates[1:])), rates
    assert all(b <= a for a, b in zip(totals, totals[1:])), totals


# The 8-node quadrature, the nodes of each label's 8 x 8 training batch,
# reads each GAUSSIAN_CELLS cell and its start at most 0.0072 bits off the
# 48-node GMI, so a run that ends above its start on the batch may read up
# to twice that below it on the 48 nodes
GAIN_TOLERANCE = 0.015


@pytest.mark.parametrize("name", GAUSSIAN_CELLS)
def test_gaussian_training_does_not_lose_gmi(name):
    """A cell trained with the Gaussian receiver carries at least the
    quadrature GMI of its jittered Gray start at its training SNR, less
    GAIN_TOLERANCE. That receiver's loss on the fixed batch is m minus the
    exact metric's GMI on its nodes. An MLP cell's loss is its own
    receiver's, so no such bound holds for it: the example's 4-span ae cell
    at 600 iterations reads 2.5899 bits against its start's 2.9828.

    Catches Adam stepping up the gradient (`theta += a` in `_adam_update`),
    which ends gauss16 at 1.98 bits against its start's 3.00, and the grid
    batch's noise scaled by the variance for its square root (in
    `_train_run`), which ends gauss16 at 2.9725 bits.
    """
    config = _gaussian_cell(name)
    nv = 1.0 / db_to_linear(config.target.snr_db)
    start = emit(init_mapper(config, np.random.default_rng(config.seed)))
    before = gmi_oracle_quadrature(Constellation(config.m, start), nv)
    after = gmi_oracle_quadrature(_constellation(name), nv)
    assert after >= before - GAIN_TOLERANCE, (after, before)
