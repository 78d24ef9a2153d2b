"""Properties that any correct channel and GMI must have, beside the byte pins.

A pin says that an output changed; these say whether an output is right.
Each test names in its docstring a fault that it catches, a one-line change
to the package that it was seen to fail on.
"""

import functools
import math

import numpy as np
import pytest

from shapegain import (
    LinkConfig,
    db_to_linear,
    effective_snr,
    gmi_oracle_quadrature,
    moments,
    optimal_launch_power,
    uniform_qam,
)
from shapegain.constellation import Constellation, normalize

SNRS_DB = np.arange(-5.0, 30.0 + 1e-9, 2.5)
# the example's link at 8 spans, with a sixth-moment term so that mu6 counts
LINK = LinkConfig(n_spans=8, ase_var_per_span=0.0041, chi1=0.3, chi2=0.1, chi3=0.02)


def _constellation(name: str) -> Constellation:
    if name == "random16":
        rng = np.random.default_rng(16)
        return normalize(Constellation(4, rng.standard_normal(16) + 1j * rng.standard_normal(16)))
    return uniform_qam(int(name.removeprefix("qam")))


NAMES = ["qam2", "qam3", "qam4", "qam5", "qam6", "random16"]


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
