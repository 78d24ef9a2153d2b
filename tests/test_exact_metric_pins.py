"""Byte pins of the exact bit metric's callers.

gaussian_bit_metric backs the Gaussian receiver of training, llr_exact and
every GMI estimate. These expected values were generated before a rewrite
of the metric's internals that kept every output bit; a change to the
metric that moves one of them moves the program's results.
"""

import hashlib

import numpy as np
import pytest

from shapegain import (
    SnrTarget,
    TrainConfig,
    db_to_linear,
    gmi_oracle_quadrature,
    llr_exact,
    per_bit_gmi_mc,
    train,
    uniform_qam,
)

# the SNR at which Gray 16QAM's quadrature GMI is 3.0 bits (criterion 4)
GRAY16_3BIT_SNR_DB = 9.308632135959519


def _nv(snr_db: float) -> float:
    return 1.0 / db_to_linear(snr_db)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_lone_gaussian_training_is_pinned():
    config = TrainConfig(m=4, target=SnrTarget(GRAY16_3BIT_SNR_DB), iterations=100,
                         batch_symbols=1024, learning_rate=2e-3, seed=1)
    c, history = train(config)
    assert _sha256(c.points.tobytes()) == _TRAIN_POINTS_SHA256
    assert _sha256(history.to_csv().encode()) == _TRAIN_HISTORY_SHA256


# (m, SNR in dB): low SNR, criterion 4's SNR, and two cases whose blocks
# take the floored exp (40 dB at m=4, 21 dB at m=8)
@pytest.mark.parametrize("m, snr_db", [(2, 3.0), (4, 9.3), (4, 40.0), (8, 21.0)],
                         ids=["m2-3dB", "m4-9.3dB", "m4-40dB", "m8-21dB"])
def test_monte_carlo_reports_are_pinned(m, snr_db):
    rep = per_bit_gmi_mc(uniform_qam(m), _nv(snr_db), 20_000,
                         np.random.default_rng([m, int(snr_db * 10)]))
    assert (repr(rep.total), _sha256(rep.to_json().encode())) == _MC_REPORTS[m, snr_db]


@pytest.mark.parametrize("m, snr_db", [(2, 3.0), (4, 9.3), (6, 15.0)],
                         ids=["m2-3dB", "m4-9.3dB", "m6-15dB"])
def test_quadrature_oracle_is_pinned(m, snr_db):
    assert repr(gmi_oracle_quadrature(uniform_qam(m), _nv(snr_db))) == _QUADRATURE[m]


def test_scalar_llr_calls_are_pinned():
    # noise variances from 1e-4 to 3 reach the GEMM and the subtraction
    # form of the log-likelihoods, the floored exp and the clip
    rng = np.random.default_rng(2)
    variances = 10.0 ** rng.uniform(-4.0, 0.5, 100)
    y = (rng.normal(size=100) + 1j * rng.normal(size=100)) / np.sqrt(2)
    qpsk = uniform_qam(2)
    got = b"".join(llr_exact(complex(yi), qpsk, float(v)).tobytes()
                   for yi, v in zip(y, variances))
    assert _sha256(got) == _SCALAR_LLR_SHA256


_TRAIN_POINTS_SHA256 = "9ed61a7a85307644c5211292005f9df6c54875542a31a9cc4cef7b0f079d3d0c"
_TRAIN_HISTORY_SHA256 = "c327187a0d8ba60d7ae8408a63f8d424f13ef19adc67014aaa170a0ae56dcdcd"
_MC_REPORTS = {
    (2, 3.0): ("1.4422300789635616",
              "cda48e8ab921d24e8b21a3d10ec0a2a9c9923d08566aa9ccd14339314278121b"),
    (4, 9.3): ("3.0066492339233126",
              "89853dd314c640593b78067ebe67a2745e8fad992e08c7b17a4d806485564c59"),
    (4, 40.0): ("4.0",
              "177ca3229abf6d36e58b54cfda20e01284c68cc760e8ff9c4a43ca43c79c1571"),
    (8, 21.0): ("6.551093022317053",
              "9af81c6de94a7a2eee267aaa5a6f76160937d92444d928dd2edcf17d54599623"),
}
_QUADRATURE = {
    2: "1.441321671592549",
    4: "2.9979202646993137",
    6: "4.677997560324393",
}
_SCALAR_LLR_SHA256 = "4839b20a62a56351dcd06765ffe97a750e55367f9e8647683ef08b74c5a525e0"
