"""Byte pins of the exact bit metric's callers, and of the plan and LUT files.

gaussian_bit_metric backs the Gaussian receiver of training, llr_exact and
every GMI estimate. These expected values were generated before a rewrite
of the metric's internals that kept every output bit; a change to the
metric that moves one of them moves the program's results. The heavily
floored cases (MC at m=6 and 30 dB, quadrature at m=4 and 40 dB, and the
floored LLRs) were generated before the floored exp lost its drop mask.
The plan and LUT pins were generated before dummy selection lost its
second split rule, and the MLP training pins before the training loop
lost its mapper and optimizer wrapper classes. The floored penalty pins
and the drawn-noise training pins were generated before training's batch
took Gauss-Hermite noise offsets; the lone Gaussian and the stacked
example pins were regenerated with that batch, which they use. The MLP
link pin was regenerated from Gray QAM when the random initial mapper was
removed, with the target refreshed every 7 iterations as before. The pin
at the example's own batch was generated when the example moved to 64 drawn
symbols per step. The three lone training history pins are the earlier
per-iteration CSVs cut to the rows train() now records, every
HISTORY_STRIDE-th iteration and the last. The six training points pins
were regenerated when the emitted constellation took the training step's
own unit-power scale; only the link pin's history moved with them, as its
target now resolves at the points each step transmits. A training pin
that fails prints the digests it computed.
"""

import hashlib
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
    db_to_linear,
    gmi_oracle_quadrature,
    llr_exact,
    per_bit_gmi_mc,
    train,
    uniform_qam,
)
from shapegain.cli import main
from shapegain.demapper import _iq_rows, gaussian_bit_metric, make_report
from shapegain.sweep import _ae_train_config, load_run_config
import shapegain.training as training
from shapegain.training import LinkTarget, train_many

REPO_ROOT = Path(__file__).resolve().parent.parent
# the SNR at which Gray 16QAM's quadrature GMI is 3.0 bits (criterion 4)
GRAY16_3BIT_SNR_DB = 9.308632135959519
# the floored pins clip their LLRs at the exp floor's bound, 700, not at
# the package's LLR_CLIP of 50, so that they hold the bits behind the clip
WIDE_CLIP = 700.0


def _nv(snr_db: float) -> float:
    return 1.0 / db_to_linear(snr_db)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _lone_gaussian_digests(batch_symbols: int) -> tuple:
    config = TrainConfig(m=4, target=SnrTarget(GRAY16_3BIT_SNR_DB), iterations=100,
                         batch_symbols=batch_symbols, learning_rate=2e-3, seed=1)
    c, history = train(config)
    return _sha256(c.points.tobytes()), _sha256(history.to_csv().encode())


def test_lone_gaussian_training_is_pinned():
    # 64 samples per label, the 8 x 8 Gauss-Hermite batch
    got = _lone_gaussian_digests(1024)
    assert got == (_TRAIN_POINTS_SHA256, _TRAIN_HISTORY_SHA256), got


def test_lone_gaussian_training_with_drawn_noise_is_pinned():
    # 32 samples per label, too few for the grid: fresh noise every iteration
    got = _lone_gaussian_digests(512)
    assert got == (_DRAWN_TRAIN_POINTS_SHA256, _DRAWN_TRAIN_HISTORY_SHA256), got


def _example_cells_digests(batch_symbols: int) -> tuple:
    """The shipped example sweep's six ae cells, stacked into one MLP run;
    their histories hold iterations 0, 100, 200 and 299."""
    rc = load_run_config(REPO_ROOT / "configs" / "example.json")
    rc = replace(rc, train=replace(rc.train, iterations=300, batch_symbols=batch_symbols))
    results = train_many([_ae_train_config(rc, n) for n in rc.sweep.span_grid])
    assert len(results) == 6
    return (_sha256(b"".join(c.points.tobytes() for c, _ in results)),
            _sha256(b"".join(h.to_csv().encode() for _, h in results)))


def test_stacked_mlp_training_of_the_example_cells_is_pinned():
    # the grid path: 1024 symbols, 64 samples per label on the 8 x 8 grid
    got = _example_cells_digests(1024)
    assert got == (_MANY_POINTS_SHA256, _MANY_HISTORY_SHA256), got


def test_stacked_mlp_training_with_drawn_noise_is_pinned():
    got = _example_cells_digests(512)
    assert got == (_DRAWN_MANY_POINTS_SHA256, _DRAWN_MANY_HISTORY_SHA256), got


def test_stacked_mlp_training_at_the_example_batch_is_pinned():
    # the shipped path: the example's own batch, which draws its noise
    train = load_run_config(REPO_ROOT / "configs" / "example.json").train
    assert training._grid_shape(train.batch_symbols >> train.m) is None
    got = _example_cells_digests(train.batch_symbols)
    assert got == (_EXAMPLE_MANY_POINTS_SHA256, _EXAMPLE_MANY_HISTORY_SHA256), got


def test_lone_mlp_training_on_a_link_is_pinned(monkeypatch):
    monkeypatch.setattr(training, "REFRESH_EVERY", 7)
    link = LinkConfig(n_spans=8, ase_var_per_span=0.0041, chi1=0.3, chi2=0.1)
    config = TrainConfig(m=3, target=LinkTarget(link), iterations=300,
                         batch_symbols=256, demapper_mode="mlp", mlp_hidden=(16, 8),
                         learning_rate=2e-3, seed=4)
    c, history = train(config)
    got = _sha256(c.points.tobytes()), _sha256(history.to_csv().encode())
    assert got == (_MLP_POINTS_SHA256, _MLP_HISTORY_SHA256), got


# (m, SNR in dB): low SNR, criterion 4's SNR, and three cases whose blocks
# take the floored exp (40 dB at m=4, 21 dB at m=8, and 30 dB at m=6,
# where most entries are clamped)
@pytest.mark.parametrize("m, snr_db", [(2, 3.0), (4, 9.3), (4, 40.0), (8, 21.0), (6, 30.0)],
                         ids=["m2-3dB", "m4-9.3dB", "m4-40dB", "m8-21dB", "m6-30dB"])
def test_monte_carlo_reports_are_pinned(m, snr_db):
    rep = per_bit_gmi_mc(uniform_qam(m), _nv(snr_db), 20_000,
                         np.random.default_rng([m, int(snr_db * 10)]))
    assert (repr(rep.total), _sha256(rep.to_json().encode())) == _MC_REPORTS[m, snr_db]


@pytest.mark.parametrize("m, snr_db", [(2, 3.0), (4, 9.3), (6, 15.0), (4, 40.0)],
                         ids=["m2-3dB", "m4-9.3dB", "m6-15dB", "m4-40dB"])
def test_quadrature_oracle_is_pinned(m, snr_db):
    assert repr(gmi_oracle_quadrature(uniform_qam(m), _nv(snr_db))) == _QUADRATURE[m, snr_db]


# heavily floored blocks whose GMI saturates at m bits: most LLRs lie
# between 50 and 700, where a partition may hold clamped entries, and at
# m=10 a third clip at 700
@pytest.mark.parametrize("m, snr_db", [(6, 30.0), (10, 40.0)], ids=["m6-30dB", "m10-40dB"])
def test_floored_llrs_are_pinned(m, snr_db):
    c = uniform_qam(m)
    rng = np.random.default_rng([m, int(snr_db * 10)])
    y = awgn_sample(rng, c.points[rng.integers(0, c.size, 2000)], _nv(snr_db))
    raw, _ = gaussian_bit_metric(_iq_rows(y), _iq_rows(c.points), _nv(snr_db))
    got = np.clip(raw, -WIDE_CLIP, WIDE_CLIP).T  # the (S, m) layout of llr_exact
    assert _sha256(got.tobytes()) == _FLOORED_LLR_SHA256[m, snr_db]


# the GMI pins of these two cases read exactly m bits, since every penalty
# log2(1 + e^-|L|) with |L| >= 50 rounds away against 1; the penalties
# themselves keep the bits of the LLRs behind them. At m=6 and 30 dB 83 %
# come from unclipped LLRs, and all but 0.03 % lie below 1e-20; at m=4 and
# 40 dB every LLR clips at 700, so that pin holds the clip and the signs.
@pytest.mark.parametrize("m, snr_db", [(6, 30.0), (4, 40.0)], ids=["m6-30dB", "m4-40dB"])
def test_floored_penalties_are_pinned(m, snr_db):
    c = uniform_qam(m)
    rng = np.random.default_rng([m, int(snr_db * 10)])
    labels = rng.integers(0, c.size, 2000)
    y = awgn_sample(rng, c.points[labels], _nv(snr_db))
    raw, _ = gaussian_bit_metric(_iq_rows(y), _iq_rows(c.points), _nv(snr_db))
    # the estimators' penalties, log2(1 + exp(z)) with z the label-signed LLR
    got = 2.0 * np.take(c.bits().T, labels, axis=1) - 1.0
    got *= np.clip(raw, -WIDE_CLIP, WIDE_CLIP)
    got = np.log1p(np.exp(got)) / math.log(2.0)
    assert _sha256(got.tobytes()) == _FLOORED_PENALTY_SHA256[m, snr_db]


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


# a fixed m=4 report whose levels 1 and 3 tie; odd n_d puts its extra dummy
# on X, so its LUT has separate X and Y tables
_PLAN_REPORT = [0.91, 0.37, 0.62, 0.37]


@pytest.mark.parametrize("n_d", range(9))
def test_plan_and_lut_files_are_pinned(tmp_path, n_d):
    c, r, p, lut = (str(tmp_path / name) for name in ("c.json", "r.json", "p.json", "l.csv"))
    assert main(["qam", "--m", "4", "--out", c]) == 0
    with open(r, "w") as fh:
        fh.write(make_report(np.array(_PLAN_REPORT), 10_000, 0.001).to_json() + "\n")
    assert main(["adapt", "--constellation", c, "--report", r, "--nd", str(n_d),
                 "--fec-rate", "0.75", "--out", p]) == 0
    assert main(["export-lut", "--constellation", c, "--plan", p, "--out", lut]) == 0
    with open(p, "rb") as plan_fh, open(lut, "rb") as lut_fh:
        assert (_sha256(plan_fh.read()), _sha256(lut_fh.read())) == _PLAN_AND_LUT[n_d]


_TRAIN_POINTS_SHA256 = "6a618cb7666412e57e65d3ad693d638b5c3e97be52b059963438603a185517fb"
_TRAIN_HISTORY_SHA256 = "489322b17c00ed515ed830f1d27e4c3b73e0ddecfd8c689f1f5e2f83f1cb3db4"
_DRAWN_TRAIN_POINTS_SHA256 = "d4538ec587ae41e44e73379fc16f6b9750c50c7bdb9ff2977f2aaba2dbde4a7a"
_DRAWN_TRAIN_HISTORY_SHA256 = "be77b412d03d7f5ade0b9f2d57bc934c11c67d5677f167d3001383e7012a4848"
_MANY_POINTS_SHA256 = "d97ccb8c93c26cb68468e1555efb805683709dfad5d18f4455954299de522257"
_MANY_HISTORY_SHA256 = "60783532cd0a7394b5b0272456eeca5cbe70eedb7bbefb9b05b079b876bb7e4f"
_DRAWN_MANY_POINTS_SHA256 = "ede5aa24d0c29c96e606835acd03d38f3f94ed715477615ac2c2943a6cdb0c87"
_DRAWN_MANY_HISTORY_SHA256 = "185e9282401fe7afc7c9ce0c1f959be37d5226160b37c64abb7d5ffd5e5c340d"
_EXAMPLE_MANY_POINTS_SHA256 = "4eccd25efad4a76a966db4eaba8886a5208abe0fbbb4d9b09cd8ad39050513e2"
_EXAMPLE_MANY_HISTORY_SHA256 = "f23ad32ccf94bc7ac71105f41da54b4a0f0dc15c5163b5c6ecc0a0b4d680aa1f"
_MLP_POINTS_SHA256 = "34f2d716cdfb32702f272d5cacae6f5dc735bdc0d3b78f1474af7a27e69523bf"
_MLP_HISTORY_SHA256 = "ba6f2dd57bd4b62f790cd1738ab089d5f6581c59db30d4a48fdf8e5ec97e473a"
_MC_REPORTS = {
    (2, 3.0): ("1.4422300789635616",
              "cda48e8ab921d24e8b21a3d10ec0a2a9c9923d08566aa9ccd14339314278121b"),
    (4, 9.3): ("3.0066492339233126",
              "89853dd314c640593b78067ebe67a2745e8fad992e08c7b17a4d806485564c59"),
    (4, 40.0): ("4.0",
              "177ca3229abf6d36e58b54cfda20e01284c68cc760e8ff9c4a43ca43c79c1571"),
    (8, 21.0): ("6.551093022317053",
              "9af81c6de94a7a2eee267aaa5a6f76160937d92444d928dd2edcf17d54599623"),
    (6, 30.0): ("6.0",
              "6841beb0d6b492e662cabfda799be8fa2f84de9bde43230b1d2d1139463c5ae9"),
}
_QUADRATURE = {
    (2, 3.0): "1.441321671592549",
    (4, 9.3): "2.9979202646993137",
    (6, 15.0): "4.677997560324393",
    (4, 40.0): "4.0",
}
_FLOORED_LLR_SHA256 = {
    (6, 30.0): "836b0fa4dff0acb654b31d6afbbc3fccf2647b2c41856b8d5c42036c19165370",
    (10, 40.0): "5f04a184ee374cef4c5deadea46dabd5f1292c37b79594ba051a058ae19ed66d",
}
_FLOORED_PENALTY_SHA256 = {
    (6, 30.0): "3bad9c7e2115b0f06f7461aab998e7909115adbf7178371df45ce6c201b7e80f",
    (4, 40.0): "abebb9ca9337d80707b4999936672249e620322631f18a515255c490158cda99",
}
_SCALAR_LLR_SHA256 = "4839b20a62a56351dcd06765ffe97a750e55367f9e8647683ef08b74c5a525e0"
_PLAN_AND_LUT = [  # (plan JSON, LUT text) by n_d
    ("3269f9fab549ed55981321301db88f960986a245afe04604da3257b05dcb24d8",
     "48428c404497a0b78f0f37fe8c762119c599db07db4f0c931fd407ea354c5ef9"),
    ("862de945e406874ac20adf43f10c91a7e847dff0e061884e3ee64820d83b6fbf",
     "164643fc2527ef89ef25ba588ec02fd954c744003e5f9c3788fd2abbed7cc19e"),
    ("0f94143863f65f98c5f7dfffea4833157896522a741c359dbafeb28530489b6a",
     "f20c9c7cb0da04e9ceed6ed6c4af15fb59e43dee70fc26746bbae67a91ffbfcc"),
    ("d3920bd4529ad36a28706d83d659f7ba4ef7cd8a1e027343fd006af611cc13aa",
     "12f552fb56cf03983af9a9c2d2b527e6c27ed9cdad648486efe5572dbc87d02c"),
    ("8758b1a317be162f0dbe7e0c7df1558595c33d3661420cb9cb7df9e3cd9f51c0",
     "067b37c3e504828485b74506c4e30e8b8c3d8b683eabc4d76f603ffe2c7dcbbc"),
    ("8e2e3495a3a26a900bab31afe7ead9b160d4b701798428d4f92d0d3e4a414e6f",
     "59e6667c13b71b9edeea7f006e8dbe65dce59ef719c2f353f6e494fa8e0e87df"),
    ("5c8fc212c5b70f49d33d50ec7f70573fda155eeb3481b5cfa52432da8fe867ce",
     "3f4c50958bbefec62a0cf7d043c6dceaf92209d86acf1cb3a27352b319961ede"),
    ("cf8744014bed1212861d274560fb730a763aca494526d36939d2365acdb13763",
     "8bd305dc26f466f63837ec113c2e921fba585a26f71f03249a83929ff069002e"),
    ("08aa502d125efd03bc9c39d56e18a194283d0789e082ffbbe122ed704c41ab87",
     "cbe4011c65abe6ae78511347302b00d241a6de60f4201cb472e621dd7ce52e68"),
]
