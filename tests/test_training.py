"""Training engine tests: forward/backward vs finite differences, Adam, train()."""

import inspect
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import shapegain
import shapegain.training as training
from shapegain import (
    Constellation,
    LinkConfig,
    NumericalError,
    ParameterError,
    awgn_sample,
    constellation_to_dict,
    db_to_linear,
    gmi_oracle_quadrature,
    llr_exact,
    per_bit_gmi_mc,
    uniform_qam,
)
import shapegain.demapper as demapper
from shapegain.demapper import LLR_CLIP, clip_llr
from shapegain.training import (
    GaussianDemapper,
    SnrTarget,
    HISTORY_STRIDE,
    TrainConfig,
    _adam_update,
    _flatten,
    emit,
    init_mapper,
    init_mlp,
    link_target,
    train,
    train_config_from_dict,
    train_many,
    trainable_arrays,
    with_arrays,
)
from stepcheck import backward, finite_difference_check, forward_loss, gradient_check


def _config(**kw):
    base = dict(m=2, target=SnrTarget(10.0), iterations=10, batch_symbols=64)
    base.update(kw)
    return TrainConfig(**base)


def _balanced_labels(m, batch):
    return np.repeat(np.arange(1 << m), batch // (1 << m))


def _public_methods(cls):
    return {name for name, _ in inspect.getmembers(cls, inspect.isfunction)
            if not name.startswith("_")}


# ------------------------------------------------------------------ configs


class TestTrainConfig:
    def test_batch_must_divide_by_constellation_size(self):
        with pytest.raises(ParameterError):
            _config(m=3, batch_symbols=20)

    def test_bad_mode_rejected(self):
        with pytest.raises(ParameterError):
            _config(demapper_mode="viterbi")

    # samples per label: 32 = 4 x 8, 56 = 7 x 8 and the prime 67 give fewer
    # than 8 nodes on one axis, and 3208 = 8 x 401 more than the 256 of
    # MAX_HERMITE_ORDER on one, so those batches draw their noise
    @pytest.mark.parametrize("n, shape", [(64, (8, 8)), (96, (8, 12)), (128, (8, 16)),
                                          (256, (16, 16)), (2 ** 15, (128, 256)),
                                          (32, None), (56, None), (67, None), (1, None),
                                          (3208, None)])
    def test_grid_shape_is_the_most_nearly_square(self, n, shape):
        assert training._grid_shape(n) == shape

    def test_batch_beyond_the_hermite_cap_draws_noise(self):
        # 8 x 401 nodes per label: numpy's hermgauss(401) is not finite
        _, hist = train(_config(m=2, batch_symbols=4 * 3208, iterations=1))
        assert np.isfinite(hist.loss).all()

    def test_snr_target_is_never_refreshed_and_has_no_such_key(self):
        # a cell trains at its target's one noise variance from first step to last
        assert [f.name for f in fields(SnrTarget)] == ["snr_db"]
        with pytest.raises(ParameterError, match="unknown key 'refresh_every'"):
            train_config_from_dict({"m": 2, "iterations": 1, "batch_symbols": 64,
                                    "target": {"snr_db": 10.0, "refresh_every": 5}})

    def test_empty_mlp_hidden_rejected(self):
        # a receiver needs a hidden layer, and the stacked runs are sized by its widths
        with pytest.raises(ParameterError, match="^mlp_hidden must list at least one width$"):
            _config(demapper_mode="mlp", mlp_hidden=())

    def test_from_dict_snr_target(self):
        cfg = train_config_from_dict(
            {"m": 3, "target": {"snr_db": 7.5}, "iterations": 5,
             "batch_symbols": 64, "seed": 9})
        assert isinstance(cfg.target, SnrTarget)
        assert cfg.target.snr_db == 7.5 and cfg.seed == 9

    def test_from_dict_link_target(self):
        cfg = train_config_from_dict(
            {"m": 2, "iterations": 5, "batch_symbols": 64,
             "target": {"link": {"n_spans": 10, "ase_var_per_span": 0.004,
                                 "chi1": 0.3, "chi2": 0.1}}})
        # the SNR the link gives Gray QAM of the section's m at optimal power
        assert cfg.target == link_target(
            LinkConfig(n_spans=10, ase_var_per_span=0.004, chi1=0.3, chi2=0.1), 2)
        with pytest.raises(ParameterError, match="unknown key 'refresh_every'"):
            train_config_from_dict({"m": 2, "iterations": 5, "batch_symbols": 64, "target": {
                "link": {"n_spans": 10, "ase_var_per_span": 0.004, "chi1": 0.3, "chi2": 0.1},
                "refresh_every": 50}})

    @pytest.mark.parametrize("m, reason", [(0, r"m must be in \[1, 10\], got 0"),
                                           (11, r"m must be in \[1, 10\], got 11"),
                                           ("4", "m must be an integer, got str")],
                             ids=["m0", "m11", "string"])
    def test_bad_m_beside_a_link_target_is_reported_as_m(self, m, reason):
        # the link's SNR is that of Gray QAM of order m, computed once m is checked
        with pytest.raises(ParameterError, match=rf"^bad train config: {reason}$"):
            train_config_from_dict({"m": m, "iterations": 5, "batch_symbols": 64, "target": {
                "link": {"n_spans": 10, "ase_var_per_span": 0.004, "chi1": 0.3, "chi2": 0.1}}})

    @pytest.mark.parametrize("field", ["m", "iterations", "batch_symbols", "seed"])
    @pytest.mark.parametrize("value", [2.0, "2", True])
    def test_non_integer_counts_rejected(self, field, value):
        with pytest.raises(ParameterError, match=f"{field} must be an integer"):
            _config(**{field: value})

    @pytest.mark.parametrize("snr_db", [1e6, -1e308, math.inf, math.nan])
    def test_out_of_range_snr_target_rejected_at_construction(self, snr_db):
        # sweeps replace the target, so its construction is the only check
        with pytest.raises(ParameterError, match="snr_db"):
            SnrTarget(snr_db)

    @pytest.mark.parametrize("target", [6.0, {"snr_db": 6.0}, None],
                             ids=["float", "dict", "none"])
    def test_target_that_is_no_snr_target_rejected(self, target):
        # refused where the config is built, not as an AttributeError in train()
        with pytest.raises(ParameterError, match=rf"^target must be an SnrTarget, "
                                                 rf"got {type(target).__name__}$"):
            TrainConfig(m=2, target=target, iterations=2, batch_symbols=64)

    def test_from_dict_missing_target_rejected(self):
        with pytest.raises(ParameterError):
            train_config_from_dict({"m": 2, "iterations": 5})

    def test_work_caps(self):
        cap, big = training.MAX_CELL_ENTRIES, training.MAX_BATCH_SYMBOLS
        mlp = dict(batch_symbols=64, demapper_mode="mlp")
        _config(iterations=training.MAX_ITERATIONS, batch_symbols=big)
        _config(m=8, batch_symbols=big)
        _config(m=10, batch_symbols=big, demapper_mode="mlp")
        _config(**mlp, mlp_hidden=(cap // 64,))
        _config(mlp_hidden=(10 ** 6,))  # unused by the gaussian receiver
        for match, kw in [("iterations", dict(iterations=training.MAX_ITERATIONS + 1)),
                          ("iterations", dict(iterations=10 ** 400)),
                          ("batch_symbols", dict(batch_symbols=2 * big)),
                          ("batch_symbols", dict(batch_symbols=4 ** 400)),
                          ("batch_symbols", dict(m=9, batch_symbols=big)),
                          ("batch_symbols", dict(m=10, batch_symbols=big)),
                          ("mlp_hidden", dict(mlp, mlp_hidden=(cap // 64 + 1,))),
                          ("mlp_hidden", dict(mlp, mlp_hidden=(10 ** 6,))),
                          ("mlp_hidden", dict(mlp, mlp_hidden=(cap // 128, cap // 128, 1))),
                          # the mapper starts from Gray QAM, which uniform_qam
                          # builds up to MAX_QAM_M = 10
                          (r"m must be in \[1, 10\], got 11",
                           dict(m=11, batch_symbols=big, demapper_mode="mlp")),
                          ("m must be in", dict(m=0)),
                          ("m must be in", dict(m=17)),
                          ("m must be in", dict(m=2 ** 40)),
                          ("m must be in", dict(m=10 ** 400)),
                          ("^seed must be >= 0$", dict(seed=-1))]:
            with pytest.raises(ParameterError, match=match):
                _config(**kw)


class TestInitMapper:
    def test_qam_init_default_jitter_stays_close(self):
        cfg = _config(m=4)
        raw = init_mapper(cfg, np.random.default_rng(1))
        assert raw.shape == (16, 2) and raw.dtype == np.float64
        ref = uniform_qam(4).points
        assert np.max(np.abs(emit(raw) - ref)) < 0.1
        assert np.any(emit(raw) != ref)


# ------------------------------------------------------------- forward pass


class TestForwardLoss:
    def _setup(self, m=2, batch=64, snr_db=10.0, seed=0):
        cfg = _config(m=m, batch_symbols=batch)
        rng = np.random.default_rng(seed)
        raw = init_mapper(cfg, rng)
        labels = _balanced_labels(m, batch)
        nv = 1.0 / db_to_linear(snr_db)
        noise = awgn_sample(rng, np.zeros(batch), nv)
        return raw, labels, noise, nv

    def test_surrogate_identity_loss_plus_gmi_is_m(self):
        raw, labels, noise, nv = self._setup(m=3, batch=128)
        loss, st = forward_loss(raw, GaussianDemapper(), labels, noise, nv)
        per_bit_surrogate = 1.0 - st.penalties.sum(axis=-1) / labels.size
        assert float(per_bit_surrogate.sum()) == pytest.approx(3.0 - loss, abs=1e-12)

    def test_transmitted_points_have_unit_power(self):
        raw, labels, noise, nv = self._setup(m=4, batch=256)
        _, st = forward_loss(raw, GaussianDemapper(), labels, noise, nv)
        assert (st.points_iq ** 2).sum(axis=0).mean() == pytest.approx(1.0, abs=1e-12)

    def test_noiseless_batch_loss_is_tiny(self):
        raw, labels, _, _ = self._setup(m=2, batch=64)
        loss, _ = forward_loss(raw, GaussianDemapper(), labels,
                               np.zeros(64, complex), 1e-4)
        assert loss < 1e-12

    def test_overwhelming_noise_loss_approaches_m(self):
        raw, labels, noise, _ = self._setup(m=2, batch=64)
        loss, _ = forward_loss(raw, GaussianDemapper(), labels,
                               1e4 * noise, 1e8)
        assert loss == pytest.approx(2.0, abs=0.01)

    def test_shuffled_labels_rejected(self):
        # the step sums each label's samples as one run of the batch
        raw, labels, noise, nv = self._setup(m=2, batch=64)
        shuffled = np.random.default_rng(12).permutation(labels)
        with pytest.raises(ParameterError, match="sorted order"):
            forward_loss(raw, GaussianDemapper(), shuffled, noise, nv)

    def test_unbalanced_labels_rejected(self):
        raw, labels, noise, nv = self._setup(m=2, batch=64)
        labels = labels.copy()
        labels[labels == 3] = 0
        with pytest.raises(ParameterError):
            forward_loss(raw, GaussianDemapper(), labels, noise, nv)

    @pytest.mark.parametrize("labels", [[0, 1, 2, 3, 4], [0, 1, 2, -1]],
                             ids=["label equal to M", "negative label"])
    def test_label_out_of_range_rejected(self, labels):
        raw, _, _, nv = self._setup(m=2, batch=4)
        labels = np.array(labels)
        noise = np.zeros(labels.size, complex)
        with pytest.raises(ParameterError, match=r"labels must be integers in \[0, 4\)"):
            forward_loss(raw, GaussianDemapper(), labels, noise, nv)

    def test_nan_gaussian_llr_raises_numerical_error(self):
        # every sample lies 0.14 off its point, and each squared distance
        # over a subnormal noise variance overflows: a sample's
        # log-likelihoods are all -inf and its LLRs NaN
        raw, labels, _, _ = self._setup(m=2, batch=64)
        noise = np.full(64, 0.1 + 0.1j)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericalError, match=r"^non-finite values in llr$"):
            forward_loss(raw, GaussianDemapper(), labels, noise, 1e-320)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("mode", ["gaussian", "mlp"])
    def test_non_finite_noise_fails_in_the_llrs(self, mode, bad):
        # the step checks no received sample: a NaN or inf one shows in its LLRs
        raw, labels, noise, nv = self._setup(m=2, batch=64)
        demapper = (init_mlp(2, (8,), np.random.default_rng(3)) if mode == "mlp"
                    else GaussianDemapper())
        noise = noise.copy()
        noise[5] = bad
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericalError, match=r"^non-finite values in llr$"):
            forward_loss(raw, demapper, labels, noise, nv)

    def test_underflowed_gaussian_llr_clips_without_raising(self):
        # on the points themselves only the own point's distance stays
        # finite: the other partition of every level holds only entries
        # clamped to e^-700, and its LLR lies beyond any clip
        raw, labels, _, _ = self._setup(m=2, batch=64)
        with np.errstate(over="ignore"):
            loss, st = forward_loss(raw, GaussianDemapper(), labels,
                                    np.zeros(64, complex), 1e-320)
        assert np.isfinite(st.llr_raw).all()
        assert (np.abs(st.llr_raw) > 700.0).all()
        np.testing.assert_array_equal(st.llr, np.sign(st.llr_raw) * LLR_CLIP)
        assert 0.0 <= loss < 1e-12

    def test_nan_parameters_raise_numerical_error(self):
        raw, labels, noise, nv = self._setup(m=2, batch=64)
        bad = raw.copy()
        bad[0, 0] = np.nan
        with pytest.raises(NumericalError):
            forward_loss(bad, GaussianDemapper(), labels, noise, nv)


class TestSamplesLastLayout:
    """The per-sample arrays of the step keep the samples on their last axis."""

    @pytest.mark.parametrize("mode", ["gaussian", "mlp"])
    def test_step_arrays_are_c_contiguous_with_samples_last(self, mode):
        m, S = 3, 128
        cfg = _config(m=m, batch_symbols=S, demapper_mode=mode, mlp_hidden=(8, 5))
        rng = np.random.default_rng(11)
        raw = init_mapper(cfg, rng)
        demapper = (init_mlp(m, cfg.mlp_hidden, rng) if mode == "mlp"
                    else GaussianDemapper())
        noise = awgn_sample(rng, np.zeros(S), 0.1)
        _, st = forward_loss(raw, demapper, _balanced_labels(m, S), noise, 0.1)
        gy, gp = st.receiver.backward(np.ones((m, S)))
        rows = {"y_iq": (st.y_iq, 2), "llr_raw": (st.llr_raw, m), "llr": (st.llr, m),
                "sigmoid": (st.sigmoid, m), "penalties": (st.penalties, m),
                "flip": (st.batch.flip, m), "gy": (gy, 2)}
        if mode == "mlp":
            # each layer input carries a ones row below its fan_in rows
            for i, fan_in in enumerate((2, *cfg.mlp_hidden)):
                rows[f"layer input {i}"] = (st.receiver.inputs[i], fan_in + 1)
                np.testing.assert_array_equal(st.receiver.inputs[i][-1], 1.0)
            np.testing.assert_array_equal(st.receiver.inputs[0][:-1], st.y_iq)
            assert gp is None
        else:
            p, z, _ = st.receiver.metric
            rows["loglik"] = (p, 1 << m)
            rows["partitions"] = (z, 2 * m)
            assert gp.shape == (2, 1 << m)
        for name, (a, n) in rows.items():
            assert a.shape == (n, S), name
            assert a.flags.c_contiguous, name

    def test_llr_exact_keeps_its_shapes(self):
        c = uniform_qam(3)
        y = c.points[np.arange(40) % c.size] + 0.1
        assert llr_exact(y, c, 0.1).shape == (40, 3)
        assert llr_exact(complex(y[0]), c, 0.1).shape == (3,)


# ------------------------------------------------------- gradient checking


class TestGradients:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_gaussian_demapper_gradients(self, m):
        cfg = _config(m=m, batch_symbols=16 * (1 << m))
        rng = np.random.default_rng(100 + m)
        raw = init_mapper(cfg, rng)
        labels = _balanced_labels(m, cfg.batch_symbols)
        nv = 1.0 / db_to_linear(8.0)
        noise = awgn_sample(rng, np.zeros(cfg.batch_symbols), nv)
        rep = gradient_check(raw, GaussianDemapper(), labels, noise, nv,
                             n_probes=8, rng=np.random.default_rng(0))
        assert rep.passed, f"max rel err {rep.max_rel_err:.2e}"

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_gaussian_gradients_with_underflowed_partitions(self, m):
        # at 40 dB most partitions have all their entries clamped (at most
        # (M/2) e^-700, their LLRs beyond the clip); a few samples moved onto a
        # decision boundary keep unclipped entries in the same rows
        cfg = _config(m=m, batch_symbols=16 * (1 << m))
        rng = np.random.default_rng(300 + m)
        raw = init_mapper(cfg, rng)
        labels = _balanced_labels(m, cfg.batch_symbols)
        nv = 1.0 / db_to_linear(40.0)
        noise = awgn_sample(rng, np.zeros(cfg.batch_symbols), nv)
        pts = emit(raw)
        edge = labels == 0
        noise[edge] += 0.5 * (pts[1] - pts[0])
        _, st = forward_loss(raw, GaussianDemapper(), labels, noise, nv)
        _, z, _ = st.receiver.metric
        assert (z <= (1 << m) * math.exp(-700.0)).any()
        assert np.isfinite(st.llr_raw).all()
        assert (np.abs(st.llr_raw[:, edge]) < LLR_CLIP).any()
        grads = backward(st)
        assert all(np.all(np.isfinite(g)) for g in grads.values())
        assert np.any(grads["mapper.raw"] != 0.0)
        rep = gradient_check(raw, GaussianDemapper(), labels, noise, nv,
                             n_probes=8, tolerance=1e-4, rng=np.random.default_rng(0))
        assert rep.passed, f"max rel err {rep.max_rel_err:.2e}"

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_mlp_demapper_gradients(self, m):
        cfg = _config(m=m, batch_symbols=16 * (1 << m), demapper_mode="mlp",
                      mlp_hidden=(16, 16))
        rng = np.random.default_rng(200 + m)
        raw = init_mapper(cfg, rng)
        mlp = init_mlp(m, cfg.mlp_hidden, rng)
        labels = _balanced_labels(m, cfg.batch_symbols)
        nv = 1.0 / db_to_linear(8.0)
        noise = awgn_sample(rng, np.zeros(cfg.batch_symbols), nv)
        rep = gradient_check(raw, mlp, labels, noise, nv,
                             n_probes=8, rng=np.random.default_rng(0))
        assert rep.passed, f"max rel err {rep.max_rel_err:.2e}"

    @pytest.mark.parametrize("kink", ["rectifier", "clip"])
    def test_gradient_check_redraws_probes_across_a_kink(self, kink):
        # one hidden unit's pre-activation, or one LLR's distance to the
        # clip, is 1e-7, well inside the 1e-5 step: probes that move it
        # across must be redrawn, else their differences mix two slopes. The
        # clip is reached by scaling the head's column of the first level
        m, S = 2, 64
        rng = np.random.default_rng(31)
        raw = init_mapper(_config(m=m, batch_symbols=S), rng)
        mlp = init_mlp(m, (4,), rng)
        labels = _balanced_labels(m, S)
        noise = awgn_sample(rng, np.zeros(S), 0.2)
        _, st = forward_loss(raw, mlp, labels, noise, 0.2)
        if kink == "rectifier":
            pre = mlp.layers[0].T @ st.receiver.inputs[0]
            mlp.layers[0][-1, 0] -= pre[0, 0] - 1e-7
        else:
            mlp.layers[-1][:, 0] *= (LLR_CLIP + 1e-7) / np.abs(st.llr_raw[0]).max()
        n_coords = sum(a.size for a in trainable_arrays(raw, mlp).values())
        rep = gradient_check(raw, mlp, labels, noise, 0.2, n_probes=n_coords,
                             rng=np.random.default_rng(0))
        assert rep.passed, f"max rel err {rep.max_rel_err:.2e}"
        assert 0 < len(rep.probes) < n_coords

    @pytest.mark.parametrize("mode", ["gaussian", "mlp"])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_quadrature_batch_gradients(self, mode, m):
        # criterion 3's setup and tolerance, on the weighted loss of train's
        # Gauss-Hermite batch with its 8 x 8 nodes per label
        cfg = _config(m=m, batch_symbols=64 << m, demapper_mode=mode, mlp_hidden=(16, 16))
        rng = np.random.default_rng(100 * (mode == "mlp") + m)
        raw = init_mapper(cfg, rng)
        dem = GaussianDemapper() if mode == "gaussian" else init_mlp(m, cfg.mlp_hidden, rng)
        rep = gradient_check(raw, dem, _balanced_labels(m, cfg.batch_symbols), None,
                             1.0 / db_to_linear(8.0), n_probes=20, tolerance=1e-4,
                             rng=np.random.default_rng(m))
        assert rep.passed, f"max rel err {rep.max_rel_err:.2e}"

    @pytest.mark.parametrize("m, snr_db", [(2, 3.0), (4, 9.3), (4, 14.0)])
    def test_quadrature_batch_loss_is_the_oracle_on_its_grid(self, m, snr_db):
        # the weighted loss of the Gaussian receiver is m minus the quadrature
        # GMI on the same 8 x 8 grid (no level clamps at these SNRs)
        raw = init_mapper(_config(m=m, batch_symbols=64 << m), np.random.default_rng(m))
        nv = 1.0 / db_to_linear(snr_db)
        loss, _ = forward_loss(raw, GaussianDemapper(), _balanced_labels(m, 64 << m), None, nv)
        oracle = gmi_oracle_quadrature(Constellation(m=m, points=emit(raw)), nv, n_nodes=8)
        assert m - loss == pytest.approx(oracle, abs=1e-12)

    def test_mlp_bias_gradient_is_the_sample_sum(self):
        # each bias gradient, the last row of its layer's gradient, is the sum
        # of dx over the samples, its last axis; the two agree to the rounding
        # of an S-term sum
        rng = np.random.default_rng(7)
        S, m = 1024, 4
        mlp = init_mlp(m, (16, 8), rng)
        y = rng.standard_normal((2, S))
        grads = {k: np.empty_like(v) for k, v in mlp.arrays().items()}
        receiver = mlp.bind(y, None, 1.0, grads)
        receiver.forward()
        cache = receiver.inputs
        dllr = rng.standard_normal((m, S))
        receiver.backward(dllr.copy())
        dx = dllr
        for i in range(len(mlp.layers) - 1, -1, -1):
            bound = S * np.finfo(float).eps * np.abs(dx).max()
            assert np.abs(grads[f"mlp.layer{i}"][-1] - dx.sum(axis=1)).max() <= bound
            dx = mlp.layers[i][:-1] @ dx
            if i > 0:
                dx = dx * (cache[i][:-1] > 0)

    @pytest.mark.parametrize("mode", ["gaussian", "mlp"])
    def test_unclipped_batch_skips_the_clip_with_the_same_bits(self, mode):
        m, S = 3, 128
        cfg = _config(m=m, batch_symbols=S, demapper_mode=mode, mlp_hidden=(8,))
        rng = np.random.default_rng(17)
        raw = init_mapper(cfg, rng)
        demapper = init_mlp(m, (8,), rng) if mode == "mlp" else GaussianDemapper()
        noise = awgn_sample(rng, np.zeros(S), 0.2)
        _, st = forward_loss(raw, demapper, _balanced_labels(m, S), noise, 0.2)
        assert st.llr is st.llr_raw
        assert clip_llr(st.llr_raw) is st.llr_raw
        unmasked = {name: g.copy() for name, g in backward(st).items()}
        # a clipped copy, which an unconditional clip would give, takes
        # backward's masked path
        clipped = np.clip(st.llr_raw, -LLR_CLIP, LLR_CLIP)
        np.testing.assert_array_equal(st.llr, clipped)
        st.llr = clipped
        for name, g in backward(st).items():
            np.testing.assert_array_equal(unmasked[name], g, err_msg=name)

    def test_mlp_llrs_past_the_clip_get_zero_gradient(self):
        m, S = 2, 64
        cfg = _config(m=m, batch_symbols=S, demapper_mode="mlp", mlp_hidden=(8,))
        rng = np.random.default_rng(18)
        raw = init_mapper(cfg, rng)
        mlp = init_mlp(m, (8,), rng)
        mlp.layers[-1] *= 400.0  # some LLRs beyond the clip, others not
        noise = awgn_sample(rng, np.zeros(S), 0.5)
        _, st = forward_loss(raw, mlp, _balanced_labels(m, S), noise, 0.5)
        beyond = np.abs(st.llr_raw) > LLR_CLIP
        assert beyond.any() and not beyond.all()
        seen = []
        real = st.receiver.backward

        def spy(dllr):
            seen.append(dllr.copy())
            return real(dllr)

        st.receiver.backward = spy
        backward(st)
        np.testing.assert_array_equal(seen[0] == 0.0, beyond)

    def test_checker_is_exact_on_quadratic_toy(self):
        # central differences have no error on quadratics, so any residual
        # comes from the harness itself
        rng = np.random.default_rng(3)
        a = rng.uniform(0.5, 2.0, (3, 4))
        ctr = rng.normal(size=(3, 4))
        x = {"x": rng.normal(size=(3, 4))}

        def loss_fn(arrays):
            return float(np.sum(a * (arrays["x"] - ctr) ** 2))

        grads = {"x": 2.0 * a * (x["x"] - ctr)}
        rep = finite_difference_check(loss_fn, x, grads, n_probes=12,
                                      tolerance=1e-9, rng=np.random.default_rng(0))
        assert rep.passed
        assert len(rep.probes) == 12

    def test_checker_redraws_probes_straddling_kinks(self):
        # relu toy with one coordinate closer to the kink than the fd step:
        # a central difference there mixes the two slopes (reads ~0.65 here),
        # so the checker must reject that probe, not the gradient
        x = {"x": np.array([0.5, -0.5, 3e-6])}

        def loss_fn(arrays):
            return float(np.maximum(arrays["x"], 0.0).sum())

        grads = {"x": np.array([1.0, 0.0, 1.0])}  # exact one-sided slopes
        naive = finite_difference_check(loss_fn, x, grads, n_probes=3,
                                        tolerance=1e-6,
                                        rng=np.random.default_rng(0))
        assert not naive.passed  # the straddling probe poisons the check

        rep = finite_difference_check(loss_fn, x, grads, n_probes=3,
                                      tolerance=1e-6,
                                      rng=np.random.default_rng(0),
                                      region_fn=lambda a: [a["x"] > 0])
        assert rep.passed
        assert {p.index for p in rep.probes} == {(0,), (1,)}

    def test_checker_flags_wrong_gradients(self):
        rng = np.random.default_rng(4)
        x = {"x": rng.normal(size=(5,))}

        def loss_fn(arrays):
            return float(np.sum(arrays["x"] ** 2))

        grads = {"x": 2.0 * x["x"] * 1.02}  # 2% error
        rep = finite_difference_check(loss_fn, x, grads, n_probes=5,
                                      tolerance=1e-4, rng=np.random.default_rng(0))
        assert not rep.passed
        assert rep.max_rel_err > 1e-3

    def test_backward_returns_all_trainable_arrays(self):
        cfg = _config(m=2, batch_symbols=64, demapper_mode="mlp", mlp_hidden=(8,))
        rng = np.random.default_rng(5)
        raw = init_mapper(cfg, rng)
        mlp = init_mlp(2, (8,), rng)
        labels = _balanced_labels(2, 64)
        noise = awgn_sample(rng, np.zeros(64), 0.1)
        _, st = forward_loss(raw, mlp, labels, noise, 0.1)
        grads = backward(st)
        assert set(grads) == set(trainable_arrays(raw, mlp))
        for key, g in grads.items():
            assert g.shape == trainable_arrays(raw, mlp)[key].shape


class TestPackageSurface:
    @pytest.mark.parametrize("receiver", [GaussianDemapper, training.MlpDemapper])
    def test_receiver_has_the_three_interface_methods(self, receiver):
        assert _public_methods(receiver) == {"arrays", "with_arrays", "bind"}

    @pytest.mark.parametrize("mode", ["gaussian", "mlp"])
    def test_bound_receiver_has_the_two_step_methods(self, mode):
        m, S = 2, 64
        rng = np.random.default_rng(22)
        raw = init_mapper(_config(m=m, batch_symbols=S), rng)
        receiver = init_mlp(m, (4,), rng) if mode == "mlp" else GaussianDemapper()
        _, st = forward_loss(raw, receiver, _balanced_labels(m, S),
                             awgn_sample(rng, np.zeros(S), 0.1), 0.1)
        assert _public_methods(type(st.receiver)) == {"forward", "backward"}

    def test_three_methods_train_through_a_clipping_step(self):
        # a receiver with the interface and nothing else, GaussianDemapper
        # behind a wrapper whose bound receiver has the two step methods and
        # nothing else, on a 40 dB step whose LLRs clip but for those of the
        # samples moved onto a decision boundary
        class Bound:
            def __init__(self, inner):
                self.inner = inner

            def forward(self):
                return self.inner.forward()

            def backward(self, dllr):
                return self.inner.backward(dllr)

        class ThreeMethods:
            def __init__(self, inner):
                self.inner = inner

            def arrays(self):
                return self.inner.arrays()

            def with_arrays(self, arrays):
                return ThreeMethods(self.inner.with_arrays(arrays))

            def bind(self, *args):
                return Bound(self.inner.bind(*args))

        assert _public_methods(ThreeMethods) == _public_methods(GaussianDemapper)
        assert _public_methods(Bound) == {"forward", "backward"}
        cfg = _config(m=3, batch_symbols=128)
        rng = np.random.default_rng(21)
        raw = init_mapper(cfg, rng)
        labels = _balanced_labels(3, 128)
        nv = 1.0 / db_to_linear(40.0)
        noise = awgn_sample(rng, np.zeros(128), nv)
        pts = emit(raw)
        noise[labels == 0] += 0.5 * (pts[1] - pts[0])
        steps = []
        for receiver in (ThreeMethods(GaussianDemapper()), GaussianDemapper()):
            loss, st = forward_loss(raw, receiver, labels, noise, nv)
            steps.append((loss, st.llr, backward(st)["mapper.raw"]))
        (loss, llr, grad), want = steps
        assert (np.abs(llr) == LLR_CLIP).any()
        assert np.isfinite(grad).all() and np.any(grad != 0.0)
        assert (loss, llr.tobytes(), grad.tobytes()) == (want[0], want[1].tobytes(),
                                                         want[2].tobytes())

    def test_step_check_harness_is_not_in_the_package(self):
        assert not hasattr(shapegain, "gradient_check")
        for name in ("forward_loss", "backward", "GradProbe", "GradCheckReport",
                     "finite_difference_check", "gradient_check"):
            assert not hasattr(training, name), name
        # one bound step, with no clip of its own
        for name in ("Workspace", "ForwardState", "_forward", "_backward"):
            assert not hasattr(training, name), name
        for method in (training._Step, training._Step.forward):
            assert "llr_clip" not in inspect.signature(method).parameters

    def test_gmi_report_stores_only_its_per_bit_values(self):
        # the totals and the dual-pol copy are properties derived from per_bit
        assert tuple(f.name for f in fields(shapegain.GmiReport)) == (
            "per_bit", "n_samples", "stderr_total")

    def test_make_report_keeps_its_three_arguments(self):
        params = inspect.signature(shapegain.demapper.make_report).parameters
        assert list(params) == ["per_bit", "n_samples", "stderr_total"]


# --------------------------------------------------------------------- Adam


class _Adam:
    """The training loop's Adam: _adam_update on one flat copy of named
    arrays, with its moments [m; v] as named views too."""

    def __init__(self, arrays: dict, config: TrainConfig):
        self.theta, self.arrays = _flatten(arrays)
        self.moments, views = _flatten({k: np.zeros((2,) + np.shape(v))
                                        for k, v in arrays.items()}, (2,))
        self.m_views = {k: v[0] for k, v in views.items()}
        self.v_views = {k: v[1] for k, v in views.items()}
        self.work = np.empty((2, self.theta.size))
        self.config = config
        self.t = 0

    def step(self, grads: dict) -> dict:
        """One update from named gradients; returns the updated named arrays."""
        grad, _ = _flatten({k: grads[k] for k in self.arrays})
        self.t += 1
        _adam_update(self.theta, grad, self.moments, self.t, self.config, self.work)
        return self.arrays


class TestAdam:
    def test_zero_gradient_is_a_fixed_point(self):
        arrays = {"w": np.array([1.0, -2.0, 3.0])}
        opt = _Adam(arrays, _config())
        out = opt.step({"w": np.zeros(3)})
        np.testing.assert_array_equal(out["w"], arrays["w"])
        assert not opt.moments.any()

    def test_constant_gradient_moves_lr_per_step(self):
        # with g constant, m-hat/(sqrt(v-hat)+eps) == sign(g) at every step
        opt = _Adam({"w": np.array([0.5, -0.25])}, _config(learning_rate=1e-3))
        g = {"w": np.array([3.0, -0.7])}
        for _ in range(500):
            arrays = opt.step(g)
        moved = np.array([0.5, -0.25]) - arrays["w"]
        np.testing.assert_allclose(moved, 500 * 1e-3 * np.sign(g["w"]), rtol=1e-4)

    def test_step_does_not_mutate_inputs(self):
        # the update writes theta, its moments and its scratch, never the gradient
        theta, moments = np.array([1.0]), np.zeros((2, 1))
        grad = np.array([2.0])
        _adam_update(theta, grad, moments, 1, _config(), np.empty((2, 1)))
        assert grad[0] == 2.0
        assert theta[0] != 1.0 and moments.all()

    def test_matches_textbook_formula_bitwise(self):
        # the in-place update keeps the formula's evaluation order exactly
        rng = np.random.default_rng(8)
        cfg = _config(learning_rate=3e-3)
        b1, b2, eps = training.ADAM_BETA1, training.ADAM_BETA2, training.ADAM_EPS
        assert (b1, b2, eps) == (0.9, 0.999, 1e-8)
        # parameters of the step's own size, so a one-ulp change of the step shows
        arrays = {"a": 1e-3 * rng.normal(size=(5, 2)), "b": np.zeros(3)}
        opt = _Adam(arrays, cfg)
        ref_x = {k: v.copy() for k, v in arrays.items()}
        ref_m = {k: np.zeros_like(v) for k, v in arrays.items()}
        ref_v = {k: np.zeros_like(v) for k, v in arrays.items()}
        for t in range(1, 30):
            g = {k: rng.normal(size=v.shape) * 10.0 ** rng.integers(-6, 6)
                 for k, v in arrays.items()}
            arrays = opt.step(g)
            c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            for k in ref_x:
                ref_m[k] = b1 * ref_m[k] + (1.0 - b1) * g[k]
                ref_v[k] = b2 * ref_v[k] + (1.0 - b2) * g[k] * g[k]
                ref_x[k] = ref_x[k] - cfg.learning_rate * (ref_m[k] / c1) / (
                    np.sqrt(ref_v[k] / c2) + eps)
                np.testing.assert_array_equal(arrays[k], ref_x[k])
                np.testing.assert_array_equal(opt.m_views[k], ref_m[k])
                np.testing.assert_array_equal(opt.v_views[k], ref_v[k])

    def test_deterministic(self):
        def run():
            opt = _Adam({"w": np.array([0.3, 0.7])}, _config())
            for i in range(50):
                arrays = opt.step({"w": np.array([np.sin(i), np.cos(i)])})
            return arrays["w"].copy()

        np.testing.assert_array_equal(run(), run())


# ------------------------------------------------------------ training loop


class TestTrain:
    def test_zero_iterations_returns_normalized_init(self):
        cfg = _config(m=2, iterations=0, batch_symbols=64, seed=3)
        c, hist = train(cfg)
        expect = emit(init_mapper(cfg, np.random.default_rng(3)))
        np.testing.assert_array_equal(c.points, expect)
        assert hist.loss.size == 0

    def test_seed_determinism_and_sensitivity(self):
        cfg = _config(m=2, iterations=30, batch_symbols=64, seed=1)
        a, _ = train(cfg)
        b, _ = train(cfg)
        assert constellation_to_dict(a) == constellation_to_dict(b)
        c, _ = train(_config(m=2, iterations=30, batch_symbols=64, seed=2))
        assert np.any(a.points != c.points)

    def test_history_shape_and_identity(self):
        cfg = _config(m=3, iterations=250, batch_symbols=128)
        _, hist = train(cfg)
        assert hist.iteration.tolist() == [0, 100, 200, 249]
        assert hist.loss.size == 4
        assert np.all(np.isfinite(hist.loss))
        np.testing.assert_allclose(hist.surrogate_gmi, 3.0 - hist.loss, atol=1e-12)
        csv = hist.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "iteration,loss,surrogate_gmi,grad_norm"
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "100", "200", "249"]
        # repr floats parse back exactly
        fields = lines[1].split(",")
        assert float(fields[1]) == hist.loss[0]
        assert float(fields[3]) == hist.grad_norm[0]

    def test_training_does_not_degrade_qpsk(self):
        # short-run analog of the 16-QAM non-degradation gate
        cfg = _config(m=2, iterations=600, batch_symbols=256,
                      learning_rate=2e-3, seed=0)
        c, _ = train(cfg)
        nv = 1.0 / db_to_linear(10.0)
        trained = gmi_oracle_quadrature(c, nv)
        reference = gmi_oracle_quadrature(uniform_qam(2), nv)
        assert trained >= reference - 0.02

    def test_trained_metadata_records_provenance(self):
        cfg = _config(m=2, iterations=5, batch_symbols=64, seed=7)
        c, _ = train(cfg)
        assert c.metadata["generator"] == "train"
        assert c.metadata["seed"] == 7
        assert c.metadata["trained_snr_db"] == pytest.approx(10.0)
        assert c.metadata["demapper_mode"] == "gaussian"

    def test_mlp_mode_trains(self):
        cfg = _config(m=2, iterations=40, batch_symbols=64,
                      demapper_mode="mlp", mlp_hidden=(8,), seed=2)
        c, hist = train(cfg)
        assert c.size == 4
        assert np.all(np.isfinite(hist.grad_norm))


class TestOneUnitPowerRule:
    """A trained constellation is the points a training step would transmit
    from the final table, bit for bit."""

    def test_emit_scales_as_the_step_does(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            raw = rng.standard_normal((int(rng.integers(2, 257)), 2))
            sent = raw.T * training._mapper_power(raw)[0] ** -0.5
            points = emit(raw)
            np.testing.assert_array_equal(points.real, sent[0])
            np.testing.assert_array_equal(points.imag, sent[1])

    @pytest.mark.parametrize("spans", [(8,), (4, 8, 16)], ids=["lone", "stacked"])
    def test_emitted_constellation_is_emit_of_the_final_table(self, monkeypatch, spans):
        # the config of the MLP link pin, and three stacked cells of its link
        configs = [TrainConfig(m=3, target=link_target(replace(_LINK, n_spans=n), 3),
                               iterations=300 if len(spans) == 1 else 50,
                               batch_symbols=256, demapper_mode="mlp", mlp_hidden=(16, 8),
                               learning_rate=2e-3, seed=4 + k)
                   for k, n in enumerate(spans)]
        sent = []

        class Step(training._Step):
            def forward(self, *args, **kwargs):
                sent.append(self.raw)
                return super().forward(*args, **kwargs)

        monkeypatch.setattr(training, "_Step", Step)
        results = train_many(configs)
        # the step's raw is a view of the parameters Adam updates in place:
        # after the run it holds the final table
        final = sent[-1].reshape(len(spans), -1, 2)
        for k, (c, _) in enumerate(results):
            np.testing.assert_array_equal(c.points, emit(final[k]))


def _count_clips(monkeypatch) -> list:
    """Count the step's calls of clip_llr that return a new array, made only
    when some LLR lies beyond the clip; returns the one-entry list holding
    the count."""
    real, calls = training.clip_llr, [0]

    def counted(llr_raw):
        llr = real(llr_raw)
        calls[0] += llr is not llr_raw
        return llr

    monkeypatch.setattr(training, "clip_llr", counted)
    return calls


def _public_api_train(config):
    """train() spelled out with the step functions of stepcheck, one call each."""
    rng = np.random.default_rng(config.seed)
    raw = init_mapper(config, rng)
    if config.demapper_mode == "mlp":
        demapper = init_mlp(config.m, config.mlp_hidden, rng)
    else:
        demapper = GaussianDemapper()
    labels = _balanced_labels(config.m, config.batch_symbols)
    opt = _Adam(trainable_arrays(raw, demapper), config)
    raw, demapper = with_arrays(demapper, opt.arrays)

    nv = 1.0 / db_to_linear(config.target.snr_db)
    loss, gmi, norm = [], [], []
    for it in range(config.iterations):
        noise = None  # the Gauss-Hermite batch
        if training._grid_shape(config.batch_symbols >> config.m) is None:
            noise = awgn_sample(rng, np.zeros(config.batch_symbols), nv)
        val, st = forward_loss(raw, demapper, labels, noise, nv)
        grads = backward(st)
        raw, demapper = with_arrays(demapper, opt.step(grads))
        loss.append(val)
        gmi.append(config.m - val)
        flat = np.concatenate([g.ravel() for g in grads.values()])
        norm.append(math.sqrt(float(flat @ flat)))
    return emit(raw), np.array(loss), np.array(gmi), np.array(norm)


class TestTrainMatchesPublicSteps:
    """train() keeps its per-run invariants and one flat parameter vector;
    it must still take exactly the steps stepcheck's functions define, and
    each history row must be that iteration's loss, surrogate GMI and
    gradient norm. Rows are recorded every 4th iteration here, so that
    most of the steps skip the loss."""

    @pytest.mark.parametrize("config, clips", [
        (_config(m=4, iterations=40, batch_symbols=256, demapper_mode="mlp",
                 mlp_hidden=(4,), seed=3), False),
        (_config(m=3, iterations=30, batch_symbols=128, demapper_mode="mlp",
                 mlp_hidden=(8, 8), seed=1), False),
        (_config(m=4, iterations=30, batch_symbols=256, seed=2), False),
        (_config(m=2, iterations=30, batch_symbols=64, demapper_mode="mlp",
                 mlp_hidden=(4,), seed=4,
                 target=link_target(LinkConfig(n_spans=8, ase_var_per_span=0.0041,
                                               chi1=0.3, chi2=0.1), 2)), False),
        (_config(m=2, iterations=30, batch_symbols=64, seed=5,
                 target=link_target(LinkConfig(n_spans=8, ase_var_per_span=0.0041,
                                               chi1=0.3, chi2=0.1), 2)), False),
        # about half of the LLRs lie beyond the clip in every step (the MLP's
        # from its second step on, its head grown by the large steps), and
        # the step zeros their entries of its dllr
        (_config(m=2, iterations=30, batch_symbols=64, seed=6, target=SnrTarget(14.0)), True),
        (_config(m=2, iterations=30, batch_symbols=64, demapper_mode="mlp",
                 mlp_hidden=(4,), seed=7, learning_rate=5.0), True),
        # the Gauss-Hermite batch: its offsets are scaled once per run
        (_config(m=2, iterations=30, batch_symbols=256, demapper_mode="mlp",
                 mlp_hidden=(4,), seed=4,
                 target=link_target(LinkConfig(n_spans=8, ase_var_per_span=0.0041,
                                               chi1=0.3, chi2=0.1), 2)), False),
        (_config(m=3, iterations=30, batch_symbols=768, seed=2,
                 target=link_target(LinkConfig(n_spans=8, ase_var_per_span=0.0041,
                                               chi1=0.3, chi2=0.1), 3)), False),
    ], ids=["mlp", "mlp-two-hidden", "gaussian", "link-mlp", "link-gaussian",
            "gaussian-clipping", "mlp-clipping", "quadrature-link-mlp",
            "quadrature-link-gaussian"])
    def test_bit_identical(self, monkeypatch, config, clips):
        monkeypatch.setattr(training, "HISTORY_STRIDE", 4)
        clip_calls = _count_clips(monkeypatch)
        c, hist = train(config)
        if clips:
            assert clip_calls[0] > 0
        points, loss, gmi, norm = _public_api_train(config)
        n = config.iterations
        at = sorted({*range(0, n, training.HISTORY_STRIDE), n - 1})
        assert hist.iteration.tolist() == at
        np.testing.assert_array_equal(c.points, points)
        np.testing.assert_array_equal(hist.loss, loss[at])
        np.testing.assert_array_equal(hist.surrogate_gmi, gmi[at])
        np.testing.assert_array_equal(hist.grad_norm, norm[at])


_EXAMPLE = Path(__file__).resolve().parent.parent / "configs" / "example.json"
_LINK = LinkConfig(n_spans=8, ase_var_per_span=0.0041, chi1=0.3, chi2=0.1)


def _example_ae_configs(iterations):
    """The training configs of the shipped example sweep's six ae cells."""
    from shapegain.sweep import _ae_train_config, load_run_config

    rc = load_run_config(_EXAMPLE)
    rc = replace(rc, train=replace(rc.train, iterations=iterations))
    return [_ae_train_config(rc, n) for n in rc.sweep.span_grid]


def _softplus_steps(monkeypatch, configs) -> tuple:
    """Train the configs; returns the number of steps taken and the steps
    whose forward pass took the softplus of the loss terms."""
    real_softplus = demapper._log2_1p
    steps, softplus_at = [0], []

    class Step(training._Step):
        def forward(self, *args, **kwargs):
            super().forward(*args, **kwargs)
            steps[0] += 1

    def softplus(*args, **kwargs):
        softplus_at.append(steps[0])
        return real_softplus(*args, **kwargs)

    monkeypatch.setattr(training, "_Step", Step)
    monkeypatch.setattr(demapper, "_log2_1p", softplus)
    train_many(configs)
    return steps[0], softplus_at


class TestTrainMany:
    """Cells trained together end exactly where each one trained alone does."""

    @staticmethod
    def _assert_lone_results(configs, results):
        # both runs record every HISTORY_STRIDE-th iteration and the last,
        # with equal values there
        for config, (c, hist) in zip(configs, results, strict=True):
            c_alone, hist_alone = train(config)
            np.testing.assert_array_equal(c.points, c_alone.points)
            assert c.metadata == c_alone.metadata
            n = config.iterations
            at = [it for it in range(n) if it % HISTORY_STRIDE == 0 or it == n - 1]
            assert hist.iteration.tolist() == hist_alone.iteration.tolist() == at
            np.testing.assert_array_equal(hist.loss, hist_alone.loss)
            np.testing.assert_array_equal(hist.surrogate_gmi, hist_alone.surrogate_gmi)
            np.testing.assert_array_equal(hist.grad_norm, hist_alone.grad_norm)

    @pytest.mark.parametrize("configs, clips", [
        (_example_ae_configs(25), False),
        ([_config(m=2, iterations=20, batch_symbols=64, demapper_mode="mlp",
                  mlp_hidden=(4,), seed=s, target=t)
          for s, t in [(4, link_target(_LINK, 2)),
                       (5, SnrTarget(8.0)),
                       (6, link_target(replace(_LINK, n_spans=20), 2))]], False),
        # the large steps grow the heads past the clip: each cell clips in 6
        # to 18 of the 20 steps, and not all of them in the same ones
        ([_config(m=2, iterations=20, batch_symbols=64, demapper_mode="mlp",
                  mlp_hidden=(4,), seed=s, target=SnrTarget(db), learning_rate=5.0)
          for s, db in [(8, 6.0), (9, 10.0), (10, 14.0)]], True),
        # each cell's offsets are scaled to its own target once per run
        ([_config(m=2, iterations=20, batch_symbols=256, demapper_mode="mlp",
                  mlp_hidden=(4,), seed=s, target=t)
          for s, t in [(4, link_target(_LINK, 2)),
                       (5, SnrTarget(8.0)),
                       (6, link_target(replace(_LINK, n_spans=20), 2))]], False),
    ], ids=["example-ae-cells", "link-mlp", "mlp-clipping", "link-mlp-quadrature"])
    def test_each_cell_equals_its_lone_run(self, monkeypatch, configs, clips):
        clip_calls = _count_clips(monkeypatch)
        results = train_many(configs)
        if clips:
            assert clip_calls[0] > 0
        self._assert_lone_results(configs, results)

    @pytest.mark.parametrize("change", [
        {"m": 3}, {"iterations": 11}, {"batch_symbols": 128}, {"demapper_mode": "mlp"},
        {"mlp_hidden": (8,)}, {"learning_rate": 2e-3},
        {"mlp_hidden": (32, 96)},  # the same cell entries as the default (64, 64)
        {"iterations": 0}, {"learning_rate": math.nextafter(1e-3, 1.0)},
    ])
    def test_configs_differing_beyond_seed_and_target_rejected(self, change):
        base = _config(iterations=10, seed=1)
        other = replace(base, seed=2, target=SnrTarget(5.0), **change)
        with pytest.raises(ParameterError, match="seed and target"):
            train_many([base, other])

    def test_no_configs(self):
        assert train_many([]) == []

    @pytest.mark.parametrize("iterations, recorded", [
        (0, []), (1, [0]), (100, [0, 99]), (101, [0, 100]),
    ])
    def test_history_is_recorded_at_the_stride_and_the_last_iteration(
            self, iterations, recorded):
        configs = [_config(m=2, iterations=iterations, batch_symbols=64,
                           demapper_mode="mlp", mlp_hidden=(4,), seed=s) for s in (1, 2)]
        for _, hist in train_many(configs):
            assert hist.iteration.tolist() == recorded
            assert hist.loss.shape == hist.surrogate_gmi.shape == hist.grad_norm.shape == (
                len(recorded),)
            assert hist.to_csv().splitlines()[1:] == [
                f"{it},{loss!r},{gmi!r},{norm!r}" for it, loss, gmi, norm in zip(
                    recorded, hist.loss.tolist(), hist.surrogate_gmi.tolist(),
                    hist.grad_norm.tolist())]

    def test_stacked_steps_take_the_softplus_only_where_history_is_recorded(
            self, monkeypatch):
        # the six example cells stack into one run, and the loss terms of
        # its 250 steps are computed at iterations 0, 100, 200 and 249 only
        assert _softplus_steps(monkeypatch, _example_ae_configs(250)) == (
            250, [0, 100, 200, 249])

    @pytest.mark.parametrize("config", [
        _example_ae_configs(250)[0],
        _config(m=3, iterations=250, batch_symbols=128),
    ], ids=["mlp", "gaussian"])
    def test_lone_steps_take_the_softplus_only_where_history_is_recorded(
            self, monkeypatch, config):
        # train() is a run of one cell, with the same rows
        assert _softplus_steps(monkeypatch, [config]) == (250, [0, 100, 200, 249])

    @staticmethod
    def _runs(monkeypatch, configs):
        """train_many(configs), and the seeds of each _train_run it made."""
        real = training._train_run
        runs = []

        def recorded(run_configs):
            runs.append([c.seed for c in run_configs])
            return real(run_configs)

        monkeypatch.setattr(training, "_train_run", recorded)
        return train_many(configs), runs

    @pytest.mark.parametrize("configs", [
        [_config(m=4, iterations=20, batch_symbols=256, seed=s, target=SnrTarget(db))
         for s, db in [(0, 9.3), (1, 12.0), (7, 4.0)]],
        [_config(m=2, iterations=20, batch_symbols=64, seed=s,
                 target=link_target(replace(_LINK, n_spans=n), 2))
         for s, n in [(1, 8), (2, 24)]],
    ], ids=["gaussian", "link-gaussian"])
    def test_gaussian_cells_run_one_per_run(self, monkeypatch, configs):
        # each Gaussian cell picks its own form of the bit metric, so stacking
        # batches nothing
        results, runs = self._runs(monkeypatch, configs)
        assert runs == [[c.seed] for c in configs]
        self._assert_lone_results(configs, results)

    def test_mlp_cells_beyond_the_budget_train_in_runs(self, monkeypatch):
        # each cell holds sum(mlp_hidden) * batch_symbols = 4 * 64 entries;
        # with a budget of two cells three cells train in two runs, in order
        configs = [_config(m=2, iterations=10, batch_symbols=64, demapper_mode="mlp",
                           mlp_hidden=(4,), seed=s, target=SnrTarget(db))
                   for s, db in [(5, 8.0), (2, 12.0), (9, 4.0)]]
        monkeypatch.setattr(training, "MAX_CELL_ENTRIES", 2 * 4 * 64 + 255)
        results, runs = self._runs(monkeypatch, configs)
        assert runs == [[5, 2], [9]]
        self._assert_lone_results(configs, results)

    def test_lone_gaussian_run_has_no_cell_axis(self, monkeypatch):
        # the receiver is bound once to one cell's I/Q rows, samples (2, S)
        # and points (2, M), and sees them at every step
        bound, shapes = [], []
        real = GaussianDemapper.bind

        def spy(self, y_iq, points_iq, noise_variance, grads):
            bound.append((y_iq.shape, points_iq.shape, type(noise_variance)))
            receiver = real(self, y_iq, points_iq, noise_variance, grads)
            real_forward = receiver.forward

            def forward():
                shapes.append((receiver.y_iq.shape, receiver.points_iq.shape,
                               type(receiver.noise_variance)))
                return real_forward()

            receiver.forward = forward
            return receiver

        monkeypatch.setattr(GaussianDemapper, "bind", spy)
        train(_config(m=3, iterations=4, batch_symbols=64))
        assert bound == [((2, 64), (2, 8), float)]
        assert shapes == [((2, 64), (2, 8), float)] * 4


class TestNoiseWindows:
    """The drawn path draws each cell's noise once per window of iterations,
    and the windows change no bit. Here a window holds 3 iterations of the
    run, so 19 iterations take windows of 3, 3, 3, 3, 3, 3, 1: cut by the
    budget and by the end of the run."""

    WINDOWS = [3, 3, 3, 3, 3, 3, 1]

    @staticmethod
    def _counted_rngs(monkeypatch) -> list:
        """Record the shape of each standard_normal call of every generator
        made from here on; returns one list of shapes per generator."""
        real, draws = np.random.default_rng, []

        class Counted:
            def __init__(self, seed):
                self._rng, self.shapes = real(seed), []
                draws.append(self.shapes)

            def standard_normal(self, shape):
                self.shapes.append(shape)
                return self._rng.standard_normal(shape)

        monkeypatch.setattr(np.random, "default_rng", Counted)
        return draws

    @pytest.mark.parametrize("configs", [
        [_config(m=2, iterations=19, batch_symbols=64, demapper_mode="mlp",
                 mlp_hidden=(4,), seed=s, target=link_target(replace(_LINK, n_spans=n), 2))
         for s, n in [(4, 8), (5, 14), (6, 20)]],
        [_config(m=2, iterations=19, batch_symbols=64, seed=5, target=link_target(_LINK, 2))],
    ], ids=["stacked-link-mlp", "lone-link-gaussian"])
    def test_one_draw_per_cell_per_window_and_the_same_bits(self, monkeypatch, configs):
        K, S = len(configs), configs[0].batch_symbols
        # the entries of 4 iterations less one: the budget's floor holds 3
        monkeypatch.setattr(training, "NOISE_WINDOW_ENTRIES", 4 * K * 2 * S - 1)
        with monkeypatch.context() as patched:
            draws = self._counted_rngs(patched)
            results = train_many(configs)
        assert len(draws) == K
        for shapes in draws:
            assert [s for s in shapes if s[-2:] == (S, 2)] == [(w, S, 2) for w in self.WINDOWS]
        for config, (c, hist) in zip(configs, results, strict=True):
            points, loss, gmi, norm = _public_api_train(config)
            np.testing.assert_array_equal(c.points, points)
            np.testing.assert_array_equal(hist.loss, loss[hist.iteration])
            np.testing.assert_array_equal(hist.surrogate_gmi, gmi[hist.iteration])
            np.testing.assert_array_equal(hist.grad_norm, norm[hist.iteration])
        # alone, a stacked cell's window holds 4 K - 1 iterations
        TestTrainMany._assert_lone_results(configs, results)


def _step_arrays(st) -> dict:
    """The per-sample arrays of a bound step, by name, after its backward():
    the step's own, then the MLP receiver's layer inputs, LLRs, dx and masks."""
    arrays = {name: getattr(st, name) for name in
              ("points_iq", "y_iq", "penalties", "sigmoid", "dllr", "dp", "dscale")}
    if hasattr(st.receiver, "inputs"):
        arrays.update({f"input{i}": x for i, x in enumerate(st.receiver.inputs)})
        arrays["llr"] = st.receiver.llr
        back = st.receiver.back  # from the head down
        for i, (*_, dx, _, _, mask) in zip(range(len(back) - 1, -1, -1), back):
            arrays[f"dx{i}"] = dx
            if mask is not None:
                arrays[f"mask{i}"] = mask
    return arrays


class TestBoundStep:
    """A run binds its step once: every step fills the arrays allocated
    when the run starts. A step outside the loop binds its own."""

    @staticmethod
    def _address(a: np.ndarray) -> int:
        return a.__array_interface__["data"][0]

    @pytest.mark.parametrize("configs", [
        [_config(m=3, iterations=6, batch_symbols=64, seed=1)],
        [_config(m=2, iterations=6, batch_symbols=64, demapper_mode="mlp",
                 mlp_hidden=(4, 3), seed=2)],
        [_config(m=2, iterations=6, batch_symbols=64, demapper_mode="mlp",
                 mlp_hidden=(4,), seed=s, target=SnrTarget(db))
         for s, db in [(3, 8.0), (4, 10.0), (5, 12.0)]],
    ], ids=["gaussian", "mlp", "stacked-mlp"])
    def test_step_arrays_keep_one_address_per_run(self, monkeypatch, configs):
        seen, steps = [], []
        address = self._address

        class Step(training._Step):
            def __init__(self, *args):
                super().__init__(*args)
                steps.append(self)

            def backward(self):
                super().backward()
                arrays = _step_arrays(self)
                seen.append((self.y_iq.shape, tuple(arrays),
                             tuple(address(a) for a in arrays.values())))

        monkeypatch.setattr(training, "_Step", Step)
        train_many(configs)
        stacked = (len(configs),) if len(configs) > 1 else ()
        assert len(steps) == 1 and len(seen) == 6
        assert set(seen) == {seen[0]} and seen[0][0] == stacked + (2, 64)
        names = seen[0][1]
        assert len(set(seen[0][2])) == len(names)  # each array its own memory
        if configs[0].demapper_mode == "mlp":
            assert {"input0", "llr", "dx0", "mask1"} <= set(names)

    @pytest.mark.parametrize("mode", ["gaussian", "mlp"])
    def test_steps_outside_the_loop_share_no_memory(self, mode):
        m, S = 2, 64
        rng = np.random.default_rng(21)
        raw = init_mapper(_config(m=m, batch_symbols=S), rng)
        demapper = init_mlp(m, (4,), rng) if mode == "mlp" else GaussianDemapper()
        noise = awgn_sample(rng, np.zeros(S), 0.1)
        first, second = (forward_loss(raw, demapper, _balanced_labels(m, S), noise, 0.1)[1]
                         for _ in range(2))
        pairs = [(first.llr_raw, second.llr_raw)]
        for st in (first, second):
            backward(st)
        pairs += zip(_step_arrays(first).values(), _step_arrays(second).values())
        pairs += zip(first.grads.values(), second.grads.values())
        for a, b in pairs:
            np.testing.assert_array_equal(a, b)
            assert not np.shares_memory(a, b)


class TestTrainNumericalErrors:
    def test_non_finite_llr_names_the_iteration(self, monkeypatch):
        real_init = training.init_mlp

        def huge_mlp(*args, **kwargs):
            mlp = real_init(*args, **kwargs)
            mlp.layers = [np.full_like(w, 1e300) for w in mlp.layers]
            return mlp

        monkeypatch.setattr(training, "init_mlp", huge_mlp)
        cfg = _config(m=2, iterations=3, demapper_mode="mlp", mlp_hidden=(4,))
        with pytest.raises(NumericalError, match=r"^iteration 0: non-finite values in llr"):
            train(cfg)

    def test_nan_gaussian_llr_names_the_iteration(self, monkeypatch):
        # a subnormal noise variance, with noise draws scaled up so that each
        # sample lies off every point: all squared distances over the
        # variance overflow, and every LLR is NaN
        real_rng = np.random.default_rng

        class FarNoise:
            def __init__(self, seed):
                self._rng = real_rng(seed)

            def standard_normal(self, shape):
                draws = self._rng.standard_normal(shape)
                # the noise, drawn one window of iterations at a time
                return draws * 1e160 if shape[-2:] == (64, 2) else draws

        config = _config(m=2, iterations=3, batch_symbols=64)
        monkeypatch.setattr(np.random, "default_rng", FarNoise)
        monkeypatch.setattr(training, "noise_variance_from_db", lambda snr_db: 1e-320)
        with pytest.raises(NumericalError, match=r"^iteration 0: non-finite values in llr$"):
            train(config)

    def test_mapper_overflow_names_the_iteration(self, monkeypatch):
        real_init = training.init_mapper

        def overflowing_mapper(*args, **kwargs):
            return real_init(*args, **kwargs) * 1e200  # |raw|^2 overflows

        monkeypatch.setattr(training, "init_mapper", overflowing_mapper)
        for mode in ("gaussian", "mlp"):
            cfg = _config(m=2, iterations=3, demapper_mode=mode, mlp_hidden=(4,))
            with pytest.raises(NumericalError, match=r"^iteration 0: mapper power is inf"):
                train(cfg)

    def test_non_finite_receiver_gradient_names_the_iteration_and_array(self, monkeypatch):
        # real weights do not get there, as the LLRs clip first: a receiver
        # behind a wrapper writes inf into one of its gradients at the third step
        real_init = training.init_mlp
        steps = [0]

        class Bound:
            def __init__(self, inner, grads):
                self.inner, self.grads = inner, grads

            def forward(self):
                return self.inner.forward()

            def backward(self, dllr):
                out = self.inner.backward(dllr)
                steps[0] += 1
                if steps[0] == 3:
                    self.grads["mlp.layer0"][0, 0] = math.inf
                return out

        class InfGradient:
            def __init__(self, inner):
                self.inner = inner

            def arrays(self):
                return self.inner.arrays()

            def with_arrays(self, arrays):
                return InfGradient(self.inner.with_arrays(arrays))

            def bind(self, y_iq, points_iq, noise_variance, grads):
                return Bound(self.inner.bind(y_iq, points_iq, noise_variance, grads), grads)

        monkeypatch.setattr(training, "init_mlp",
                            lambda *args: InfGradient(real_init(*args)))
        cfg = _config(m=2, iterations=5, demapper_mode="mlp", mlp_hidden=(4,))
        with pytest.raises(NumericalError,
                           match=r"^iteration 2: non-finite values in gradient mlp\.layer0$"):
            train(cfg)

    def test_non_finite_gradient_names_the_iteration(self, monkeypatch):
        # a tiny mapper normalizes to finite points, but the chain rule
        # through scale = power^(-1/2) needs scale^3, which overflows
        real_init = training.init_mapper

        def tiny_mapper(*args, **kwargs):
            return real_init(*args, **kwargs) * 1e-150

        monkeypatch.setattr(training, "init_mapper", tiny_mapper)
        cfg = _config(m=2, iterations=3)
        with pytest.raises(NumericalError,
                           match=r"^iteration 0: non-finite values in gradient mapper\.raw"):
            train(cfg)


class TestQuadratureTraining:
    """A constellation trained on the fixed Gauss-Hermite batch does not
    exploit its nodes: Monte-Carlo GMI and the 48-node oracle agree on it."""

    @pytest.mark.parametrize("config", [
        # criterion 4's setup: Gray 16QAM's 3-bit SNR, 5000 iterations
        TrainConfig(m=4, target=SnrTarget(9.308632135959519), iterations=5000,
                    batch_symbols=1024, learning_rate=2e-3, seed=0),
        _example_ae_configs(6000)[1],  # the 8-span cell, in full
    ], ids=["criterion-4-gaussian", "example-8-spans-mlp"])
    def test_monte_carlo_and_oracle_agree(self, config):
        c, _ = train(config)
        nv = 1.0 / db_to_linear(config.target.snr_db)
        rep = per_bit_gmi_mc(c, nv, 200_000, np.random.default_rng(4))
        assert abs(rep.total - gmi_oracle_quadrature(c, nv)) <= 4.0 * rep.stderr_total

    def test_largest_grid_trains_unwarned(self, recwarn):
        # 2^16 symbols at m=1 make a 128 x 256 grid whose smallest weights,
        # about 3e-313, overflow flip_norm to inf: no gradient, no warning
        config = _config(m=1, batch_symbols=1 << 16, iterations=2)
        _, history = train(config)
        assert np.isfinite(history.loss).all()
        assert not recwarn.list
