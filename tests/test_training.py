"""Training engine tests: forward/backward vs finite differences, Adam, train()."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

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
    uniform_qam,
)
from shapegain.demapper import _clipped
from shapegain.training import (
    AdamHyper,
    GaussianDemapper,
    LinkTarget,
    MapperParams,
    SnrTarget,
    TrainConfig,
    _adam_update,
    _flatten,
    backward,
    finite_difference_check,
    forward_loss,
    gradient_check,
    init_mapper,
    init_mlp,
    train,
    train_config_from_dict,
    train_many,
    trainable_arrays,
    with_arrays,
)


def _config(**kw):
    base = dict(m=2, target=SnrTarget(10.0), iterations=10, batch_symbols=64)
    base.update(kw)
    return TrainConfig(**base)


def _balanced_labels(m, batch):
    return np.repeat(np.arange(1 << m), batch // (1 << m))


# ------------------------------------------------------------------ configs


class TestTrainConfig:
    def test_batch_must_divide_by_constellation_size(self):
        with pytest.raises(ParameterError):
            _config(m=3, batch_symbols=20)

    def test_bad_mode_rejected(self):
        with pytest.raises(ParameterError):
            _config(demapper_mode="viterbi")

    def test_bad_init_rejected(self):
        with pytest.raises(ParameterError):
            _config(init="fourier")

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
                                 "chi1": 0.3, "chi2": 0.1},
                        "launch_power": "optimal", "refresh_every": 50}})
        assert isinstance(cfg.target, LinkTarget)
        assert cfg.target.link.n_spans == 10
        assert cfg.target.refresh_every == 50

    @pytest.mark.parametrize("clip", [0.0, -1.0, 701.0])
    def test_llr_clip_outside_exact_range_rejected(self, clip):
        with pytest.raises(ParameterError):
            _config(llr_clip=clip)

    @pytest.mark.parametrize("field", ["m", "iterations", "batch_symbols", "seed"])
    @pytest.mark.parametrize("value", [2.0, "2", True])
    def test_non_integer_counts_rejected(self, field, value):
        with pytest.raises(ParameterError, match=f"{field} must be an integer"):
            _config(**{field: value})

    @pytest.mark.parametrize("snr_db", [1e6, -1e308, math.inf, math.nan])
    def test_out_of_range_snr_target_rejected_at_construction(self, snr_db):
        # sweeps replace the target before resolving it, so this is the only check
        with pytest.raises(ParameterError, match="snr_db"):
            SnrTarget(snr_db)

    def test_from_dict_missing_target_rejected(self):
        with pytest.raises(ParameterError):
            train_config_from_dict({"m": 2, "iterations": 5})

    def test_work_caps(self):
        cap, big = training.MAX_CELL_ENTRIES, training.MAX_BATCH_SYMBOLS
        mlp = dict(batch_symbols=64, demapper_mode="mlp")
        _config(iterations=training.MAX_ITERATIONS, batch_symbols=big)
        _config(m=8, batch_symbols=big)
        _config(m=16, batch_symbols=big, demapper_mode="mlp")
        _config(**mlp, mlp_hidden=(cap // 64,))
        _config(mlp_hidden=(10 ** 6,))  # unused by the gaussian receiver
        for match, kw in [("iterations", dict(iterations=training.MAX_ITERATIONS + 1)),
                          ("iterations", dict(iterations=10 ** 400)),
                          ("batch_symbols", dict(batch_symbols=2 * big)),
                          ("batch_symbols", dict(batch_symbols=4 ** 400)),
                          ("batch_symbols", dict(m=9, batch_symbols=big)),
                          ("batch_symbols", dict(m=16, batch_symbols=big)),
                          ("mlp_hidden", dict(mlp, mlp_hidden=(cap // 64 + 1,))),
                          ("mlp_hidden", dict(mlp, mlp_hidden=(10 ** 6,))),
                          ("mlp_hidden", dict(mlp, mlp_hidden=(cap // 128, cap // 128, 1))),
                          ("m must be in", dict(m=0)),
                          ("m must be in", dict(m=17)),
                          ("m must be in", dict(m=2 ** 40)),
                          ("m must be in", dict(m=10 ** 400))]:
            with pytest.raises(ParameterError, match=match):
                _config(**kw)


class TestInitMapper:
    def test_qam_init_with_zero_jitter_is_gray_qam(self):
        # emit() renormalizes, so allow one ulp of scale noise
        for m in (1, 2, 3, 4, 6):
            cfg = _config(m=m, batch_symbols=1 << m, init="qam")
            params = init_mapper(cfg, np.random.default_rng(0), jitter=0.0)
            np.testing.assert_allclose(params.emit(), uniform_qam(m).points,
                                       rtol=0, atol=1e-15)

    def test_qam_init_default_jitter_stays_close(self):
        cfg = _config(m=4, init="qam")
        params = init_mapper(cfg, np.random.default_rng(1))
        ref = uniform_qam(4).points
        assert np.max(np.abs(params.emit() - ref)) < 0.1
        assert np.any(params.emit() != ref)

    def test_random_init_unit_power_and_seed_determinism(self):
        cfg = _config(m=3, batch_symbols=64, init="random")
        a = init_mapper(cfg, np.random.default_rng(4)).emit()
        b = init_mapper(cfg, np.random.default_rng(4)).emit()
        c = init_mapper(cfg, np.random.default_rng(5)).emit()
        np.testing.assert_array_equal(a, b)
        assert np.any(a != c)
        assert np.mean(np.abs(a) ** 2) == pytest.approx(1.0, abs=1e-12)
        assert len(np.unique(a)) >= 2


# ------------------------------------------------------------- forward pass


class TestForwardLoss:
    def _setup(self, m=2, batch=64, snr_db=10.0, seed=0):
        cfg = _config(m=m, batch_symbols=batch)
        rng = np.random.default_rng(seed)
        params = init_mapper(cfg, rng)
        labels = _balanced_labels(m, batch)
        nv = 1.0 / db_to_linear(snr_db)
        noise = awgn_sample(rng, np.zeros(batch), nv)
        return params, labels, noise, nv

    def test_surrogate_identity_loss_plus_gmi_is_m(self):
        params, labels, noise, nv = self._setup(m=3, batch=128)
        loss, st = forward_loss(params, GaussianDemapper(), labels, noise, nv)
        per_bit_surrogate = 1.0 - st.penalties.sum(axis=-1) / labels.size
        assert float(per_bit_surrogate.sum()) == pytest.approx(3.0 - loss, abs=1e-12)

    def test_transmitted_points_have_unit_power(self):
        params, labels, noise, nv = self._setup(m=4, batch=256)
        _, st = forward_loss(params, GaussianDemapper(), labels, noise, nv)
        assert (st.points_iq ** 2).sum(axis=0).mean() == pytest.approx(1.0, abs=1e-12)

    def test_noiseless_batch_loss_is_tiny(self):
        params, labels, _, _ = self._setup(m=2, batch=64)
        loss, _ = forward_loss(params, GaussianDemapper(), labels,
                               np.zeros(64, complex), 1e-4)
        assert loss < 1e-12

    def test_overwhelming_noise_loss_approaches_m(self):
        params, labels, noise, _ = self._setup(m=2, batch=64)
        loss, _ = forward_loss(params, GaussianDemapper(), labels,
                               1e4 * noise, 1e8)
        assert loss == pytest.approx(2.0, abs=0.01)

    def test_unbalanced_labels_rejected(self):
        params, labels, noise, nv = self._setup(m=2, batch=64)
        labels = labels.copy()
        labels[labels == 3] = 0
        with pytest.raises(ParameterError):
            forward_loss(params, GaussianDemapper(), labels, noise, nv)

    @pytest.mark.parametrize("labels", [[0, 1, 2, 3, 4], [0, 1, 2, -1]],
                             ids=["label equal to M", "negative label"])
    def test_label_out_of_range_rejected(self, labels):
        params, _, _, nv = self._setup(m=2, batch=4)
        labels = np.array(labels)
        noise = np.zeros(labels.size, complex)
        with pytest.raises(ParameterError, match=r"labels must be integers in \[0, 4\)"):
            forward_loss(params, GaussianDemapper(), labels, noise, nv)

    def test_nan_gaussian_llr_raises_numerical_error(self):
        # every sample lies 0.14 off its point, and each squared distance
        # over a subnormal noise variance overflows: a sample's
        # log-likelihoods are all -inf and its LLRs NaN
        params, labels, _, _ = self._setup(m=2, batch=64)
        noise = np.full(64, 0.1 + 0.1j)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericalError, match=r"^NaN values in llr$"):
            forward_loss(params, GaussianDemapper(), labels, noise, 1e-320)

    def test_underflowed_gaussian_llr_clips_without_raising(self):
        # on the points themselves only the own point's distance stays
        # finite: the other partition of every level is 0, its LLR +/-inf
        params, labels, _, _ = self._setup(m=2, batch=64)
        with np.errstate(over="ignore"):
            loss, st = forward_loss(params, GaussianDemapper(), labels,
                                    np.zeros(64, complex), 1e-320)
        assert np.isinf(st.llr_raw).all()
        np.testing.assert_array_equal(st.llr, np.sign(st.llr_raw) * st.llr_clip)
        assert 0.0 <= loss < 1e-12

    def test_nan_parameters_raise_numerical_error(self):
        params, labels, noise, nv = self._setup(m=2, batch=64)
        bad = MapperParams(raw=params.raw.copy())
        bad.raw[0, 0] = np.nan
        with pytest.raises(NumericalError):
            forward_loss(bad, GaussianDemapper(), labels, noise, nv)


class TestLabelOrder:
    """Batches may list their labels in any order; a sorted batch (train()'s)
    sums each label's samples as one run, and a shuffled one is sorted
    stably first."""

    def test_per_label_sum_of_shuffled_labels(self):
        M, S = 8, 256
        rng = np.random.default_rng(12)
        labels = rng.permutation(np.repeat(np.arange(M), S // M))
        g = rng.standard_normal((3, 2, S))
        got = training._per_label_sum(training._make_batch(labels, M), g, M)
        assert got.shape == (3, 2, M)
        for j in range(M):
            np.testing.assert_array_equal(got[..., j], g[..., labels == j].sum(axis=-1))

    @pytest.mark.parametrize("mode", ["gaussian", "mlp"])
    def test_shuffled_batch_takes_the_same_step(self, mode):
        m, S = 3, 128
        cfg = _config(m=m, batch_symbols=S, demapper_mode=mode, mlp_hidden=(8,))
        rng = np.random.default_rng(13)
        params = init_mapper(cfg, rng)
        demapper = init_mlp(m, (8,), rng) if mode == "mlp" else GaussianDemapper()
        labels = _balanced_labels(m, S)
        noise = awgn_sample(rng, np.zeros(S), 0.2)
        perm = rng.permutation(S)
        loss, st = forward_loss(params, demapper, labels, noise, 0.2)
        loss_p, st_p = forward_loss(params, demapper, labels[perm], noise[perm], 0.2)
        np.testing.assert_array_equal(st_p.y_iq, st.y_iq[:, perm])
        assert loss_p == pytest.approx(loss, rel=1e-13)
        grads = backward(params, demapper, st)
        grads_p = backward(params, demapper, st_p)
        for name, g in grads.items():
            np.testing.assert_allclose(grads_p[name], g, rtol=1e-10, atol=1e-14,
                                       err_msg=name)


class TestSamplesLastLayout:
    """The per-sample arrays of the step keep the samples on their last axis."""

    @pytest.mark.parametrize("mode", ["gaussian", "mlp"])
    def test_step_arrays_are_c_contiguous_with_samples_last(self, mode):
        m, S = 3, 128
        cfg = _config(m=m, batch_symbols=S, demapper_mode=mode, mlp_hidden=(8, 5))
        rng = np.random.default_rng(11)
        params = init_mapper(cfg, rng)
        demapper = (init_mlp(m, cfg.mlp_hidden, rng) if mode == "mlp"
                    else GaussianDemapper())
        noise = awgn_sample(rng, np.zeros(S), 0.1)
        _, st = forward_loss(params, demapper, _balanced_labels(m, S), noise, 0.1)
        grads = {k: np.empty_like(v) for k, v in demapper.arrays().items()}
        gy, gp = demapper.backward(np.ones((m, S)), st.cache, grads)
        rows = {"y_iq": (st.y_iq, 2), "llr_raw": (st.llr_raw, m), "llr": (st.llr, m),
                "sigmoid": (st.sigmoid, m), "penalties": (st.penalties, m),
                "flip": (st.batch.flip, m), "gy": (gy, 2)}
        if mode == "mlp":
            # each layer input carries a ones row below its fan_in rows
            for i, fan_in in enumerate((2, *cfg.mlp_hidden)):
                rows[f"layer input {i}"] = (st.cache[i], fan_in + 1)
                np.testing.assert_array_equal(st.cache[i][-1], 1.0)
            np.testing.assert_array_equal(st.cache[0][:-1], st.y_iq)
            assert gp is None
        else:
            (p, z, *_), *_ = st.cache
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
        params = init_mapper(cfg, rng)
        labels = _balanced_labels(m, cfg.batch_symbols)
        nv = 1.0 / db_to_linear(8.0)
        noise = awgn_sample(rng, np.zeros(cfg.batch_symbols), nv)
        rep = gradient_check(params, GaussianDemapper(), labels, noise, nv,
                             n_probes=8, rng=np.random.default_rng(0))
        assert rep.passed, f"max rel err {rep.max_rel_err:.2e}"

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_gaussian_gradients_with_underflowed_partitions(self, m):
        # at 40 dB most partitions underflow (infinite raw LLRs); a few
        # samples moved onto a decision boundary keep unclipped entries in
        # the same rows
        cfg = _config(m=m, batch_symbols=16 * (1 << m))
        rng = np.random.default_rng(300 + m)
        params = init_mapper(cfg, rng)
        labels = _balanced_labels(m, cfg.batch_symbols)
        nv = 1.0 / db_to_linear(40.0)
        noise = awgn_sample(rng, np.zeros(cfg.batch_symbols), nv)
        pts = params.emit()
        edge = labels == 0
        noise[edge] += 0.5 * (pts[1] - pts[0])
        _, st = forward_loss(params, GaussianDemapper(), labels, noise, nv)
        assert np.isinf(st.llr_raw).any()
        assert (np.abs(st.llr_raw[:, edge]) < st.llr_clip).any()
        grads = backward(params, GaussianDemapper(), st)
        assert all(np.all(np.isfinite(g)) for g in grads.values())
        assert np.any(grads["mapper.raw"] != 0.0)
        rep = gradient_check(params, GaussianDemapper(), labels, noise, nv,
                             n_probes=8, tolerance=1e-4, rng=np.random.default_rng(0))
        assert rep.passed, f"max rel err {rep.max_rel_err:.2e}"

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_mlp_demapper_gradients(self, m):
        cfg = _config(m=m, batch_symbols=16 * (1 << m), demapper_mode="mlp",
                      mlp_hidden=(16, 16))
        rng = np.random.default_rng(200 + m)
        params = init_mapper(cfg, rng)
        mlp = init_mlp(m, cfg.mlp_hidden, rng, cfg.llr_clip)
        labels = _balanced_labels(m, cfg.batch_symbols)
        nv = 1.0 / db_to_linear(8.0)
        noise = awgn_sample(rng, np.zeros(cfg.batch_symbols), nv)
        rep = gradient_check(params, mlp, labels, noise, nv,
                             n_probes=8, rng=np.random.default_rng(0))
        assert rep.passed, f"max rel err {rep.max_rel_err:.2e}"

    def test_mlp_bias_gradient_is_the_sample_sum(self):
        # each bias gradient, the last row of its layer's gradient, is the sum
        # of dx over the samples, its last axis; the two agree to the rounding
        # of an S-term sum
        rng = np.random.default_rng(7)
        S, m = 1024, 4
        mlp = init_mlp(m, (16, 8), rng)
        y = rng.standard_normal((2, S))
        _, cache = mlp.forward(y, None, None, 1.0)
        dllr = rng.standard_normal((m, S))
        grads = {k: np.empty_like(v) for k, v in mlp.arrays().items()}
        mlp.backward(dllr.copy(), cache, grads)
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
        params = init_mapper(cfg, rng)
        demapper = init_mlp(m, (8,), rng) if mode == "mlp" else GaussianDemapper()
        noise = awgn_sample(rng, np.zeros(S), 0.2)
        _, st = forward_loss(params, demapper, _balanced_labels(m, S), noise, 0.2)
        clipped = _clipped(st.llr_raw, st.llr_clip)
        assert st.llr is st.llr_raw
        np.testing.assert_array_equal(st.llr, clipped)
        # the state the unconditional clip gives takes backward's masked path
        masked = backward(params, demapper, replace(st, llr=clipped))
        for name, g in backward(params, demapper, st).items():
            np.testing.assert_array_equal(g, masked[name], err_msg=name)

    def test_mlp_llrs_past_the_clip_get_zero_gradient(self):
        m, S = 2, 64
        cfg = _config(m=m, batch_symbols=S, demapper_mode="mlp", mlp_hidden=(8,))
        rng = np.random.default_rng(18)
        params = init_mapper(cfg, rng)
        mlp = init_mlp(m, (8,), rng, llr_clip=5.0)
        mlp.layers[-1] *= 40.0  # some LLRs beyond the clip, others not
        noise = awgn_sample(rng, np.zeros(S), 0.5)
        _, st = forward_loss(params, mlp, _balanced_labels(m, S), noise, 0.5)
        beyond = np.abs(st.llr_raw) > st.llr_clip
        assert beyond.any() and not beyond.all()
        seen = []
        real = mlp.backward

        def spy(dllr, cache, grads):
            seen.append(dllr.copy())
            return real(dllr, cache, grads)

        mlp.backward = spy
        backward(params, mlp, st)
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
        params = init_mapper(cfg, rng)
        mlp = init_mlp(2, (8,), rng, 50.0)
        labels = _balanced_labels(2, 64)
        noise = awgn_sample(rng, np.zeros(64), 0.1)
        _, st = forward_loss(params, mlp, labels, noise, 0.1)
        grads = backward(params, mlp, st)
        assert set(grads) == set(trainable_arrays(params, mlp))
        for key, g in grads.items():
            assert g.shape == trainable_arrays(params, mlp)[key].shape


# --------------------------------------------------------------------- Adam


class _Adam:
    """The training loop's Adam: _adam_update on one flat copy of named
    arrays, with its moments as named views too."""

    def __init__(self, arrays: dict, hyper: AdamHyper):
        self.theta, self.arrays = _flatten(arrays)
        zeros = {k: np.zeros_like(v) for k, v in arrays.items()}
        self.m, self.m_views = _flatten(zeros)
        self.v, self.v_views = _flatten(zeros)
        self.work = np.empty((2, self.theta.size))
        self.hyper = hyper
        self.t = 0

    def step(self, grads: dict) -> dict:
        """One update from named gradients; returns the updated named arrays."""
        grad, _ = _flatten({k: grads[k] for k in self.arrays})
        self.t += 1
        _adam_update(self.theta, grad, self.m, self.v, self.t, self.hyper, self.work)
        return self.arrays


class TestAdam:
    def test_zero_gradient_is_a_fixed_point(self):
        arrays = {"w": np.array([1.0, -2.0, 3.0])}
        opt = _Adam(arrays, AdamHyper())
        out = opt.step({"w": np.zeros(3)})
        np.testing.assert_array_equal(out["w"], arrays["w"])
        assert not opt.m.any() and not opt.v.any()

    def test_constant_gradient_moves_lr_per_step(self):
        # with g constant, m-hat/(sqrt(v-hat)+eps) == sign(g) at every step
        hyper = AdamHyper(learning_rate=1e-3)
        opt = _Adam({"w": np.array([0.5, -0.25])}, hyper)
        g = {"w": np.array([3.0, -0.7])}
        for _ in range(500):
            arrays = opt.step(g)
        moved = np.array([0.5, -0.25]) - arrays["w"]
        np.testing.assert_allclose(moved, 500 * 1e-3 * np.sign(g["w"]), rtol=1e-4)

    def test_step_does_not_mutate_inputs(self):
        # the update writes theta, its moments and its scratch, never the gradient
        theta, m, v = np.array([1.0]), np.zeros(1), np.zeros(1)
        grad = np.array([2.0])
        _adam_update(theta, grad, m, v, 1, AdamHyper(), np.empty((2, 1)))
        assert grad[0] == 2.0
        assert theta[0] != 1.0 and m[0] != 0.0 and v[0] != 0.0

    def test_matches_textbook_formula_bitwise(self):
        # the in-place update keeps the formula's evaluation order exactly
        rng = np.random.default_rng(8)
        hyper = AdamHyper(learning_rate=3e-3, beta1=0.8, beta2=0.99, eps=1e-7)
        # parameters of the step's own size, so a one-ulp change of the step shows
        arrays = {"a": 1e-3 * rng.normal(size=(5, 2)), "b": np.zeros(3)}
        opt = _Adam(arrays, hyper)
        ref_x = {k: v.copy() for k, v in arrays.items()}
        ref_m = {k: np.zeros_like(v) for k, v in arrays.items()}
        ref_v = {k: np.zeros_like(v) for k, v in arrays.items()}
        for t in range(1, 30):
            g = {k: rng.normal(size=v.shape) * 10.0 ** rng.integers(-6, 6)
                 for k, v in arrays.items()}
            arrays = opt.step(g)
            c1, c2 = 1.0 - hyper.beta1 ** t, 1.0 - hyper.beta2 ** t
            for k in ref_x:
                ref_m[k] = hyper.beta1 * ref_m[k] + (1.0 - hyper.beta1) * g[k]
                ref_v[k] = hyper.beta2 * ref_v[k] + (1.0 - hyper.beta2) * g[k] * g[k]
                ref_x[k] = ref_x[k] - hyper.learning_rate * (ref_m[k] / c1) / (
                    np.sqrt(ref_v[k] / c2) + hyper.eps)
                np.testing.assert_array_equal(arrays[k], ref_x[k])
                np.testing.assert_array_equal(opt.m_views[k], ref_m[k])
                np.testing.assert_array_equal(opt.v_views[k], ref_v[k])

    def test_deterministic(self):
        def run():
            opt = _Adam({"w": np.array([0.3, 0.7])}, AdamHyper())
            for i in range(50):
                arrays = opt.step({"w": np.array([np.sin(i), np.cos(i)])})
            return arrays["w"].copy()

        np.testing.assert_array_equal(run(), run())


# ------------------------------------------------------------ training loop


class TestTrain:
    def test_zero_iterations_returns_normalized_init(self):
        cfg = _config(m=2, iterations=0, batch_symbols=64, seed=3)
        c, hist = train(cfg)
        expect = init_mapper(cfg, np.random.default_rng(3)).emit()
        np.testing.assert_array_equal(c.points, expect)
        assert len(hist) == 0

    def test_seed_determinism_and_sensitivity(self):
        cfg = _config(m=2, iterations=30, batch_symbols=64, seed=1)
        a, _ = train(cfg)
        b, _ = train(cfg)
        assert constellation_to_dict(a) == constellation_to_dict(b)
        c, _ = train(_config(m=2, iterations=30, batch_symbols=64, seed=2))
        assert np.any(a.points != c.points)

    def test_history_shape_and_identity(self):
        cfg = _config(m=3, iterations=25, batch_symbols=128)
        _, hist = train(cfg)
        assert len(hist) == 25
        assert np.all(np.isfinite(hist.loss))
        np.testing.assert_allclose(hist.surrogate_gmi, 3.0 - hist.loss, atol=1e-12)
        csv = hist.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "iteration,loss,surrogate_gmi,grad_norm"
        assert len(lines) == 26
        assert lines[1].startswith("0,")
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

    def test_link_target_refresh_runs(self):
        link = LinkConfig(n_spans=8, ase_var_per_span=0.0041, chi1=0.3,
                          chi2=0.1)
        cfg = _config(m=2, iterations=45, batch_symbols=64,
                      target=LinkTarget(link, refresh_every=20))
        c, hist = train(cfg)
        assert len(hist) == 45
        assert np.isfinite(c.metadata["trained_snr_db"])

    def test_mlp_mode_trains(self):
        cfg = _config(m=2, iterations=40, batch_symbols=64,
                      demapper_mode="mlp", mlp_hidden=(8,), seed=2)
        c, hist = train(cfg)
        assert c.size == 4
        assert np.all(np.isfinite(hist.grad_norm))


def _public_api_train(config):
    """train() spelled out with the public step functions, one call each."""
    rng = np.random.default_rng(config.seed)
    params = init_mapper(config, rng)
    if config.demapper_mode == "mlp":
        demapper = init_mlp(config.m, config.mlp_hidden, rng, config.llr_clip)
    else:
        demapper = GaussianDemapper(llr_clip=config.llr_clip)
    labels = _balanced_labels(config.m, config.batch_symbols)
    hyper = AdamHyper(config.learning_rate, config.adam_beta1,
                      config.adam_beta2, config.adam_eps)
    opt = _Adam(trainable_arrays(params, demapper), hyper)
    params, demapper = with_arrays(params, demapper, opt.arrays)
    refresh = getattr(config.target, "refresh_every", 0)

    def resolve():
        return config.target.resolve(Constellation(m=config.m, points=params.emit()))

    nv = resolve()
    loss, gmi, norm = [], [], []
    for it in range(config.iterations):
        if refresh and it > 0 and it % refresh == 0:
            nv = resolve()
        noise = awgn_sample(rng, np.zeros(config.batch_symbols), nv)
        val, st = forward_loss(params, demapper, labels, noise, nv)
        grads = backward(params, demapper, st)
        params, demapper = with_arrays(params, demapper, opt.step(grads))
        loss.append(val)
        gmi.append(config.m - val)
        flat = np.concatenate([g.ravel() for g in grads.values()])
        norm.append(math.sqrt(float(flat @ flat)))
    return params.emit(), np.array(loss), np.array(gmi), np.array(norm)


class TestTrainMatchesPublicSteps:
    """train() keeps its per-run invariants and one flat parameter vector;
    it must still take exactly the steps the public functions define."""

    @pytest.mark.parametrize("config", [
        _config(m=4, iterations=40, batch_symbols=256, demapper_mode="mlp",
                mlp_hidden=(4,), seed=3),
        _config(m=3, iterations=30, batch_symbols=128, demapper_mode="mlp",
                mlp_hidden=(8, 8), seed=1),
        _config(m=4, iterations=30, batch_symbols=256, seed=2),
        _config(m=2, iterations=30, batch_symbols=64, demapper_mode="mlp",
                mlp_hidden=(4,), seed=4,
                target=LinkTarget(LinkConfig(n_spans=8, ase_var_per_span=0.0041,
                                             chi1=0.3, chi2=0.1), refresh_every=7)),
        _config(m=2, iterations=30, batch_symbols=64, seed=5,
                target=LinkTarget(LinkConfig(n_spans=8, ase_var_per_span=0.0041,
                                             chi1=0.3, chi2=0.1), refresh_every=7)),
    ], ids=["mlp", "mlp-two-hidden", "gaussian", "link-mlp", "link-gaussian"])
    def test_bit_identical(self, config):
        c, hist = train(config)
        points, loss, gmi, norm = _public_api_train(config)
        np.testing.assert_array_equal(c.points, points)
        np.testing.assert_array_equal(hist.loss, loss)
        np.testing.assert_array_equal(hist.surrogate_gmi, gmi)
        np.testing.assert_array_equal(hist.grad_norm, norm)


_EXAMPLE = Path(__file__).resolve().parent.parent / "configs" / "example.json"
_LINK = LinkConfig(n_spans=8, ase_var_per_span=0.0041, chi1=0.3, chi2=0.1)


def _example_ae_configs(iterations):
    """The training configs of the shipped example sweep's six ae cells."""
    from shapegain.sweep import _ae_train_config, load_run_config

    rc = load_run_config(_EXAMPLE)
    rc = replace(rc, train=replace(rc.train, iterations=iterations))
    return [_ae_train_config(rc, n) for n in rc.sweep.span_grid]


class TestTrainMany:
    """Cells trained together end exactly where each one trained alone does."""

    @staticmethod
    def _assert_lone_results(configs, results):
        for config, (c, hist) in zip(configs, results, strict=True):
            c_alone, hist_alone = train(config)
            np.testing.assert_array_equal(c.points, c_alone.points)
            assert c.metadata == c_alone.metadata
            np.testing.assert_array_equal(hist.loss, hist_alone.loss)
            np.testing.assert_array_equal(hist.surrogate_gmi, hist_alone.surrogate_gmi)
            np.testing.assert_array_equal(hist.grad_norm, hist_alone.grad_norm)

    @pytest.mark.parametrize("configs", [
        _example_ae_configs(25),
        [_config(m=2, iterations=20, batch_symbols=64, demapper_mode="mlp",
                 mlp_hidden=(4,), seed=s, target=t)
         for s, t in [(4, LinkTarget(_LINK, refresh_every=7)),
                      (5, SnrTarget(8.0)),
                      (6, LinkTarget(replace(_LINK, n_spans=20), refresh_every=3))]],
    ], ids=["example-ae-cells", "link-mlp"])
    def test_each_cell_equals_its_lone_run(self, configs):
        self._assert_lone_results(configs, train_many(configs))

    @pytest.mark.parametrize("change", [
        {"m": 3}, {"iterations": 11}, {"batch_symbols": 128}, {"demapper_mode": "mlp"},
        {"mlp_hidden": (8,)}, {"learning_rate": 2e-3}, {"adam_beta2": 0.99},
        {"init": "random"}, {"llr_clip": 20.0},
    ])
    def test_configs_differing_beyond_seed_and_target_rejected(self, change):
        base = _config(iterations=10, seed=1)
        other = replace(base, seed=2, target=SnrTarget(5.0), **change)
        with pytest.raises(ParameterError, match="seed and target"):
            train_many([base, other])

    def test_no_configs(self):
        assert train_many([]) == []

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
                 target=LinkTarget(_LINK, launch_power=p, refresh_every=6))
         for s, p in [(1, "optimal"), (2, 0.01)]],
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
        # the receiver sees one cell's I/Q rows, samples (2, S) and points (2, M)
        shapes = []
        real = GaussianDemapper.forward

        def spy(self, y_iq, points_iq, bits, noise_variance):
            shapes.append((y_iq.shape, points_iq.shape, type(noise_variance)))
            return real(self, y_iq, points_iq, bits, noise_variance)

        monkeypatch.setattr(GaussianDemapper, "forward", spy)
        train(_config(m=3, iterations=4, batch_symbols=64))
        assert shapes == [((2, 64), (2, 8), float)] * 4


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
                return draws * 1e160 if shape == (64, 2) else draws  # the noise

        monkeypatch.setattr(np.random, "default_rng", FarNoise)
        monkeypatch.setattr(SnrTarget, "resolve", lambda self, c: 1e-320)
        with pytest.raises(NumericalError, match=r"^iteration 0: NaN values in llr$"):
            train(_config(m=2, iterations=3, batch_symbols=64))

    def test_mapper_overflow_names_the_iteration(self, monkeypatch):
        real_init = training.init_mapper

        def overflowing_mapper(*args, **kwargs):
            params = real_init(*args, **kwargs)
            return MapperParams(raw=params.raw * 1e200)  # |raw|^2 overflows

        monkeypatch.setattr(training, "init_mapper", overflowing_mapper)
        for mode in ("gaussian", "mlp"):
            cfg = _config(m=2, iterations=3, demapper_mode=mode, mlp_hidden=(4,))
            with pytest.raises(NumericalError, match=r"^iteration 0: mapper power is inf"):
                train(cfg)

    def test_non_finite_gradient_names_the_iteration(self, monkeypatch):
        # a tiny mapper normalizes to finite points, but the chain rule
        # through scale = power^(-1/2) needs scale^3, which overflows
        real_init = training.init_mapper

        def tiny_mapper(*args, **kwargs):
            params = real_init(*args, **kwargs)
            return MapperParams(raw=params.raw * 1e-150)

        monkeypatch.setattr(training, "init_mapper", tiny_mapper)
        cfg = _config(m=2, iterations=3)
        with pytest.raises(NumericalError,
                           match=r"^iteration 0: non-finite values in gradient mapper\.raw"):
            train(cfg)
