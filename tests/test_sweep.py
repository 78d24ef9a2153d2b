"""Sweep orchestration tests: config parsing, seeding, grid evaluation, CSV."""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from shapegain import (
    LinkConfig,
    NumericalError,
    ParameterError,
    ShapegainError,
    best_plan,
    effective_snr,
    moments,
    uniform_qam,
)
from shapegain.sweep import (
    SCORE_NODES,
    EvalSettings,
    RunConfig,
    SweepRow,
    SweepSettings,
    _ae_train_config,
    derive_seed,
    evaluate_grid_point,
    load_run_config,
    rows_to_csv,
    run_sweep,
)
from shapegain.demapper import MAX_SAMPLES, per_bit_gmi_quadrature
from shapegain.training import SnrTarget, TrainConfig, train, train_config_from_dict

REPO_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "example.json"


def _tiny_config(**overrides):
    """Fast linear-ish link sweep for orchestration tests."""
    base = dict(
        link=LinkConfig(n_spans=1, ase_var_per_span=0.0041, chi1=0.3, chi2=0.1),
        train=TrainConfig(m=2, target=SnrTarget(10.0), iterations=0,
                          batch_symbols=64, seed=3),
        sweep=SweepSettings(span_grid=(2, 5), schemes=("ae", "qam"),
                            qam_m_list=(2,)),
        eval=EvalSettings(n_samples=4000, seed=7),
    )
    base.update(overrides)
    return RunConfig(**base)


_QAM_256 = SweepSettings(span_grid=(2, 5), schemes=("qam",), qam_m_list=(8,))


class TestRunConfigParsing:
    def test_shipped_example_parses(self):
        cfg = load_run_config(REPO_CONFIG)
        assert cfg.train.m == 4
        assert cfg.sweep.span_grid == (4, 8, 12, 16, 20, 24)
        assert cfg.sweep.qam_m_list == (4, 3)
        assert cfg.eval.n_samples == 200000
        assert cfg.link.fec_rate == 0.75

    def test_underscore_keys_are_comments(self, tmp_path):
        doc = {
            "_notes": ["ignored"],
            "link": {"ase_var_per_span": 0.004, "chi1": 0.3, "chi2": 0.1,
                     "_why": "ignored too"},
            "train": {"m": 2, "iterations": 1, "batch_symbols": 16,
                      "target": {"snr_db": 9.0}},
            "sweep": {"span_grid": [1, 2], "_why": "ignored as well"},
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        cfg = load_run_config(path)
        assert cfg.train.m == 2
        assert cfg.sweep.span_grid == (1, 2)

    def test_qam_m_list_defaults_to_m_and_m_minus_one(self, tmp_path):
        doc = {
            "link": {"ase_var_per_span": 0.004, "chi1": 0.3, "chi2": 0.1},
            "train": {"m": 3, "iterations": 1, "batch_symbols": 16,
                      "target": {"snr_db": 9.0}},
            "sweep": {"span_grid": [1, 2]},
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        cfg = load_run_config(path)
        assert cfg.sweep.qam_m_list == (3, 2)

    def test_missing_sections_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"train": {"m": 2}}))
        with pytest.raises(ParameterError):
            load_run_config(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{broken")
        with pytest.raises(ParameterError):
            load_run_config(path)

    @pytest.mark.parametrize("section, key, value", [
        (None, None, 5),
        ("link", None, 3),
        ("link", None, [1]),
        ("train", None, "train"),
        ("train", "mlp_hidden", 5),
        ("train", "iterations", 1.5),
        ("train", "seed", "x"),
        ("link", "chi2", "x"),
        ("sweep", "span_grid", "ab"),
        ("sweep", "schemes", 5),
        ("eval", "n_samples", 1.5),
    ])
    def test_wrongly_typed_value_rejected(self, tmp_path, section, key, value):
        doc = {"link": {"ase_var_per_span": 0.004, "chi1": 0.3, "chi2": 0.1},
               "train": {"m": 2, "iterations": 1, "batch_symbols": 16},
               "sweep": {"span_grid": [1, 2]}}
        if section is None:
            doc = value
        elif key is None:
            doc[section] = value
        else:
            doc.setdefault(section, {})[key] = value
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParameterError):
            load_run_config(path)

    @pytest.mark.parametrize("target", [
        {"snr_db": "abc"},
        {"snr_db": None},
        {"link": {"n_spans": 2, "ase_var_per_span": 0.004, "chi1": 0.3, "chi2": 0.1},
         "launch_power": "x"},
        {"snr_db": 9.0, "bogus": 1},
    ], ids=["snr-str", "snr-null", "link-launch-power", "unknown-key"])
    def test_train_target_is_unread(self, tmp_path, target):
        # each ae cell trains at its grid span's link target, so the sweep
        # neither parses nor checks the section's own; `shapegain train` does
        doc = {"link": {"ase_var_per_span": 0.004, "chi1": 0.3, "chi2": 0.1},
               "train": {"m": 2, "iterations": 1, "batch_symbols": 16},
               "sweep": {"span_grid": [1, 2]}}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        without = load_run_config(path)
        doc["train"]["target"] = target
        path.write_text(json.dumps(doc))
        assert load_run_config(path) == without
        with pytest.raises(ParameterError, match="^bad train config: bad target config: "):
            train_config_from_dict(doc["train"])

    def test_sweep_settings_validation(self):
        with pytest.raises(ParameterError):
            SweepSettings(span_grid=())
        with pytest.raises(ParameterError):
            SweepSettings(span_grid=(4, 2), qam_m_list=(2,))
        with pytest.raises(ParameterError):
            SweepSettings(span_grid=(2, 4), schemes=("qam",))  # needs m list
        with pytest.raises(ParameterError, match="^span_grid entries must be >= 1$"):
            SweepSettings(span_grid=(0, 2), qam_m_list=(2,))

    @pytest.mark.parametrize("schemes", [["ae", "ae"], ("qam", "ae", "qam")],
                             ids=["list", "tuple"])
    def test_repeated_scheme_rejected(self, schemes):
        with pytest.raises(ParameterError, match=r"^schemes must not repeat a scheme, got \["):
            SweepSettings(span_grid=(2, 4), schemes=schemes, qam_m_list=(2,))

    @pytest.mark.parametrize("build, size", [
        (lambda: _tiny_config(sweep=_QAM_256), 256),
        (lambda: replace(load_run_config(REPO_CONFIG), sweep=_QAM_256), 256),
        (lambda: _tiny_config(train=TrainConfig(m=7, target=SnrTarget(10.0), iterations=0,
                                                batch_symbols=128, seed=3)), 128),
    ], ids=["built", "replaced", "train-m-7"])
    def test_order_above_64_is_refused_where_the_config_is_built(
            self, monkeypatch, build, size):
        # a cell is scored by quadrature, which integrates at most M = 64
        import shapegain.sweep as sweep_mod

        def spy(configs):
            raise AssertionError("a cell trained")

        monkeypatch.setattr(sweep_mod, "train_many", spy)
        with pytest.raises(ParameterError, match=rf"^the sweep scores constellations of at "
                                                 rf"most M = 64, got M = {size}$"):
            run_sweep(build(), error_sink=lambda *cell: None)

    def test_order_64_builds(self):
        config = _tiny_config(
            train=TrainConfig(m=6, target=SnrTarget(10.0), iterations=0, batch_symbols=128,
                              seed=3),
            sweep=SweepSettings(span_grid=(2, 5), qam_m_list=(6, 2)))
        assert (config.train.m, config.sweep.qam_m_list) == (6, (6, 2))

    def test_overflowing_grid_span_is_refused_where_the_config_is_built(self):
        # with eps_accum = 1 the NLIN accumulation overflows at 10^200 spans:
        # the cell's error comes when the config is built, so no cell trains
        # (a grid that fails in some cells only: TestStackedTraining)
        base = load_run_config(REPO_CONFIG)
        base = replace(base, link=replace(base.link, eps_accum=1.0))
        huge = 10 ** 200
        with pytest.raises(NumericalError, match=rf"^NLIN accumulation overflowed: {huge} "
                                                 r"spans, eps_accum = 1\.0$"):
            replace(base, sweep=replace(base.sweep, span_grid=(2, huge)))
        assert replace(base, sweep=replace(base.sweep, span_grid=(2,))).sweep.span_grid == (2,)

    def test_sample_cap(self):
        EvalSettings(n_samples=MAX_SAMPLES)
        with pytest.raises(ParameterError, match="n_samples"):
            EvalSettings(n_samples=MAX_SAMPLES + 1)
        with pytest.raises(ParameterError, match="^seed must be >= 0$"):
            EvalSettings(seed=-1)


class TestDeriveSeed:
    def test_deterministic_and_span_sensitive(self):
        assert derive_seed(11, 4) == derive_seed(11, 4)
        spans = {derive_seed(11, n) for n in range(1, 30)}
        assert len(spans) == 29

    def test_base_seed_sensitive(self):
        assert derive_seed(1, 8) != derive_seed(2, 8)

    def test_stays_in_uint64(self):
        val = derive_seed(2 ** 63, 10 ** 6)
        assert 0 <= val < 2 ** 64

    @pytest.mark.parametrize("n_spans", [4, 8, 12])
    def test_base_seeds_above_uint64_keep_their_high_bits(self, n_spans):
        # TrainConfig takes any seed >= 0, and train tells these two apart
        assert derive_seed(2 ** 64 + 3, n_spans) != derive_seed(3, n_spans)


class TestEvaluateGridPoint:
    def test_qam_cell_matches_standalone_pipeline(self):
        """The cell must equal the same computation made from public calls."""
        config = _tiny_config()
        row, report, c = evaluate_grid_point(config, "qam", 5, [uniform_qam(2)])

        link = LinkConfig(n_spans=5, ase_var_per_span=0.0041, chi1=0.3, chi2=0.1)
        ref = uniform_qam(2)
        from shapegain import optimal_launch_power
        power, ch = optimal_launch_power(link, moments(ref))
        ref_report = per_bit_gmi_quadrature(ref, ch.noise_variance, SCORE_NODES)
        ref_plan = best_plan(ref_report, link.fec_rate)

        assert row.launch_power == pytest.approx(power, rel=1e-12)
        assert row.snr_eff_db == pytest.approx(ch.snr_db, rel=1e-12)
        np.testing.assert_array_equal(report.per_bit, ref_report.per_bit)
        assert (report.n_samples, report.stderr_total) == (776 * 4, 0.0)
        assert row.net_rate == ref_plan.net_rate
        assert row.n_d == ref_plan.n_d
        assert row.distance_km == 500.0
        np.testing.assert_array_equal(c.points, ref.points)

    def test_qam_picks_best_order(self):
        # at short reach 16-QAM clears more rate than 8-QAM, so the list
        # order must not matter
        config = _tiny_config(
            train=TrainConfig(m=4, target=SnrTarget(10.0), iterations=0,
                              batch_symbols=64, seed=3),
            sweep=SweepSettings(span_grid=(2,), schemes=("qam",),
                                qam_m_list=(3, 4)))
        row, _, c = evaluate_grid_point(config, "qam", 2, [uniform_qam(3), uniform_qam(4)])
        row_hi, _, c_hi = evaluate_grid_point(
            _tiny_config(
                train=TrainConfig(m=4, target=SnrTarget(10.0), iterations=0,
                                  batch_symbols=64, seed=3),
                sweep=SweepSettings(span_grid=(2,), schemes=("qam",),
                                    qam_m_list=(4, 3))), "qam", 2,
            [uniform_qam(4), uniform_qam(3)])
        assert row.net_rate == row_hi.net_rate
        assert c.m == c_hi.m

    def test_ae_cell_reports_trained_constellation(self):
        config = _tiny_config()
        row, report, c = evaluate_grid_point(
            config, "ae", 2, [train(_ae_train_config(config, 2))[0]])
        assert c.metadata["generator"] == "train"
        assert c.metadata["seed"] == derive_seed(3, 2)
        assert row.scheme == "ae"
        assert report.m == 2
        # snr is re-resolved with the trained moments, so it must be the
        # fixed point of the public computation
        link = LinkConfig(n_spans=2, ase_var_per_span=0.0041, chi1=0.3, chi2=0.1)
        from shapegain import optimal_launch_power
        _, ch = optimal_launch_power(link, moments(c))
        assert row.snr_eff_db == pytest.approx(ch.snr_db, rel=1e-12)

    def test_given_candidates_are_evaluated_as_given(self):
        config = _tiny_config(sweep=SweepSettings(span_grid=(2,), schemes=("qam",),
                                                  qam_m_list=(4,)))
        row, report, c = evaluate_grid_point(config, "qam", 2, [uniform_qam(3)])
        assert c.m == report.m == 3
        assert row == evaluate_grid_point(
            replace(config, sweep=replace(config.sweep, qam_m_list=(3,))), "qam", 2,
            [uniform_qam(3)])[0]

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ParameterError):
            evaluate_grid_point(_tiny_config(), "psk", 2, [uniform_qam(2)])

    @pytest.mark.parametrize("candidates", [[], ()])
    def test_empty_candidate_list_rejected(self, candidates):
        with pytest.raises(ParameterError, match="^a grid point needs at least one candidate$"):
            evaluate_grid_point(_tiny_config(), "qam", 4, candidates)

    def test_tie_goes_to_the_earlier_candidate(self):
        # at 80 spans (-3.6 dB) neither Gray QAM order carries data: both plans
        # are all-dummy, net rate 0, and the first candidate given must win
        config = _tiny_config()
        first, second = uniform_qam(2), uniform_qam(1)
        rows = []
        for pair in ([first, second], [second, first]):
            row, report, c = evaluate_grid_point(config, "qam", 80, pair)
            assert c is pair[0] and report.m == pair[0].m
            rows.append(row)
        assert [(r.net_rate, r.n_d) for r in rows] == [(0.0, 4), (0.0, 2)]

    def test_config_without_sweep_rejected(self):
        # a run config serves the sweep alone, so it cannot be built without one
        base = _tiny_config()
        with pytest.raises(TypeError, match="required positional argument: 'sweep'"):
            RunConfig(link=base.link, train=base.train)


class TestRunSweep:
    def test_rows_sorted_regardless_of_scheme_order(self):
        config = _tiny_config(
            sweep=SweepSettings(span_grid=(2, 5), schemes=("qam", "ae"),
                                qam_m_list=(2,)))
        rows = run_sweep(config)
        assert [(r.scheme, r.n_spans) for r in rows] == [
            ("ae", 2), ("ae", 5), ("qam", 2), ("qam", 5)]

    def test_rerun_is_identical(self):
        config = _tiny_config()
        assert rows_to_csv(run_sweep(config)) == rows_to_csv(run_sweep(config))

    def test_stale_environment_leaves_csv_unchanged(self, monkeypatch):
        # earlier versions read a thread count from the environment
        config = _tiny_config()
        clean = rows_to_csv(run_sweep(config))
        monkeypatch.setenv("SHAPEGAIN_" + "THREADS", "many")
        assert rows_to_csv(run_sweep(config)) == clean

    def test_failing_point_names_the_grid_cell(self, monkeypatch):
        import shapegain.sweep as sweep_mod
        real = sweep_mod.evaluate_grid_point

        def flaky(config, scheme, n_spans, candidates):
            if scheme == "qam" and n_spans == 5:
                raise ParameterError("synthetic failure")
            return real(config, scheme, n_spans, candidates)

        monkeypatch.setattr(sweep_mod, "evaluate_grid_point", flaky)
        with pytest.raises(ParameterError, match=r"scheme=qam, n_spans=5"):
            run_sweep(_tiny_config())

    def test_keep_going_skips_and_reports(self, monkeypatch):
        import shapegain.sweep as sweep_mod
        real = sweep_mod.evaluate_grid_point

        def flaky(config, scheme, n_spans, candidates):
            if scheme == "qam" and n_spans == 5:
                raise ParameterError("synthetic failure")
            return real(config, scheme, n_spans, candidates)

        monkeypatch.setattr(sweep_mod, "evaluate_grid_point", flaky)
        seen = []
        rows = run_sweep(_tiny_config(), error_sink=lambda s, n, e: seen.append((s, n)))
        assert seen == [("qam", 5)]
        assert [(r.scheme, r.n_spans) for r in rows] == [
            ("ae", 2), ("ae", 5), ("qam", 2)]

    @pytest.mark.parametrize("mode", ["mlp", "gaussian"])
    def test_first_failing_cell_stops_the_sweep(self, monkeypatch, mode):
        import shapegain.sweep as sweep_mod
        real = sweep_mod.evaluate_grid_point
        cells = []

        def spy(config, scheme, n_spans, candidates):
            cells.append((scheme, n_spans))
            if (scheme, n_spans) == ("ae", 5):
                raise ParameterError("synthetic failure")
            return real(config, scheme, n_spans, candidates)

        monkeypatch.setattr(sweep_mod, "evaluate_grid_point", spy)
        config = _tiny_config(train=replace(_tiny_config().train, demapper_mode=mode,
                                            mlp_hidden=(4,)))
        with pytest.raises(ParameterError, match=r"scheme=ae, n_spans=5"):
            run_sweep(config)
        assert cells == [("ae", 2), ("ae", 5)]

    def test_detail_sink_sees_every_cell(self):
        cells = []
        run_sweep(_tiny_config(),
                  detail_sink=lambda s, n, row, rep, c: cells.append((s, n)))
        assert sorted(cells) == [("ae", 2), ("ae", 5), ("qam", 2), ("qam", 5)]

    def test_example_csv_at_smoke_scale_is_pinned(self):
        # the shipped example with training cut short; a change that keeps
        # the program's outputs must leave these bytes as they are
        config = load_run_config(REPO_CONFIG)
        config = replace(config, train=replace(config.train, iterations=300))
        assert rows_to_csv(run_sweep(config)) == _SMOKE_CSV

    def test_full_example_rates_are_pinned(self):
        # the rows that decide the paper's comparison, as the shipped example
        # gave them when its cells were scored by Monte-Carlo; the exact score
        # moved data_gmi only
        rows = run_sweep(load_run_config(REPO_CONFIG))
        assert [(r.scheme, r.n_spans, r.n_d, r.net_rate) for r in rows] == [
            ("ae", 4, 1, 5.25), ("ae", 8, 4, 3.0), ("ae", 12, 8, 0.0), ("ae", 16, 8, 0.0),
            ("ae", 20, 8, 0.0), ("ae", 24, 8, 0.0), ("qam", 4, 1, 5.25), ("qam", 8, 4, 1.5),
            ("qam", 12, 8, 0.0), ("qam", 16, 8, 0.0), ("qam", 20, 8, 0.0), ("qam", 24, 8, 0.0)]
        # and every byte of its CSV, which no change to the program may move
        assert hashlib.sha256(rows_to_csv(rows).encode()).hexdigest() == (
            "f86e8e5e397d45703b6ca6ebdadba94e3b4aac557ae3c01bc1e1ff6c31309bcb")


_SMOKE_CSV = """\
scheme,n_spans,distance_km,launch_power,snr_eff_db,n_d,data_gmi,net_rate,feasible
ae,4,400,0.206688,9.24381,2,5.03173,4.5,true
ae,8,800,0.202674,6.14834,4,3.08101,3,true
ae,12,1200,0.204954,4.43601,8,0,0,true
ae,16,1600,0.209333,3.27842,8,0,0,true
ae,20,2000,0.201983,2.15409,8,0,0,true
ae,24,2400,0.209768,1.52654,8,0,0,true
qam,4,400,0.206739,9.24487,1,5.30742,5.25,true
qam,8,800,0.203169,6.15893,4,1.58886,1.5,true
qam,12,1200,0.206739,4.47366,8,0,0,true
qam,16,1600,0.206739,3.22427,8,0,0,true
qam,20,2000,0.206739,2.25517,8,0,0,true
qam,24,2400,0.206739,1.46336,8,0,0,true
"""


class TestStackedTraining:
    """run_sweep, which alone decides each cell's candidates, trains the ae
    cells in one train_many call, which sizes its own runs; a ShapegainError
    there sends every ae cell back to training alone at its turn in run_sweep,
    and any other exception propagates. evaluate_grid_point only scores."""

    @staticmethod
    def _config(mode="mlp"):
        return _tiny_config(train=TrainConfig(m=2, target=SnrTarget(10.0), iterations=5,
                                              batch_symbols=64, seed=3, demapper_mode=mode,
                                              mlp_hidden=(4,)))

    @pytest.mark.parametrize("mode", ["mlp", "gaussian"])
    def test_ae_cells_train_in_one_train_many_call(self, monkeypatch, mode):
        import shapegain.sweep as sweep_mod
        config = self._config(mode)
        cells = [evaluate_grid_point(config, "ae", n, [train(_ae_train_config(config, n))[0]])[0]
                 for n in (2, 5)]
        cells += [evaluate_grid_point(config, "qam", n, [uniform_qam(2)])[0] for n in (2, 5)]
        real, real_cell = sweep_mod.train_many, sweep_mod.evaluate_grid_point
        runs, seen = [], []

        def recorded(configs):
            configs = list(configs)
            runs.append([c.seed for c in configs])
            return real(configs)

        def lone_train(config):
            raise AssertionError("an ae cell trained alone")

        def cell(config, scheme, n_spans, candidates):
            seen.append((scheme, n_spans, candidates))
            return real_cell(config, scheme, n_spans, candidates)

        monkeypatch.setattr(sweep_mod, "train_many", recorded)
        monkeypatch.setattr(sweep_mod, "train", lone_train)
        monkeypatch.setattr(sweep_mod, "evaluate_grid_point", cell)
        assert run_sweep(config) == cells
        assert runs == [[derive_seed(3, 2), derive_seed(3, 5)]]
        # one call per cell, in row order; each ae cell's one candidate is its
        # stacked-trained constellation, and qam cells take qam_m_list's Gray
        # constellations in order
        assert [(s, n) for s, n, _ in seen] == [("ae", 2), ("ae", 5), ("qam", 2), ("qam", 5)]
        for _, n, candidates in seen[:2]:
            assert [c.metadata["seed"] for c in candidates] == [derive_seed(3, n)]
        for _, _, candidates in seen[2:]:
            assert [c.m for c in candidates] == list(config.sweep.qam_m_list)
            for c in candidates:
                np.testing.assert_array_equal(c.points, uniform_qam(c.m).points)

    @staticmethod
    def _break_ae_cell(monkeypatch, n_spans):
        """Make the training of the ae cell at n_spans overflow at iteration 0."""
        import shapegain.training as training
        real = training.init_mapper
        seed = derive_seed(3, n_spans)

        def init_mapper(config, rng):
            raw = real(config, rng)
            if config.seed == seed:
                return raw * 1e200  # |raw|^2 overflows
            return raw

        monkeypatch.setattr(training, "init_mapper", init_mapper)

    @pytest.mark.parametrize("mode", ["mlp", "gaussian"])
    def test_failing_cell_is_skipped_alone(self, monkeypatch, mode):
        config = self._config(mode)
        clean = run_sweep(config)
        self._break_ae_cell(monkeypatch, 5)
        seen = []
        rows = run_sweep(config, error_sink=lambda s, n, e: seen.append((s, n, e)))
        assert [(s, n) for s, n, _ in seen] == [("ae", 5)]
        assert isinstance(seen[0][2], NumericalError)
        assert rows == [r for r in clean if (r.scheme, r.n_spans) != ("ae", 5)]

    def test_fault_in_the_stacked_run_propagates(self, monkeypatch):
        # a fault of the program is not retried cell by cell, where it would
        # show only as a slower sweep with the same rows
        import shapegain.training as training
        real = training._train_run

        def faulty(configs):
            if len(configs) > 1:
                raise TypeError("fault in the stacked run")
            return real(configs)

        monkeypatch.setattr(training, "_train_run", faulty)
        with pytest.raises(TypeError, match="fault in the stacked run"):
            run_sweep(self._config("mlp"))

    @pytest.mark.parametrize("mode", ["mlp", "gaussian"])
    def test_failing_cell_is_named(self, monkeypatch, mode):
        self._break_ae_cell(monkeypatch, 5)
        with pytest.raises(NumericalError,
                           match=r"scheme=ae, n_spans=5\): iteration 0: mapper power is inf"):
            run_sweep(self._config(mode))


class TestCsvAndReach:
    def _rows(self):
        return [
            SweepRow("ae", 4, 400.0, 0.0123456789, 14.25, 0, 7.1, 6.0, True),
            SweepRow("ae", 8, 800.0, 0.01, 11.5, 2, 5.3, 4.5, True),
            SweepRow("qam", 4, 400.0, 0.01, 14.0, 2, 6.2, 4.5, True),
            SweepRow("qam", 8, 800.0, 0.01, 11.0, 8, 0.0, 0.0, True),
        ]

    def test_csv_layout(self):
        text = rows_to_csv(self._rows())
        lines = text.strip().split("\n")
        assert lines[0] == ("scheme,n_spans,distance_km,launch_power,"
                            "snr_eff_db,n_d,data_gmi,net_rate,feasible")
        assert lines[1] == "ae,4,400,0.0123457,14.25,0,7.1,6,true"
        assert text.endswith("\n")

    def test_booleans_lowercase(self):
        row = SweepRow("ae", 1, 100.0, 0.01, 20.0, 0, 8.0, 6.0, False)
        assert rows_to_csv([row]).strip().split("\n")[1].endswith(",false")
