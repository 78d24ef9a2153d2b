"""End-to-end CLI tests: subcommand behavior and exit codes."""

import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from shapegain import (
    GmiReport,
    constellation_to_dict,
    load_constellation,
    parse_lut,
    select_dummy_bits,
    uniform_qam,
)
from shapegain.cli import _build_parser, _UsageError, main
from shapegain.demapper import MAX_SAMPLES, make_report
from shapegain.training import (MAX_BATCH_SYMBOLS, MAX_CELL_ENTRIES, MAX_ITERATIONS, emit,
                                init_mapper, train_config_from_dict)


def _write_run_config(tmp_path, **extra):
    doc = {
        "link": {"ase_var_per_span": 0.0041, "chi1": 0.3, "chi2": 0.1,
                 "fec_rate": 0.75},
        "train": {"m": 2, "iterations": 3, "batch_symbols": 16,
                  "target": {"snr_db": 10.0}, "seed": 1},
        "eval": {"n_samples": 2000, "seed": 4},
    }
    doc.update(extra)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return path


class TestQamCommand:
    def test_stdout_json(self, capsys):
        assert main(["qam", "--m", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["m"] == 2
        points = [complex(re, im) for re, im in doc["points"]]
        np.testing.assert_allclose(points, uniform_qam(2).points)

    def test_out_file_loads_back(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert main(["qam", "--m", "3", "--out", str(out)]) == 0
        c = load_constellation(out)
        assert c.size == 8

    def test_bad_order_is_usage_error(self, capsys):
        assert main(["qam", "--m", "0"]) == 1


class TestEvalCommand:
    def test_qpsk_at_high_snr_saturates(self, tmp_path, capsys):
        cpath = tmp_path / "qpsk.json"
        main(["qam", "--m", "2", "--out", str(cpath)])
        capsys.readouterr()
        rc = main(["eval", "--constellation", str(cpath), "--snr-db", "30",
                   "--samples", "8000", "--seed", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        total = float([l for l in out.splitlines()
                       if l.startswith("total:")][0].split()[1])
        assert total == pytest.approx(2.0, abs=0.01)

    def test_json_report_round_trips(self, tmp_path, capsys):
        cpath = tmp_path / "c.json"
        rpath = tmp_path / "report.json"
        main(["qam", "--m", "2", "--out", str(cpath)])
        capsys.readouterr()
        rc = main(["eval", "--constellation", str(cpath), "--snr-db", "8",
                   "--samples", "4000", "--json", "--out", str(rpath)])
        assert rc == 0
        printed = GmiReport.from_dict(json.loads(capsys.readouterr().out))
        stored = GmiReport.from_dict(json.loads(rpath.read_text()))
        np.testing.assert_array_equal(printed.per_bit, stored.per_bit)
        assert printed.n_samples == 4000

    def test_link_from_resolves_snr(self, tmp_path, capsys):
        cfg = _write_run_config(tmp_path)
        cpath = tmp_path / "c.json"
        main(["qam", "--m", "2", "--out", str(cpath)])
        capsys.readouterr()
        rc = main(["eval", "--constellation", str(cpath),
                   "--link-from", str(cfg), "--n-spans", "6",
                   "--samples", "2000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("snr_db: ")

    def test_snr_and_link_are_mutually_exclusive(self, tmp_path, capsys):
        cfg = _write_run_config(tmp_path)
        cpath = tmp_path / "c.json"
        main(["qam", "--m", "2", "--out", str(cpath)])
        rc = main(["eval", "--constellation", str(cpath), "--snr-db", "10",
                   "--link-from", str(cfg)])
        assert rc == 1

    def test_missing_constellation_file_is_io_error(self, tmp_path, capsys):
        rc = main(["eval", "--constellation", str(tmp_path / "absent.json"),
                   "--snr-db", "10"])
        assert rc == 3

    def test_corrupt_constellation_is_parameter_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        rc = main(["eval", "--constellation", str(bad), "--snr-db", "10"])
        assert rc == 1

    @pytest.mark.parametrize("snr_db", ["1e6", "-1e6", "-1e308", "nan", "inf"])
    def test_out_of_range_snr_is_parameter_error(self, tmp_path, capsys, snr_db):
        cpath = tmp_path / "c.json"
        main(["qam", "--m", "2", "--out", str(cpath)])
        capsys.readouterr()
        rc = main(["eval", "--constellation", str(cpath), "--snr-db", snr_db,
                   "--samples", "64"])
        assert rc == 1
        assert "--snr-db" in capsys.readouterr().err

    def test_overflowing_constellation_power_is_parameter_error(self, tmp_path, capsys):
        cpath = tmp_path / "huge.json"
        doc = constellation_to_dict(uniform_qam(2))
        doc["points"][0] = [1e308, 0.0]
        cpath.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["eval", "--constellation", str(cpath), "--snr-db", "5",
                       "--samples", "64"])
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.splitlines()) == 1 and "average power" in err

    @pytest.mark.parametrize("source", ["--snr-db", "--link-from"])
    def test_constellation_off_unit_power_is_parameter_error(self, tmp_path, capsys, source):
        # eval states the SNR of a unit-power constellation: Gray 16QAM at
        # power 4 would be reported 6 dB below the SNR it was evaluated at
        cpath = tmp_path / "c.json"
        doc = constellation_to_dict(uniform_qam(4))
        doc["points"] = [[2.0 * i, 2.0 * q] for i, q in doc["points"]]
        cpath.write_text(json.dumps(doc))
        flags = {"--snr-db": ["--snr-db", "7"],
                 "--link-from": ["--link-from", str(_write_run_config(tmp_path)),
                                 "--n-spans", "8"]}[source]
        rc = main(["eval", "--constellation", str(cpath), "--samples", "64", *flags])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err.splitlines() == [
            f"shapegain: error: {cpath}: average power 4.0 is not 1"]

    def test_unit_power_tolerance(self, tmp_path, capsys):
        # within UNIT_POWER_TOL = 1e-9 of 1 the file is evaluated, beyond it refused
        cpath = tmp_path / "c.json"
        for power, rc in [(1.0 + 1e-10, 0), (1.0 - 1e-10, 0), (1.0 + 1e-8, 1), (1.0 - 1e-8, 1)]:
            doc = constellation_to_dict(uniform_qam(2))
            doc["points"] = [[math.sqrt(power) * i, math.sqrt(power) * q]
                             for i, q in doc["points"]]
            cpath.write_text(json.dumps(doc))
            assert main(["eval", "--constellation", str(cpath), "--snr-db", "5",
                         "--samples", "64"]) == rc
            assert ("average power" in capsys.readouterr().err) == (rc == 1)

    @pytest.mark.parametrize("flags", [[], ["--seed", "1"]])
    def test_link_from_needs_n_spans(self, tmp_path, capsys, flags):
        # the link section holds no span count: the grid or --n-spans sets it
        cfg = _write_run_config(tmp_path)
        cpath = tmp_path / "c.json"
        main(["qam", "--m", "2", "--out", str(cpath)])
        capsys.readouterr()
        rc = main(["eval", "--constellation", str(cpath), "--link-from", str(cfg),
                   "--samples", "64", *flags])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "shapegain: error: --link-from needs --n-spans"]

    @pytest.mark.parametrize("flags", [["--n-spans", "0"], ["--n-spans", "-3"],
                                       ["--n-spans", "8"]])
    def test_link_flags_need_link_from(self, tmp_path, capsys, flags):
        cpath = tmp_path / "c.json"
        main(["qam", "--m", "2", "--out", str(cpath)])
        capsys.readouterr()
        rc = main(["eval", "--constellation", str(cpath), "--snr-db", "5",
                   "--samples", "64", *flags])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "shapegain: error: --n-spans needs --link-from"]

    def test_negative_seed_is_parameter_error(self, tmp_path, capsys):
        cpath = tmp_path / "c.json"
        main(["qam", "--m", "2", "--out", str(cpath)])
        capsys.readouterr()
        rc = main(["eval", "--constellation", str(cpath), "--snr-db", "5",
                   "--samples", "64", "--seed", "-1"])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "shapegain: error: --seed must be >= 0, got -1"]

    def test_overflowing_link_is_numerical_error(self, tmp_path, capsys):
        # the NLIN growth 2 ** (1 + eps_accum) overflows a double
        cfg = _write_run_config(tmp_path, link={"ase_var_per_span": 0.0041, "chi1": 0.3,
                                                "chi2": 0.1, "eps_accum": 1e4})
        cpath = tmp_path / "c.json"
        main(["qam", "--m", "2", "--out", str(cpath)])
        capsys.readouterr()
        rc = main(["eval", "--constellation", str(cpath),
                   "--link-from", str(cfg), "--n-spans", "2", "--samples", "2000"])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "shapegain: numerical failure: NLIN accumulation overflowed: 2 spans, "
            "eps_accum = 10000.0"]


class TestAdaptCommand:
    def _eval_report(self, tmp_path, capsys, snr="3"):
        cpath = tmp_path / "c.json"
        rpath = tmp_path / "report.json"
        main(["qam", "--m", "2", "--out", str(cpath)])
        main(["eval", "--constellation", str(cpath), "--snr-db", snr,
              "--samples", "4000", "--out", str(rpath)])
        capsys.readouterr()
        return cpath, rpath

    def test_best_plan_prints_json(self, tmp_path, capsys):
        cpath, rpath = self._eval_report(tmp_path, capsys)
        rc = main(["adapt", "--constellation", str(cpath), "--report",
                   str(rpath), "--best"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert 0 <= doc["n_d"] <= 4
        assert doc["fec_rate"] == 0.75

    def test_forced_count_respected(self, tmp_path, capsys):
        cpath, rpath = self._eval_report(tmp_path, capsys)
        out = tmp_path / "plan.json"
        rc = main(["adapt", "--constellation", str(cpath), "--report",
                   str(rpath), "--nd", "2", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["n_d"] == 2
        assert len(doc["dummy_positions"]) == 2

    def test_short_dualpol_report_is_parameter_error(self, tmp_path, capsys):
        cpath, rpath = self._eval_report(tmp_path, capsys)
        doc = json.loads(rpath.read_text())
        doc["per_bit_dualpol"] = doc["per_bit_dualpol"][:-1]
        rpath.write_text(json.dumps(doc))
        rc = main(["adapt", "--constellation", str(cpath), "--report",
                   str(rpath), "--best"])
        assert rc == 1
        assert "per_bit_dualpol" in capsys.readouterr().err

    def test_dualpol_not_per_bit_twice_is_parameter_error(self, tmp_path, capsys):
        # planned from per_bit_dualpol, this report would give n_d = 2 at
        # 1.5 b/sym; its per_bit values give n_d = 4 at 0.0
        cpath = tmp_path / "c.json"
        main(["qam", "--m", "2", "--out", str(cpath)])
        rpath = tmp_path / "report.json"
        rpath.write_text(json.dumps(
            {"per_bit": [0.5, 0.5], "total": 1.0, "per_bit_dualpol": [0.0, 1.0, 1.0, 0.0],
             "total_dualpol": 2.0, "n_samples": 4000, "stderr_total": 0.01}))
        capsys.readouterr()
        rc = main(["adapt", "--constellation", str(cpath), "--report", str(rpath), "--best"])
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.splitlines()) == 1 and "per_bit_dualpol" in err, err

    def test_totals_not_summing_the_per_bit_values_are_parameter_error(
            self, tmp_path, capsys):
        cpath = tmp_path / "c.json"
        main(["qam", "--m", "2", "--out", str(cpath)])
        rpath = tmp_path / "report.json"
        rpath.write_text(json.dumps(
            {"per_bit": [0.9, 0.6], "total": 1.99, "per_bit_dualpol": [0.9, 0.6, 0.9, 0.6],
             "total_dualpol": 0.01, "n_samples": 4000, "stderr_total": 0.01}))
        capsys.readouterr()
        rc = main(["adapt", "--constellation", str(cpath), "--report", str(rpath), "--best"])
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.splitlines()) == 1 and "total" in err, err

    def test_mismatched_m_rejected(self, tmp_path, capsys):
        _, rpath = self._eval_report(tmp_path, capsys)
        other = tmp_path / "c8.json"
        main(["qam", "--m", "3", "--out", str(other)])
        rc = main(["adapt", "--constellation", str(other), "--report",
                   str(rpath), "--best"])
        assert rc == 1


class TestExportLutCommand:
    def test_full_chain(self, tmp_path, capsys):
        cpath = tmp_path / "c.json"
        rpath = tmp_path / "rep.json"
        ppath = tmp_path / "plan.json"
        lpath = tmp_path / "table.csv"
        main(["qam", "--m", "2", "--out", str(cpath)])
        main(["eval", "--constellation", str(cpath), "--snr-db", "6",
              "--samples", "4000", "--out", str(rpath)])
        main(["adapt", "--constellation", str(cpath), "--report", str(rpath),
              "--nd", "1", "--out", str(ppath)])
        rc = main(["export-lut", "--constellation", str(cpath),
                   "--plan", str(ppath), "--out", str(lpath)])
        assert rc == 0
        doc = parse_lut(lpath)
        assert doc.m == 2
        assert doc.dual_pol_mask.count("1") == 1
        np.testing.assert_allclose(doc.constellation.points,
                                   uniform_qam(2).points)

    @pytest.mark.parametrize("change", [
        {"n_d": 1, "dummy_positions": [99]},
        {"n_d": 2, "dummy_positions": [3, 3]},
        {"m": 4.7},
        {"m": True},
        {"dummy_positions": [3.9, 7]},
        {"per_pol_data_gmi": [1.0, 1.0, 5.0]},
        {"fec_rate": 7.0, "net_rate": -5.0},
        {"dummy_positions": [7, 3]},
    ], ids=["out-of-range", "repeated", "fractional-m", "boolean-m", "fractional-position",
            "three-polarizations", "fec-rate-above-1", "unsorted-positions"])
    def test_inconsistent_plan_exits_1_without_a_table(self, tmp_path, capsys, change):
        cpath = tmp_path / "c.json"
        ppath = tmp_path / "plan.json"
        lpath = tmp_path / "table.csv"
        main(["qam", "--m", "4", "--out", str(cpath)])
        report = make_report(np.array([0.95, 0.9, 0.4, 0.05]), 4000, 0.01)
        ppath.write_text(json.dumps({**select_dummy_bits(report, 2, 0.75).to_dict(),
                                     **change}))
        capsys.readouterr()
        rc = main(["export-lut", "--constellation", str(cpath),
                   "--plan", str(ppath), "--out", str(lpath)])
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.splitlines()) == 1
        assert "bad rate-adaptation plan" in err and any(key in err for key in change), err
        assert not lpath.exists()


class TestTrainCommand:
    def test_writes_constellation_and_history(self, tmp_path, capsys):
        cfg = _write_run_config(tmp_path)
        out = tmp_path / "trained.json"
        hist = tmp_path / "history.csv"
        rc = main(["train", "--config", str(cfg), "--out", str(out),
                   "--history", str(hist)])
        assert rc == 0
        c = load_constellation(out)
        assert c.m == 2
        assert c.metadata["generator"] == "train"
        lines = hist.read_text().strip().split("\n")
        assert lines[0] == "iteration,loss,surrogate_gmi,grad_norm"
        # the first and the last of the 3 iterations
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "2"]

    def test_zero_iterations_writes_the_initial_points(self, tmp_path, capsys):
        cfg = _write_run_config(tmp_path)
        doc = json.loads(cfg.read_text())
        doc["train"]["iterations"] = 0
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "c.json"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines() == [f"wrote {out} (initialization only)"]
        config = train_config_from_dict(doc["train"])
        np.testing.assert_array_equal(load_constellation(out).points,
                                      emit(init_mapper(config, np.random.default_rng(1))))

    def _link_config(self, tmp_path, **link_extra):
        link = {"_note": "notes may appear at any depth", "n_spans": 2,
                "ase_var_per_span": 0.0041, "chi1": 0.3, "chi2": 0.1, **link_extra}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(
            {"train": {"m": 2, "iterations": 2, "batch_symbols": 16,
                       "target": {"_note": "nested", "link": link}}}))
        return path

    def test_nested_notes_are_ignored(self, tmp_path, capsys):
        rc = main(["train", "--config", str(self._link_config(tmp_path)),
                   "--out", str(tmp_path / "c.json")])
        assert rc == 0

    def test_unknown_link_key_is_parameter_error(self, tmp_path, capsys):
        rc = main(["train", "--config", str(self._link_config(tmp_path, gain=2.0)),
                   "--out", str(tmp_path / "c.json")])
        assert rc == 1
        assert "bad link config" in capsys.readouterr().err

    def test_config_without_target_rejected(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(
            {"train": {"m": 2, "iterations": 1, "batch_symbols": 16}}))
        rc = main(["train", "--config", str(path), "--out",
                   str(tmp_path / "c.json")])
        assert rc == 1

    def _rejected_with_one_line(self, tmp_path, capsys, train_json: str) -> str:
        """Run train on a config whose train section is raw JSON text; returns
        the one error line. Any warning raised on the way fails the test."""
        path = tmp_path / "run.json"
        path.write_text('{"train": ' + train_json + '}')
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["train", "--config", str(path), "--out", str(tmp_path / "c.json")])
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.splitlines()) == 1 and err.startswith("shapegain: error: ")
        return err

    @pytest.mark.parametrize("snr_db", ["1e6", "-1e308", "Infinity", "NaN"])
    def test_out_of_range_snr_db_is_parameter_error(self, tmp_path, capsys, snr_db):
        err = self._rejected_with_one_line(
            tmp_path, capsys, '{"m": 2, "iterations": 1, "batch_symbols": 4, '
                              '"target": {"snr_db": ' + snr_db + '}}')
        assert "snr_db" in err

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", "Infinity"), ("learning_rate", "NaN"), ("learning_rate", "0"),
        ("learning_rate", "-0.1"),
    ])
    def test_bad_adam_setting_is_parameter_error(self, tmp_path, capsys, field, value):
        err = self._rejected_with_one_line(
            tmp_path, capsys, '{"m": 2, "iterations": 2, "batch_symbols": 4, '
                              '"target": {"snr_db": 10}, "' + field + '": ' + value + '}')
        assert field in err

    def test_llr_clip_is_rejected(self, tmp_path, capsys):
        # the LLR saturation is the constant demapper.LLR_CLIP, and Adam's
        # decays and offset are the constants training.ADAM_*, no settings,
        # and the mapper always starts from jittered Gray QAM
        for key in ("llr_clip", "adam_beta1", "adam_beta2", "adam_eps", "init"):
            err = self._rejected_with_one_line(
                tmp_path, capsys, '{"m": 2, "iterations": 1, "batch_symbols": 4, '
                                  '"target": {"snr_db": 10}, "' + key + '": 0.5}')
            assert key in err

    def test_qam_init_above_max_qam_m_is_parameter_error(self, tmp_path, capsys):
        # the mapper starts from Gray QAM, which exists up to m = 10
        err = self._rejected_with_one_line(
            tmp_path, capsys, '{"m": 11, "iterations": 1, "batch_symbols": 2048, '
                              '"target": {"snr_db": 10}}')
        assert "m must be in [1, 10], got 11" in err and "Traceback" not in err

    @pytest.mark.parametrize("iterations", [1, 3])
    def test_overflowing_step_names_the_iteration(self, tmp_path, capsys, iterations):
        # Adam's first step moves the points by about learning_rate, so their
        # power overflows right after it, in iteration 0; no numpy warning may
        # precede the error
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"train": {
            "m": 2, "iterations": iterations, "batch_symbols": 4,
            "target": {"snr_db": 10}, "learning_rate": 1e308}}))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["train", "--config", str(path), "--out", str(tmp_path / "c.json")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.splitlines() == [
            "shapegain: numerical failure: iteration 0: mapper power is inf, "
            "points cannot be normalized"]


class TestSweepCommand:
    def _sweep_config(self, tmp_path, with_output=True):
        extra = {
            "sweep": {"span_grid": [2, 4], "schemes": ["qam"],
                      "qam_m_list": [2]},
        }
        if with_output:
            extra["output"] = {"results_csv": str(tmp_path / "res.csv")}
        return _write_run_config(tmp_path, **extra)

    def test_writes_csv(self, tmp_path, capsys):
        cfg = self._sweep_config(tmp_path)
        rc = main(["sweep", "--config", str(cfg)])
        assert rc == 0
        lines = (tmp_path / "res.csv").read_text().strip().split("\n")
        assert len(lines) == 3
        assert lines[1].startswith("qam,2,")
        assert lines[2].startswith("qam,4,")

    def test_out_flag_overrides_config(self, tmp_path, capsys):
        cfg = self._sweep_config(tmp_path)
        other = tmp_path / "other.csv"
        rc = main(["sweep", "--config", str(cfg), "--out", str(other)])
        assert rc == 0
        assert other.exists()

    def test_no_output_anywhere_rejected(self, tmp_path, capsys):
        cfg = self._sweep_config(tmp_path, with_output=False)
        rc = main(["sweep", "--config", str(cfg)])
        assert rc == 1

    def test_infinite_fixed_launch_power_is_parameter_error(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(_write_run_config(tmp_path).read_text().replace(
            '"eval"', '"sweep": {"span_grid": [2], "schemes": ["qam"], "qam_m_list": [2], '
                      '"launch_power": Infinity}, "eval"'))
        rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "res.csv")])
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.splitlines()) == 1 and "launch_power" in err

    @pytest.mark.parametrize("train_m, sweep, name", [
        (2, {"schemes": ["ae", "qam"], "qam_m_list": [12]}, "qam_m_list"),
        (2, {"schemes": ["ae", "qam"], "qam_m_list": [2, 0]}, "qam_m_list"),
        # the train section refuses m = 11 before the default qam_m_list [11, 10]
        (11, {"schemes": ["ae", "qam"]}, "bad train config: m must be in [1, 10], got 11"),
    ], ids=["order-12", "order-0", "default-order-11"])
    def test_qam_order_out_of_range_exits_1_before_training(
            self, tmp_path, capsys, monkeypatch, train_m, sweep, name):
        import shapegain.sweep as sweep_mod

        def spy(configs):
            raise AssertionError("a cell trained")

        monkeypatch.setattr(sweep_mod, "train_many", spy)
        cfg = _write_run_config(tmp_path, sweep={"span_grid": [2, 4], **sweep})
        doc = json.loads(cfg.read_text())
        doc["train"].update(m=train_m, batch_symbols=1 << train_m)
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "res.csv"
        rc = main(["sweep", "--config", str(cfg), "--out", str(out), "--keep-going"])
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.splitlines()) == 1 and name in err, err
        assert not out.exists()

    @pytest.mark.parametrize("section, key, above, at_bound, size", [
        ("train", "m", 7, 6, 128),
        ("sweep", "qam_m_list", [2, 8], [2, 6], 256),
    ], ids=["train-m-7", "qam-m-8"])
    def test_order_above_64_points_exits_1_before_training(
            self, tmp_path, capsys, monkeypatch, section, key, above, at_bound, size):
        # a cell is scored by quadrature, which integrates at most M = 64
        import shapegain.sweep as sweep_mod

        def spy(configs):
            raise AssertionError("a cell trained")

        monkeypatch.setattr(sweep_mod, "train_many", spy)
        cfg = _write_run_config(tmp_path, sweep={"span_grid": [2, 4], "qam_m_list": [2]})
        doc = json.loads(cfg.read_text())
        doc["train"]["batch_symbols"] = 128
        doc[section][key] = above
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "res.csv"
        rc = main(["sweep", "--config", str(cfg), "--out", str(out), "--keep-going"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.endswith(f"the sweep scores constellations of at most M = 64, got M = {size}\n")
        assert len(err.splitlines()) == 1 and "Traceback" not in err, err
        assert not out.exists()
        doc[section][key] = at_bound  # the bound itself loads
        cfg.write_text(json.dumps(doc))
        assert sweep_mod.load_run_config(cfg).sweep.span_grid == (2, 4)

    def test_keep_going_reports_each_skipped_cell(self, tmp_path, capsys, monkeypatch):
        import shapegain.sweep as sweep_mod
        real = sweep_mod.evaluate_grid_point

        def flaky(config, scheme, n_spans, candidates):
            if n_spans == 4:
                raise RuntimeError("synthetic failure")
            return real(config, scheme, n_spans, candidates)

        monkeypatch.setattr(sweep_mod, "evaluate_grid_point", flaky)
        out = tmp_path / "res.csv"
        rc = main(["sweep", "--config", str(self._sweep_config(tmp_path)), "--out", str(out),
                   "--keep-going"])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.err.splitlines() == [
            "shapegain: skipped grid point (scheme=qam, n_spans=4): synthetic failure"]
        assert captured.out.splitlines() == [f"wrote {out} (1 rows)"]
        assert [line.split(",")[:2] for line in out.read_text().splitlines()[1:]] == [
            ["qam", "2"]]

    def test_unexpected_cell_error_exits_1_naming_the_cell(self, tmp_path, capsys,
                                                           monkeypatch):
        import shapegain.sweep as sweep_mod

        def broken(config, scheme, n_spans, candidates):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(sweep_mod, "evaluate_grid_point", broken)
        rc = main(["sweep", "--config", str(self._sweep_config(tmp_path))])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.splitlines() == [
            "shapegain: error: grid point (scheme=qam, n_spans=2): synthetic failure"]


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag(self, capsys):
        assert main(["qam", "--m", "2", "--frobnicate"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["qam"]) == 1

    def test_parser_built_once_and_left_unchanged(self, tmp_path, capsys):
        # main reuses one parser per process: a usage error followed by a
        # valid command returns 1 then 0, and the usage text stays that of
        # a freshly built parser
        bad = ["qam", "--m", "2", "--frobnicate"]
        fresh = _build_parser.__wrapped__()
        with pytest.raises(_UsageError) as caught:
            fresh.parse_args(bad)
        expected = caught.value.parser.format_usage()
        assert main(bad) == 1
        first = capsys.readouterr().err
        assert first.startswith(expected)
        assert main(["qam", "--m", "2", "--out", str(tmp_path / "q.json")]) == 0
        capsys.readouterr()
        assert main(bad) == 1
        assert capsys.readouterr().err == first
        assert _build_parser() is _build_parser()
        assert _build_parser().format_help() == fresh.format_help()


# ------------------------------------------------------ malformed input files

# small valid inputs: every run they can start is a few milliseconds long
_RUN = {
    "link": {"ase_var_per_span": 0.0041, "chi1": 0.3, "chi2": 0.1, "chi3": 0.0,
             "eps_accum": 0.0, "span_length_km": 100.0, "fec_rate": 0.75},
    "train": {"m": 2, "iterations": 2, "batch_symbols": 8, "target": {"snr_db": 10.0},
              "demapper_mode": "mlp", "mlp_hidden": [2], "learning_rate": 0.01,
              "seed": 1},
    "sweep": {"span_grid": [2], "schemes": ["ae", "qam"], "qam_m_list": [2]},
    "eval": {"n_samples": 64, "seed": 4},
    "output": {"results_csv": "unused.csv"},
}
_CONSTELLATION = constellation_to_dict(uniform_qam(2))
_REPORT = make_report(np.array([0.9, 0.6]), 64, 0.01).to_dict()
_PLAN = select_dummy_bits(GmiReport.from_dict(_REPORT), 1, 0.75).to_dict()

# (subcommand, {file flag: valid document}, other flags); outputs go to "out.*"
_COMMANDS = [
    ("train", {"--config": _RUN}, ["--out", "out.json", "--history", "out.csv"]),
    ("eval", {"--constellation": _CONSTELLATION}, ["--snr-db", "5", "--samples", "64"]),
    ("eval", {"--constellation": _CONSTELLATION, "--link-from": _RUN},
     ["--n-spans", "2", "--samples", "64"]),
    ("adapt", {"--constellation": _CONSTELLATION, "--report": _REPORT}, ["--best"]),
    ("sweep", {"--config": _RUN}, ["--out", "out.csv"]),
    ("export-lut", {"--constellation": _CONSTELLATION, "--plan": _PLAN},
     ["--out", "out.lut"]),
]
_FILE_ARGS = [(i, flag) for i, (_, files, _) in enumerate(_COMMANDS) for flag in files]


def _argv(directory, index, replace_flag, content) -> list:
    """Command _COMMANDS[index] with its input files written, one file's bytes replaced."""
    command, files, flags = _COMMANDS[index]
    argv = [command]
    for flag, doc in files.items():
        path = directory / f"in{flag}.json"
        path.write_bytes(content if flag == replace_flag else json.dumps(doc).encode())
        argv += [flag, str(path)]
    return argv + [str(directory / a) if a.startswith("out.") else a for a in flags]


def _run(directory, index, replace_flag, content, capsys) -> int:
    """main() on _argv(...), its output discarded."""
    rc = main(_argv(directory, index, replace_flag, content))
    capsys.readouterr()
    return rc


@pytest.mark.parametrize("index, flag", _FILE_ARGS,
                         ids=[f"{i}:{_COMMANDS[i][0]}{flag}" for i, flag in _FILE_ARGS])
@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000],
                         ids=["non-utf8", "deep-array"])
def test_undecodable_input_file_is_parameter_error(tmp_path, capsys, index, flag, content):
    assert _run(tmp_path, index, flag, content, capsys) == 1


def _value_paths(doc, prefix=()):
    """Key paths of every value in the nested objects of doc, doc itself first."""
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _value_paths(value, prefix + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    if isinstance(doc, list):
        return [_replaced(v, path[1:], value) if i == path[0] else v
                for i, v in enumerate(doc)]
    return {**doc, path[0]: _replaced(doc[path[0]], path[1:], value)}


def _lookup(doc, path):
    for key in path:
        doc = doc[key]
    return doc


_SCALARS = {
    "str": st.text(max_size=8),
    "null": st.none(),
    "bool": st.booleans(),
    "fraction": st.floats(-1e3, 1e3).filter(lambda x: x != int(x)),
    "int": st.integers(-3, 3),
    "list": st.lists(st.integers(-3, 3) | st.text(max_size=3), max_size=3),
    "object": st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
}


def _json_type(value) -> set:
    """The strategies whose values share the JSON type of value."""
    if isinstance(value, bool):
        return {"bool"}
    if isinstance(value, int):
        return {"int"}
    if isinstance(value, float):
        return {"int", "fraction"}  # a JSON number may be written without a fraction
    return {{str: "str", list: "list", dict: "object", type(None): "null"}[type(value)]}


# lists that a list field's own JSON type still admits: empty, nested, of booleans
_ODD_LISTS = [[], [[2]], [True]]


def _wrong_typed(draw, doc, path):
    """doc with the value at path replaced by a value of another JSON type,
    or, for a list, by one of _ODD_LISTS."""
    value = _lookup(doc, path)
    kinds = sorted(set(_SCALARS) - _json_type(value)) + ["odd"] * isinstance(value, list)
    kind = draw(st.sampled_from(kinds))
    return _replaced(doc, path, draw(st.sampled_from(_ODD_LISTS) if kind == "odd"
                                     else _SCALARS[kind]))


@st.composite
def _wrong_type_case(draw):
    """(command index, file flag, document with one value of the wrong JSON type)."""
    index, flag = draw(st.sampled_from(_FILE_ARGS))
    doc = _COMMANDS[index][1][flag]
    path = draw(st.sampled_from(list(_value_paths(doc))))
    return index, flag, _wrong_typed(draw, doc, path)


# the list fields of a run config, each read by the sweep command
_LIST_FIELDS = [("train", "mlp_hidden"), ("sweep", "span_grid"), ("sweep", "schemes"),
                ("sweep", "qam_m_list")]


@pytest.mark.parametrize("value", [*_ODD_LISTS, "ae"], ids=["empty", "nested", "bool", "str"])
@pytest.mark.parametrize("path", _LIST_FIELDS, ids=[key for _, key in _LIST_FIELDS])
def test_odd_list_field_exits_1_naming_it(tmp_path, capsys, path, value):
    doc = _replaced(_RUN, path, value)
    capsys.readouterr()
    assert main(_argv(tmp_path, 4, "--config", json.dumps(doc).encode())) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and path[1] in err, err


def test_repeated_qam_order_exits_1(tmp_path, capsys):
    doc = _replaced(_RUN, ("sweep", "qam_m_list"), [2, 2])
    capsys.readouterr()
    assert main(_argv(tmp_path, 4, "--config", json.dumps(doc).encode())) == 1
    assert capsys.readouterr().err.splitlines() == [
        "shapegain: error: bad run config: bad sweep config: qam_m_list must not repeat "
        "an order, got [2, 2]"]


@pytest.mark.parametrize("schemes", [["ae", "ae"], ["qam", "ae", "qam"]], ids=["ae", "qam"])
def test_repeated_scheme_exits_1(tmp_path, capsys, schemes):
    doc = _replaced(_RUN, ("sweep", "schemes"), schemes)
    capsys.readouterr()
    assert main(_argv(tmp_path, 4, "--config", json.dumps(doc).encode())) == 1
    assert capsys.readouterr().err.splitlines() == [
        "shapegain: error: bad run config: bad sweep config: schemes must not repeat "
        f"a scheme, got {schemes}"]


def _repeating_first_key(doc, path) -> tuple:
    """(JSON text of doc in which the object at path lists its first key
    twice, with the same value both times; that key)."""
    obj = _lookup(doc, path)
    key = next(iter(obj))
    text = "{" + f"{json.dumps(key)}: {json.dumps(obj[key])}, " + json.dumps(obj)[1:]
    return json.dumps(_replaced(doc, path, "\0")).replace('"\\u0000"', text), key


# every nonempty object of every JSON file argument
_OBJECT_ARGS = [(i, flag, path) for i, flag in _FILE_ARGS
                for path in _value_paths(_COMMANDS[i][1][flag])
                if isinstance(_lookup(_COMMANDS[i][1][flag], path), dict)
                and _lookup(_COMMANDS[i][1][flag], path)]


@pytest.mark.parametrize("index, flag, path", _OBJECT_ARGS, ids=[
    f"{i}:{_COMMANDS[i][0]}{flag}:{'.'.join(path) or 'root'}" for i, flag, path in _OBJECT_ARGS])
def test_repeated_key_exits_1_naming_it(tmp_path, capsys, index, flag, path):
    # a repeated key is not read as its last value, even where both are equal
    text, key = _repeating_first_key(_COMMANDS[index][1][flag], path)
    assert json.loads(text) == _COMMANDS[index][1][flag]
    capsys.readouterr()
    assert main(_argv(tmp_path, index, flag, text.encode())) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].endswith(f"in{flag}.json: repeated key {key!r}"), err


def test_repeated_comment_key_is_read(tmp_path, capsys):
    doc = _replaced(_RUN, ("train",), {**_RUN["train"], "_note": "a"})
    text = json.dumps(doc).replace('"_note": "a"', '"_note": "a", "_note": "b"')
    assert main(_argv(tmp_path, 0, "--config", text.encode())) == 0


# the documents the program writes and reads back, which are held to the
# writer's types and keys; only a constellation's metadata is free-form
_DOC_ARGS = [(i, flag) for i, flag in _FILE_ARGS
             if flag in ("--constellation", "--report", "--plan")]


def _typed(path) -> bool:
    return path[:1] != ("metadata",) or len(path) == 1


@st.composite
def _strict_wrong_type_case(draw):
    """A _wrong_type_case in a read-back document, outside free-form metadata."""
    index, flag = draw(st.sampled_from(_DOC_ARGS))
    doc = _COMMANDS[index][1][flag]
    path = draw(st.sampled_from([p for p in _value_paths(doc) if _typed(p)]))
    return index, flag, _wrong_typed(draw, doc, path)


_FUZZ = settings(max_examples=120, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


def _float_paths(doc, prefix=()):
    """Key/index paths of every float value in doc, lists included."""
    if isinstance(doc, float):
        yield prefix
    elif isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        for key, value in items:
            yield from _float_paths(value, prefix + (key,))


# every float of every valid input document; int fields are fuzzed below,
# where no value can start a long run
_FLOAT_FIELDS = [(index, flag, path) for index, flag in _FILE_ARGS
                 for path in _float_paths(_COMMANDS[index][1][flag])]
_EXTREMES = [1e308, -1e308, math.inf, -math.inf, math.nan, 0.0, -0.0]


@_FUZZ
@given(case=st.sampled_from(_FILE_ARGS), content=st.binary(max_size=32))
def test_arbitrary_bytes_never_escape_main(tmp_path, capsys, case, content):
    assert _run(tmp_path, *case, content, capsys) in (0, 1, 2, 3)


@_FUZZ
@given(case=_wrong_type_case())
def test_wrongly_typed_field_never_escapes_main(tmp_path, capsys, case):
    index, flag, doc = case
    assert _run(tmp_path, index, flag, json.dumps(doc).encode(), capsys) in (0, 1, 2, 3)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(field=st.sampled_from(_FLOAT_FIELDS), value=st.sampled_from(_EXTREMES))
def test_wrongly_valued_field_never_escapes_main(tmp_path, capsys, field, value):
    index, flag, path = field
    doc = _replaced(_COMMANDS[index][1][flag], path, value)
    assert _run(tmp_path, index, flag, json.dumps(doc).encode(), capsys) in (0, 1, 2, 3)


@_FUZZ
@given(case=_strict_wrong_type_case())
def test_wrongly_typed_document_field_exits_1(tmp_path, capsys, case):
    index, flag, doc = case
    assert _run(tmp_path, index, flag, json.dumps(doc).encode(), capsys) == 1


@_FUZZ
@given(case=st.sampled_from(_DOC_ARGS),
       key=st.text(min_size=1, max_size=8).filter(lambda key: not key.startswith("_")),
       value=st.one_of(*_SCALARS.values()))
def test_unknown_document_key_exits_1(tmp_path, capsys, case, key, value):
    index, flag = case
    doc = _COMMANDS[index][1][flag]
    assume(key not in doc)
    assert _run(tmp_path, index, flag, json.dumps({**doc, key: value}).encode(), capsys) == 1


# every object of every input document that its command reads: train reads
# the run config's root and its train section only, and a constellation's
# metadata is free-form inside
_OBJECT_PATHS = [(index, flag, path) for index, flag in _FILE_ARGS
                 for path in _value_paths(_COMMANDS[index][1][flag])
                 if isinstance(_lookup(_COMMANDS[index][1][flag], path), dict)
                 and path[:1] != ("metadata",)
                 and (_COMMANDS[index][0] != "train" or path[:1] in ((), ("train",)))]


@pytest.mark.parametrize("case", _OBJECT_PATHS, ids=[
    f"{i}:{_COMMANDS[i][0]}{flag}:{'.'.join(path) or '<root>'}" for i, flag, path in _OBJECT_PATHS])
def test_unknown_key_in_any_object_exits_1(tmp_path, capsys, case):
    index, flag, path = case
    doc = _COMMANDS[index][1][flag]
    doc = _replaced(doc, path, {**_lookup(doc, path), "bogus": 1})
    capsys.readouterr()
    rc = main(_argv(tmp_path, index, flag, json.dumps(doc).encode()))
    err = capsys.readouterr().err
    assert rc == 1
    assert len(err.splitlines()) == 1 and "unknown key 'bogus'" in err, err
    assert not re.search(r"__init__\(\)|\b_\w", err), err


@pytest.mark.parametrize("index, flag", [(2, "--link-from"), (4, "--config")],
                         ids=["eval", "sweep"])
def test_run_config_link_rejects_n_spans(tmp_path, capsys, index, flag):
    # the sweep grid or eval --n-spans sets the span count; a value here is refused,
    # not dropped
    doc = _replaced(_RUN, ("link",), {**_RUN["link"], "n_spans": 7})
    capsys.readouterr()
    assert main(_argv(tmp_path, index, flag, json.dumps(doc).encode())) == 1
    assert capsys.readouterr().err.splitlines() == [
        "shapegain: error: bad run config: bad link config: unknown key 'n_spans'"]


# a required key of each kind of object that some command reads
_MISSING_KEYS = [(0, "--config", (), "train"), (0, "--config", ("train",), "m"),
                 (0, "--config", ("train",), "target"),
                 (0, "--config", ("train", "target"), "snr_db"),
                 (1, "--constellation", (), "points"), (2, "--link-from", (), "link"),
                 (2, "--link-from", ("link",), "ase_var_per_span"),
                 (3, "--report", (), "per_bit"), (4, "--config", (), "link"),
                 (4, "--config", ("sweep",), "span_grid"),
                 (4, "--config", ("train",), "iterations"),
                 (5, "--plan", (), "dummy_positions")]


@pytest.mark.parametrize("case", _MISSING_KEYS, ids=[
    f"{i}:{_COMMANDS[i][0]}{flag}:{'.'.join(path + (key,))}"
    for i, flag, path, key in _MISSING_KEYS])
def test_missing_key_in_any_object_exits_1(tmp_path, capsys, case):
    index, flag, path, key = case
    doc = _COMMANDS[index][1][flag]
    obj = _lookup(doc, path)
    doc = _replaced(doc, path, {k: v for k, v in obj.items() if k != key})
    capsys.readouterr()
    rc = main(_argv(tmp_path, index, flag, json.dumps(doc).encode()))
    err = capsys.readouterr().err
    assert rc == 1
    assert len(err.splitlines()) == 1 and f"missing key '{key}'" in err, err
    assert not re.search(r"__init__\(\)|\b_\w", err), err


_DOC_FLOAT_FIELDS = [(index, flag, path) for index, flag, path in _FLOAT_FIELDS
                     if (index, flag) in _DOC_ARGS and _typed(path)]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", _DOC_FLOAT_FIELDS, ids=[
    f"{i}:{_COMMANDS[i][0]}{flag}:{'.'.join(map(str, path))}"
    for i, flag, path in _DOC_FLOAT_FIELDS])
def test_non_finite_document_number_exits_1(tmp_path, capsys, field, value):
    index, flag, path = field
    doc = _replaced(_COMMANDS[index][1][flag], path, value)
    assert _run(tmp_path, index, flag, json.dumps(doc).encode(), capsys) == 1


# ------------------------------------------------------ extreme flag values

# (subcommand and flags with "{}" where the fuzzed value goes); every run
# they can start draws at most 64 samples
_FLAG_CASES = {
    "--snr-db": ["eval", "--constellation", "in-c.json", "--snr-db", "{}",
                 "--samples", "64"],
    "--n-spans": ["eval", "--constellation", "in-c.json", "--link-from", "in-run.json",
                  "--n-spans", "{}", "--samples", "64"],
    "--seed": ["eval", "--constellation", "in-c.json", "--snr-db", "5", "--samples", "64",
               "--seed", "{}"],
    "--nd": ["adapt", "--constellation", "in-c.json", "--report", "in-report.json",
             "--nd", "{}"],
    "--fec-rate": ["adapt", "--constellation", "in-c.json", "--report", "in-report.json",
                   "--best", "--fec-rate", "{}"],
    "--m": ["qam", "--m", "{}", "--out", "out.json"],
}
# huge, negative, zero, NaN and inf, spelled as a user would type them
_FLAG_VALUES = st.one_of(
    st.sampled_from(["0", "-0", "0.0", "-1", "1e308", "-1e308", "1e400", "-1e400", "inf",
                     "-inf", "nan", "-nan", str(2 ** 63), str(2 ** 64), str(-2 ** 63),
                     str(10 ** 400), str(-10 ** 400)]),
    st.integers().map(str),
    st.floats().map(repr),
)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flag=st.sampled_from(sorted(_FLAG_CASES)), value=_FLAG_VALUES)
def test_extreme_flag_value_never_escapes_main(tmp_path, capsys, flag, value):
    (tmp_path / "in-c.json").write_text(json.dumps(_CONSTELLATION))
    (tmp_path / "in-run.json").write_text(json.dumps(_RUN))
    (tmp_path / "in-report.json").write_text(json.dumps(_REPORT))
    argv = [value if a == "{}" else str(tmp_path / a) if a.endswith(".json") else a
            for a in _FLAG_CASES[flag]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv)
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_empty_mlp_hidden_is_parameter_error(tmp_path, capsys, command):
    # a receiver without hidden layers has no entries to size the sweep's runs by
    path = tmp_path / "run.json"
    path.write_text(json.dumps(_replaced(_RUN, ("train", "mlp_hidden"), [])))
    rc = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert len(err.splitlines()) == 1 and "mlp_hidden" in err and "Traceback" not in err


# ---------------------------------------------------------- capped int values

# the counts that size a run: {case: (config, field path, cap)}; fuzzed values
# are either small enough to finish at once or above the cap, never a long
# run in between. At m = 10, the largest, the gaussian receiver's likelihood
# cap leaves batch_symbols = 1024 k, k = 1 ... 16, which no fuzzed value
# hits, so none trains.
_GAUSSIAN_M10 = {**_RUN, "train": {**_RUN["train"], "m": 10, "demapper_mode": "gaussian"}}
_CAPPED = {
    "iterations": (_RUN, ("train", "iterations"), MAX_ITERATIONS),
    "batch_symbols": (_RUN, ("train", "batch_symbols"), MAX_BATCH_SYMBOLS),
    "mlp_hidden": (_RUN, ("train", "mlp_hidden", 0), MAX_CELL_ENTRIES // 8),
    "gaussian batch_symbols": (_GAUSSIAN_M10, ("train", "batch_symbols"),
                               MAX_CELL_ENTRIES >> 10),
    "n_samples": (_RUN, ("eval", "n_samples"), MAX_SAMPLES),
    "--samples": (None, ("eval", "n_samples"), MAX_SAMPLES),
}


def _small_or_above(cap):
    return st.one_of(st.integers(max_value=64), st.integers(min_value=cap + 1),
                     st.sampled_from([cap + 1, 2 ** 63, 2 ** 64, 10 ** 400]))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(sorted(_CAPPED)).flatmap(
    lambda name: st.tuples(st.just(name), _small_or_above(_CAPPED[name][2]))))
def test_capped_count_never_escapes_main(tmp_path, capsys, case):
    name, value = case
    doc, field, cap = _CAPPED[name]
    if name == "--samples":
        (tmp_path / "c.json").write_text(json.dumps(_CONSTELLATION))
        argv = ["eval", "--constellation", str(tmp_path / "c.json"), "--snr-db", "5",
                "--samples", str(value)]
    else:
        (tmp_path / "run.json").write_text(json.dumps(_replaced(doc, field, value)))
        argv = ["sweep", "--config", str(tmp_path / "run.json"),
                "--out", str(tmp_path / "out.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv)
    err = capsys.readouterr().err
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in err
    if value > cap:
        assert rc == 1, err
        assert field[1] in err, err
