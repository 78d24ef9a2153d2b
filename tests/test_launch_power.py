"""The launch-power rule: "optimal", or a given finite positive power.

channel.check_launch_power validates the setting and channel.launch_channel
resolves it; the train target, the sweep and `eval --link-from` all go
through them, so they agree to the bit and reject the same values.
"""

import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

import shapegain.cli as cli_mod
from shapegain.channel import (
    LinkConfig,
    check_launch_power,
    effective_snr,
    launch_channel,
    optimal_launch_power,
)
from shapegain.cli import main
from shapegain.constellation import moments, save_constellation, uniform_qam
from shapegain.errors import ParameterError
from shapegain.sweep import EvalSettings, SweepSettings, evaluate_grid_point, load_run_config
from shapegain.training import LinkTarget

EXAMPLE = Path(__file__).resolve().parent.parent / "configs" / "example.json"
LINK = LinkConfig(n_spans=10, ase_var_per_span=0.004, chi1=0.3, chi2=0.1)
QAM16_MOM = moments(uniform_qam(4))

# as JSON literals: none of them is "optimal" or a finite positive number
BAD_JSON_POWERS = ["true", '"1.0"', "-5", "0", "Infinity", "NaN"]


class TestLaunchChannel:
    def test_optimal_is_the_default(self):
        want = optimal_launch_power(LINK, QAM16_MOM)
        assert launch_channel(LINK, QAM16_MOM) == want
        assert launch_channel(LINK, QAM16_MOM, "optimal") == want

    @pytest.mark.parametrize("power", [0.05, 1, 2.5])
    def test_number_is_the_snr_at_that_power(self, power):
        got = launch_channel(LINK, QAM16_MOM, power)
        assert got == (power, effective_snr(LINK, float(power), QAM16_MOM))
        assert type(got[0]) is float

    @pytest.mark.parametrize("value", [
        True, False, "1.0", "fixed", "Optimal", None, [0.1],
        -5, 0, 0.0, -0.0, math.inf, math.nan, 10 ** 400])
    def test_anything_else_is_rejected(self, value):
        with pytest.raises(ParameterError, match="launch_power"):
            check_launch_power(value)
        with pytest.raises(ParameterError, match="launch_power"):
            launch_channel(LINK, QAM16_MOM, value)


@pytest.mark.parametrize("power", ["optimal", 0.1])
def test_train_target_sweep_and_eval_agree(tmp_path, capsys, monkeypatch, power):
    # 8 spans of the example link with Gray 16QAM moments
    run = load_run_config(EXAMPLE)
    link8 = replace(run.link, n_spans=8)
    gray = uniform_qam(4)
    want_power, want = launch_channel(link8, moments(gray), power)
    assert want_power == (optimal_launch_power(link8, moments(gray))[0]
                          if power == "optimal" else power)

    assert LinkTarget(link8, launch_power=power).resolve(gray) == want.noise_variance

    sweep = SweepSettings(span_grid=(8,), launch_power=power, schemes=("qam",),
                          qam_m_list=(4,))
    row, _, _ = evaluate_grid_point(
        replace(run, sweep=sweep, eval=EvalSettings(n_samples=64)), "qam", 8)
    assert (row.launch_power, row.snr_eff_db) == (want_power, want.snr_db)

    seen = []
    real = cli_mod.per_bit_gmi_mc
    monkeypatch.setattr(cli_mod, "per_bit_gmi_mc",
                        lambda c, nv, *rest: seen.append(nv) or real(c, nv, *rest))
    cpath = tmp_path / "gray16.json"
    save_constellation(gray, cpath)
    flags = [] if power == "optimal" else ["--launch-power", str(power)]
    assert main(["eval", "--constellation", str(cpath), "--link-from", str(EXAMPLE),
                 "--n-spans", "8", "--samples", "64", *flags]) == 0
    assert seen == [want.noise_variance]
    assert f"snr_db: {want.snr_db:.4f}" in capsys.readouterr().out.splitlines()


_LINK = {"ase_var_per_span": 0.0041, "chi1": 0.3, "chi2": 0.1, "fec_rate": 0.75}


def _write_config(tmp_path, sweep=None, target=None, literal="") -> Path:
    """A small run config; the string "@" in it becomes the JSON text literal."""
    doc = {
        "link": _LINK,
        "train": {"m": 2, "iterations": 3, "batch_symbols": 16, "seed": 1,
                  "target": target or {"snr_db": 10.0}},
        "sweep": {"span_grid": [2], "schemes": ["qam"], "qam_m_list": [2], **(sweep or {})},
        "eval": {"n_samples": 64, "seed": 4},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc).replace('"@"', literal))
    return path


@pytest.mark.parametrize("literal", BAD_JSON_POWERS)
@pytest.mark.parametrize("section", ["sweep", "train"])
def test_unusable_config_launch_power_exits_1_at_parse_time(tmp_path, capsys, section,
                                                            literal):
    if section == "sweep":
        path = _write_config(tmp_path, sweep={"launch_power": "@"}, literal=literal)
    else:
        path = _write_config(tmp_path, literal=literal, target={
            "link": {**_LINK, "n_spans": 8}, "launch_power": "@"})
    with pytest.raises(ParameterError, match="launch_power"):
        load_run_config(path)
    out = tmp_path / "out"
    assert main([section, "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "launch_power" in err
    assert not out.exists()


@pytest.mark.parametrize("old", [{"power_mode": "optimal"},
                                 {"power_mode": "fixed", "launch_power": 0.1}])
def test_power_mode_is_rejected(tmp_path, capsys, old):
    path = _write_config(tmp_path, sweep=old)
    out = tmp_path / "res.csv"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "power_mode" in err
    assert not out.exists()
