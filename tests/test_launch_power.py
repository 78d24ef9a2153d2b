"""Every scheme launches at its optimal power.

The train target, the sweep and `eval --link-from` all resolve a link's
power with channel.optimal_launch_power, so they agree to the bit: a train
section's link target and a sweep's ae cell train at the SNR the link gives
Gray QAM, by training.link_target. The fixed-power setting is gone, and
each of its spellings exits 1 naming it.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

import shapegain.cli as cli_mod
from shapegain.channel import LinkConfig, effective_snr, optimal_launch_power
from shapegain.cli import main
from shapegain.constellation import moments, save_constellation, uniform_qam
from shapegain.errors import ParameterError, load_json
from shapegain.sweep import (
    EvalSettings,
    SweepSettings,
    _ae_train_config,
    derive_seed,
    evaluate_grid_point,
    load_run_config,
)
from shapegain.training import link_target, train_many

EXAMPLE = Path(__file__).resolve().parent.parent / "configs" / "example.json"
LINK = LinkConfig(n_spans=10, ase_var_per_span=0.004, chi1=0.3, chi2=0.1)
QAM16_MOM = moments(uniform_qam(4))

# as JSON literals: the values the removed setting took, then values it refused
JSON_POWERS = ['"optimal"', "0.1", "true", '"1.0"', "-5", "0", "Infinity", "NaN"]


class TestLaunchChannel:
    def test_optimal_is_the_default(self):
        # and the only power: a link target trains where no other power gives
        # the constellation a higher effective SNR
        power, ch = optimal_launch_power(LINK, QAM16_MOM)
        assert link_target(LINK, 4).snr_db == ch.snr_db
        for factor in (0.5, 0.99, 1.01, 2.0):
            assert effective_snr(LINK, factor * power, QAM16_MOM).snr_linear < ch.snr_linear


@pytest.mark.parametrize("power", ["optimal"])  # the one power every scheme launches at
def test_train_target_sweep_and_eval_agree(tmp_path, capsys, monkeypatch, power):
    # 8 spans of the example link with Gray 16QAM moments
    run = load_run_config(EXAMPLE)
    link8 = replace(run.link, n_spans=8)
    gray = uniform_qam(4)
    want_power, want = optimal_launch_power(link8, moments(gray))

    assert link_target(link8, 4).snr_db == want.snr_db

    sweep = SweepSettings(span_grid=(8,), schemes=("qam",), qam_m_list=(4,))
    row, _, _ = evaluate_grid_point(
        replace(run, sweep=sweep, eval=EvalSettings(n_samples=64)), "qam", 8, [gray])
    assert (row.launch_power, row.snr_eff_db) == (want_power, want.snr_db)

    seen = []
    real = cli_mod.per_bit_gmi_mc
    monkeypatch.setattr(cli_mod, "per_bit_gmi_mc",
                        lambda c, nv, *rest: seen.append(nv) or real(c, nv, *rest))
    cpath = tmp_path / "gray16.json"
    save_constellation(gray, cpath)
    assert main(["eval", "--constellation", str(cpath), "--link-from", str(EXAMPLE),
                 "--n-spans", "8", "--samples", "64"]) == 0
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


@pytest.mark.parametrize("literal", JSON_POWERS)
@pytest.mark.parametrize("section", ["sweep", "train"])
def test_unusable_config_launch_power_exits_1_at_parse_time(tmp_path, capsys, section,
                                                            literal):
    # every launch power is unusable now: the key is unknown in both places,
    # and a train target's is refused by `shapegain train` alone, as the sweep
    # reads no target
    if section == "sweep":
        path = _write_config(tmp_path, sweep={"launch_power": "@"}, literal=literal)
        with pytest.raises(ParameterError, match="unknown key 'launch_power'"):
            load_run_config(path)
    else:
        path = _write_config(tmp_path, literal=literal, target={
            "link": {**_LINK, "n_spans": 8}, "launch_power": "@"})
    out = tmp_path / "out"
    assert main([section, "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "unknown key 'launch_power'" in err
    assert not out.exists()


def test_launch_power_flag_is_a_usage_error(tmp_path, capsys):
    cpath = tmp_path / "c.json"
    save_constellation(uniform_qam(2), cpath)
    assert main(["eval", "--constellation", str(cpath), "--link-from",
                 str(_write_config(tmp_path)), "--n-spans", "2", "--launch-power", "0.1"]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        "shapegain: error: unrecognized arguments: --launch-power 0.1")


@pytest.mark.parametrize("old", [{"power_mode": "optimal"},
                                 {"power_mode": "fixed", "launch_power": 0.1}])
def test_power_mode_is_rejected(tmp_path, capsys, old):
    path = _write_config(tmp_path, sweep=old)
    out = tmp_path / "res.csv"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "power_mode" in err
    assert not out.exists()


def test_epsilon_mom_is_rejected(tmp_path, capsys):
    # nothing read the cluster-merge distance; detect_mom_clusters takes its own
    path = _write_config(tmp_path)
    doc = json.loads(path.read_text())
    doc["eval"]["epsilon_mom"] = 0.01
    path.write_text(json.dumps(doc))
    out = tmp_path / "res.csv"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "epsilon_mom" in err
    assert not out.exists()


def test_train_on_a_link_writes_the_sweeps_cell(tmp_path):
    # the example's train section, its target the example link at 8 spans
    # and its seed the 8-span cell's: `shapegain train` writes the points and
    # history of the example sweep's 8-span ae cell, bit for bit
    doc = load_json(EXAMPLE)
    section = {**doc["train"], "iterations": 300, "seed": derive_seed(doc["train"]["seed"], 8),
               "target": {"link": {**doc["link"], "n_spans": 8}}}
    config, out, history = (tmp_path / name for name in ("run.json", "c.json", "h.csv"))
    config.write_text(json.dumps({"train": section}))
    assert main(["train", "--config", str(config), "--out", str(out),
                 "--history", str(history)]) == 0

    run = load_run_config(EXAMPLE)
    run = replace(run, train=replace(run.train, iterations=300))
    cells = train_many([_ae_train_config(run, n) for n in run.sweep.span_grid])
    c, hist = cells[run.sweep.span_grid.index(8)]
    save_constellation(c, tmp_path / "cell.json")
    assert out.read_bytes() == (tmp_path / "cell.json").read_bytes()
    assert history.read_text() == hist.to_csv()


# a link that Gray QAM's moments give no NLIN, and one whose NLIN
# accumulation overflows
_UNUSABLE_LINKS = [
    ({**_LINK, "chi1": 0.0, "chi2": 0.0, "n_spans": 8}, 1,
     "shapegain: error: bad run config: bad train config: bad target config: "
     "eta(mom) <= 0: SNR grows without bound in launch power"),
    ({**_LINK, "eps_accum": 100.0, "n_spans": 10 ** 6}, 2,
     "shapegain: numerical failure: NLIN accumulation overflowed: 1000000 spans, "
     "eps_accum = 100.0"),
]


@pytest.mark.parametrize("link, code, message", _UNUSABLE_LINKS, ids=["eta", "overflow"])
@pytest.mark.parametrize("command", ["train"])  # the one command that reads a train target
def test_unusable_link_target_is_refused_where_the_train_section_is_parsed(
        tmp_path, capsys, monkeypatch, command, link, code, message):
    # the target's SNR is computed as the section is parsed, before anything trains
    monkeypatch.setattr(cli_mod, "train", None)
    out = tmp_path / "out"
    path = _write_config(tmp_path, target={"link": link})
    assert main([command, "--config", str(path), "--out", str(out)]) == code
    assert capsys.readouterr().err.splitlines() == [message]
    assert not out.exists()


@pytest.mark.parametrize("link", [link for link, _, _ in _UNUSABLE_LINKS],
                         ids=["eta", "overflow"])
def test_unusable_link_target_is_unread_by_the_sweep(tmp_path, capsys, link):
    # each ae cell trains at its grid span's link target, so the sweep writes
    # the rows of the same config without a target
    path = _write_config(tmp_path, sweep={"schemes": ["ae", "qam"]}, target={"link": link})
    doc = json.loads(path.read_text())
    out = tmp_path / "res.csv"
    csvs = []
    for train in (doc["train"], {k: v for k, v in doc["train"].items() if k != "target"}):
        path.write_text(json.dumps({**doc, "train": train}))
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        csvs.append(out.read_text())
    assert csvs[0] == csvs[1] and csvs[0].count("\n") == 3
