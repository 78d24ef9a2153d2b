"""README's Library example runs as written against the installed API, its
Command line section names every flag the parser takes and no other, its
Configuration section names every key a run configuration takes and the
sections each command reads, and it and the example config state how the
example's training batch sees the noise, and it states which iterations a
training history records and the quadrature sizes the sweep scores with.
The example config's notes name its train target as its link's operating
point."""

import argparse
import inspect
import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np

from shapegain import LinkConfig, RateAdaptPlan, SnrTarget, TrainConfig
from shapegain.cli import _build_parser, _link_section, _train_section
from shapegain.demapper import (
    _QUAD_MIN_WEIGHT,
    MAX_QUADRATURE_M,
    gauss_hermite_grid,
    per_bit_gmi_quadrature,
)
from shapegain.sweep import (
    SCORE_NODES,
    EvalSettings,
    RunConfig,
    SweepSettings,
    _run_config,
)
from shapegain.training import HISTORY_STRIDE, _grid_shape, link_target

README = Path(__file__).resolve().parents[1] / "README.md"
EXAMPLE = Path(__file__).resolve().parents[1] / "configs" / "example.json"


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    plan = namespace["plan"]
    assert isinstance(plan, RateAdaptPlan)
    assert capsys.readouterr().out == f"{plan.n_d} {plan.net_rate} {plan.dummy_positions}\n"


# every object of a run configuration, whose fields are its keys
_CONFIG_OBJECTS = (RunConfig, LinkConfig, TrainConfig, SnrTarget, SweepSettings, EvalSettings)


def _section(name: str, text: str) -> str:
    return re.search(rf"^## {name}\n(.*?)^## ", text, re.S | re.M)[1]


def test_configuration_section_names_every_config_key():
    section = _section("Configuration", README.read_text(encoding="utf-8"))
    missing = [f"{cls.__name__}.{f.name}" for cls in _CONFIG_OBJECTS for f in fields(cls)
               if f"`{f.name}`" not in section]
    assert missing == []
    # a target holds an SnrTarget's key or a link, link_target's first parameter
    link = next(iter(inspect.signature(link_target).parameters))
    _sentence_with(rf"a `target` \(`snr_db`[^)]*, or a `{link}`", section)


def _parser_flags() -> set:
    """Every --flag of the command and of each subcommand."""
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {flag for p in (parser, *sub.choices.values()) for a in p._actions
            for flag in a.option_strings if flag.startswith("--")}


def test_command_line_section_names_every_flag():
    section = _section("Command line", README.read_text(encoding="utf-8"))
    quoted = " ".join(re.findall(r"```.*?```|`[^`\n]*`", section, re.S))
    named = set(re.findall(r"--[a-z][a-z-]*", quoted))
    assert sorted(_parser_flags() - named) == []
    assert sorted(named - _parser_flags()) == []


def _sentence_with(pattern: str, text: str) -> tuple:
    """The one sentence of text that matches pattern, and the match."""
    sentences = re.split(r"(?<=\.)\s+(?!\d)", " ".join(text.split()))  # not at "e.g. 8"
    found = [(s, m) for s in sentences for m in [re.search(pattern, s)] if m]
    assert len(found) == 1, f"{len(found)} sentences match {pattern!r}"
    return found[0]


def test_example_batch_is_described_as_the_code_trains_it():
    """The example config's notes and README's Configuration give the
    example's samples per label, and say that they take the Gauss-Hermite
    grid and draw no noise, or draw fresh noise, as training decides."""
    doc = json.loads(EXAMPLE.read_text(encoding="utf-8"))
    batch, m = doc["train"]["batch_symbols"], doc["train"]["m"]
    per_label = batch >> m
    said, unsaid = (("draws no noise", "draws fresh noise") if _grid_shape(per_label)
                    else ("draws fresh noise", "draws no noise"))

    note, count = _sentence_with(r"= (\d+) samples per label", " ".join(doc["_notes"]))
    assert int(count[1]) == per_label
    assert said in note and unsaid not in note

    section = _section("Configuration", README.read_text(encoding="utf-8"))
    readme, counts = _sentence_with(r"[Tt]he example \((\d+) / (\d+) = (\d+)\)", section)
    assert tuple(map(int, counts.groups())) == (batch, 1 << m, per_label)
    assert said in readme and unsaid not in readme


def test_example_target_is_the_operating_point_its_notes_name():
    """The example's notes call its train target the link's operating point
    at a span count: it stays within 0.05 dB of the SNR that link gives Gray
    QAM of the section's order there (training.link_target)."""
    doc = json.loads(EXAMPLE.read_text(encoding="utf-8"))
    _, said = _sentence_with(r"\(([\d.]+) dB is this link's (\d+)-span operating point\)",
                             " ".join(doc["_notes"]))
    snr_db, n_spans = float(said[1]), int(said[2])
    assert doc["train"]["target"] == {"snr_db": snr_db}
    link = LinkConfig(n_spans=n_spans, **doc["link"])
    assert abs(link_target(link, doc["train"]["m"]).snr_db - snr_db) <= 0.05


def test_history_rows_are_described_as_training_records_them():
    """README's Command line says which iterations `--history` holds, with
    the row count of the example's training, and its Performance section
    names the same stride."""
    text = README.read_text(encoding="utf-8")
    n = json.loads(EXAMPLE.read_text(encoding="utf-8"))["train"]["iterations"]
    rows = len({*range(0, n, HISTORY_STRIDE), n - 1})
    sentence, stride = _sentence_with(r"`--history` writes .* every (\d+)th iteration",
                                      _section("Command line", text))
    assert int(stride[1]) == HISTORY_STRIDE
    assert f"{rows} rows for the example's {n} iterations" in sentence
    _, stride = _sentence_with(r"`training\.HISTORY_STRIDE` = (\d+)th",
                               _section("Performance", text))
    assert int(stride[1]) == HISTORY_STRIDE


def _required(read) -> list:
    """The parameters of a section reader that have no default, in order."""
    return [p.name for p in inspect.signature(read).parameters.values() if p.default is p.empty]


def test_sections_read_are_stated_as_the_commands_read_them():
    """README's Configuration names the one section of a run configuration
    that `train` and `eval --link-from` each read, and the sections that
    `sweep` requires, as the readers of the three commands take them."""
    _, names = _sentence_with(r"`shapegain train` reads only `(\w+)`, `eval --link-from` only "
                              r"`(\w+)`, and `shapegain sweep` every section, of which `(\w+)`, "
                              r"`(\w+)` and `(\w+)` are required",
                              _section("Configuration", README.read_text(encoding="utf-8")))
    assert list(names.groups()) == [*_required(_train_section), *_required(_link_section),
                                    *_required(_run_config)]


def _kept_nodes(n: int) -> int:
    """Product nodes per label that the quadrature keeps at n nodes per dimension."""
    return int(np.count_nonzero(gauss_hermite_grid(n, n)[1] >= _QUAD_MIN_WEIGHT))


def test_quadrature_sizes_are_stated_as_the_code_has_them():
    """README's Performance gives the sweep's nodes per dimension, the kept
    product nodes per label there and at the quadrature's default, and the
    nodes that default skips; its Configuration gives the largest order the
    sweep scores."""
    text = README.read_text(encoding="utf-8")
    default = inspect.signature(per_bit_gmi_quadrature).parameters["n_nodes"].default
    performance = _section("Performance", text)
    _, nums = _sentence_with(r"`sweep\.SCORE_NODES` = (\d+) Hermite nodes per noise dimension: "
                             r"(\d+) kept product nodes per label, against (\d+) at the "
                             r"default (\d+)\.", performance)
    assert tuple(map(int, nums.groups())) == (
        SCORE_NODES, _kept_nodes(SCORE_NODES), _kept_nodes(default), default)
    _, nums = _sentence_with(r"skips the product nodes of weight below (\S+), (\d+) of the "
                             r"default (\d+) per label", performance)
    assert float(nums[1]) == _QUAD_MIN_WEIGHT
    assert (int(nums[2]), int(nums[3])) == (default ** 2 - _kept_nodes(default), default ** 2)
    _, limit = _sentence_with(r"it stops at M = (\d+), and so does the sweep", performance)
    assert int(limit[1]) == 1 << MAX_QUADRATURE_M

    _, nums = _sentence_with(r"The sweep scores constellations of at most M = (\d+) "
                             r"\(Performance\): an `ae` scheme with `train\.m` above (\d+), "
                             r"or a `qam_m_list` entry above (\d+),",
                             _section("Configuration", text))
    assert tuple(map(int, nums.groups())) == ((1 << MAX_QUADRATURE_M,) + (MAX_QUADRATURE_M,) * 2)
