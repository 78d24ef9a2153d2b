"""README's Library example runs as written against the installed API, its
Command line section names every flag the parser takes and no other, and
its Configuration section names every key a run configuration takes."""

import argparse
import re
from dataclasses import fields
from pathlib import Path

from shapegain import LinkConfig, RateAdaptPlan, SnrTarget, TrainConfig
from shapegain.cli import _build_parser
from shapegain.sweep import EvalSettings, OutputSettings, SweepSettings
from shapegain.training import LinkTarget

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    plan = namespace["plan"]
    assert isinstance(plan, RateAdaptPlan)
    assert capsys.readouterr().out == f"{plan.n_d} {plan.net_rate} {plan.dummy_positions}\n"


# every object of a run configuration, whose fields are its keys
_CONFIG_OBJECTS = (LinkConfig, TrainConfig, SnrTarget, LinkTarget, SweepSettings, EvalSettings,
                   OutputSettings)


def test_configuration_section_names_every_config_key():
    text = README.read_text(encoding="utf-8")
    section = re.search(r"^## Configuration\n(.*?)^## ", text, re.S | re.M)[1]
    missing = [f"{cls.__name__}.{f.name}" for cls in _CONFIG_OBJECTS for f in fields(cls)
               if f"`{f.name}`" not in section]
    assert missing == []


def _parser_flags() -> set:
    """Every --flag of the command and of each subcommand."""
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {flag for p in (parser, *sub.choices.values()) for a in p._actions
            for flag in a.option_strings if flag.startswith("--")}


def test_command_line_section_names_every_flag():
    text = README.read_text(encoding="utf-8")
    section = re.search(r"^## Command line\n(.*?)^## ", text, re.S | re.M)[1]
    quoted = " ".join(re.findall(r"```.*?```|`[^`\n]*`", section, re.S))
    named = set(re.findall(r"--[a-z][a-z-]*", quoted))
    assert sorted(_parser_flags() - named) == []
    assert sorted(named - _parser_flags()) == []
