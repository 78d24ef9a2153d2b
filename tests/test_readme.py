"""README's Library example runs as written against the installed API."""

import re
from pathlib import Path

from shapegain import RateAdaptPlan

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    plan = namespace["plan"]
    assert isinstance(plan, RateAdaptPlan)
    assert capsys.readouterr().out == f"{plan.n_d} {plan.net_rate} {plan.dummy_positions}\n"
