import inspect
import re
from pathlib import Path

import bcrb

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_export_resolves():
    missing = [name for name in bcrb.__all__ if not hasattr(bcrb, name)]
    assert missing == []


def test_exports_listed_once():
    assert len(bcrb.__all__) == len(set(bcrb.__all__))


def test_only_the_two_pinned_bounds_take_a_prior():
    # every other bound reads the model's own prior
    takes_prior = sorted(
        name for name in bcrb.__all__
        if inspect.isfunction(obj := getattr(bcrb, name))
        and "prior" in inspect.signature(obj).parameters)
    assert takes_prior == ["gill_levit_bound", "invariance_report"]


def test_readme_quick_start_runs_as_written(capsys):
    # the python block under "## Library quick start" prints the unit-field
    # and the optimal bound, both 1/11 for F = u = 1, a unit Gaussian, n = 10
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 2
    for value in printed:
        assert abs(float(value) - 1.0 / 11.0) <= 1e-6
