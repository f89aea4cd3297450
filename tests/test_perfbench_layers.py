"""The benchmark's traced run wraps ``bcrb.<module>.<name>`` for every key of
``perfbench/layers.py`` TRACED; a renamed or deleted function must fail here,
not in the middle of ``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # layers.py imports its sibling spans.py
    spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.TRACED
    missing = []
    for name in layers.TRACED:
        mod_name, fn_name = name.split(".")
        if not callable(getattr(importlib.import_module(f"bcrb.{mod_name}"), fn_name, None)):
            missing.append(name)
    assert missing == []
