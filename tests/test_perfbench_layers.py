"""The benchmark's traced run wraps ``bcrb.<module>.<name>`` for every key of
``perfbench/layers.py`` TRACED and fills span metadata from the ``after``
hooks; a renamed or deleted function, or a signature a hook no longer reads,
must fail here, not in the middle of ``perfbench/run.py --trace 1``.  Likewise
a library call of ``perfbench/workloads.py`` that no longer fits the API."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import bcrb.cli  # noqa: F401  (Tracer.install looks every traced module up in sys.modules)
from bcrb import minimax, optimal

from conftest import gaussian_scalar_model

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # layers.py imports its sibling spans.py
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def layers(monkeypatch):
    return _load(monkeypatch, "layers")


def test_sweeps_cases_on_the_changed_code_run_and_pass(monkeypatch):
    workloads = _load(monkeypatch, "workloads")
    cases = {c.id: c for c in workloads.sweeps(np.random.default_rng(3))}
    chosen = [cid for cid in cases if cid.startswith("invariance_")] + ["bmax_nsweep_16"]
    assert len(chosen) == 4
    failures = []
    for cid in chosen:
        case = cases[cid]
        failures += workloads.evaluate(case, case.run(), case.reference())[1]
    assert failures == []


def test_every_traced_name_resolves(layers):
    assert layers.TRACED
    missing = []
    for name in layers.TRACED:
        mod_name, fn_name = name.split(".")
        if not callable(getattr(importlib.import_module(f"bcrb.{mod_name}"), fn_name, None)):
            missing.append(name)
    assert missing == []


def test_after_hooks_fill_span_metadata(layers):
    from spans import Tracer

    quadratic = minimax.SchrodingerProblem((-0.5, 0.5), lambda t: np.asarray(t) ** 2,
                                           nodes=401)
    tracer = Tracer()
    tracer.install("bcrb", layers.TRACED)
    tracer.enabled = True
    try:
        optimal.bmax(gaussian_scalar_model(n_nodes=201), n=10.0)
        fit = minimax.rate_fit(quadratic, [1e2, 1e3, 1e4, 1e5])
        minimax.lambda_scan(quadratic, 10.0)
    finally:
        tracer.enabled = False
        tracer.uninstall()

    spans = {}
    for s in tracer.spans:
        spans.setdefault(s.name, []).append(s)
    (assembled,) = spans["optimal.assemble_L"]
    assert assembled.meta["unknowns"] == 199 and assembled.meta["nnz"] > 0
    (solved,) = spans["optimal.solve_least_favorable"]
    assert 0.0 <= solved.meta["relative_residual"] <= optimal.SOLVE_RTOL
    (fitted,) = spans["minimax.rate_fit"]
    assert fitted.meta["workers"] == min(len(fit.n_values), minimax.thread_cap())
    assert len(spans["minimax.lambda_scan"]) == 1

    metrics = layers.pass_metrics(tracer.spans, [])
    assert metrics["optimal.assemble_L.unknowns"] == 199
    assert 0.0 < metrics["minimax.rate_fit.parallel_eff"] <= 1.0
    assert metrics["minimax.lambda_scan.self_s"] > 0.0
