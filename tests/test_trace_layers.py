"""The traced benchmark (``bench/run.py --trace 1``) wraps package
functions at the module attributes listed in ``bench/spans.py``; a
function renamed or moved away from its attribute breaks that run."""

import importlib.util
import sys
from pathlib import Path

from tamedlmc import cli, constants, metrics, numerics, potentials, sampler

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
MODULES = {"cli": cli, "numerics": numerics, "potentials": potentials,
           "sampler": sampler, "metrics": metrics, "constants": constants}


def load_spans():
    spec = importlib.util.spec_from_file_location("tamedlmc_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def test_traced_layers_are_module_attributes():
    table = load_spans().layers(MODULES)
    assert len(table) == 25
    for name, owner, attr, _ in table:
        assert attr in owner.__dict__, name
        assert callable(owner.__dict__[attr]), name


def test_traced_constants_stages_are_reached():
    # a stage that no command calls any more would read 0 calls in every
    # traced round; constants and check between them reach all six
    spans = load_spans()
    tracer = spans.Tracer(spans.layers(MODULES))
    tracer.install()
    try:
        assert cli.main(["constants", "--target", "double-well", "--dim", "2"]) == 0
        assert cli.main(["check", "--target", "double-well", "--dim", "2", "--points", "100"]) == 0
    finally:
        tracer.uninstall()
    per_layer, _ = tracer.summary()
    stages = {name: row["calls"] for name, row in per_layer.items() if name.startswith("constants.")}
    assert len(stages) == 6
    assert all(calls >= 1 for calls in stages.values()), stages
