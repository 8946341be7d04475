"""The traced benchmark (``bench/run.py --trace 1``) wraps package
functions at the module attributes listed in ``bench/spans.py``; a
function renamed or moved away from its attribute breaks that run."""

import importlib.util
import sys
from pathlib import Path

from tamedlmc import cli, constants, metrics, numerics, potentials, sampler

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("tamedlmc_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def test_traced_layers_are_module_attributes():
    modules = {"cli": cli, "numerics": numerics, "potentials": potentials,
               "sampler": sampler, "metrics": metrics, "constants": constants}
    table = load_spans().layers(modules)
    assert len(table) == 25
    for name, owner, attr, _ in table:
        assert attr in owner.__dict__, name
        assert callable(owner.__dict__[attr]), name
