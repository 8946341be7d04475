"""Spans around tamedlmc's public functions, for the traced run.

``Tracer.install`` replaces each layer function at the module attribute
its callers look it up through with a wrapper that records a span
(name, start, end, parent) and restores the originals on ``uninstall``.
Nothing in the package changes.  A layer's self time is its spans'
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at the top
    counts: dict | None = None  # work done, for the layers that count it


def _normals(result, *args, **kwargs) -> dict:
    return {"numerics.normals": int(result.size)}


def _steps(result, config, *args, **kwargs) -> dict:
    return {"sampler.chain_steps": config.n_chains * config.n_steps,
            "sampler.steps": config.n_steps}


def layers(modules: dict) -> list:
    """(span name, owner object, attribute, work counter) per layer.

    Functions are wrapped where their callers find them: the package
    modules call each other through module attributes, and potentials
    binds numerics.integrate_semi_infinite under its own name."""
    cli, numerics, potentials, sampler, metrics, constants = (
        modules[k] for k in ("cli", "numerics", "potentials", "sampler", "metrics", "constants"))
    return [
        ("cli.main", cli, "main", None),
        ("numerics.RngStream.normal", numerics.RngStream, "normal", _normals),
        ("numerics.integrate_semi_infinite", potentials, "integrate_semi_infinite", None),
        ("sampler.run_chains", sampler, "run_chains", _steps),
        ("sampler.tamed_gradient", sampler, "tamed_gradient", None),
        ("sampler.reference_measure", sampler, "reference_measure", None),
        ("sampler.save_measure_csv", sampler, "save_measure_csv", None),
        ("sampler.load_measure_csv", sampler, "load_measure_csv", None),
        ("sampler.estimate_v2_integral", sampler, "estimate_v2_integral", None),
        ("potentials.marginal_pdf", potentials, "marginal_pdf", None),
        ("potentials.check_assumption_2", potentials, "check_assumption_2", None),
        ("potentials.check_assumption_3", potentials, "check_assumption_3", None),
        ("potentials.check_assumption_4", potentials, "check_assumption_4", None),
        ("metrics.marginal_support", metrics, "marginal_support", None),
        ("metrics.cdf_from_pdf", metrics, "cdf_from_pdf", None),
        ("metrics.histogram", metrics, "histogram", None),
        ("metrics.ks_statistic", metrics, "ks_statistic", None),
        ("metrics.wasserstein_1d", metrics, "wasserstein_1d", None),
        ("metrics.fit_rate", metrics, "fit_rate", None),
        ("constants.derive_constants", constants, "derive_constants", None),
        ("constants.derive_moment_constants", constants, "derive_moment_constants", None),
        ("constants.derive_drift_constants", constants, "derive_drift_constants", None),
        ("constants.derive_contraction_constants", constants, "derive_contraction_constants", None),
        ("constants.derive_theorem_constants", constants, "derive_theorem_constants", None),
        ("constants.certify_derived_constants", constants, "certify_derived_constants", None),
    ]


class Tracer:
    def __init__(self, layer_table: list):
        self.layers = layer_table
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.counts = counter(result, *args, **kwargs)
            return result

        return traced

    def install(self):
        for name, owner, attr, counter in self.layers:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, counter))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def summary(self) -> tuple[dict, dict]:
        """Per layer self seconds, inclusive seconds and calls; and the
        counted work, summed by counter name."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        per_layer = {name: {"self_s": 0.0, "total_s": 0.0, "calls": 0}
                     for name, *_ in self.layers}
        counts: dict = {}
        for i, s in enumerate(self.spans):
            row = per_layer[s.name]
            row["self_s"] += s.end - s.start - child[i]
            row["total_s"] += s.end - s.start
            row["calls"] += 1
            for key, value in (s.counts or {}).items():
                counts[key] = counts.get(key, 0) + value
        return per_layer, counts

    def time_under(self, name: str, ancestor: str) -> float:
        """Total duration of ``name`` spans that run inside an
        ``ancestor`` span."""
        total = 0.0
        for s in self.spans:
            if s.name != name:
                continue
            p = s.parent
            while p is not None and self.spans[p].name != ancestor:
                p = self.spans[p].parent
            if p is not None:
                total += s.end - s.start
        return total
