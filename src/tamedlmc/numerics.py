"""Foundation layer: seedable Gaussian streams, special functions (from
``math``), Gauss-Legendre quadrature on panels, and finite differences.

Everything here is deterministic given its inputs.  Randomness flows
exclusively through :class:`RngStream`, so any computation seeded by a
``(master_seed, stream_index)`` pair reproduces bit-for-bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


class QuadratureError(RuntimeError):
    """Raised when quadrature exceeds its budget or its integrand does not decay."""


class RngStream:
    """One member of a splittable family of Gaussian random streams.

    Streams are addressed by ``(master_seed, stream_index)``.  Equal
    addresses yield identical sequences; distinct ``stream_index`` values
    under one master seed yield statistically independent sequences
    (PCG64 seeded through numpy's SeedSequence spawn keys).

    A stream is a stateful value: drawing advances it.  Each concurrent
    worker must own its streams; nothing here is shared.
    """

    def __init__(self, master_seed: int, stream_index: int = 0):
        if stream_index < 0:
            raise ValueError("stream_index must be non-negative")
        self.master_seed = int(master_seed)
        self.stream_index = int(stream_index)
        seq = np.random.SeedSequence(
            entropy=self.master_seed, spawn_key=(self.stream_index,)
        )
        self._gen = np.random.Generator(np.random.PCG64(seq))

    def normal(self, shape) -> np.ndarray:
        """Draw standard normal variates with the given shape."""
        return self._gen.standard_normal(shape)

    def __repr__(self):  # pragma: no cover
        return f"RngStream(master_seed={self.master_seed}, stream_index={self.stream_index})"


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0.

    Raises ValueError outside the domain; ``math.lgamma`` is within a few
    ulps on [0.5, 200].
    """
    x = float(x)
    if x <= 0.0:
        raise ValueError(f"log_gamma domain error: x={x} (need x > 0)")
    return math.lgamma(x)


@functools.cache
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    return np.polynomial.legendre.leggauss(n)


def panel_rule(edges, n: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on each panel
    between consecutive ``edges``, concatenated: ``weights @ f(nodes)``
    integrates f from ``edges[0]`` to ``edges[-1]``."""
    x, w = gauss_legendre(n)
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges)
    nodes = (edges[:-1] + half)[:, None] + half[:, None] * x
    return nodes.ravel(), (half[:, None] * w).ravel()


@dataclass
class QuadratureResult:
    value: float
    abs_error_estimate: float
    evaluations: int


def integrate_semi_infinite(
    f,
    truncation_tol: float = 1e-16,
    max_evaluations: int = 10**6,
) -> QuadratureResult:
    """Integrate f over (0, inf) for integrands that eventually decay
    faster than any polynomial.

    The cutoff radius is grown geometrically until |f| has fallen below
    ``truncation_tol`` times the largest magnitude seen, then one
    Gauss-Legendre panel per octave is applied on [0, R] and geometric
    tail panels are accumulated until they stop contributing.  The
    reported error bounds both the quadrature error and the truncated
    tail.
    """
    count = [0]

    def g(r):
        count[0] += 1
        if count[0] > max_evaluations:
            raise QuadratureError(
                f"integrand evaluation budget exceeded ({max_evaluations})"
            )
        return f(r)

    # Scan geometrically spaced abscissae to locate the bulk of the mass,
    # a left cutoff below which the integrand is negligible, and a right
    # cutoff where it has decayed to truncation level.
    ks = np.arange(-40, 80)
    vals = np.empty(ks.size)
    peak = 0.0
    peak_idx = 0
    cut_idx = None
    for i, k in enumerate(ks):
        vals[i] = abs(g(float(2.0**k)))
        if np.isfinite(vals[i]) and vals[i] > peak:
            peak = vals[i]
            peak_idx = i
        decaying = i > 0 and vals[i] <= vals[i - 1]
        if peak > 0.0 and i > peak_idx and decaying and vals[i] < truncation_tol * peak:
            cut_idx = i
            break
    if peak == 0.0:
        return QuadratureResult(value=0.0, abs_error_estimate=0.0, evaluations=count[0])
    if cut_idx is None:
        raise QuadratureError("integrand does not decay below truncation tolerance")
    lo_idx = 0
    for i in range(peak_idx, -1, -1):
        if vals[i] < truncation_tol * peak:
            lo_idx = i
            break
    r_cut = float(2.0 ** ks[cut_idx])

    # one panel per octave: on each the integrand is smooth and well scaled
    edges = [0.0] + [float(2.0**k) for k in ks[lo_idx : cut_idx + 1]]
    value = 0.0
    err = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        seg, seg_err = _octave_panel(g, a, b)
        value += seg
        err += seg_err

    # Tail: add doubling panels until they no longer matter.  For a
    # super-polynomially decaying integrand the remainder beyond the last
    # panel is below the last panel's own size, which we charge to the
    # error estimate.
    a = r_cut
    last_seg = 0.0
    for _ in range(60):
        b = 2.0 * a
        seg, seg_err = _octave_panel(g, a, b)
        value += seg
        err += seg_err
        last_seg = abs(seg)
        if last_seg <= max(truncation_tol * abs(value), 1e-300):
            break
        a = b
    else:
        raise QuadratureError("tail contributions do not converge")
    err += last_seg

    return QuadratureResult(value=value, abs_error_estimate=err, evaluations=count[0])


# Gauss-Legendre order of integrate_semi_infinite's panels
_PANEL_NODES = 64


def _octave_panel(g, a: float, b: float) -> tuple[float, float]:
    """g integrated over [a, b] by the 64-point rule, and an error bound:
    its gap to the 32-point rule plus the rounding of the weighted sum."""
    def rule(n):
        nodes, weights = panel_rule([a, b], n)
        vals = np.array([g(float(r)) for r in nodes])
        return float(weights @ vals), float(weights @ np.abs(vals))

    value, magnitude = rule(_PANEL_NODES)
    coarse, _ = rule(_PANEL_NODES // 2)
    return value, abs(value - coarse) + _PANEL_NODES * np.finfo(float).eps * magnitude


def finite_diff_gradient(U, theta: np.ndarray, step: float | None = None) -> np.ndarray:
    """Central-difference gradient of a scalar field at theta.

    Default step is 1e-5 relative to (1 + |theta|).
    """
    theta = np.asarray(theta, dtype=float)
    if step is None:
        step = 1e-5 * (1.0 + float(np.linalg.norm(theta)))
    if step <= 0:
        raise ValueError("step must be positive")
    grad = np.empty_like(theta)
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = step
        grad[i] = (U(theta + e) - U(theta - e)) / (2.0 * step)
    return grad


def finite_diff_jacobian(f, theta: np.ndarray, step: float | None = None) -> np.ndarray:
    """Central-difference Jacobian of a vector field at theta (columns are
    partials), used to validate analytic Hessians."""
    theta = np.asarray(theta, dtype=float)
    if step is None:
        step = 1e-5 * (1.0 + float(np.linalg.norm(theta)))
    if step <= 0:
        raise ValueError("step must be positive")
    cols = []
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = step
        cols.append((np.asarray(f(theta + e)) - np.asarray(f(theta - e))) / (2.0 * step))
    return np.stack(cols, axis=1)


_erfc = np.frompyfunc(math.erfc, 1, 1)


def normal_cdf(x):
    """Standard normal CDF (elementwise), as erfc(-x / sqrt 2) / 2."""
    return 0.5 * np.asarray(_erfc(np.asarray(x, dtype=float) / -math.sqrt(2.0)), dtype=float)
