"""Foundation layer: seedable Gaussian streams, special functions, quadrature,
and finite differences.

Everything here is deterministic given its inputs.  Randomness flows
exclusively through :class:`RngStream`, so any computation seeded by a
``(master_seed, stream_index)`` pair reproduces bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy import special


class QuadratureError(RuntimeError):
    """Raised when adaptive quadrature exceeds its evaluation budget."""


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

    Raises ValueError outside the domain; accuracy is that of
    scipy.special.gammaln (well below 1e-12 relative on [0.5, 200]).
    """
    x = float(x)
    if x <= 0.0:
        raise ValueError(f"log_gamma domain error: x={x} (need x > 0)")
    return float(special.gammaln(x))


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
    ``truncation_tol`` times the largest magnitude seen, then adaptive
    quadrature is applied on [0, R] and geometric tail segments are
    accumulated until they stop contributing.  The reported error bounds
    both the quadrature error and the truncated tail.
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

    # one quadrature panel per octave: every panel is well scaled, which
    # huge single intervals are not (QUADPACK sees a spike and gives up)
    edges = [0.0] + [float(2.0**k) for k in ks[lo_idx : cut_idx + 1]]
    main = 0.0
    main_err = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        seg, seg_err = integrate.quad(g, a, b, limit=100, epsabs=1e-15, epsrel=1e-12)
        main += seg
        main_err += seg_err

    # Tail: add doubling segments until they no longer matter.  For a
    # super-polynomially decaying integrand the remainder beyond the last
    # segment is below the last segment's own size, which we charge to
    # the error estimate.
    value = main
    err = main_err
    a = r_cut
    last_seg = 0.0
    for _ in range(60):
        b = 2.0 * a
        seg, seg_err = integrate.quad(g, a, b, limit=100, epsabs=1e-14, epsrel=1e-12)
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


def normal_cdf(x):
    """Standard normal CDF (vectorized)."""
    return special.ndtr(x)
