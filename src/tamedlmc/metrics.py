"""Distances and diagnostics between empirical measures and analytic laws:
exact 1-D Wasserstein (sorted coupling), sliced Wasserstein in R^d,
Kolmogorov-Smirnov against an analytic CDF, moments, histograms, and
log-log rate fitting.

Wasserstein routines require equal sample counts: every experiment here
controls both sides, and the equal-size optimal coupling in 1-D is just
the sorted pairing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import RngStream


def wasserstein_1d(xs, ys, p: float = 1) -> float:
    """Exact order-p Wasserstein distance between two equal-size empirical
    measures on R: ((1/N) sum |x_(i) - y_(i)|^p)^(1/p)."""
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
    if xs.size != ys.size or xs.size == 0:
        raise ValueError(f"equal nonzero sample sizes required ({xs.size} vs {ys.size})")
    if p < 1:
        raise ValueError("order p must be >= 1")
    diff = np.abs(np.sort(xs) - np.sort(ys))
    return float(np.mean(diff**p) ** (1.0 / p))


def sliced_wasserstein(A, B, p: float = 2, n_proj: int = 256,
                       stream: RngStream | None = None) -> float:
    """Monte Carlo sliced Wasserstein distance between two equal-size
    sample sets in R^d: ((1/n_proj) sum_k W_p(<A,u_k>, <B,u_k>)^p)^(1/p)
    over uniformly random unit directions u_k.

    Lower-bounds (a dimension-dependent multiple of) the true W_p;
    deterministic given the stream.  Directions are generated before any
    projection is evaluated so results cannot depend on scheduling.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape != B.shape:
        raise ValueError(f"sample shape mismatch: {A.shape} vs {B.shape}")
    if n_proj < 1:
        raise ValueError("n_proj must be >= 1")
    d = A.shape[1]
    if stream is None:
        stream = RngStream(0, 0)
    dirs = stream.normal((n_proj, d))
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    dirs /= norms
    proj_a = A @ dirs.T
    proj_b = B @ dirs.T
    acc = 0.0
    for k in range(n_proj):
        acc += wasserstein_1d(proj_a[:, k], proj_b[:, k], p) ** p
    return float((acc / n_proj) ** (1.0 / p))


def ks_statistic(xs, cdf) -> float:
    """One-sample Kolmogorov-Smirnov statistic against a CDF callable."""
    xs = np.sort(np.asarray(xs, dtype=float).ravel())
    if xs.size == 0:
        raise ValueError("need at least one sample")
    n = xs.size
    f = np.asarray(cdf(xs), dtype=float)
    i = np.arange(1, n + 1)
    return float(np.max(np.maximum(np.abs(i / n - f), np.abs((i - 1) / n - f))))


@dataclass
class RateFit:
    """OLS fit of log(distance) against log(step size)."""

    slope: float
    intercept: float
    r_squared: float
    points: list

    def to_dict(self) -> dict:
        return {"slope": self.slope, "intercept": self.intercept,
                "r_squared": self.r_squared}


def fit_rate(lams, dists) -> RateFit:
    """Fit the empirical convergence order: slope of log(dist) on log(lam)."""
    lams = np.asarray(lams, dtype=float)
    dists = np.asarray(dists, dtype=float)
    if lams.size != dists.size or lams.size < 2:
        raise ValueError("need equally many step sizes and distances (at least 2)")
    if np.any(lams <= 0) or np.any(dists <= 0):
        raise ValueError("step sizes and distances must be strictly positive")
    lx = np.log(lams)
    ly = np.log(dists)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return RateFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=min(max(r2, 0.0), 1.0),
        points=list(zip(lx.tolist(), ly.tolist())),
    )


@dataclass
class Histogram:
    centers: np.ndarray
    densities: np.ndarray
    bin_width: float
    inside_fraction: float


def histogram(xs, n_bins: int, value_range) -> Histogram:
    """Equal-width histogram normalized against the *total* sample count,
    so sum(density * width) equals the fraction of samples inside the
    range (mass outside is reported, not renormalized away)."""
    xs = np.asarray(xs, dtype=float).ravel()
    lo, hi = float(value_range[0]), float(value_range[1])
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    if not lo < hi:
        raise ValueError("range must satisfy lo < hi")
    counts, edges = np.histogram(xs, bins=n_bins, range=(lo, hi))
    width = (hi - lo) / n_bins
    densities = counts / (xs.size * width)
    centers = 0.5 * (edges[:-1] + edges[1:])
    inside = float(counts.sum() / xs.size)
    return Histogram(centers=centers, densities=densities, bin_width=width,
                     inside_fraction=inside)


def cdf_from_pdf(pdf, lo: float, hi: float, n_grid: int = 4096):
    """Tabulate a CDF by trapezoidal quadrature of a density on a grid and
    return a monotone piecewise-linear interpolant (clamped to [0, mass]
    outside the grid)."""
    if n_grid < 2:
        raise ValueError("n_grid must be >= 2")
    grid = np.linspace(lo, hi, n_grid)
    pv = np.asarray(pdf(grid), dtype=float)
    if np.any(pv < 0):
        raise ValueError("density must be non-negative")
    increments = 0.5 * (pv[1:] + pv[:-1]) * np.diff(grid)
    cum = np.concatenate([[0.0], np.cumsum(increments)])
    cum = np.maximum.accumulate(cum)

    def cdf(x):
        return np.interp(np.asarray(x, dtype=float), grid, cum, left=0.0, right=cum[-1])

    return cdf


def marginal_support(pdf, lo: float = -3.0, hi: float = 3.0,
                     tail: float = 1e-10) -> tuple[float, float]:
    """Grow [lo, hi] until the density at both ends is below ``tail``."""
    while pdf(hi) > tail and hi < 1e3:
        hi += 1.0
    while pdf(lo) > tail and lo > -1e3:
        lo -= 1.0
    return lo, hi
