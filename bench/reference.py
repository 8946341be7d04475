"""Reference values computed apart from tamedlmc.

Nothing here imports the package under test.  The double-well marginal
comes from the radial law of |theta| and the Beta law of theta_1/|theta|
on the sphere, integrated on a fixed grid; the program instead integrates
over |theta_{2..d}|^2 with adaptive quadrature.  Chains are re-stepped by
a direct transcription of the paper's update and the documented stream
contract.  The constants oracle is ``tests/oracle_constants.py``, loaded
from the checkout as it is.  Everything is at inverse temperature
beta = 1, the only one the workloads use.
"""

from __future__ import annotations

import importlib.util
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import betainc, betaln, ndtr


# --- targets, as the paper states them ---

def _h_gaussian(theta):
    return theta


def _h_double_well(theta):
    return (theta @ theta - 1.0) * theta


@dataclass(frozen=True)
class Target:
    """A benchmark target: its gradient, its growth exponent r and the
    assumption constants the constants oracle reads."""

    name: str
    h: Callable
    constants: dict = field(default_factory=dict)
    grad_h0_norm: float = 1.0  # operator norm of the Hessian at 0

    @property
    def r(self) -> int:
        return self.constants["r"]


GAUSSIAN = Target(
    "gaussian", _h_gaussian,
    dict(r=0, nu=0, L=1.0, K=1.0, L_grad=1.0, a_tilde=1.0, b_tilde=1.0),
)
DOUBLE_WELL = Target(
    "double-well", _h_double_well,
    dict(r=2, nu=1, L=1.0, K=2.0, L_grad=3.0, a=0.5, b=1.0, r_bar=0.0),
)
TARGETS = {t.name: t for t in (GAUSSIAN, DOUBLE_WELL)}


def restep(target: Target, lam: float, n_steps: int, d: int, seed: int,
           chain: int) -> np.ndarray:
    """Final iterate of chain ``chain`` from theta = 0:
    theta - lam h(theta) / sqrt(1 + lam |theta|^(2r)) + sqrt(2 lam) xi,
    with xi drawn from PCG64 seeded by SeedSequence(entropy=seed,
    spawn_key=(chain,))."""
    gen = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=(chain,))))
    xi = gen.standard_normal((n_steps, d))
    theta = np.zeros(d)
    noise = math.sqrt(2.0 * lam)
    for n in range(n_steps):
        taming = math.sqrt(1.0 + lam * float(theta @ theta) ** target.r)
        theta = theta - lam * target.h(theta) / taming + noise * xi[n]
    return theta


# --- first-coordinate marginals ---

RADIAL_GRID = 1001  # points of the radial law's trapezoid sums

class GaussianMarginal:
    """N(0, 1) in each coordinate of the standard Gaussian target."""

    def __init__(self, d: int):
        self.d = d
        self.second_moment = float(d)  # E|theta|^2

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)

    def cdf(self, x):
        return ndtr(np.asarray(x, dtype=float))


class DoubleWellMarginal:
    """First coordinate of exp(-|theta|^4/4 + |theta|^2/2) on R^d.

    |theta| = R has density proportional to r^(d-1) exp(-V(r)), and
    u = theta_1 / R is independent of R with (1 + u)/2 ~ Beta(a, a),
    a = (d - 1)/2.  So
        F(x) = E[ I_{(1 + x/R)/2}(a, a) ],
        p(x) = E[ (1 - (x/R)^2)^(a - 1) / (R B(1/2, a)) ; R > |x| ],
    both as trapezoid sums over a grid that spans the peak of the radial
    law by 16 of its curvature widths each side (the law is smooth and
    negligible at both grid ends, so the sum converges spectrally).
    The density form needs d >= 4: below that the Beta weight is not
    smooth at R = |x|.
    """

    def __init__(self, d: int):
        if d < 4:
            raise ValueError("the double-well marginal reference needs d >= 4")
        self.d = d
        self.a = 0.5 * (d - 1)
        # log radial density (d-1) log r - r^4/4 + r^2/2 peaks where
        # r^4 - r^2 - (d-1) = 0
        r_peak = math.sqrt(0.5 * (1.0 + math.sqrt(1.0 + 4.0 * (d - 1))))
        curvature = (d - 1) / r_peak**2 + 3.0 * r_peak**2 - 1.0
        width = 1.0 / math.sqrt(curvature)
        r = np.linspace(max(r_peak - 16.0 * width, 1e-12), r_peak + 16.0 * width, RADIAL_GRID)
        log_w = (d - 1) * np.log(r) - 0.25 * r**4 + 0.5 * r**2
        w = np.exp(log_w - log_w.max())
        w[0] *= 0.5
        w[-1] *= 0.5
        self.r = r
        self.w = w / w.sum()
        self.second_moment = float(self.w @ (r * r))  # E|theta|^2

    def pdf(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        u = x[:, None] / self.r[None, :]
        inside = np.abs(u) < 1.0
        one_minus = np.where(inside, 1.0 - u * u, 1.0)
        log_k = (self.a - 1.0) * np.log(one_minus) - np.log(self.r)[None, :] - betaln(0.5, self.a)
        return np.where(inside, np.exp(log_k), 0.0) @ self.w

    def cdf(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        u = np.clip(x[:, None] / self.r[None, :], -1.0, 1.0)
        return betainc(self.a, self.a, 0.5 * (1.0 + u)) @ self.w


def marginal(target_name: str, d: int):
    if target_name == "gaussian":
        return GaussianMarginal(d)
    if target_name == "double-well":
        return DoubleWellMarginal(d)
    raise ValueError(f"no reference marginal for {target_name!r}")


# --- statistics ---

def ks_statistic(xs, cdf) -> float:
    """sup |F_n - F| of a sample against a CDF."""
    xs = np.sort(np.asarray(xs, dtype=float))
    n = xs.size
    f = cdf(xs)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))


KS_ALPHA = 1e-6  # chance that the KS bound fails a correct sample


def dkw_epsilon(n: int) -> float:
    """P(sup |F_n - F| > eps) <= KS_ALPHA for n i.i.d. draws from F
    (Dvoretzky-Kiefer-Wolfowitz with Massart's constant)."""
    return math.sqrt(math.log(2.0 / KS_ALPHA) / (2.0 * n))


def scale_bias(cdf, scale: float, x_max: float) -> float:
    """sup_x |F(x) - F(x/scale)|: the KS distance that a law widened by
    ``scale`` keeps from F.  A step size lam widens the chain's law; this
    is how much of a KS value that bias accounts for."""
    x = np.linspace(-x_max, x_max, 201)
    return float(np.max(np.abs(cdf(x) - cdf(x / scale))))


def loglog_fit(lams, dists) -> tuple[float, float]:
    """Least-squares slope and r^2 of log(dist) against log(lam)."""
    x = np.log(np.asarray(lams, dtype=float))
    y = np.log(np.asarray(dists, dtype=float))
    xc, yc = x - x.mean(), y - y.mean()
    slope = float(xc @ yc / (xc @ xc))
    resid = yc - slope * xc
    return slope, 1.0 - float(resid @ resid) / float(yc @ yc)


def gaussian_chain_scale(lam: float) -> float:
    """Stationary standard deviation of the tamed chain on the standard
    Gaussian: theta' = rho theta + sqrt(2 lam) xi with
    rho = 1 - lam/sqrt(1 + lam) has stationary variance 2 lam/(1 - rho^2)."""
    rho = 1.0 - lam / math.sqrt(1.0 + lam)
    return math.sqrt(2.0 * lam / (1.0 - rho * rho))


def gaussian_chain_distance(lam: float) -> float:
    """|sigma_lam - 1|, the distance ``rate --metric gaussian-exact`` reports."""
    return abs(gaussian_chain_scale(lam) - 1.0)


def widening(target_name: str, d: int, lam: float) -> float:
    """The factor by which the chain at step ``lam`` may widen the law in
    each coordinate, set by the method before any sample is read.

    Gaussian: the chain is linear and its stationary scale is exact.
    Double-well: taming divides the drift by sqrt(1 + lam |theta|^4) and
    leaves the noise alone.  At the law's mean radius,
    |theta|^2 = E_pi|theta|^2, that slows the pull back to the wells as a
    temperature T = sqrt(1 + lam (E_pi|theta|^2)^2) would, and the cap is
    s^2 <= T.  In a quartic well the variance grows more slowly than the
    temperature, which leaves room for the larger taming at the widened
    radius and for the Euler step's own bias (at lam = 0.01, d = 100:
    s^2 <= 1.447 against 1.32 observed).
    """
    if target_name == "gaussian":
        return gaussian_chain_scale(lam)
    m = marginal(target_name, d).second_moment
    return (1.0 + lam * m * m) ** 0.25


# --- the constants oracle ---

def load_oracle(root: Path):
    """``second_path`` from tests/oracle_constants.py in the checkout."""
    path = root / "tests" / "oracle_constants.py"
    spec = importlib.util.spec_from_file_location("bench_oracle_constants", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.second_path
