"""The Langevin chain: one vectorized kernel, tamed or untamed; reference
draws of the target law, exact or by a fine-step chain built on it.

The update rule is

    theta_{n+1} = theta_n - lam * h_lam(theta_n) + sqrt(2 lam / beta) * xi_{n+1}

where the tamed drift divides the gradient by (1 + lam |theta|^{2r})^{1/2}
(mtula); the plain Euler scheme (ula) uses the raw gradient and is expected
to blow up on super-linear gradients at practical step sizes.

Chain i always consumes RngStream(master_seed, i), so multi-chain results
are bitwise independent of execution order, chunking, or worker count; a
single chain is a one-row block of the same kernel.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .numerics import RngStream
from .potentials import TargetSpec, row_norm_sq
from . import constants as constants_mod

ALGORITHMS = ("mtula", "ula")


class DivergenceError(RuntimeError):
    """A chain produced a non-finite iterate.

    ``diverged`` lists (chain_index, step) pairs; ``step`` is the first
    update at which a non-finite coordinate appeared.
    """

    def __init__(self, message, diverged=None):
        super().__init__(message)
        self.diverged = diverged or []


@dataclass
class SamplerConfig:
    """Run parameters for a family of chains.

    horizon is total simulated time; the chain takes ceil(horizon / lam)
    steps.  theta0 is deterministic (scalar broadcast or a (d,) point).
    """

    lam: float
    beta: float
    d: int
    n_chains: int
    horizon: float
    master_seed: int
    theta0: np.ndarray | float = 0.0
    algorithm: str = "mtula"

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("step size lam must be positive")
        if self.beta <= 0:
            raise ValueError("inverse temperature beta must be positive")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if not math.isfinite(self.horizon / self.lam):
            raise ValueError(f"horizon / lambda = {self.horizon:g} / {self.lam:g} is not finite")
        if self.n_chains < 1:
            raise ValueError("n_chains must be >= 1")
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")
        theta0 = np.asarray(self.theta0, dtype=float)
        if theta0.ndim == 0:
            theta0 = np.full(self.d, float(theta0))
        if theta0.shape != (self.d,):
            raise ValueError(f"theta0 must be scalar or shape ({self.d},)")
        self.theta0 = theta0

    @property
    def n_steps(self) -> int:
        return int(math.ceil(self.horizon / self.lam))


@dataclass
class EmpiricalMeasure:
    """Final iterates of a chain family, one row per surviving chain."""

    samples: np.ndarray
    meta: dict
    chain_ids: np.ndarray
    trace: np.ndarray | None = None  # (chains, kept, d) when requested
    trace_steps: list = field(default_factory=list)


def tamed_gradient(target: TargetSpec, theta: np.ndarray, lam: float) -> np.ndarray:
    """Gradient divided by (1 + lam |theta|^{2r})^{1/2}.

    With r = 0 the divisor is the constant sqrt(1 + lam) (0^0 = 1
    convention, including at theta = 0).
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    theta = np.asarray(theta, dtype=float)
    hval = target.h(theta)
    if target.r == 0:
        return hval / math.sqrt(1.0 + lam)
    sq = row_norm_sq(theta)
    denom = np.sqrt(1.0 + lam * sq**target.r)
    return hval / (denom[..., None] if theta.ndim > 1 else denom)


def _run_chain_block(
    target: TargetSpec,
    algorithm: str,
    lam: float,
    beta: float,
    theta0: np.ndarray,
    n_steps: int,
    master_seed: int,
    indices,
    keep_every: int | None = None,
):
    """Advance chains ``indices`` in vectorized lockstep.

    Noise is pre-drawn per chain in blocks; the per-chain value sequence
    is identical to stepping that chain alone, so partitioning chains
    across workers cannot change any output.
    """
    indices = list(indices)
    m = len(indices)
    d = theta0.size
    streams = [RngStream(master_seed, i) for i in indices]
    theta = np.tile(theta0, (m, 1))
    active = np.ones(m, dtype=bool)
    diverged = []
    scale = math.sqrt(2.0 * lam / beta)
    tamed = algorithm != "ula"
    block = max(1, min(n_steps, int(8_000_000 // max(1, m * d))))
    kept = [] if keep_every else None
    kept_steps = [] if keep_every else None

    step = 0
    noise = np.empty((block, m, d))
    while step < n_steps:
        b = min(block, n_steps - step)
        for j, s in enumerate(streams):
            noise[:b, j, :] = s.normal((b, d))
        for t in range(b):
            step += 1
            all_active = active.all()
            if all_active:
                with np.errstate(over="ignore", invalid="ignore"):
                    drift = tamed_gradient(target, theta, lam) if tamed else target.h(theta)
                    theta -= lam * drift
                    theta += scale * noise[t]
                suspect = not np.isfinite(theta.sum())
            elif active.any():
                th = theta[active]
                with np.errstate(over="ignore", invalid="ignore"):
                    drift = tamed_gradient(target, th, lam) if tamed else target.h(th)
                    theta[active] = th - lam * drift + scale * noise[t, active, :]
                suspect = True
            else:
                suspect = False
            if suspect:
                finite = np.isfinite(theta).all(axis=1)
                newly = active & ~finite
                if newly.any():
                    for j in np.nonzero(newly)[0]:
                        diverged.append((indices[j], step))
                    active &= finite
            if keep_every and (step % keep_every == 0 or step == n_steps):
                kept.append(theta.copy())
                kept_steps.append(step)

    trace = np.stack(kept, axis=1) if kept else None
    return theta, active, diverged, trace, (kept_steps or [])


def run_chains(
    config: SamplerConfig,
    target: TargetSpec,
    n_workers: int = 1,
    keep_every: int | None = None,
) -> EmpiricalMeasure:
    """Run ``n_chains`` independent chains and collect their final iterates.

    Chain i uses RngStream(master_seed, i).  Diverged chains are dropped
    from the sample matrix and reported in meta["diverged_chains"]; if
    every chain diverges a DivergenceError is raised.  Output is a pure
    function of (config, target): worker count only affects wall time.
    """
    if config.d != target.d:
        raise ValueError(f"config.d={config.d} does not match target.d={target.d}")
    lam_max, _ = constants_mod.step_size_limits_for_target(target)
    if config.lam > lam_max:
        warnings.warn(
            f"step size {config.lam:g} exceeds the theoretical maximum "
            f"{lam_max:g} for target {target.name!r}; running anyway",
            stacklevel=2,
        )

    indices = np.arange(config.n_chains)
    args = (
        target,
        config.algorithm,
        config.lam,
        config.beta,
        config.theta0,
        config.n_steps,
        config.master_seed,
    )
    if n_workers <= 1 or config.n_chains == 1:
        blocks = [_run_chain_block(*args, indices, keep_every)]
    else:
        parts = [p for p in np.array_split(indices, n_workers) if p.size]
        with ProcessPoolExecutor(max_workers=len(parts)) as pool:
            futures = [
                pool.submit(_run_chain_block, *args, part, keep_every) for part in parts
            ]
            blocks = [f.result() for f in futures]

    theta = np.concatenate([b[0] for b in blocks], axis=0)
    active = np.concatenate([b[1] for b in blocks], axis=0)
    diverged = sorted(d for b in blocks for d in b[2])
    traces = [b[3] for b in blocks]
    trace = np.concatenate(traces, axis=0) if keep_every and traces[0] is not None else None
    trace_steps = blocks[0][4]

    if not active.any():
        raise DivergenceError(
            f"all {config.n_chains} chains diverged", diverged=diverged
        )

    meta = {
        "target": target.name,
        "algorithm": config.algorithm,
        "lambda": config.lam,
        "beta": config.beta,
        "d": config.d,
        "horizon": config.horizon,
        "seed": config.master_seed,
        "n_chains": config.n_chains,
        "diverged_chains": [{"chain": int(c), "step": int(s)} for c, s in diverged],
    }
    return EmpiricalMeasure(
        samples=theta[active],
        meta=meta,
        chain_ids=indices[active],
        trace=trace[active] if trace is not None else None,
        trace_steps=trace_steps,
    )


def reference_measure(
    target: TargetSpec,
    beta: float,
    *,
    master_seed: int,
    n_draws: int,
    horizon: float | None = None,
    fine_step: float | None = None,
    n_workers: int = 1,
) -> EmpiricalMeasure:
    """n_draws independent draws of the target law at ``beta``: exact when
    the target has an exact draw (``horizon`` and ``fine_step`` are then
    unused), else the tamed chain run from the origin at ``fine_step`` for
    ``horizon`` (bias O(fine_step), an order below the coarse chains under
    test)."""
    if target.exact_draw is not None:
        samples = target.exact_draw(RngStream(master_seed, 0), n_draws, beta)
        meta = {"target": target.name, "algorithm": "exact", "lambda": 0.0, "beta": beta,
                "d": target.d, "horizon": 0.0, "seed": master_seed, "n_chains": n_draws,
                "diverged_chains": []}
        return EmpiricalMeasure(samples=samples, meta=meta, chain_ids=np.arange(n_draws))
    if horizon is None or fine_step is None:
        raise ValueError(f"target {target.name!r} has no exact draw: give horizon and fine_step")
    config = SamplerConfig(lam=fine_step, beta=beta, d=target.d, n_chains=n_draws,
                           horizon=horizon, master_seed=master_seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # fine step is below lam_max by design
        return run_chains(config, target, n_workers=n_workers)


# --- closed forms for the Gaussian chain (exactly solvable case) ---

def gaussian_chain_rho(lam: float) -> float:
    """AR(1) multiplier of the tamed chain on the Gaussian target."""
    return 1.0 - lam / math.sqrt(1.0 + lam)


def gaussian_chain_std(lam: float, beta: float = 1.0, n_steps: int | None = None) -> float:
    """Per-coordinate standard deviation of the Gaussian-target chain
    started at 0: stationary when n_steps is None, else after n_steps."""
    rho = gaussian_chain_rho(lam)
    var_inf = 2.0 * lam / beta / (1.0 - rho * rho)
    if n_steps is None:
        return math.sqrt(var_inf)
    return math.sqrt(var_inf * (1.0 - rho ** (2 * n_steps)))


# --- second-moment functional of the target law ---

def estimate_v2_integral(
    target: TargetSpec,
    beta: float,
    method: str = "auto",
    n_draws: int = 100_000,
    horizon: float = 20.0,
    fine_step: float | None = None,
    master_seed: int = 0,
) -> tuple[float, float]:
    """Integral of (1 + |theta|^2) under the target law, with a standard
    error (zero for the closed form).

    auto: the target's closed-form second moment, else Monte Carlo.
    quadrature: the closed form only.
    mc: Monte Carlo over ``reference_measure`` draws (a fine-step chain
    at lam_max / 10 unless ``fine_step`` is given, or exact draws).
    """
    if method not in ("auto", "quadrature", "mc"):
        raise ValueError("method must be auto, quadrature, or mc")
    if method != "mc" and target.second_moment is not None:
        return 1.0 + target.second_moment(beta), 0.0
    if method == "quadrature":
        raise ValueError(f"no closed-form second moment for target {target.name!r}")
    if fine_step is None:
        fine_step = constants_mod.step_size_limits_for_target(target)[0] / 10.0
    measure = reference_measure(
        target, beta, master_seed=master_seed, n_draws=n_draws,
        horizon=horizon, fine_step=fine_step,
    )
    v2 = 1.0 + np.sum(measure.samples**2, axis=1)
    return float(np.mean(v2)), float(np.std(v2, ddof=1) / math.sqrt(v2.size))


# --- CSV / JSON serialization ---

def save_measure_csv(measure: EmpiricalMeasure, path) -> None:
    """Write samples as `chain,x1,...,xd` rows (shortest round-trip float
    format, so identical runs produce identical bytes)."""
    d = measure.samples.shape[1]
    lines = ["chain," + ",".join(f"x{i + 1}" for i in range(d))]
    for cid, row in zip(measure.chain_ids, measure.samples):
        lines.append(str(int(cid)) + "," + ",".join(repr(float(v)) for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_measure_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a samples CSV; returns (chain_ids, samples)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("chain,"):
            raise ValueError(f"{path}: not a samples CSV (bad header {header!r})")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    if not rows:
        raise ValueError(f"{path}: no sample rows")
    chain_ids = np.array([int(r[0]) for r in rows])
    samples = np.array([[float(v) for v in r[1:]] for r in rows])
    return chain_ids, samples
