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

import itertools
import math
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass

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


def _taming_divisor(r: int, lam: float, sq, out):
    """(1 + lam |theta|^{2r})^{1/2} from sq = |theta|^2, into the array
    ``out``: a constant when r = 0 (0^0 = 1, including at theta = 0)."""
    if r == 0:
        return math.sqrt(1.0 + lam)
    out = np.multiply(sq, lam, out=out)
    for _ in range(r - 1):
        out *= sq
    out += 1.0
    return np.sqrt(out, out=out)


def tamed_gradient(target: TargetSpec, theta: np.ndarray, lam: float) -> np.ndarray:
    """Gradient divided by (1 + lam |theta|^{2r})^{1/2}.

    With r = 0 the divisor is the constant sqrt(1 + lam) (0^0 = 1
    convention, including at theta = 0).
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    theta = np.asarray(theta, dtype=float)
    sq = row_norm_sq(theta)
    denom = _taming_divisor(target.r, lam, sq, np.empty(np.shape(sq)))
    return target.h(theta) / np.expand_dims(denom, -1)


def _advance(parts, r, tamed, lam, theta, xi, sq, f, work) -> None:
    """One update of every row of ``theta`` (m, d), in place:

        theta <- theta (1 - g a) - g c + xi,  g = lam / D,

    with h = a theta + c the target's drift parts, D the taming divisor
    (1 for ula) and ``xi`` the scaled noise.  ``sq``, ``f`` (m,) and
    ``work`` (m, d) are scratch buffers; every row is computed apart from
    the others, so no row's bits depend on what the other rows hold.
    """
    row_norm_sq(theta, out=sq)
    a, c = parts(theta, sq)
    g = np.divide(lam, _taming_divisor(r, lam, sq, f), out=f) if tamed else lam
    if c is not None:
        np.multiply(c, np.reshape(g, (-1, 1)), out=work)
    np.multiply(a, g, out=f)
    np.subtract(1.0, f, out=f)
    theta *= f[:, None]
    if c is not None:
        theta -= work
    theta += xi


# doubles of Gaussian noise one kernel call holds, blocks and staging
# arrays of at most _STAGING each together.  Tests lower it so that a run
# spans many blocks.
_NOISE_BUDGET = 8_000_000
_STAGING = 2**18  # 2 MB
# draws per RngStream.normal call below which the helper thread costs more
# in handing the interpreter lock back and forth than it saves: on a 2-core
# Xeon it made d=1 x 10,000 chains (373 draws a call) 45% slower and
# d=1 x 5,000 (747) 10% faster; at d=2 x 8,000 (466) neither side won clearly
_OVERLAP_DRAWS = 512


def _run_chain_block(
    target: TargetSpec,
    algorithm: str,
    lam: float,
    beta: float,
    theta0: np.ndarray,
    n_steps: int,
    master_seed: int,
    indices,
):
    """Advance chains ``indices`` in vectorized lockstep; returns their
    final iterates, which of them stayed finite, and (chain, step) of each
    divergence.

    The chains' streams are seeded as one ``RngStream.family``.  Noise is
    drawn per chain in blocks of steps, into two buffers: while this
    thread steps through one block, a helper thread fills the next, in
    chunks of chains taken from a shared counter; when the steps are done
    this thread takes the chunks left, then waits for the helper.  A
    chunk is drawn chain-major into a staging array, scaled in place and
    copied into the step-major buffer as records of d doubles.  When a
    chain's block would hold fewer than ``_OVERLAP_DRAWS`` draws, this
    thread fills every block itself, into one buffer of twice the size.
    Chain j's draws land at fixed positions whichever thread makes them,
    and its value sequence is that of stepping it alone, so neither the
    threads' scheduling nor the partition of chains across workers can
    change any output.
    """
    indices = list(indices)
    m = len(indices)
    d = theta0.size
    streams = RngStream.family(master_seed, indices)
    theta = np.tile(theta0, (m, 1))
    active = np.ones(m, dtype=bool)
    diverged = []
    scale = math.sqrt(2.0 * lam / beta)
    tamed = algorithm != "ula"

    def block_for(share):
        # steps whose noise, with one staging array, fits ``share`` doubles;
        # a chain's block fits one staging array when the budget allows
        return max(1, min(n_steps, (share - _STAGING) // (m * d), _STAGING // d))

    # with the helper, two buffers of half the budget; without, one of all
    block = block_for(_NOISE_BUDGET // 2)
    overlap = block * d >= _OVERLAP_DRAWS
    if not overlap:
        block = block_for(_NOISE_BUDGET)
    chunk = max(1, min(m, _STAGING // (block * d)))
    n_blocks = -(-n_steps // block)
    noise = [np.empty((block, m, d)) for _ in range(min(1 + overlap, n_blocks))]
    staging = [np.empty(chunk * block * d) for _ in range(1 + overlap)]  # this thread's, the helper's
    sq, f, work = np.empty(m), np.empty(m), np.empty((m, d))
    row = np.dtype((np.void, 8 * d))  # one chain-step's d doubles, copied as one record

    def fill(k, stage, next_chunk):
        # draw chunks of block k's noise, scaled, until none is left
        b = min(block, n_steps - k * block)
        out = noise[k % len(noise)]
        while (j0 := next_chunk() * chunk) < m:
            j1 = min(m, j0 + chunk)
            draws = stage[:(j1 - j0) * b * d].reshape(j1 - j0, b, d)
            for j in range(j0, j1):
                streams[j].normal((b, d), out=draws[j - j0])
            draws *= scale
            out[:b, j0:j1].view(row)[...] = draws.transpose(1, 0, 2).view(row)

    def start(k):
        next_chunk = itertools.count().__next__
        return (helper.submit(fill, k, staging[1], next_chunk) if overlap else None), next_chunk

    step = 0
    with ThreadPoolExecutor(max_workers=1) as helper:
        pending = start(0)
        for k in range(n_blocks):
            filling, next_chunk = pending
            fill(k, staging[0], next_chunk)
            if overlap:
                filling.result()
            if k + 1 < n_blocks:
                pending = start(k + 1)
            xi = noise[k % len(noise)]
            for t in range(min(block, n_steps - step)):
                step += 1
                with np.errstate(over="ignore", invalid="ignore"):
                    _advance(target.drift_parts, target.r, tamed, lam, theta, xi[t], sq, f, work)
                    lost = not np.isfinite(theta.sum())
                if lost:
                    finite = np.isfinite(theta).all(axis=1)
                    for j in np.nonzero(active & ~finite)[0]:
                        diverged.append((indices[j], step))
                    active &= finite
                    if not active.any():
                        return theta, active, diverged
                    # lost rows restart from theta0 and step on unread; rows
                    # are computed apart, so the survivors keep their bits
                    theta[~finite] = theta0
    return theta, active, diverged


def run_chains(
    config: SamplerConfig,
    target: TargetSpec,
    n_workers: int = 1,
) -> EmpiricalMeasure:
    """Run ``n_chains`` independent chains and collect their final iterates.

    Chain i uses RngStream(master_seed, i).  Diverged chains are dropped
    from the sample matrix and reported in meta["diverged_chains"]; if
    every chain diverges a DivergenceError is raised.  Output is a pure
    function of (config, target): worker count only affects wall time.
    """
    if config.d != target.d:
        raise ValueError(f"config.d={config.d} does not match target.d={target.d}")
    lam_max = constants_mod.certified_moduli(target).lambda_max
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
        blocks = [_run_chain_block(*args, indices)]
    else:
        parts = [p for p in np.array_split(indices, n_workers) if p.size]
        with ProcessPoolExecutor(max_workers=len(parts)) as pool:
            futures = [pool.submit(_run_chain_block, *args, part) for part in parts]
            blocks = [f.result() for f in futures]

    theta = np.concatenate([b[0] for b in blocks], axis=0)
    active = np.concatenate([b[1] for b in blocks], axis=0)
    diverged = sorted(d for b in blocks for d in b[2])

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
    return EmpiricalMeasure(samples=theta[active], meta=meta, chain_ids=indices[active])


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
        # fine_step may exceed lam_max, only the theorem's sufficient bound;
        # a chain that step loses is listed in meta["diverged_chains"] instead
        warnings.simplefilter("ignore")
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
    method: str = "quadrature",
    n_draws: int = 100_000,
    horizon: float = 20.0,
    fine_step: float | None = None,
    master_seed: int = 0,
) -> tuple[float, float]:
    """Integral of (1 + |theta|^2) under the target law, with a standard
    error (zero for the closed form).

    quadrature: the target's closed-form second moment; a target without
    one raises.
    mc: Monte Carlo over ``reference_measure`` draws (a fine-step chain
    at lam_max / 10 unless ``fine_step`` is given, or exact draws).
    """
    if method not in ("quadrature", "mc"):
        raise ValueError("method must be quadrature or mc")
    if method == "quadrature":
        if target.second_moment is None:
            raise ValueError(f"no closed-form second moment for target {target.name!r}")
        return 1.0 + target.second_moment(beta), 0.0
    if fine_step is None:
        fine_step = constants_mod.certified_moduli(target).lambda_max / 10.0
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
