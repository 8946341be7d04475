"""The Langevin chain: one vectorized kernel, tamed or untamed; reference
draws of the target law, exact or by a fine-step chain built on it.

The update rule is

    theta_{n+1} = theta_n - lam * h_lam(theta_n) + sqrt(2 lam / beta) * xi_{n+1}

where the tamed drift divides the gradient by (1 + lam |theta|^{2r})^{1/2}
(mtula); the plain Euler scheme (ula) uses the raw gradient and is expected
to blow up on super-linear gradients at practical step sizes.

Chain i always consumes RngStream(master_seed, i) and each row is stepped
apart from the others, so multi-chain results are bitwise independent of
execution order, blocking, or which of a run's two processes steps the
chain; a single chain is a one-row block of the same kernel.
"""

from __future__ import annotations

import math
import mmap
import os
import pickle
import signal
from dataclasses import dataclass

import numpy as np

from .numerics import RngStream
from .potentials import TargetSpec, row_norm_sq

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


# A block is one generator call of _CALL_DRAWS draws per chain (its ~1 us
# start-up is then under 2%), within _NOISE_BUDGET doubles for the blocks
# of both halves of the run and a staging array, which binds at short rows
# (d=2 x 8,000 chains).  Tests lower them so that a run spans many blocks.
_NOISE_BUDGET = 4_000_000
_STAGING = 2**18  # 2 MB
_CALL_DRAWS = 4096


def _split(m: int) -> int:
    """The caller steps chains [0, _split(m)) of a forked run and the
    helper the rest: both do the same work per chain, so halves balance."""
    return m // 2


def run_chains(config: SamplerConfig, target: TargetSpec) -> EmpiricalMeasure:
    """Run ``n_chains`` independent chains in vectorized lockstep and
    collect their final iterates.

    Chain i uses RngStream(master_seed, i).  A run of more than one block
    of steps, with at least two chains, forks one helper process: this
    process owns chains [0, m//2), the helper [m//2, m).  Each side seeds
    its own streams as one ``RngStream.family`` and then fills and steps
    its rows through every block in a private one-block noise buffer;
    both do the same work per chain, so the fixed split is balanced.  The
    iterates and active flags sit in one small shared mapping, and the
    helper sends its divergences, or the exception its rows raised, over
    a pipe at the end.  A run of one block forks nothing, since forking
    would cost more than splitting its work saves, nor does one chain.
    Noise is drawn per chain in chunks into a staging array, scaled in
    place and copied into the step-major buffer as records of d doubles.
    Each row is computed apart from the others and each chain's draws are
    those of stepping it alone, so the output is a pure function of
    (config, target).  If the helper dies, the run raises RuntimeError; if
    this process raises or is interrupted, the helper is killed at once.

    Diverged chains are dropped from the sample matrix and reported in
    meta["diverged_chains"]; if every chain diverges a DivergenceError is
    raised.  Any lam > 0 runs: lambda_max is only the theorem's sufficient
    bound, and ``sample`` warns past it itself.
    """
    if config.d != target.d:
        raise ValueError(f"config.d={config.d} does not match target.d={target.d}")
    m, d, lam, theta0 = config.n_chains, config.d, config.lam, config.theta0
    n_steps = config.n_steps
    scale = math.sqrt(2.0 * lam / config.beta)
    # a chain's block is at most one call of _CALL_DRAWS draws, rounded up
    # to a step, and both halves' blocks fit the budget with the staging
    block = max(1, min(n_steps, (_NOISE_BUDGET - _STAGING) // (m * d), -(-_CALL_DRAWS // d)))
    shared = mmap.mmap(-1, m * d * 8 + m)  # each process writes only its own rows
    theta = np.frombuffer(shared, dtype=float, count=m * d).reshape(m, d)
    active = np.frombuffer(shared, dtype=bool, offset=m * d * 8)
    theta[...] = theta0
    active[...] = True
    row = np.dtype((np.void, 8 * d))  # one chain-step's d doubles, copied as one record
    tamed = config.algorithm != "ula"

    def run_rows(j0, j1):
        # fill and step chains [j0, j1) through every block; returns
        # their (chain, step) divergences
        n = j1 - j0
        streams = RngStream.family(config.master_seed, range(j0, j1))
        chunk = max(1, min(n, _STAGING // (block * d)))
        noise, staging = np.empty((block, n, d)), np.empty(chunk * block * d)
        rows, alive = theta[j0:j1], active[j0:j1]
        sq, f, work = np.empty(n), np.empty(n), np.empty((n, d))
        lost = []
        with np.errstate(over="ignore", invalid="ignore"):
            for k0 in range(0, n_steps, block):
                b = min(block, n_steps - k0)
                for c0 in range(0, n, chunk):
                    c1 = min(n, c0 + chunk)
                    draws = staging[:(c1 - c0) * b * d].reshape(c1 - c0, b, d)
                    for j in range(c0, c1):
                        streams[j].normal((b, d), out=draws[j - c0])
                    draws *= scale
                    noise[:b, c0:c1].view(row)[...] = draws.transpose(1, 0, 2).view(row)
                for t in range(b):
                    _advance(target.drift_parts, target.r, tamed, lam, rows, noise[t], sq, f, work)
                    if np.isfinite(rows.sum()):
                        continue
                    finite = np.isfinite(rows).all(axis=1)
                    lost += [(j0 + int(j), k0 + t + 1) for j in np.flatnonzero(alive & ~finite)]
                    alive[~finite] = False
                    if not alive.any():
                        return lost
                    # lost rows restart from theta0 and step on unread; rows
                    # are computed apart, so the survivors keep their bits
                    rows[~finite] = theta0
        return lost

    if n_steps <= block or m < 2:
        diverged = run_rows(0, m)
    else:
        half = _split(m)
        replies_r, replies_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(replies_r)
            os.close(replies_w)
            raise
        if pid == 0:  # the helper: never returns to the caller
            status = 1
            try:
                os.close(replies_r)
                try:
                    outcome = run_rows(half, m)
                except Exception as exc:
                    outcome = exc
                try:
                    message = pickle.dumps(outcome)
                    pickle.loads(message)
                except Exception:
                    message = pickle.dumps(RuntimeError(f"the helper process raised {outcome!r}"))
                with open(replies_w, "wb") as replies:
                    replies.write(message)
                status = 0
            finally:
                os._exit(status)

        os.close(replies_w)
        try:
            with open(replies_r, "rb") as replies:
                diverged = run_rows(0, half)
                try:
                    outcome = pickle.load(replies)
                except (EOFError, pickle.UnpicklingError):  # the helper is gone
                    outcome = None
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        _, status = os.waitpid(pid, 0)
        if outcome is None:
            raise RuntimeError(f"the helper process {pid} ended with exit status "
                               f"{os.waitstatus_to_exitcode(status)}")
        if isinstance(outcome, BaseException):
            raise outcome
        diverged += outcome

    diverged.sort()
    if not active.any():
        raise DivergenceError(f"all {m} chains diverged", diverged=diverged)
    meta = {
        "target": target.name,
        "algorithm": config.algorithm,
        "lambda": lam,
        "beta": config.beta,
        "d": d,
        "horizon": config.horizon,
        "seed": config.master_seed,
        "n_chains": m,
        "diverged_chains": [{"chain": int(c), "step": int(step)} for c, step in diverged],
    }
    return EmpiricalMeasure(samples=theta[active], meta=meta, chain_ids=np.flatnonzero(active))


def reference_measure(
    target: TargetSpec,
    beta: float,
    *,
    master_seed: int,
    n_draws: int,
    horizon: float | None = None,
    fine_step: float | None = None,
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
    return run_chains(config, target)


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

def estimate_v2_integral(target: TargetSpec, beta: float) -> float:
    """Integral of (1 + |theta|^2) under the target law at ``beta``: the
    target's closed-form second moment; a target without one raises."""
    if target.second_moment is None:
        raise ValueError(f"no closed-form second moment for target {target.name!r}")
    return 1.0 + float(target.second_moment(beta))


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
    """Read a samples CSV; returns (chain_ids, samples).  A row whose field
    count is not the header's, with a field that does not parse, or with a
    non-finite coordinate, raises ValueError naming its line."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("chain,"):
            raise ValueError(f"{path}: not a samples CSV (bad header {header!r})")
        rows = [(n, line.strip().split(",")) for n, line in enumerate(fh, start=2) if line.strip()]
    if not rows:
        raise ValueError(f"{path}: no sample rows")
    width = header.count(",") + 1
    chain_ids, samples = [], []
    for n, r in rows:
        if len(r) != width:
            raise ValueError(f"{path} line {n}: {len(r)} fields, the header has {width}")
        try:
            chain_ids.append(int(r[0]))
            samples.append([float(v) for v in r[1:]])
        except ValueError as exc:
            raise ValueError(f"{path} line {n}: {exc}") from None
    chain_ids, samples = np.array(chain_ids), np.array(samples)
    bad = np.flatnonzero(~np.isfinite(samples).all(axis=1))
    if bad.size:
        raise ValueError(f"{path} line {rows[bad[0]][0]}: non-finite coordinate")
    return chain_ids, samples
