"""The Langevin chain: one vectorized kernel, tamed or untamed; reference
draws of the target law, exact or by a fine-step chain built on it.

The update rule is

    theta_{n+1} = theta_n - lam * h_lam(theta_n) + sqrt(2 lam / beta) * xi_{n+1}

where the tamed drift divides the gradient by (1 + lam |theta|^{2r})^{1/2}
(mtula); the plain Euler scheme (ula) uses the raw gradient and is expected
to blow up on super-linear gradients at practical step sizes.

Chain i always consumes RngStream(master_seed, i), so multi-chain results
are bitwise independent of execution order, blocking, or how the noise
fill is split between the stepping process and its helper; a single chain
is a one-row block of the same kernel.
"""

from __future__ import annotations

import math
import mmap
import os
import pickle
import time
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
# start-up is then under 2%), within _NOISE_BUDGET doubles for both blocks
# and the staging array, which binds at short rows (d=2 x 8,000 chains).
# Tests lower them so that a run spans many blocks.
_NOISE_BUDGET = 8_000_000
_STAGING = 2**18  # 2 MB
_CALL_DRAWS = 4096


def _send(pipe, message) -> None:
    pickle.dump(message, pipe)
    pipe.flush()


def _balance(s: int, m: int, t_step: float, t_own: float, t_help: float, cost: list) -> int:
    """The split of the next block's chains: [0, s') filled by the stepping
    process, [s', m) by the helper, so that stepping plus the stepping
    process's fill takes as long as the helper's fill.  ``t_own`` and
    ``t_help`` are the two fills' seconds at split ``s``; ``cost`` holds
    each side's last measured seconds per chain, and is updated."""
    if s > 0:
        cost[0] = t_own / s
    if s < m:
        cost[1] = t_help / (m - s)
    own, helper = cost[0] or cost[1], cost[1] or cost[0]
    if own + helper <= 0.0:
        return s
    return min(m, max(0, round((helper * m - t_step) / (own + helper))))


def _serve(fill, streams, s: int, m: int, requests, replies) -> None:
    """The helper's loop.  A request (k, s', states) moves the split to
    s': the chains [s', s) come over with ``states``, and the states of
    the chains [s, s') go back at once.  The helper then fills chains
    [s', m) of block k and replies with the seconds that took."""
    while True:
        k, new, states = pickle.load(requests)
        if new > s:
            _send(replies, [streams[j].state for j in range(s, new)])
        for j, state in zip(range(new, s), states):
            streams[j].state = state
        s = new
        start = time.perf_counter()
        fill(k, s, m)
        _send(replies, time.perf_counter() - start)


def run_chains(config: SamplerConfig, target: TargetSpec) -> EmpiricalMeasure:
    """Run ``n_chains`` independent chains in vectorized lockstep and
    collect their final iterates.

    Chain i uses RngStream(master_seed, i); the streams are seeded as one
    ``RngStream.family``.  Noise is drawn per chain in blocks of steps,
    into two buffers in one shared mapping.  A forked helper process fills
    chains [s, m) of the next block while this process steps through the
    current one, then fills chains [0, s) itself.  After each block the
    split s moves so that the two processes finish together, and each
    chain that changes owner moves with its generator's exact state, sent
    over a pipe.  A run of one block has no stepping to overlap a fill
    with, and forking would cost more than splitting its fill saves, so it
    forks no helper.  Chains are drawn in chunks into a staging array,
    scaled in place and copied into the step-major buffer as records of d
    doubles.  Chain i's draws land at fixed positions whichever process
    makes them, and its value sequence is that of stepping it alone, so
    the split cannot change any output: the output is a pure function of
    (config, target).  If the helper dies, the run raises RuntimeError.

    Diverged chains are dropped from the sample matrix and reported in
    meta["diverged_chains"]; if every chain diverges a DivergenceError is
    raised.  Any lam > 0 runs: lambda_max is only the theorem's sufficient
    bound, and ``sample`` warns past it itself.
    """
    if config.d != target.d:
        raise ValueError(f"config.d={config.d} does not match target.d={target.d}")
    m, d, lam, theta0 = config.n_chains, config.d, config.lam, config.theta0
    n_steps = config.n_steps
    streams = RngStream.family(config.master_seed, range(m))
    scale = math.sqrt(2.0 * lam / config.beta)
    # two buffers of half the budget, with a staging array; a chain's
    # block is at most one call of _CALL_DRAWS draws, rounded up to a step
    block = max(1, min(n_steps, (_NOISE_BUDGET // 2 - _STAGING) // (m * d), -(-_CALL_DRAWS // d)))
    chunk = max(1, min(m, _STAGING // (block * d)))
    n_blocks = -(-n_steps // block)
    n_buffers = min(2, n_blocks)
    noise = np.frombuffer(mmap.mmap(-1, n_buffers * block * m * d * 8), dtype=float)
    noise = noise.reshape(n_buffers, block, m, d)
    staging = np.empty(chunk * block * d)  # each process writes its own copy
    row = np.dtype((np.void, 8 * d))  # one chain-step's d doubles, copied as one record
    theta = np.tile(theta0, (m, 1))
    active = np.ones(m, dtype=bool)
    diverged = []
    tamed = config.algorithm != "ula"
    sq, f, work = np.empty(m), np.empty(m), np.empty((m, d))

    def fill(k, j0, j1):
        # draw chains [j0, j1) of block k's noise, scaled, chunk by chunk
        b = min(block, n_steps - k * block)
        out = noise[k % n_buffers]
        for c0 in range(j0, j1, chunk):
            c1 = min(j1, c0 + chunk)
            draws = staging[:(c1 - c0) * b * d].reshape(c1 - c0, b, d)
            for j in range(c0, c1):
                streams[j].normal((b, d), out=draws[j - c0])
            draws *= scale
            out[:b, c0:c1].view(row)[...] = draws.transpose(1, 0, 2).view(row)

    def advance_block(k):
        # step through block k; false once every chain has diverged
        xi = noise[k % n_buffers]
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(min(block, n_steps - k * block)):
                _advance(target.drift_parts, target.r, tamed, lam, theta, xi[t], sq, f, work)
                if np.isfinite(theta.sum()):
                    continue
                finite = np.isfinite(theta).all(axis=1)
                for j in np.nonzero(active & ~finite)[0]:
                    diverged.append((j, k * block + t + 1))
                active[~finite] = False
                if not active.any():
                    return False
                # lost rows restart from theta0 and step on unread; rows
                # are computed apart, so the survivors keep their bits
                theta[~finite] = theta0
        return True

    if n_blocks == 1:  # no next block to fill while this one steps: no helper
        fill(0, 0, m)
        advance_block(0)
    else:
        s = m // 2
        requests_r, requests_w = os.pipe()
        replies_r, replies_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (requests_r, requests_w, replies_r, replies_w):
                os.close(fd)
            raise
        if pid == 0:  # the helper: never returns to the caller
            status = 1
            try:
                os.close(requests_w)
                os.close(replies_r)
                with open(requests_r, "rb") as requests, open(replies_w, "wb") as replies:
                    _serve(fill, streams, s, m, requests, replies)
            except (EOFError, BrokenPipeError):  # the stepping process is done
                status = 0
            except Exception:
                import traceback

                traceback.print_exc()
            finally:
                os._exit(status)

        os.close(requests_r)
        os.close(replies_w)

        def request(k, new):
            # hand the helper chains [new, m) of block k, moving the split
            nonlocal s
            _send(requests, (k, new, [streams[j].state for j in range(new, s)]))
            if new > s:
                for j, state in zip(range(s, new), pickle.load(replies)):
                    streams[j].state = state
            s = new

        def own_fill(k):
            # this process's share of block k, then the helper's time for its own
            start = time.perf_counter()
            fill(k, 0, s)
            return time.perf_counter() - start, pickle.load(replies)

        helper_gone = False
        try:
            with open(requests_w, "wb") as requests, open(replies_r, "rb") as replies:
                cost = [0.0, 0.0]
                request(0, s)
                t_step, (t_own, t_help) = 0.0, own_fill(0)
                for k in range(n_blocks - 1):
                    request(k + 1, _balance(s, m, t_step, t_own, t_help, cost))
                    start = time.perf_counter()
                    if not advance_block(k):
                        break
                    t_step = time.perf_counter() - start
                    t_own, t_help = own_fill(k + 1)
                else:
                    requests.close()  # the helper exits while the last block steps
                    advance_block(n_blocks - 1)
        except (EOFError, BrokenPipeError):  # the helper is gone
            helper_gone = True
        finally:
            _, status = os.waitpid(pid, 0)
        if helper_gone:
            raise RuntimeError(f"the noise-filling helper process {pid} ended with exit status "
                               f"{os.waitstatus_to_exitcode(status)}")

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
