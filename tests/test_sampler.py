import math
import os
import signal
import threading
import time
import tracemalloc
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from tamedlmc.potentials import (
    TARGET_NAMES,
    TargetSpec,
    make_double_well,
    make_gaussian,
    make_target,
    marginal_pdf,
    row_norm_sq,
)
from tamedlmc import sampler
from tamedlmc.numerics import RngStream
from tamedlmc.sampler import (
    DivergenceError,
    SamplerConfig,
    estimate_v2_integral,
    gaussian_chain_rho,
    gaussian_chain_std,
    load_measure_csv,
    reference_measure,
    run_chains,
    save_measure_csv,
    tamed_gradient,
)
from tamedlmc.constants import certified_moduli, derive_constants


def step_alone(target, lam, beta, theta, gen, tamed=True):
    # one update of a single chain, written out apart from the sampler:
    # with h = a theta + c and g = lam / (1 + lam |theta|^{2r})^{1/2}
    # (lam untamed), theta (1 - g a) - g c + sqrt(2 lam / beta) xi
    sq = row_norm_sq(theta)
    a, c = target.drift_parts(theta, sq)
    g = lam / math.sqrt(math.prod([lam] + [sq] * target.r) + 1.0) if tamed else lam  # ((lam sq) sq) ...
    theta = theta * (1.0 - a * g)
    if c is not None:
        theta = theta - c * g
    return theta + math.sqrt(2.0 * lam / beta) * gen.standard_normal(theta.size)


def chain_alone(target, cfg, i):
    # chain i of cfg stepped by itself from its own PCG64 stream
    seq = np.random.SeedSequence(entropy=cfg.master_seed, spawn_key=(i,))
    gen = np.random.Generator(np.random.PCG64(seq))
    theta = cfg.theta0.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.n_steps):
            theta = step_alone(target, cfg.lam, cfg.beta, theta, gen, cfg.algorithm != "ula")
    return theta


def drift_map(target, theta, lam, tamed=True):
    # deterministic part of one update (noise forced to zero)
    theta = np.asarray(theta, dtype=float)
    g = tamed_gradient(target, theta, lam) if tamed else target.h(theta)
    return theta - lam * g


class TestTamedGradient:
    def test_vanishes_on_unit_sphere(self):
        t = make_double_well(3)
        u = np.array([0.0, 1.0, 0.0])
        for lam in (1e-3, 0.1, 1.0):
            assert np.allclose(tamed_gradient(t, u, lam), 0.0)

    def test_gaussian_constant_divisor(self):
        t = make_gaussian(2)
        out = tamed_gradient(t, np.array([1.0, 0.0]), 0.1)
        assert np.allclose(out, [1.0 / math.sqrt(1.1), 0.0], rtol=1e-15)
        # 0^0 = 1 convention: same divisor at the origin
        assert np.allclose(tamed_gradient(t, np.zeros(2), 0.1), 0.0)

    def test_double_well_value(self):
        t = make_double_well(2)
        out = tamed_gradient(t, np.array([2.0, 0.0]), 0.01)
        assert np.allclose(out, np.array([6.0, 0.0]) / math.sqrt(1.16), rtol=1e-15)

    @pytest.mark.parametrize("name", ["gaussian", "mixture", "double-well"])
    def test_taming_bound(self, name):
        # lam |h_lam| <= lam K (1 + |theta|^{r+1}) / (1 + lam |theta|^{2r})^{1/2}
        t = make_target(name, 4)
        rng = np.random.default_rng(11)
        lam = 0.05
        for _ in range(10_000):
            theta = rng.standard_normal(4) * rng.uniform(0.0, 8.0)
            norm = np.linalg.norm(theta)
            lhs = lam * np.linalg.norm(tamed_gradient(t, theta, lam))
            mid = lam * t.K * (1.0 + norm ** (t.r + 1)) / math.sqrt(1.0 + lam * norm ** (2 * t.r))
            assert lhs <= mid * (1.0 + 1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        name=st.sampled_from(TARGET_NAMES),
        d=st.integers(1, 8),
        log_lam=st.floats(-4.0, 0.0),
        log_radii=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=16),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_taming_bound_property(self, name, d, log_lam, log_radii, seed):
        # taming never enlarges the drift, and it grows at most linearly:
        # |h_lam(theta)| <= 2K max(1, lam^{-1/2} |theta|)
        t = make_target(name, d)
        lam = 10.0**log_lam
        dirs = np.random.default_rng(seed).standard_normal((len(log_radii), d))
        radii = 10.0 ** np.array(log_radii)
        theta = dirs / np.linalg.norm(dirs, axis=1, keepdims=True) * radii[:, None]
        tamed = np.linalg.norm(tamed_gradient(t, theta, lam), axis=1)
        raw = np.linalg.norm(t.h(theta), axis=1)
        linear = 2.0 * t.K * np.maximum(1.0, np.linalg.norm(theta, axis=1) / math.sqrt(lam))
        slack = 1.0 + 1e-12
        assert np.all(tamed <= raw * slack)
        assert np.all(tamed <= linear * slack)

    @settings(max_examples=200, deadline=None)
    @given(
        name=st.sampled_from(TARGET_NAMES),
        d=st.integers(1, 8),
        log_lam=st.floats(-4.0, 0.0),
        log_radii=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=16),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_kernel_update_is_tamed_gradient_step(self, name, d, log_lam, log_radii, seed):
        # the update the kernel applies, with the noise at zero, is
        # theta' = theta - lam h_lam(theta), and it obeys the paper's bound
        # lam |h_lam| <= lam K (1 + |theta|^{r+1}) / (1 + lam |theta|^{2r})^{1/2}.
        # theta - theta' cancels: its rounding is a few ulps of |theta|
        t = make_target(name, d)
        lam = 10.0**log_lam
        dirs = np.random.default_rng(seed).standard_normal((len(log_radii), d))
        radii = 10.0 ** np.array(log_radii)
        theta = dirs / np.linalg.norm(dirs, axis=1, keepdims=True) * radii[:, None]
        m = theta.shape[0]
        stepped = theta.copy()
        sampler._advance(t.drift_parts, t.r, True, lam, stepped, np.zeros((m, d)),
                         np.empty(m), np.empty(m), np.empty((m, d)))
        update = np.linalg.norm(theta - stepped, axis=1)
        norm = np.linalg.norm(theta, axis=1)
        growth = lam * t.K * (1.0 + norm ** (t.r + 1))
        rounding = 1e-12 * (norm + growth)
        gap = np.linalg.norm(theta - stepped - lam * tamed_gradient(t, theta, lam), axis=1)
        assert np.all(gap <= rounding)
        bound = growth / np.sqrt(1.0 + lam * norm ** (2 * t.r))
        assert np.all(update <= bound * (1.0 + 1e-12) + rounding)

    def test_small_step_limit(self):
        t = make_double_well(2)
        theta = np.array([1.5, -0.5])
        assert np.linalg.norm(drift_map(t, theta, 1e-12) - theta) < 1e-11


class TestSteps:
    def test_deterministic_part(self):
        t = make_gaussian(2)
        out = drift_map(t, np.array([1.0, 0.0]), 0.1)
        assert np.allclose(out, [1.0 - 0.1 / math.sqrt(1.1), 0.0], rtol=1e-15)

    def test_two_steps_reproduce(self):
        t = make_gaussian(3)
        cfg = SamplerConfig(lam=0.05, beta=1.0, d=3, n_chains=1, horizon=0.1, master_seed=7)
        assert cfg.n_steps == 2
        runs = [run_chains(cfg, t).samples[0] for _ in range(2)]
        assert np.array_equal(runs[0], runs[1])
        assert np.array_equal(runs[0], chain_alone(t, cfg, 0))

    def test_ula_matches_mtula_up_to_taming_factor(self):
        # Gaussian target: drifts differ exactly by (1 + lam)^{-1/2}
        t = make_gaussian(2)
        theta = np.array([2.0, -1.0])
        lam = 0.2
        tamed = theta - drift_map(t, theta, lam, tamed=True)
        plain = theta - drift_map(t, theta, lam, tamed=False)
        assert np.allclose(plain, tamed * math.sqrt(1.0 + lam), rtol=1e-15)

    def test_ula_overshoot_grows_far_iterates(self):
        t = make_double_well(2)
        theta = np.array([100.0, 0.0])
        out = drift_map(t, theta, 0.1, tamed=False)
        # |1 - lam (|theta|^2 - 1)| |theta| = 998.9 |theta|
        assert np.linalg.norm(out) == pytest.approx(998.9 * 100.0, rel=1e-12)
        assert np.linalg.norm(out) > np.linalg.norm(theta)

    def test_ula_fixed_point_on_unit_sphere(self):
        t = make_double_well(3)
        u = np.array([1.0, 0.0, 0.0])
        assert np.array_equal(drift_map(t, u, 0.3, tamed=False), u)

    def test_divergence_signal(self):
        t = make_double_well(2)
        cfg = SamplerConfig(lam=0.5, beta=1.0, d=2, n_chains=1, horizon=10.0, master_seed=0,
                            theta0=np.array([1e200, 0.0]), algorithm="ula")
        with pytest.raises(DivergenceError) as exc:
            run_chains(cfg, t)
        assert exc.value.diverged == [(0, 1)]


class TestRunChains:
    def test_shapes_and_meta(self):
        t = make_gaussian(3)
        cfg = SamplerConfig(lam=0.1, beta=2.0, d=3, n_chains=5, horizon=1.0, master_seed=9)
        m = run_chains(cfg, t)
        assert m.samples.shape == (5, 3)
        assert list(m.chain_ids) == [0, 1, 2, 3, 4]
        assert m.meta["target"] == "gaussian"
        assert m.meta["n_chains"] == 5
        assert m.meta["diverged_chains"] == []

    def test_step_count_ceiling(self):
        cfg = SamplerConfig(lam=0.3, beta=1.0, d=1, n_chains=1, horizon=1.0, master_seed=0)
        assert cfg.n_steps == 4  # ceil(1 / 0.3)
        cfg = SamplerConfig(lam=2.0, beta=1.0, d=1, n_chains=1, horizon=1.0, master_seed=0)
        assert cfg.n_steps == 1  # horizon < lam -> exactly one step

    def test_rerun_identical(self):
        t = make_target("mixture", 4)
        cfg = SamplerConfig(lam=0.05, beta=1.0, d=4, n_chains=8, horizon=2.0, master_seed=3)
        # lam = 0.05 exceeds the mixture's lambda_max 1/512: the run is silent
        assert cfg.lam > certified_moduli(t).lambda_max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a = run_chains(cfg, t)
            b = run_chains(cfg, t)
        assert np.array_equal(a.samples, b.samples)

    def test_matches_single_chain_stepping(self):
        for name in ["gaussian", "mixture", "double-well"]:
            t = make_target(name, 6)
            cfg = SamplerConfig(lam=0.02, beta=1.5, d=6, n_chains=3, horizon=1.0, master_seed=21)
            m = run_chains(cfg, t)
            for i in range(3):
                assert np.array_equal(chain_alone(t, cfg, i), m.samples[i]), (name, i)

    @settings(max_examples=200, deadline=None)
    @given(
        name=st.sampled_from(["gaussian", "mixture", "double-well"]),
        d=st.integers(1, 8),
        lam=st.floats(1e-3, 0.3),
        beta=st.floats(0.25, 4.0),
        n_chains=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_single_chain_stepping_property(self, name, d, lam, beta, n_chains, seed):
        t = make_target(name, d)
        cfg = SamplerConfig(lam=lam, beta=beta, d=d, n_chains=n_chains,
                            horizon=10 * lam, master_seed=seed)
        m = run_chains(cfg, t)
        assert list(m.chain_ids) == list(range(n_chains))
        for i in range(n_chains):
            assert np.array_equal(chain_alone(t, cfg, i), m.samples[i]), i

    def test_divergence_reporting(self):
        t = make_double_well(2)
        cfg = SamplerConfig(
            lam=0.5, beta=1.0, d=2, n_chains=50, horizon=100.0, master_seed=3,
            algorithm="ula",
        )
        try:
            m = run_chains(cfg, t)
            diverged = m.meta["diverged_chains"]
            assert m.samples.shape[0] + len(diverged) == 50
        except DivergenceError as exc:
            diverged = [{"chain": c, "step": s} for c, s in exc.diverged]
            assert len(diverged) == 50
        assert len(diverged) >= 1
        assert all(d["step"] >= 1 for d in diverged)

    def test_divergence_raises_no_runtime_warning(self):
        # rows lost to +inf and -inf in one step sum to inf - inf; that sum
        # is taken under the kernel's errstate, so a run with lost chains
        # prints no "invalid value" warning
        t = make_double_well(3)
        cfg = SamplerConfig(lam=0.17, beta=1.0, d=3, n_chains=200, horizon=1500 * 0.17,
                            master_seed=7, algorithm="ula")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            m = run_chains(cfg, t)
        assert 0 < len(m.meta["diverged_chains"]) < 200

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(lam=0.0, beta=1.0, d=1, n_chains=1, horizon=1.0, master_seed=0)
        with pytest.raises(ValueError):
            SamplerConfig(lam=0.1, beta=-1.0, d=1, n_chains=1, horizon=1.0, master_seed=0)
        with pytest.raises(ValueError):
            SamplerConfig(lam=0.1, beta=1.0, d=1, n_chains=0, horizon=1.0, master_seed=0)
        with pytest.raises(ValueError):
            SamplerConfig(lam=0.1, beta=1.0, d=2, n_chains=1, horizon=1.0, master_seed=0,
                          algorithm="mala")

    def test_dimension_mismatch(self):
        cfg = SamplerConfig(lam=0.1, beta=1.0, d=2, n_chains=1, horizon=1.0, master_seed=0)
        with pytest.raises(ValueError):
            run_chains(cfg, make_gaussian(3))


@pytest.fixture
def small_blocks(monkeypatch):
    # 7 chains at d = 3 (or 9 at d = 2, 7 at d = 1) step in blocks of 5
    # (6, 15) steps drawn in chunks of 2 chains, so the last block is
    # short; forked processes inherit the cut.  Returns the block lengths
    # of 23 steps at d = 3 and d = 1.
    monkeypatch.setattr(sampler, "_NOISE_BUDGET", 140)
    monkeypatch.setattr(sampler, "_STAGING", 30)
    return {3: [5, 5, 5, 5, 3], 1: [15, 8]}


@pytest.fixture(params=["timed", "stepper-only", "helper-only"])
def split(request, monkeypatch):
    # a forked run's m chains split as the kernel splits them ("timed",
    # at m // 2), or held at m (this process steps every chain, the
    # helper none) or at 0 (the helper steps every chain); returns the
    # count of chains this process steps, as a function of m
    forced = {"stepper-only": lambda m: m, "helper-only": lambda m: 0}.get(request.param)
    if forced:
        monkeypatch.setattr(sampler, "_split", forced)
    return forced or sampler._split


@dataclass
class FailingDrift:
    """Drift parts that raise ``error`` at call ``at``: in every process,
    or with ``in_caller`` set only in (True) or out of (False) the
    process that made them."""

    parts: Callable
    at: int
    error: type = ArithmeticError
    in_caller: bool | None = None
    calls: int = 0
    caller: int = field(default_factory=os.getpid)

    def __call__(self, theta, sq):
        if self.in_caller in (None, os.getpid() == self.caller):
            self.calls += 1
            if self.calls == self.at:
                raise self.error(f"drift failed at call {self.at}")
        return self.parts(theta, sq)


class TestNoiseBlocks:
    """The kernel steps the first half of a run's chains and a forked
    helper process the second, each filling its own block of noise; with
    the noise budget cut, a short run spans many blocks."""

    @staticmethod
    def log_draws(monkeypatch, path):
        # every process appends (pid, chain, steps) of each draw to ``path``,
        # in the order the draws are made; returns a reader of the log
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        draw = RngStream.normal

        def spy(stream, shape, out=None):
            os.write(fd, f"{os.getpid()} {stream.stream_index} {shape[0]}\n".encode())
            return draw(stream, shape, out)

        monkeypatch.setattr(RngStream, "normal", spy)

        def read():
            os.close(fd)
            draws = {}
            for line in path.read_text().splitlines():
                pid, chain, steps = map(int, line.split())
                draws.setdefault(chain, []).append((pid, steps))
            return draws

        return read

    @pytest.mark.parametrize("algorithm", ["mtula", "ula"])
    @pytest.mark.parametrize("cut", ["budget", "call"])
    @pytest.mark.parametrize("name, d", [pytest.param(name, d, id=name + ("-d1" if d == 1 else ""))
                                         for d in (3, 1)
                                         for name in ("gaussian", "mixture", "double-well")])
    def test_many_blocks_match_single_chain_stepping(self, small_blocks, split, monkeypatch,
                                                     tmp_path, name, d, cut, algorithm):
        # blocks cut by the noise budget, or shorter still by one
        # generator call of 10 draws per chain: ceil(10 / d) steps; the
        # tamed and the untamed update both step through them
        if cut == "call":
            monkeypatch.setattr(sampler, "_CALL_DRAWS", 10)
            small_blocks = {3: [4, 4, 4, 4, 4, 3], 1: [10, 10, 3]}
        t = make_target(name, d)
        cfg = SamplerConfig(lam=0.05, beta=1.5, d=d, n_chains=7, horizon=23 * 0.05,
                            master_seed=8, theta0=np.array([1.5, -0.5, 0.25])[:d],
                            algorithm=algorithm)
        assert cfg.n_steps == 23
        read = self.log_draws(monkeypatch, tmp_path / "draws.log")
        m = run_chains(cfg, t)
        draws = read()
        blocks = {i: [steps for _, steps in chain] for i, chain in draws.items()}
        assert blocks == {i: small_blocks[d] for i in range(7)}
        # chains [0, s) draw only in this process, chains [s, 7) only in
        # one helper (s = 3 unless the split is held)
        s = split(7)
        helpers = {pid for i in range(s, 7) for pid, _ in draws[i]}
        assert all({pid for pid, _ in draws[i]} == {os.getpid()} for i in range(s)), draws
        assert len(helpers) == (s < 7) and os.getpid() not in helpers, draws
        for i in range(7):
            assert np.array_equal(chain_alone(t, cfg, i), m.samples[i]), i

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(["gaussian", "mixture", "double-well"]),
        d=st.integers(1, 4),
        n_chains=st.integers(1, 9),
        n_steps=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_split_runs_match_single_chain_stepping(self, name, d, n_chains, n_steps, seed):
        # over any count of chains and blocks, halved between two
        # processes or not, every chain is the chain stepped alone
        t = make_target(name, d)
        cfg = SamplerConfig(lam=0.05, beta=1.5, d=d, n_chains=n_chains,
                            horizon=n_steps * 0.05 * (1 - 1e-9), master_seed=seed,
                            theta0=np.linspace(-1.0, 1.0, d))
        assert cfg.n_steps == n_steps
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sampler, "_NOISE_BUDGET", 140)
            mp.setattr(sampler, "_STAGING", 30)
            mp.setattr(sampler, "_CALL_DRAWS", 30)
            m = run_chains(cfg, t)
        for i in range(n_chains):
            assert np.array_equal(chain_alone(t, cfg, i), m.samples[i]), i

    @pytest.mark.parametrize("d, n_chains, n_steps, block", [
        (2, 8000, 700, 233),  # short rows: the budget binds first
        (100, 250, 125, 41),  # ceil(4096 / d) steps a block
    ])
    def test_memory_is_one_block_of_own_half(self, monkeypatch, d, n_chains, n_steps, block):
        # this process allocates one block of noise for its own half of the
        # chains (14.9 MB at d=2 x 8,000, 4.1 MB at the protocol shape),
        # the staging array, a stream and ~1 KB of generator per own chain,
        # and a shared mapping of the iterates and active flags alone; a
        # mapping of two blocks for every chain was 59.6 MB and 16.4 MB
        assert n_steps >= 3 * block
        sizes = []
        mapping = sampler.mmap.mmap

        def spy(fileno, length, *args, **kwargs):
            sizes.append(length)
            return mapping(fileno, length, *args, **kwargs)

        monkeypatch.setattr(sampler.mmap, "mmap", spy)
        cfg = SamplerConfig(lam=0.01, beta=1.0, d=d, n_chains=n_chains,
                            horizon=n_steps * 0.01 * (1 - 1e-9), master_seed=3)
        assert cfg.n_steps == n_steps
        target = make_double_well(d)
        tracemalloc.start()
        try:
            run_chains(cfg, target)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        own = n_chains // 2
        assert sizes == [n_chains * d * 8 + n_chains]
        bound = block * own * d * 8 + sampler._STAGING * 8 + own * 1024 + 2**21
        assert peak + sum(sizes) <= bound, (peak, sizes)

    @pytest.mark.parametrize("cut", ["budget", "call"])
    def test_survivors_of_a_divergence_match(self, small_blocks, split, monkeypatch, cut):
        # untamed steps at lam = 0.4 lose 7 of 9 chains between steps 9 and
        # 20, in blocks of 6 steps, or of 5 when cut by a call of 10 draws
        if cut == "call":
            monkeypatch.setattr(sampler, "_CALL_DRAWS", 10)
        t = make_double_well(2)
        cfg = SamplerConfig(lam=0.4, beta=1.0, d=2, n_chains=9, horizon=23 * 0.4,
                            master_seed=1, algorithm="ula")
        m = run_chains(cfg, t)
        lost = {c["chain"] for c in m.meta["diverged_chains"]}
        assert len(lost) == 7 and 9 <= min(c["step"] for c in m.meta["diverged_chains"])
        assert list(m.chain_ids) == [i for i in range(9) if i not in lost]
        for row, i in enumerate(m.chain_ids):
            assert np.array_equal(chain_alone(t, cfg, i), m.samples[row]), i
        assert all(not np.all(np.isfinite(chain_alone(t, cfg, i))) for i in lost)


class TestHelperProcess:
    """The kernel's helper is a forked process, reaped on every way out of
    a run: an exception in its rows reaches the caller as itself, one in
    the caller's rows kills it at once, and a helper that dies fails the
    run instead of hanging it."""

    @pytest.fixture
    def forked(self, monkeypatch):
        # pids this process forks (the run's helper)
        pids = []
        fork = os.fork

        def spy():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", spy)
        return pids

    @pytest.fixture
    def deadline(self):
        # a run that hangs fails the test after 60 s
        def expire(signum, frame):
            raise TimeoutError("the run did not end")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    @staticmethod
    def assert_all_reaped(pids):
        for pid in pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_normal_return(self, small_blocks, split, forked, deadline):
        cfg = SamplerConfig(lam=0.05, beta=1.0, d=3, n_chains=7, horizon=1.0, master_seed=2)
        threads = threading.active_count()
        run_chains(cfg, make_gaussian(3))
        assert forked and threading.active_count() == threads
        self.assert_all_reaped(forked)

    def test_one_block_forks_no_helper(self, forked):
        # 20 steps of 7 chains fit one block: no stepping to overlap a fill with
        t = make_gaussian(3)
        cfg = SamplerConfig(lam=0.05, beta=1.0, d=3, n_chains=7, horizon=1.0, master_seed=2)
        m = run_chains(cfg, t)
        assert forked == []
        for i in range(7):
            assert np.array_equal(chain_alone(t, cfg, i), m.samples[i]), i

    def test_one_chain_forks_no_helper(self, small_blocks, forked):
        # one chain of 23 steps in 11 blocks of 2 steps and a last of 1:
        # there is no second half to give a helper
        t = make_double_well(3)
        cfg = SamplerConfig(lam=0.05, beta=1.0, d=3, n_chains=1, horizon=23 * 0.05,
                            master_seed=2, theta0=np.array([1.5, -0.5, 0.25]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sampler, "_CALL_DRAWS", 6)
            m = run_chains(cfg, t)
        assert forked == []
        assert np.array_equal(chain_alone(t, cfg, 0), m.samples[0])

    def test_all_chains_diverged(self, small_blocks, split, forked, deadline):
        cfg = SamplerConfig(lam=0.5, beta=1.0, d=2, n_chains=4, horizon=10.0, master_seed=0,
                            theta0=np.array([1e200, 0.0]), algorithm="ula")
        with pytest.raises(DivergenceError):
            run_chains(cfg, make_double_well(2))
        assert forked
        self.assert_all_reaped(forked)

    def test_drift_raising_mid_run(self, small_blocks, split, forked, deadline):
        t = make_double_well(3)
        t = replace(t, drift_parts=FailingDrift(t.drift_parts, at=12))
        cfg = SamplerConfig(lam=0.05, beta=1.0, d=3, n_chains=7, horizon=1.0, master_seed=2)
        with pytest.raises(ArithmeticError, match="call 12"):
            run_chains(cfg, t)
        assert forked
        self.assert_all_reaped(forked)

    def test_helper_exception_reaches_the_caller(self, small_blocks, forked, deadline):
        # the helper's rows raise at their 12th step and the caller's never:
        # the caller raises the helper's exception, type and message
        t = make_double_well(3)
        t = replace(t, drift_parts=FailingDrift(t.drift_parts, at=12, error=LookupError,
                                                in_caller=False))
        cfg = SamplerConfig(lam=0.05, beta=1.0, d=3, n_chains=7, horizon=1.0, master_seed=2)
        with pytest.raises(LookupError, match="^drift failed at call 12$"):
            run_chains(cfg, t)
        assert forked
        self.assert_all_reaped(forked)

    @pytest.mark.parametrize("error", [KeyboardInterrupt, ArithmeticError])
    def test_caller_exception_kills_the_helper(self, small_blocks, forked, deadline, error):
        # the caller's rows raise at their third step while the helper's
        # half would take 20 steps of 30 s each: the helper is killed and
        # reaped at once, well before the deadline
        t = make_double_well(3)
        failing = FailingDrift(t.drift_parts, at=3, error=error, in_caller=True)

        def slow_helper(theta, sq):
            if os.getpid() != failing.caller:
                time.sleep(30)
            return failing(theta, sq)

        t = replace(t, drift_parts=slow_helper)
        cfg = SamplerConfig(lam=0.05, beta=1.0, d=3, n_chains=7, horizon=1.0, master_seed=2)
        start = time.monotonic()
        with pytest.raises(error, match="call 3"):
            run_chains(cfg, t)
        assert time.monotonic() - start < 30
        assert forked
        self.assert_all_reaped(forked)

    def test_killed_helper_fails_the_run(self, small_blocks, split, forked, deadline, monkeypatch):
        # the helper kills itself at its third step, whether it steps some
        # chains or none; blocks of 5 steps are still to be filled
        steps = []
        advance = sampler._advance
        caller = os.getpid()

        def kill_helper_at_third_step(*args):
            if os.getpid() != caller:
                steps.append(1)
                if len(steps) == 3:
                    os.kill(os.getpid(), signal.SIGKILL)
            advance(*args)

        monkeypatch.setattr(sampler, "_advance", kill_helper_at_third_step)
        cfg = SamplerConfig(lam=0.05, beta=1.0, d=3, n_chains=7, horizon=1.0, master_seed=2)
        with pytest.raises(RuntimeError, match="exit status -9"):
            run_chains(cfg, make_gaussian(3))
        self.assert_all_reaped(forked)


class TestGaussianClosedForm:
    def test_rho(self):
        assert gaussian_chain_rho(0.1) == pytest.approx(1.0 - 0.1 / math.sqrt(1.1), rel=1e-15)

    def test_empirical_variance(self):
        lam, beta, n_chains = 0.1, 1.0, 10_000
        cfg = SamplerConfig(lam=lam, beta=beta, d=1, n_chains=n_chains, horizon=50.0,
                            master_seed=11)
        m = run_chains(cfg, make_gaussian(1))
        emp = float(np.std(m.samples[:, 0], ddof=1))
        sig = gaussian_chain_std(lam, beta, cfg.n_steps)
        se = sig / math.sqrt(2 * n_chains)
        assert abs(emp - sig) <= 4 * se

    def test_moment_bound(self):
        # second-moment stability at lam = lam_1_max / 2 with checkpoints
        for name in ["gaussian", "double-well"]:
            t = make_target(name, 3)
            dc = derive_constants(t, beta=1.0, d=3)
            lam = dc.lambda_1_max / 2.0
            a_bar, kappa, c0 = float(dc.a_bar), float(dc.kappa), float(dc.c0)
            theta0 = np.full(3, 3.0 / math.sqrt(3.0))
            norm0_sq = float(theta0 @ theta0)
            for n in range(10, 101, 10):
                # the n-step run passes through the n-th iterates of a longer one
                cfg = SamplerConfig(lam=lam, beta=1.0, d=3, n_chains=200,
                                    horizon=lam * n, master_seed=17, theta0=theta0)
                assert cfg.n_steps == n
                sq = np.sum(run_chains(cfg, t).samples ** 2, axis=1)
                se = float(np.std(sq, ddof=1) / math.sqrt(sq.size))
                bound = (1 - lam * a_bar * kappa) ** n * norm0_sq + c0 * (1 + 1 / (a_bar * kappa))
                assert float(np.mean(sq)) <= bound + 5 * se, (name, n)


class TestReference:
    def test_exact_gaussian_shortcut(self):
        t = make_gaussian(4)
        m = reference_measure(t, beta=4.0, master_seed=0, n_draws=20_000)
        assert m.meta["algorithm"] == "exact"
        assert m.samples.shape == (20_000, 4)
        assert np.std(m.samples) == pytest.approx(0.5, abs=0.01)

    def test_exact_requires_gaussian(self):
        with pytest.raises(ValueError):
            # no exact draw, and no fine-step chain parameters
            reference_measure(make_double_well(2), 1.0, master_seed=0, n_draws=1)

    def test_fine_step_variance(self):
        # AR(1) stationary std at fine step 1e-3 is 1.00025; the sample std
        # over 4e4 draws should sit within [0.99, 1.01].  Without its exact
        # draw the Gaussian's reference is the fine-step chain.
        t = replace(make_gaussian(1), exact_draw=None)
        m = reference_measure(t, beta=1.0, horizon=5.0, fine_step=1e-3,
                              master_seed=2, n_draws=40_000)
        assert 0.99 <= float(np.std(m.samples)) <= 1.01

    def test_single_draw_matches_chain(self):
        t = make_double_well(2)
        m = reference_measure(t, beta=1.0, horizon=0.5, fine_step=0.01,
                              master_seed=5, n_draws=1)
        assert m.meta["algorithm"] == "mtula" and m.meta["lambda"] == 0.01
        assert m.samples.shape == (1, 2)
        assert np.all(np.isfinite(m.samples))

    def test_mixture_reference_matches_marginal(self):
        # first-component KS of 1e4 fine-step draws against the analytic
        # marginal (CDF tabulated by quadrature)
        from tamedlmc.metrics import cdf_from_pdf, ks_statistic, marginal_support
        from tamedlmc.potentials import marginal_pdf

        t = make_target("mixture", 2)
        ref = reference_measure(t, beta=1.0, horizon=10.0,
                                fine_step=certified_moduli(t).lambda_max / 10.0, master_seed=31,
                                n_draws=10_000)
        md = marginal_pdf(t)
        cdf = cdf_from_pdf(md.pdf, *marginal_support(md.pdf))
        assert ks_statistic(ref.samples[:, 0], cdf) < 0.02


class TestStepSizeLimits:
    def test_examples(self):
        for t, lam in ((make_gaussian(2), 0.125), (make_double_well(2), 1 / 2048),
                       (make_target("mixture", 4), 1 / 512)):
            m = certified_moduli(t)
            assert (m.lambda_max, m.lambda_1_max) == (lam, lam), t.name

    def test_run_above_limit_is_silent(self):
        # lambda_max is a sufficient bound: the library runs past it without
        # a warning; `sample` prints its own (tests/test_cli.py)
        t = make_double_well(2)
        cfg = SamplerConfig(lam=0.1, beta=1.0, d=2, n_chains=2, horizon=0.5, master_seed=0)
        assert cfg.lam > certified_moduli(t).lambda_max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_chains(cfg, t).samples.shape == (2, 2)


class TestV2Integral:
    def test_gaussian_analytic(self):
        v2 = estimate_v2_integral(make_gaussian(5), beta=2.0)
        assert type(v2) is float
        assert v2 == pytest.approx(1.0 + 5 / 2.0)

    @pytest.mark.parametrize("name", ["double-well", "mixture"])
    def test_quadrature_vs_monte_carlo(self, name):
        # the closed form against the mean of 1 + |theta|^2 over fine-step
        # chain draws, which share none of its quadrature
        t = make_target(name, 3)
        v2q = 1.0 + t.second_moment(1.0)
        assert estimate_v2_integral(t, beta=1.0) == v2q
        ref = reference_measure(t, 1.0, master_seed=8, n_draws=2000, horizon=10.0,
                                fine_step=certified_moduli(t).lambda_max / 2.0)
        v2 = 1.0 + np.sum(ref.samples**2, axis=1)
        se = float(np.std(v2, ddof=1) / math.sqrt(v2.size))
        assert se > 0.0
        assert abs(v2q - float(np.mean(v2))) <= 4 * se


class TestHandBuiltTarget:
    # the double-well's potential with none of the facts about its law
    @staticmethod
    def target():
        dw = make_double_well(2)
        return TargetSpec(name="hand-built", d=2, U=dw.U, drift_parts=dw.drift_parts,
                          hess_parts=dw.hess_parts, r=2, nu=1, L=1.0, K=2.0, a=0.5, b=1.0,
                          r_bar=0.0, L_grad=3.0)

    def test_no_marginal(self):
        with pytest.raises(ValueError, match="no analytic marginal"):
            marginal_pdf(self.target())

    def test_no_closed_form_second_moment(self):
        # no silent fall back to a biased fine-step chain
        with pytest.raises(ValueError, match="no closed-form second moment"):
            estimate_v2_integral(self.target(), 1.0)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        t = make_gaussian(3)
        cfg = SamplerConfig(lam=0.1, beta=1.0, d=3, n_chains=6, horizon=1.0, master_seed=4)
        m = run_chains(cfg, t)
        path = tmp_path / "samples.csv"
        save_measure_csv(m, path)
        ids, samples = load_measure_csv(path)
        assert np.array_equal(ids, m.chain_ids)
        assert np.array_equal(samples, m.samples)

    def test_identical_bytes(self, tmp_path):
        t = make_gaussian(2)
        cfg = SamplerConfig(lam=0.1, beta=1.0, d=2, n_chains=4, horizon=1.0, master_seed=4)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_measure_csv(run_chains(cfg, t), p1)
        save_measure_csv(run_chains(cfg, t), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_rejects_garbage(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("not,a,samples\n1,2,3\n")
        with pytest.raises(ValueError):
            load_measure_csv(p)
        p2 = tmp_path / "empty.csv"
        p2.write_text("chain,x1\n")
        with pytest.raises(ValueError):
            load_measure_csv(p2)
