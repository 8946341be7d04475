"""Foundation layer: seedable Gaussian streams, special functions (from
``math``), and Gauss-Legendre quadrature on panels.

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


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _constants(h: int, mult: int, n: int) -> np.ndarray:
    """n successive hash constants from ``h``, as a uint32 column."""
    return (h * np.array([pow(mult, k, 2**32) for k in range(n)], dtype=np.uint32))[:, None]


def _hashmix(words: np.ndarray, hs: np.ndarray, mult: int) -> np.ndarray:
    """numpy's hashmix of uint32 ``words`` under hash constants ``hs``."""
    words = (words ^ hs) * (hs * mult)
    return words ^ words >> 16


def _spawned_states(master_seed: int, indices: list) -> np.ndarray:
    """The four uint64 words PCG64 takes from
    ``SeedSequence(master_seed, spawn_key=(i,))`` for each i of
    ``indices``, one row per index.

    The seed's words mix into the pool once, by numpy itself; each index
    then mixes in as one uint32 lane, and the output words are hashed
    lane-wise, so a family costs a few array passes however many streams
    it holds.
    """
    if master_seed < 0:
        raise ValueError(f"master_seed must be non-negative, got {master_seed}")
    if indices and not (0 <= min(indices) and max(indices) < 2**32):
        raise ValueError(f"stream indices must lie in [0, 2**32), got {min(indices)}..{max(indices)}")
    words = [master_seed % 2**32]
    while master_seed := master_seed >> 32:
        words.append(master_seed % 2**32)
    words += [0] * (4 - len(words))  # a spawn key pads the seed to the pool size
    # mixing in n words takes 4 n hashmixes, each stepping the constant
    pool = np.random.SeedSequence(words).pool[:, None]
    h = _INIT_A * pow(_MULT_A, 4 * len(words), 2**32) % 2**32
    # the spawn key, the last entropy word, mixes into the four pool words
    # under the next four constants: rows are pool words, columns streams
    v = _hashmix(np.array(indices, dtype=np.uint32), _constants(h, _MULT_A, 4), _MULT_A)
    pool = _MIX_L * pool - _MIX_R * v
    pool ^= pool >> 16
    # eight output words from the pool taken twice round; little-endian
    # pairs of them make PCG64's four uint64 words
    out = _hashmix(np.concatenate([pool, pool]), _constants(_INIT_B, _MULT_B, 8), _MULT_B)
    out = out.T.astype(np.uint64)
    return np.ascontiguousarray(out[:, 0::2] | out[:, 1::2] << 32)


@functools.cache
def _spawned_state_type() -> type:
    """A seed sequence that hands a bit generator the state words its
    SeedSequence would give.  Made on first use: importing numpy.random
    would cost every command, drawing or not, about 15 ms."""

    class SpawnedState(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != self.words.size or np.dtype(dtype) != self.words.dtype:
                raise ValueError(f"holds {self.words.size} {self.words.dtype} words")
            return self.words

    return SpawnedState


class RngStream:
    """One member of a splittable family of Gaussian random streams.

    Streams are addressed by ``(master_seed, stream_index)``.  Equal
    addresses yield identical sequences; distinct ``stream_index`` values
    under one master seed yield statistically independent sequences
    (PCG64 seeded as by numpy's ``SeedSequence(master_seed,
    spawn_key=(stream_index,))``).  The seed must be non-negative and the
    index in [0, 2**32).

    A stream is a stateful value: drawing advances it.  Each concurrent
    process must own its streams; nothing here is shared.
    """

    def __init__(self, master_seed: int, stream_index: int = 0):
        (one,) = self.family(master_seed, [stream_index])
        self.__dict__ = one.__dict__

    @classmethod
    def family(cls, master_seed: int, indices) -> list[RngStream]:
        """The streams ``(master_seed, i)`` for each i of ``indices``,
        seeded in one vectorized pass."""
        master_seed = int(master_seed)
        indices = [int(i) for i in indices]
        state = _spawned_state_type()
        streams = []
        for i, words in zip(indices, _spawned_states(master_seed, indices)):
            s = object.__new__(cls)
            s.master_seed, s.stream_index = master_seed, i
            s._gen = np.random.Generator(np.random.PCG64(state(words)))
            streams.append(s)
        return streams

    def normal(self, shape, out: np.ndarray | None = None) -> np.ndarray:
        """Draw standard normal variates with the given shape, into ``out``
        (C-contiguous, of that shape) when given."""
        return self._gen.standard_normal(shape, out=out)

    def __repr__(self):  # pragma: no cover
        return f"RngStream(master_seed={self.master_seed}, stream_index={self.stream_index})"


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


_erfc = np.frompyfunc(math.erfc, 1, 1)


def normal_cdf(x):
    """Standard normal CDF (elementwise), as erfc(-x / sqrt 2) / 2."""
    return 0.5 * np.asarray(_erfc(np.asarray(x, dtype=float) / -math.sqrt(2.0)), dtype=float)
