"""The benchmark's workloads: the tamedlmc commands each one runs, and the
checks of every output against the references in ``reference.py``.

A workload is a fixed list of operations (one ``python -m tamedlmc``
invocation each) that run in order in a fresh directory; a round is one
pass over that list.  Every end-to-end metric is measured on every
workload, so a workload whose own commands leave a metric out runs a
companion command for it on the Gaussian target: small, closed-form
references and no marginal quadrature.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterable

import numpy as np
from mpmath import mp, mpf

import reference as ref

CHECK_NAMES = {
    "assumption-2", "assumption-3", "assumption-4", "dissipativity-r+2",
    "dissipativity-quadratic", "one-sided-lipschitz", "hessian-growth",
    "taylor-remainder",
}
RESTEPPED_CHAINS = 3


@dataclass
class Op:
    name: str
    metric: str  # the end-to-end metric this operation's wall time feeds
    args: list
    expect_rc: int = 0
    chain_steps: int = 0  # chains x steps, for sample operations
    weight: float = 1.0  # 1/k for each of k repeats of one command in a round


@dataclass
class Check:
    needs: tuple  # operations whose outputs the check reads
    run: Callable  # run(directory) -> iterable of (name, ok, detail)


@dataclass
class Workload:
    name: str
    ops: list = field(default_factory=list)
    checks: list = field(default_factory=list)


def n_steps(horizon: float, lam: float) -> int:
    return int(round(horizon / lam))


# --- checks ---

def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _read_samples(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def check_sample(target: str, d: int, lam: float, chains: int, horizon: float,
                 seed: int, csv: str, directory: Path) -> Iterable:
    rows = _read_samples(directory / csv)
    ids, samples = rows[:, 0], rows[:, 1:]
    complete = (samples.shape == (chains, d) and np.array_equal(ids, np.arange(chains))
                and bool(np.all(np.isfinite(samples))))
    yield "complete", complete, f"shape {samples.shape}, expected ({chains}, {d}), all finite"
    meta = _read_json(directory / Path(csv).with_suffix(".meta.json"))
    yield "no_divergence", meta.get("diverged_chains") == [], \
        f"diverged {meta.get('diverged_chains')}"
    if not complete:
        return
    worst = 0.0
    picks = np.random.default_rng(seed).choice(chains, RESTEPPED_CHAINS, replace=False)
    for chain in picks:
        mine = ref.restep(ref.TARGETS[target], lam, n_steps(horizon, lam), d, seed, int(chain))
        worst = max(worst, float(np.max(np.abs(samples[chain] - mine)) / (1.0 + np.max(np.abs(mine)))))
    yield "restep", worst <= 1e-9, f"chains {picks.tolist()} re-stepped, max rel diff {worst:.2e}"


def check_histogram(target: str, d: int, lam: float, csv: str, hist: str,
                    directory: Path) -> Iterable:
    law = ref.marginal(target, d)
    table = np.loadtxt(directory / hist, delimiter=",", skiprows=1, ndmin=2)
    expected = law.pdf(table[:, 0])
    err = float(np.max(np.abs(table[:, 2] - expected)) / np.max(expected))
    yield "density", err <= 1e-8, f"analytic_density vs reference, max diff/peak {err:.2e}"

    samples = _read_samples(directory / csv)[:, 1:]
    first = samples[:, 0]
    summary = _read_json(directory / Path(hist).with_suffix(".summary.json"))
    ks = ref.ks_statistic(first, law.cdf)
    reported = summary.get("ks_statistic")
    ok = reported is not None and summary.get("n_samples") == first.size and abs(reported - ks) <= 2e-4
    yield "ks_match", ok, f"reported KS {reported} vs reference KS {ks:.6f}"

    # the step size widens the law by at most `widest`, fixed by the
    # method; the sample's scale, over all its coordinates, must be no
    # wider, up to five standard errors of that estimate
    widest = ref.widening(target, d, lam)
    per_chain = np.sum(samples * samples, axis=1) / law.second_moment
    scale = math.sqrt(float(np.mean(per_chain)))
    slack = 1.0 + 2.5 * float(np.std(per_chain)) / (float(np.mean(per_chain)) * math.sqrt(per_chain.size))
    yield "widening", scale <= widest * slack, \
        f"sample widened by {scale:.4f} <= {widest:.4f} x {slack:.4f}"

    # sampling error at this n, plus what that widening accounts for
    x_max = 8.0 * math.sqrt(law.second_moment / d) * widest
    bound = ref.dkw_epsilon(first.size) + ref.scale_bias(law.cdf, widest, x_max)
    yield "ks_bound", ks <= bound, f"KS {ks:.4f} <= {bound:.4f} (n={first.size}, widening {widest:.4f})"


def check_rate(grid: list, out: str, directory: Path, analytic: bool = False) -> Iterable:
    table = np.loadtxt(directory / out, delimiter=",", skiprows=1, usecols=(0, 1), ndmin=2)
    lams, dists = table[:, 0], table[:, 1]
    ok = (np.array_equal(lams, grid) and bool(np.all(np.isfinite(dists)))
          and bool(np.all(dists > 0)) and bool(np.all(np.diff(dists) < 0)))
    if analytic:
        exact = np.array([ref.gaussian_chain_distance(lam) for lam in grid])
        ok = ok and bool(np.allclose(dists, exact, rtol=1e-10, atol=0))
    yield "distances", ok, f"distances {dists.tolist()} at lambda {lams.tolist()}"
    fit = _read_json(directory / Path(out).with_suffix(".fit.json"))
    yield "slope_positive", fit.get("slope", 0.0) > 0.0, f"slope {fit.get('slope')}"
    if ok:
        slope, r2 = ref.loglog_fit(lams, dists)
        match = (abs(fit.get("slope", math.nan) - slope) <= 1e-9
                 and abs(fit.get("r_squared", math.nan) - r2) <= 1e-9)
        yield "fit", match, \
            f"reported slope {fit.get('slope')}, r^2 {fit.get('r_squared')}; reference {slope}, {r2}"


def _oracle_by_report_key(oracle: dict) -> dict:
    renamed = {
        "c0": "c_0", "R1_bar": "R_bar_1", "R2_bar": "R_bar_2",
        "C_bar_11": "C_bar_1_1", "C_bar_21": "C_bar_2_1",
        "C_bar_12": "C_bar_1_2", "C_bar_22": "C_bar_2_2",
        "kappa_tilde_2": "kappa_tilde(2)", "M_V_2": "M_V(2)",
        "c_V1_2": "c_V1(2)", "c_V2_2": "c_V2(2)",
    }
    tables = {"M1": "M_1", "kappa_tilde": "kappa_tilde", "c1": "c_1", "M2": "M_2",
              "c2": "c_2", "c3": "c_3", "M_V": "M_V"}
    out = {renamed.get(k, k): v for k, v in oracle.items() if k not in ("c_star", "tables")}
    for p, v in oracle["c_star"].items():
        out[f"c_star({p})"] = v
    for table, prefix in tables.items():
        for p, v in oracle["tables"][table].items():
            out[f"{prefix}({p})"] = v
    return out


def _agrees(entry: dict | None, expected) -> bool:
    """1e-12 relative inside double range, 1e-9 in log10 outside it."""
    if entry is None:
        return False
    if expected == 0:
        return entry.get("value") == 0.0
    log10 = mp.log10(abs(expected))
    if abs(log10) <= 300:
        value = entry.get("value")
        return value is not None and abs(mpf(value) - expected) <= mpf("1e-12") * abs(expected)
    got = entry.get("log10_value")
    return got is not None and abs(mpf(got) - log10) <= mpf("1e-9")


def check_constants(target: str, d: int, out: str, second_path: Callable,
                    directory: Path) -> Iterable:
    report = _read_json(directory / out)
    entries = report.get("constants", {})
    tgt = ref.TARGETS[target]
    v2 = 1.0 + ref.marginal(target, d).second_moment
    reported_v2 = (entries.get("v2_integral") or {}).get("value")
    ok = reported_v2 is not None and abs(reported_v2 - v2) <= 1e-9 * v2
    yield "v2", ok, f"v2_integral {reported_v2} vs 1 + E|theta|^2 = {v2}"

    with mp.workdps(60):
        oracle = second_path(SimpleNamespace(**tgt.constants), 1.0, d, tgt.grad_h0_norm, v2_integral=v2)
        expected = _oracle_by_report_key(oracle)
        bad = [k for k, v in expected.items() if not _agrees(entries.get(k), v)]
    ok = report.get("d") == d and not bad
    yield "second_path", ok, \
        f"{len(expected) - len(bad)}/{len(expected)} constants agree" + (f"; differ: {bad[:5]}" if bad else "")


def check_check(points: int, out: str, directory: Path) -> Iterable:
    payload = _read_json(directory / out)
    checks = payload.get("checks", [])
    ok = (payload.get("all_ok") is True
          and {c["assumption"] for c in checks} == CHECK_NAMES and len(checks) == len(CHECK_NAMES)
          and all(c["points"] == points and not c["violations"] for c in checks))
    yield "all_ok", ok, f"{sum(not c['violations'] for c in checks)}/{len(checks)} reports ok at {points} points"


def check_override(points: int, out: str, directory: Path) -> Iterable:
    payload = _read_json(directory / out)
    by_name = {c["assumption"]: c for c in payload.get("checks", [])}
    a2 = by_name.get("assumption-2", {})
    ok = (payload.get("all_ok") is False and a2.get("points") == points
          and len(a2.get("violations", [])) > 0)
    yield "violations", ok, \
        f"assumption-2 violations: {len(a2.get('violations', []))} at {a2.get('points')} points"


# --- workloads ---

def _sample_op(name, target, d, lam, chains, horizon, seed, csv):
    args = ["sample", "--target", target, "--dim", str(d), "--lambda", repr(lam),
            "--beta", "1", "--chains", str(chains), "--horizon", repr(horizon),
            "--seed", str(seed), "--workers", "1", "--out", csv]
    op = Op(name, "sample_chain_steps_per_s", args, chain_steps=chains * n_steps(horizon, lam))
    check = Check((name,), partial(check_sample, target, d, lam, chains, horizon, seed, csv))
    return op, check


def _histogram_op(name, sample_name, target, d, lam, csv, hist):
    op = Op(name, "histogram_s", ["histogram", "--in", csv, "--out", hist])
    return op, Check((sample_name, name), partial(check_histogram, target, d, lam, csv, hist))


def _constants_op(name, target, d, out, second_path):
    op = Op(name, "constants_s", ["constants", "--target", target, "--dim", str(d),
                                  "--beta", "1", "--out", out])
    return op, Check((name,), partial(check_constants, target, d, out, second_path))


def _check_op(name, target, d, points, seed, out, override=None):
    args = ["check", "--target", target, "--dim", str(d), "--points", str(points),
            "--seed", str(seed), "--out", out]
    if override:
        args += ["--override", override]
        return (Op(name, "check_s", args, expect_rc=1),
                Check((name,), partial(check_override, points, out)))
    return Op(name, "check_s", args), Check((name,), partial(check_check, points, out))


COMPANION_GRID = [0.2, 0.1, 0.05, 0.025]
GAUSS_LAMBDA = 0.05  # step size of the companion sample


def _companions(metrics_covered: set, seed: int, second_path, tag: str) -> list:
    """Gaussian-target commands for the metrics a workload's own commands
    do not produce; ``tag`` tells apart the names and outputs of the
    round's two sets."""
    pairs = []
    if "sample_chain_steps_per_s" not in metrics_covered:
        pairs.append(_sample_op(f"gauss-sample{tag}", "gaussian", 2, GAUSS_LAMBDA, 1000, 10.0, seed,
                                f"gauss{tag}.csv"))
    if "histogram_s" not in metrics_covered:
        pairs.append(_histogram_op(f"gauss-histogram{tag}", f"gauss-sample{tag}", "gaussian", 2,
                                   GAUSS_LAMBDA, f"gauss{tag}.csv", f"gauss_hist{tag}.csv"))
    if "rate_s" not in metrics_covered:
        grid = ",".join(repr(g) for g in COMPANION_GRID)
        out = f"gauss_rate{tag}.csv"
        op = Op(f"gauss-rate{tag}", "rate_s", ["rate", "--target", "gaussian", "--dim", "1",
                                               "--metric", "gaussian-exact", "--analytic",
                                               "--grid", grid, "--seed", str(seed), "--out", out])
        pairs.append((op, Check((op.name,), partial(check_rate, COMPANION_GRID, out, analytic=True))))
    if "constants_s" not in metrics_covered:
        pairs.append(_constants_op(f"gauss-constants{tag}", "gaussian", 2,
                                   f"gauss_constants{tag}.json", second_path))
    if "check_s" not in metrics_covered:
        pairs.append(_check_op(f"gauss-check{tag}", "gaussian", 2, 1000, seed, f"gauss_check{tag}.json"))
    return pairs


def _halves(pairs: list) -> list:
    """Each of a command's two runs in a round feeds half its metric."""
    for op, _ in pairs:
        op.weight = 0.5
    return pairs


SWEEP_GRID = [0.8, 0.4, 0.2, 0.1]


def build(name: str, seed: int, second_path: Callable, small: bool = False) -> Workload:
    """The operations and checks of workload ``name`` for ``seed``;
    ``small`` shrinks every size for the self-test.

    The host's speed drifts by 10-20% over tens of seconds, and a
    metric's median over a run is steadier the more of the run its
    commands are spread over.  So the companions (about 1 s each) run
    twice a round, between the workload's own commands, and so does
    the `protocol` histogram."""
    if name == "protocol":
        horizon = 2.0 if small else 30.0
        sample = _sample_op("sample", "double-well", 100, 0.01, 250, horizon, seed, "dw.csv")
        hists = _halves([_histogram_op(op_name, "sample", "double-well", 100, 0.01, "dw.csv", hist)
                         for op_name, hist in (("histogram", "dw_hist.csv"),
                                               ("histogram-again", "dw_hist_again.csv"))])
        own = [sample, *hists]
    elif name == "sweep":
        chains, fine, ref_horizon = (4000, 0.001, 2.5) if small else (8000, 0.001, 5.0)
        grid = ",".join(repr(g) for g in SWEEP_GRID)
        op = Op("rate", "rate_s", ["rate", "--target", "double-well", "--dim", "2", "--beta", "1",
                                   "--metric", "w1", "--chains", str(chains), "--horizon", "10",
                                   "--grid", grid, "--ref-fine-step", repr(fine),
                                   "--ref-horizon", repr(ref_horizon), "--seed", str(seed),
                                   "--workers", "1", "--out", "dw_rate.csv"])
        own = [(op, Check((op.name,), partial(check_rate, SWEEP_GRID, "dw_rate.csv")))]
    elif name == "certify":
        points = 1000 if small else 10_000
        own = [_constants_op("constants", "double-well", 100, "dw_constants.json", second_path),
               _check_op("check", "double-well", 10, points, seed, "dw_check.json"),
               _check_op("check-override", "double-well", 10, points, seed,
                         "dw_check_override.json", override="L=0.01")]
    else:
        raise ValueError(f"unknown workload {name!r}")
    covered = {op.metric for op, _ in own}
    first, again = (_halves(_companions(covered, seed, second_path, tag)) for tag in ("", "-again"))
    if name == "protocol":
        pairs = [own[0], own[1], *first, own[2], *again]
    elif name == "sweep":
        pairs = [*first, *own, *again]
    else:
        pairs = [own[0], *first, *own[1:], *again]
    return Workload(name, [op for op, _ in pairs], [check for _, check in pairs])


WORKLOADS = ("protocol", "sweep", "certify")


def verify(workload: Workload, directory: Path, failed_ops: set) -> list:
    """Run every check whose operations did not fail; returns
    (name, ok, detail) triples.  An output that cannot be read as
    expected fails a ``readable`` check."""
    results = []
    for check in workload.checks:
        if failed_ops.intersection(check.needs):
            continue
        op = check.needs[-1]
        try:
            results.extend((f"{op}.{name}", ok, detail) for name, ok, detail in check.run(directory))
        except Exception as exc:  # noqa: BLE001 - any malformed output
            results.append((f"{op}.readable", False, f"{type(exc).__name__}: {exc}"))
    return results
