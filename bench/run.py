"""Benchmark for tamedlmc.

    python3 bench/run.py --workload protocol|sweep|certify --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.

--trace 0 runs each command of the workload as ``python -m tamedlmc``
in a child process, in whole rounds (at least two) that fit in S seconds, and
reports every end-to-end metric as the median over rounds.  --trace 1
calls ``tamedlmc.cli.main`` in this process with the same arguments,
alternating untraced and traced rounds, and reports per-layer self times
and counts with both rounds' wall times.  Every output of every round is
checked.  The last line printed is one JSON object: correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "sample_chain_steps_per_s": "chain-steps/s",
    "histogram_s": "s",
    "rate_s": "s",
    "constants_s": "s",
    "check_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_IMPORTS = 2  # timed fresh-interpreter imports before each round, after one warm-up
IMPORT_PROBE = ("import time; t = time.perf_counter(); import tamedlmc.cli; "
                "print(time.perf_counter() - t)")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list, directory: Path) -> tuple[int, float, int]:
    """Run ``python -m tamedlmc args`` in ``directory``; exit code, wall
    seconds and peak RSS in KiB of that one process."""
    with open(directory / "stdout.txt", "ab") as out, open(directory / "stderr.txt", "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "tamedlmc", *args], cwd=directory,
                                env=child_env(), stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: stop the child before leaving
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def run_in_process(cli, args: list, directory: Path) -> tuple[int, float, int]:
    """Call ``cli.main(args)`` with ``directory`` as working directory."""
    sink = io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                rc = cli.main(args)
            except SystemExit as exc:  # argparse rejects the arguments
                rc = exc.code if isinstance(exc.code, int) else 2
    finally:
        wall = time.perf_counter() - start
        os.chdir(cwd)
    return rc, wall, 0


def import_times(n: int, probe: bool = False) -> list:
    """Wall seconds of ``n`` fresh interpreters importing tamedlmc.cli
    (or, with ``probe``, the import alone as timed inside each), after
    one untimed warm-up that also leaves the bytecode cache written."""
    argv = [sys.executable, "-c", IMPORT_PROBE if probe else "import tamedlmc.cli"]
    times = []
    for i in range(n + 1):
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"cannot import tamedlmc.cli from {SRC}: {proc.stderr.strip()}")
        if i:
            times.append(float(proc.stdout) if probe else wall)
    return times


class Round:
    """One pass over a workload's operations: ``results`` maps each
    operation to its (exit code, wall seconds, peak RSS KiB), and the
    outputs are in ``directory``."""

    def __init__(self, workload, directory: Path, results: dict):
        self.results = results
        self.failed = {op.name for op in workload.ops if results[op.name][0] != op.expect_rc}
        self.checks = workloads.verify(workload, directory, self.failed)
        self.wall = sum(r[1] for r in results.values())

    @classmethod
    def run(cls, workload, directory: Path, execute):
        """Run every operation in order in the fresh ``directory``."""
        directory.mkdir(parents=True)
        return cls(workload, directory, {op.name: execute(op.args, directory) for op in workload.ops})

    def metrics(self, workload) -> dict:
        """This round's end-to-end metrics.  A failed operation's time is
        no measurement: the metric it feeds is left out, and so is its
        peak RSS."""
        m, rss, bad = {}, [], set()
        for op in workload.ops:
            rc, wall, peak = self.results[op.name]
            if op.name in self.failed:
                bad.add(op.metric)
                continue
            rss.append(peak)
            value = op.chain_steps / wall if op.metric == "sample_chain_steps_per_s" else wall
            m[op.metric] = m.get(op.metric, 0.0) + op.weight * value
        if rss:
            m["peak_rss_mb"] = max(rss) * 1024 / 1e6
        return {k: v for k, v in m.items() if k not in bad}


def repeat_rounds(seconds: float, make_round) -> list:
    """Whole rounds for ``seconds``: at least two, so that one slow round
    does not make a run's median, and a third or later only while one of
    average length still fits."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(make_round(len(rounds)))
        elapsed = time.perf_counter() - start
        if len(rounds) >= 2 and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def report_checks(rounds: list) -> bool:
    """Print the first round's checks and any later failure; true when
    every operation exited as expected and every check passed."""
    n = sum(len(r.checks) for r in rounds)
    n_bad = sum(not ok for r in rounds for _, ok, _ in r.checks)
    n_failed = sum(len(r.failed) for r in rounds)
    print(f"checks: {n - n_bad}/{n} passed; {n_failed} operations failed")
    for k, r in enumerate(rounds):
        for name in sorted(r.failed):
            print(f"  FAILED round {k} {name}: exit code {r.results[name][0]}")
        for name, ok, detail in r.checks:
            if k == 0 or not ok:
                print(f"  {'ok' if ok else 'FAILED'} round {k} {name}: {detail}")
    return n_bad == 0 and n_failed == 0


def run_untraced(workload, seconds: float, out: Path) -> dict:
    setup = []

    def make_round(k):
        # set-up is timed throughout the run, not at one moment of it:
        # the host's speed drifts over tens of seconds
        setup.extend(import_times(SETUP_IMPORTS))
        return Round.run(workload, out / f"round{k}", run_child)

    rounds = repeat_rounds(seconds, make_round)
    per_round = [r.metrics(workload) for r in rounds]
    metrics = {"setup_s": statistics.median(setup)}
    for name in END_TO_END:
        values = [m[name] for m in per_round if name in m]
        if name != "setup_s" and values:
            metrics[name] = statistics.median(values)
    print(f"workload {workload.name}: {len(rounds)} rounds of {len(workload.ops)} commands")
    print("  setup " + " ".join(f"{t:.4f}" for t in setup))
    for k, m in enumerate(per_round):
        print(f"  round {k} " + " ".join(f"{name}={value:.6g}" for name, value in m.items()))
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6g} {END_TO_END[name]}")
    return {
        "correct": report_checks(rounds),
        "attempted": sum(len(workload.ops) for _ in rounds),
        "failed": sum(len(r.failed) for r in rounds),
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
    }


def load_program() -> dict:
    sys.path.insert(0, str(SRC))
    import tamedlmc.cli as cli
    from tamedlmc import constants, metrics, numerics, potentials, sampler

    if Path(cli.__file__).resolve().parent != SRC / "tamedlmc":
        raise RuntimeError(f"tamedlmc imported from {cli.__file__}, not {SRC}")
    return dict(cli=cli, constants=constants, metrics=metrics, numerics=numerics,
                potentials=potentials, sampler=sampler)


def run_traced(workload, seconds: float, out: Path) -> dict:
    import_s = statistics.median(import_times(3, probe=True))
    modules = load_program()
    cli = modules["cli"]
    table = spans.layers(modules)
    plain, traced, tracers = [], [], []

    def execute(args, directory):
        return run_in_process(cli, args, directory)

    def pair(k):
        plain.append(Round.run(workload, out / f"plain{k}", execute))
        tracer = spans.Tracer(table)
        tracer.install()
        try:
            traced.append(Round.run(workload, out / f"traced{k}", execute))
        finally:
            tracer.uninstall()
        tracers.append(tracer)
        return traced[-1]

    # the first in-process round pays lazy imports inside the package;
    # it is checked but timed in neither set
    warmup = Round.run(workload, out / "warmup", execute)
    repeat_rounds(seconds, pair)
    summaries = [t.summary() for t in tracers]
    med = statistics.median
    metrics = {"cli.import_s": (import_s, "s")}
    for name, *_ in table:
        key = "cli.main_self_s" if name == "cli.main" else f"{name}_s"
        metrics[key] = (med(s[0][name]["self_s"] for s in summaries), "s")
    counts = summaries[0][1]
    for key in ("numerics.normals", "sampler.chain_steps"):
        metrics[key] = (counts.get(key, 0), "count")
    for layer in ("numerics.integrate_semi_infinite", "sampler.tamed_gradient"):
        metrics[f"{layer}_calls"] = (summaries[0][0][layer]["calls"], "count")
    steps = counts.get("sampler.steps", 0)
    run_total = med(s[0]["sampler.run_chains"]["total_s"] for s in summaries)
    fill = med(t.time_under("numerics.RngStream.normal", "sampler.run_chains") for t in tracers)
    metrics["sampler.step_us"] = (1e6 * run_total / steps if steps else 0.0, "us")
    metrics["sampler.step_over_fill"] = (run_total / fill if fill else 0.0, "ratio")
    wall_traced = med(r.wall for r in traced)
    wall_plain = med(r.wall for r in plain)
    metrics["trace.wall_s"] = (wall_traced, "s")
    metrics["trace.untraced_wall_s"] = (wall_plain, "s")
    metrics["trace.overhead_pct"] = (100.0 * (wall_traced / wall_plain - 1.0), "%")

    print(f"workload {workload.name}: {len(traced)} traced and {len(plain)} untraced "
          f"in-process rounds; wall {wall_traced:.4f} s traced, {wall_plain:.4f} s untraced")
    print(f"  {'layer':42s} {'self s':>10s} {'total s':>10s} {'calls':>8s}")
    for name, row in summaries[0][0].items():
        if row["calls"]:
            print(f"  {name:42s} {row['self_s']:10.4f} {row['total_s']:10.4f} {row['calls']:8d}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:42s} {value:14.6g} {unit}")
    rounds = [warmup] + plain + traced
    return {
        "correct": report_checks(rounds),
        "attempted": sum(len(workload.ops) for _ in rounds),
        "failed": sum(len(r.failed) for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # the program stamps manifests with `git rev-parse`; keep git from
    # searching above the checkout
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    # on termination, unwind so the running child is stopped and bench/out removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    missing = [p for p in (SRC / "tamedlmc" / "cli.py", ROOT / "tests" / "oracle_constants.py")
               if not p.is_file()]
    if missing:
        print(f"error: the checkout lacks {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    workload = workloads.build(args.workload, args.seed, reference.load_oracle(ROOT))
    out = BENCH / "out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            result = run_traced(workload, args.seconds, out)
        else:
            result = run_untraced(workload, args.seconds, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.suppress(OSError):
            out.parent.rmdir()  # only when no other run is using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
