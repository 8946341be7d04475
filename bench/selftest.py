"""Self-test of the benchmark's checks.

    python3 bench/selftest.py

Runs one round of each workload at reduced size, requires every check to
pass on the program's own outputs, then corrupts one output at a time
and requires the check meant for it to fail: a shifted sample column, a
chain listed as diverged, a perturbed constant, a flipped exit code
(which the runner must count as a failed operation that makes the run
incorrect and feeds no metric), and so on.  Every check of every
workload must be shown failing at least once.  Exits 0 when all of that
holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import numpy as np

import reference
import run
import workloads

SEED = 7


def _edit_csv(path: Path, edit):
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines[1:]]
    edit(rows)
    path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n", encoding="utf-8")


def _edit_json(path: Path, edit):
    payload = json.loads(path.read_text(encoding="utf-8"))
    edit(payload)
    path.write_text(json.dumps(payload), encoding="utf-8")


def _arg(op, flag):
    return op.args[op.args.index(flag) + 1]


def _scale_column(col, factor, shift=0.0):
    def edit(rows):
        for r in rows:
            r[col] = repr(float(r[col]) * factor + shift)
    return edit


def _sample_corruptions(op):
    csv = _arg(op, "--out")
    meta = Path(csv).with_suffix(".meta.json").name

    def nan_row(rows):
        rows[len(rows) // 2][2] = "nan"

    def diverged(meta_payload):
        meta_payload["diverged_chains"] = [{"chain": 0, "step": 5}]

    return [
        ("first column shifted by 0.5", lambda d: _edit_csv(d / csv, _scale_column(1, 1.0, 0.5)), "restep"),
        ("a coordinate set to nan", lambda d: _edit_csv(d / csv, nan_row), "complete"),
        ("chain 0 listed as diverged", lambda d: _edit_json(d / meta, diverged), "no_divergence"),
    ]


def _histogram_corruptions(op, workload):
    hist = _arg(op, "--out")
    csv = _arg(op, "--in")
    summary = Path(hist).with_suffix(".summary.json").name
    target, d = _sample_shape(workload, csv)

    def first_column_moved(factor, shift):
        # move the first column off the law but keep the reported KS
        # truthful, so only the bound can object
        def mutate(directory):
            _edit_csv(directory / csv, _scale_column(1, factor, shift))
            first = np.loadtxt(directory / csv, delimiter=",", skiprows=1, ndmin=2)[:, 1]
            ks = reference.ks_statistic(first, reference.marginal(target, d).cdf)
            _edit_json(directory / summary, lambda s: s.update(ks_statistic=ks))
        return mutate

    def all_scaled(rows):
        for r in rows:
            r[1:] = [repr(1.25 * float(x)) for x in r[1:]]

    def two_columns(rows):
        for r in rows:
            del r[2:]

    return [
        ("analytic density scaled by 1.01",
         lambda d_: _edit_csv(d_ / hist, _scale_column(2, 1.01)), "density"),
        ("reported KS raised by 0.01",
         lambda d_: _edit_json(d_ / summary, lambda s: s.update(ks_statistic=s["ks_statistic"] + 0.01)),
         "ks_match"),
        ("first column shifted by 1.0, KS recomputed", first_column_moved(1.0, 1.0), "ks_bound"),
        ("first column scaled by 4, KS recomputed", first_column_moved(4.0, 0.0), "ks_bound"),
        ("every coordinate scaled by 1.25", lambda d_: _edit_csv(d_ / csv, all_scaled), "widening"),
        ("histogram cut to two columns", lambda d_: _edit_csv(d_ / hist, two_columns), "readable"),
    ]


def _sample_shape(workload, csv):
    for op in workload.ops:
        if op.args[0] == "sample" and _arg(op, "--out") == csv:
            return _arg(op, "--target"), int(_arg(op, "--dim"))
    raise ValueError(f"no sample operation writes {csv}")


def _rate_corruptions(op):
    out = _arg(op, "--out")
    fit = Path(out).with_suffix(".fit.json").name

    def swap(rows):
        rows[0][1], rows[1][1] = rows[1][1], rows[0][1]

    return [
        ("first two distances swapped", lambda d: _edit_csv(d / out, swap), "distances"),
        ("slope raised by 1e-6",
         lambda d: _edit_json(d / fit, lambda f: f.update(slope=f["slope"] + 1e-6)), "fit"),
        ("slope negated",
         lambda d: _edit_json(d / fit, lambda f: f.update(slope=-f["slope"])), "slope_positive"),
    ]


def _constants_corruptions(op):
    out = _arg(op, "--out")

    def nudge_value(report):
        entry = report["constants"]["a_bar"]
        entry["value"] *= 1.0 + 1e-9

    def nudge_v2(report):
        report["constants"]["v2_integral"]["value"] *= 1.0 + 1e-6

    def drop_table_entry(report):
        del report["constants"]["c_star(2)"]

    return [
        ("a_bar perturbed by 1e-9 relative", lambda d: _edit_json(d / out, nudge_value), "second_path"),
        ("c_star(2) missing", lambda d: _edit_json(d / out, drop_table_entry), "second_path"),
        ("v2_integral perturbed by 1e-6 relative", lambda d: _edit_json(d / out, nudge_v2), "v2"),
    ]


def _check_corruptions(op):
    out = _arg(op, "--out")
    if "--override" in op.args:
        def clear(payload):
            for c in payload["checks"]:
                if c["assumption"] == "assumption-2":
                    c["violations"] = []
        return [("assumption-2 violations removed", lambda d: _edit_json(d / out, clear), "violations")]

    def violate(payload):
        payload["checks"][2]["violations"].append({"lhs": 2.0, "rhs": 1.0})

    def fewer_points(payload):
        payload["checks"][0]["points"] -= 1

    return [
        ("a violation added to one report", lambda d: _edit_json(d / out, violate), "all_ok"),
        ("one report at one point fewer", lambda d: _edit_json(d / out, fewer_points), "all_ok"),
    ]


def corruptions(workload) -> list:
    """(description, mutate(directory), expected failing check) for
    every operation of the workload."""
    out = []
    for op in workload.ops:
        kind = op.args[0]
        if kind == "sample":
            cases = _sample_corruptions(op)
        elif kind == "histogram":
            cases = _histogram_corruptions(op, workload)
        elif kind == "rate":
            cases = _rate_corruptions(op)
        elif kind == "constants":
            cases = _constants_corruptions(op)
        else:
            cases = _check_corruptions(op)
        out += [(label, mutate, f"{op.name}.{name}") for label, mutate, name in cases]
    return out


def selftest(name: str, scratch: Path) -> list:
    """Problems found with workload ``name``; empty when every check
    passes on real outputs and fails on its corruptions."""
    workload = workloads.build(name, SEED, reference.load_oracle(run.ROOT), small=True)
    clean = run.Round.run(workload, scratch / name, run.run_child)
    problems = [f"{name}: operation {op} failed on real outputs" for op in sorted(clean.failed)]
    problems += [f"{name}: {check} fails on real outputs: {detail}"
                 for check, ok, detail in clean.checks if not ok]
    all_checks = {check for check, _, _ in clean.checks}
    shown = set()
    for k, (label, mutate, expected) in enumerate(corruptions(workload)):
        directory = scratch / f"{name}-{k}"
        shutil.copytree(scratch / name, directory)
        mutate(directory)
        failing = {c for c, ok, _ in workloads.verify(workload, directory, clean.failed) if not ok}
        caught = expected in failing
        shown |= failing
        print(f"  {'caught' if caught else 'MISSED'} {expected}: {label}")
        if not caught:
            problems.append(f"{name}: {expected} passed with {label}")
    for op in workload.ops:
        # a flipped exit code makes the operation count as failed, skips
        # the checks that read its outputs, leaves its metric unreported
        # and makes the run incorrect
        flipped = {**clean.results, op.name: (1 - op.expect_rc,) + clean.results[op.name][1:]}
        bad = run.Round(workload, scratch / name, flipped)
        ran = {c.split(".")[0] for c, _, _ in bad.checks}
        with contextlib.redirect_stdout(io.StringIO()):
            correct = run.report_checks([bad])
        ok = (bad.failed == clean.failed | {op.name} and op.name not in ran
              and op.metric not in bad.metrics(workload) and not correct)
        print(f"  {'caught' if ok else 'MISSED'} {op.name} exit code flipped to {1 - op.expect_rc}")
        if not ok:
            problems.append(f"{name}: flipped exit code of {op.name} not counted as failed")
    for check in sorted(all_checks - shown):
        problems.append(f"{name}: no corruption makes {check} fail")
    return problems


def main() -> int:
    scratch = run.BENCH / "out" / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    problems = []
    try:
        for name in workloads.WORKLOADS:
            print(f"workload {name}")
            problems += selftest(name, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for p in problems:
        print(f"PROBLEM {p}")
    print("self-test passed" if not problems else f"self-test FAILED ({len(problems)} problems)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
