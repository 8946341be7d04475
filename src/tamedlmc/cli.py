"""Command-line front end: sampling runs, histogram/density exports, rate
sweeps, constants reports, and assumption checks.

Exit codes: 0 success, 1 property violation (check), 2 usage error,
3 runtime divergence (all chains lost).  Every file-producing invocation
writes a sibling ``<out>.manifest.json`` recording the resolved
configuration; CSV/JSON payloads are byte-reproducible given a seed.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np

from . import constants as constants_mod
from . import metrics, potentials, sampler
from .numerics import RngStream

# the experiment defaults: beta=1, 250 chains, horizon 400, d=100, and the
# six-step grid used for the published histograms
DEFAULT_GRID = (0.001, 0.005, 0.01, 0.025, 0.05, 0.1)
DEFAULTS = {
    "dim": 100,
    "beta": 1.0,
    "chains": 250,
    "horizon": 400.0,
    "seed": 0,
    "workers": 1,
    "theta0": 0.0,
}
PRESETS = {"desk": {"dim": 20, "chains": 500}}


class UsageError(Exception):
    pass


class DivergenceExit(Exception):
    pass


@functools.cache
def _version_stamp() -> str:
    try:
        from importlib.metadata import version

        v = version("tamedlmc")
    except Exception:
        v = "unknown"
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5, cwd=Path(__file__).parent,
        )
        if rev.returncode == 0:
            return f"{v}+git.{rev.stdout.strip()}"
    except Exception:
        pass
    return v


def _load_config(args) -> dict:
    """The ``--config`` file's settings, keyed by argparse dest.

    Keys are the command's long option names without the dashes
    (``lambda``, ``ref-fine-step``).  Each value goes through the
    command's own parser as ``--name=value``, so it is converted and
    checked exactly like the flag; a JSON ``true`` sets a switch."""
    path = args.config
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError("config file must contain a JSON object")
    options = {
        opt[2:]: action
        for action in args.parser._actions
        for opt in action.option_strings
        if opt.startswith("--") and opt not in ("--config", "--help")
    }
    argv = []
    for key, value in cfg.items():
        if key not in options:
            raise UsageError(
                f"unknown config key {key!r} in {path}; expected one of {sorted(options)}"
            )
        if options[key].nargs == 0:
            argv += [f"--{key}"] if value else []
        else:
            argv.append(f"--{key}={value}")
    parsed = args.parser.parse_args(argv)
    return {options[key].dest: getattr(parsed, options[key].dest) for key in cfg}


def _resolver(args):
    """res(dest, default): the explicit flag, else the preset's value,
    else the config file's, else the default."""
    config = _load_config(args)
    preset = PRESETS.get(args.preset or config.get("preset"), {})

    def res(name, default):
        for source in (vars(args), preset, config):
            if source.get(name) is not None:
                return source[name]
        return default

    return res


def _check_overwrite(paths, force: bool):
    for p in paths:
        if Path(p).exists() and not force:
            raise UsageError(f"output {p} exists; pass --force to overwrite")


def _write_manifest(out_path: Path, command: str, resolved: dict, outputs):
    path = out_path.with_suffix(out_path.suffix + ".manifest.json")
    _write_json(path, {
        "command": command,
        "resolved_config": resolved,
        "version": _version_stamp(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": [str(o) for o in outputs],
    })
    return path


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _build_target(name: str, dim: int) -> potentials.TargetSpec:
    if name is None:
        raise UsageError("--target is required")
    return potentials.make_target(name, dim)  # an unknown name: ValueError, exit 2


# --- sample ---

def cmd_sample(args) -> int:
    res = _resolver(args)
    dim = int(res("dim", DEFAULTS["dim"]))
    lam = res("lam", None)
    if lam is None:
        raise UsageError("--lambda is required")
    if lam <= 0:
        raise UsageError(f"--lambda must be positive (got {lam})")
    beta = float(res("beta", DEFAULTS["beta"]))
    chains = int(res("chains", DEFAULTS["chains"]))
    horizon = float(res("horizon", DEFAULTS["horizon"]))
    seed = int(res("seed", DEFAULTS["seed"]))
    workers = int(res("workers", DEFAULTS["workers"]))
    theta0 = float(res("theta0", DEFAULTS["theta0"]))
    algorithm = res("algorithm", "mtula")
    out = res("out", None)
    if out is None:
        raise UsageError("--out is required")
    if beta <= 0 or horizon <= 0 or chains < 1 or dim < 1:
        raise UsageError("beta, horizon must be positive; chains, dim must be >= 1")

    target = _build_target(res("target", None), dim)
    lam_max, _ = constants_mod.step_size_limits_for_target(target)
    if lam > lam_max:
        print(
            f"warning: lambda={lam:g} exceeds the theoretical maximum step size "
            f"{lam_max:g} for target {target.name!r}",
            file=sys.stderr,
        )

    cfg = sampler.SamplerConfig(
        lam=lam, beta=beta, d=dim, n_chains=chains, horizon=horizon,
        master_seed=seed, theta0=theta0, algorithm=algorithm,
    )
    out_path = Path(out)
    meta_path = out_path.with_suffix(".meta.json")
    _check_overwrite([out_path, meta_path], res("force", False))

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            measure = sampler.run_chains(cfg, target, n_workers=workers)
    except sampler.DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise DivergenceExit() from exc

    resolved = {
        "target": target.name, "dim": dim, "lambda": lam, "beta": beta,
        "chains": chains, "horizon": horizon, "seed": seed, "theta0": theta0,
        "algorithm": algorithm, "workers": workers, "out": str(out_path),
    }
    sampler.save_measure_csv(measure, out_path)
    manifest_path = _write_manifest(out_path, "sample", resolved, [out_path, meta_path])
    meta = dict(measure.meta)
    meta["manifest"] = str(manifest_path)
    _write_json(meta_path, meta)
    n_div = len(measure.meta["diverged_chains"])
    print(f"wrote {out_path} ({measure.samples.shape[0]} chains x d={dim}"
          + (f", {n_div} diverged" if n_div else "") + ")")
    return 0


# --- histogram ---

def cmd_histogram(args) -> int:
    in_path = Path(args.infile)
    try:
        _, samples = sampler.load_measure_csv(in_path)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read samples from {in_path}: {exc}") from exc

    meta = {}
    meta_path = in_path.with_suffix(".meta.json")
    if meta_path.exists():
        with open(meta_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    beta = meta.get("beta", 1.0)
    if beta != 1.0:
        raise UsageError(
            f"the analytic marginals are for beta = 1; the samples have beta = {beta}"
        )
    target_name = args.target or meta.get("target")
    if target_name is None:
        raise UsageError("--target is required when the samples have no metadata file")
    dim = samples.shape[1]
    target = _build_target(target_name, dim)

    density = potentials.marginal_pdf(target)
    first = samples[:, 0]
    if args.range is not None:
        lo, hi = args.range
        if not lo < hi:
            raise UsageError("--range requires lo < hi")
    else:
        lo, hi = density.support
        lo = min(lo, float(first.min()) - 0.5)
        hi = max(hi, float(first.max()) + 0.5)
    hist = metrics.histogram(first, args.bins, (lo, hi))
    analytic = np.asarray(density.pdf(hist.centers), dtype=float)
    ks = metrics.ks_statistic(first, density.cdf)

    out_path = Path(args.out)
    summary_path = out_path.with_suffix(".summary.json")
    _check_overwrite([out_path, summary_path], args.force)
    lines = ["bin_center,empirical_density,analytic_density"]
    for ctr, emp, ana in zip(hist.centers, hist.densities, analytic):
        lines.append(f"{repr(float(ctr))},{repr(float(emp))},{repr(float(ana))}")
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    resolved = {
        "infile": str(in_path), "target": target.name, "bins": args.bins,
        "range": [lo, hi], "out": str(out_path),
    }
    manifest_path = _write_manifest(out_path, "histogram", resolved, [out_path, summary_path])
    _write_json(summary_path, {
        "ks_statistic": ks,
        "n_samples": int(first.size),
        "inside_fraction": hist.inside_fraction,
        "target": target.name,
        "normalization_check": density.normalization_check,
        "source_meta": meta,
        "manifest": str(manifest_path),
    })
    print(f"wrote {out_path} (KS statistic {ks:.4f})")
    return 0


# --- rate ---

def _gaussian_exact_distance(lam: float, beta: float) -> float:
    # per-coordinate W2 between the chain's stationary N(0, sigma^2) and
    # the target N(0, 1/beta)
    return abs(sampler.gaussian_chain_std(lam, beta) - 1.0 / np.sqrt(beta))


def cmd_rate(args) -> int:
    res = _resolver(args)
    dim = int(res("dim", DEFAULTS["dim"]))
    beta = float(res("beta", DEFAULTS["beta"]))
    chains = int(res("chains", DEFAULTS["chains"]))
    horizon = float(res("horizon", DEFAULTS["horizon"]))
    seed = int(res("seed", DEFAULTS["seed"]))
    workers = int(res("workers", DEFAULTS["workers"]))
    out = res("out", None)
    metric = res("metric", "w1")
    analytic = res("analytic", False)
    grid_arg = res("grid", None)
    grid = [float(x) for x in grid_arg.split(",")] if grid_arg else list(DEFAULT_GRID)
    if any(g <= 0 for g in grid) or len(grid) < 2:
        raise UsageError("--grid needs at least two positive step sizes")
    target = _build_target(res("target", None), dim)

    if metric == "gaussian-exact" and target.exact_draw is None:
        raise UsageError("--metric gaussian-exact requires a target drawn exactly (gaussian)")
    if analytic and (metric != "gaussian-exact" or dim != 1):
        raise UsageError("--analytic requires --metric gaussian-exact and --dim 1")
    # a reference option that cannot shape the reference is refused, not ignored
    unused, why = (), ""
    if analytic:
        unused, why = ("ref_draws", "ref_fine_step", "ref_horizon"), "--analytic uses no reference"
    elif target.exact_draw is not None:
        unused, why = ("ref_fine_step", "ref_horizon"), f"the {target.name} reference is exact"
    given = ["--" + dest.replace("_", "-") for dest in unused if res(dest, None) is not None]
    if given:
        raise UsageError(f"{', '.join(given)} cannot apply: {why}")

    distances = []
    ref_draws = fine = ref_horizon = n_proj = None
    if analytic:
        distances = [_gaussian_exact_distance(lam, beta) for lam in grid]
    else:
        ref_draws = res("ref_draws", chains)
        if target.exact_draw is None:
            lam_max, _ = constants_mod.step_size_limits_for_target(target)
            fine = res("ref_fine_step", lam_max / 10.0)
            ref_horizon = res("ref_horizon", min(horizon, 50.0))
        if metric in ("sw1", "sw2"):
            n_proj = res("n_proj", 256)
        reference = sampler.reference_measure(
            target, beta, master_seed=seed + 10_000, n_draws=ref_draws,
            horizon=ref_horizon, fine_step=fine, n_workers=workers,
        )
        for lam in grid:
            cfg = sampler.SamplerConfig(
                lam=lam, beta=beta, d=dim, n_chains=chains, horizon=horizon,
                master_seed=seed,
            )
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    measure = sampler.run_chains(cfg, target, n_workers=workers)
            except sampler.DivergenceError as exc:
                print(f"error at lambda={lam:g}: {exc}", file=sys.stderr)
                raise DivergenceExit() from exc
            n = min(measure.samples.shape[0], reference.samples.shape[0])
            a, b = measure.samples[:n], reference.samples[:n]
            if metric in ("w1", "w2", "gaussian-exact"):
                p = 2 if metric == "w2" else 1
                dist = metrics.wasserstein_1d(a[:, 0], b[:, 0], p=p)
            else:
                p = 1 if metric == "sw1" else 2
                dist = metrics.sliced_wasserstein(
                    a, b, p=p, n_proj=n_proj, stream=RngStream(seed + 20_000, 0),
                )
            distances.append(dist)

    fit = metrics.fit_rate(grid, distances)
    out_path = Path(out) if out else None
    if out_path is not None:
        fit_path = out_path.with_suffix(".fit.json")
        _check_overwrite([out_path, fit_path], res("force", False))
        lines = ["lambda,distance,metric"]
        for lam, dist in zip(grid, distances):
            lines.append(f"{repr(float(lam))},{repr(float(dist))},{metric}")
        out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        resolved = {
            "target": target.name, "dim": dim, "beta": beta, "chains": chains,
            "horizon": horizon, "seed": seed, "metric": metric, "grid": grid,
            "analytic": bool(analytic), "workers": workers, "ref_draws": ref_draws,
            "ref_fine_step": fine, "ref_horizon": ref_horizon, "n_proj": n_proj,
            "out": str(out_path),
        }
        manifest_path = _write_manifest(out_path, "rate", resolved, [out_path, fit_path])
        payload = fit.to_dict()
        payload["manifest"] = str(manifest_path)
        _write_json(fit_path, payload)
    print(f"fitted slope {fit.slope:.4f} (r^2 = {fit.r_squared:.4f})")
    return 0


# --- constants ---

def cmd_constants(args) -> int:
    dim = args.dim if args.dim is not None else 2
    beta = args.beta if args.beta is not None else 1.0
    if beta <= 0 or dim < 1:
        raise UsageError("beta must be positive and dim >= 1")
    target = _build_target(args.target, dim)
    p_list = [int(x) for x in args.p_list.split(",")] if args.p_list else None

    seed = args.seed or 0
    v2 = v2_err = None
    if args.v2_method != "none":
        v2, v2_err = sampler.estimate_v2_integral(
            target, beta,
            method="mc" if args.v2_method == "mc" else "auto",
            n_draws=args.v2_draws, master_seed=seed,
        )
    dc = constants_mod.derive_constants(
        target, beta, dim, p_list=p_list, v2_integral=v2, v2_stderr=v2_err,
    )
    report = dc.to_report()
    if args.out:
        out_path = Path(args.out)
        _check_overwrite([out_path], args.force)
        manifest_path = _write_manifest(
            out_path, "constants",
            {"target": target.name, "dim": dim, "beta": beta, "p_list": p_list,
             "v2_method": args.v2_method, "v2_draws": args.v2_draws, "seed": seed,
             "out": str(out_path)},
            [out_path],
        )
        report["manifest"] = str(manifest_path)
        _write_json(out_path, report)
        print(f"wrote {out_path}")
    else:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        print()
    return 0


# --- check ---

def _parse_overrides(pairs):
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise UsageError(f"--override expects NAME=VALUE, got {pair!r}")
        name, raw = pair.split("=", 1)
        name = name.strip()
        try:
            value = int(raw) if name in ("r", "nu") else float(raw)
        except ValueError as exc:
            raise UsageError(f"bad override value {raw!r} for {name}") from exc
        out[name] = value
    return out


def cmd_check(args) -> int:
    dim = args.dim if args.dim is not None else 10
    points = args.points if args.points is not None else 10_000
    radius = args.radius if args.radius is not None else 10.0
    seed = args.seed if args.seed is not None else 0
    if points < 1:
        raise UsageError("--points must be >= 1")
    if radius <= 0:
        raise UsageError("--radius must be positive")
    target = _build_target(args.target, dim)
    overrides = _parse_overrides(args.override)
    if overrides:
        try:
            target = potentials.override_constants(target, **overrides)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc

    reports = [
        potentials.check_assumption_2(target, points, radius, RngStream(seed, 0)),
        potentials.check_assumption_3(target, points, radius, RngStream(seed, 1)),
        potentials.check_assumption_4(target, points, radius, RngStream(seed, 2)),
    ]
    dc = constants_mod.derive_constants(target, beta=1.0, d=dim)
    reports.extend(
        constants_mod.certify_derived_constants(target, dc, points, radius, RngStream(seed, 3))
    )

    all_ok = all(r.ok for r in reports)
    payload = {
        "target": target.name,
        "dim": dim,
        "points": points,
        "radius": radius,
        "overrides": overrides,
        "all_ok": all_ok,
        "checks": [r.to_dict() for r in reports],
    }
    if args.out:
        out_path = Path(args.out)
        _check_overwrite([out_path], args.force)
        manifest_path = _write_manifest(
            out_path, "check",
            {"target": target.name, "dim": dim, "points": points,
             "radius": radius, "seed": seed, "overrides": overrides,
             "out": str(out_path)},
            [out_path],
        )
        payload["manifest"] = str(manifest_path)
        _write_json(out_path, payload)
    for r in reports:
        status = "ok" if r.ok else f"{len(r.violations)} violation(s)"
        print(f"{target.name}: {r.assumption}: {status}")
    return 0 if all_ok else 1


# --- parser ---

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tamedlmc",
        description="Tamed Langevin Monte Carlo sampling laboratory",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def shared(p):
        p.add_argument("--target", choices=potentials.TARGET_NAMES)
        p.add_argument("--dim", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--out")
        p.add_argument("--force", action="store_true", default=None)

    def configurable(p):
        p.add_argument("--config", help="JSON config file (explicit flags win)")
        p.add_argument("--preset", choices=sorted(PRESETS))
        p.set_defaults(parser=p)

    p = sub.add_parser("sample", help="run chains and write final iterates as CSV")
    shared(p)
    p.add_argument("--beta", type=float)
    configurable(p)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--chains", type=int)
    p.add_argument("--horizon", type=float)
    p.add_argument("--theta0", type=float)
    p.add_argument("--algorithm", choices=sampler.ALGORITHMS)
    p.add_argument("--workers", type=int)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("histogram", help="first-component histogram vs analytic marginal")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--target", choices=potentials.TARGET_NAMES)
    p.add_argument("--bins", type=int, default=60)
    p.add_argument("--range", type=float, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_histogram)

    p = sub.add_parser("rate", help="distance-vs-step-size sweep and log-log fit")
    shared(p)
    p.add_argument("--beta", type=float)
    configurable(p)
    p.add_argument("--metric", choices=("w1", "w2", "sw1", "sw2", "gaussian-exact"))
    p.add_argument("--grid", help="comma-separated step sizes")
    p.add_argument("--chains", type=int)
    p.add_argument("--horizon", type=float)
    p.add_argument("--workers", type=int)
    p.add_argument("--analytic", action="store_true", default=None,
                   help="closed-form distances (gaussian-exact, dim 1)")
    p.add_argument("--ref-draws", type=int)
    p.add_argument("--ref-fine-step", type=float)
    p.add_argument("--ref-horizon", type=float)
    p.add_argument("--n-proj", type=int)
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("constants", help="derived-constants JSON report")
    shared(p)
    p.add_argument("--beta", type=float)
    p.add_argument("--p-list", help="comma-separated extra moment degrees")
    p.add_argument("--v2-method", choices=("quadrature", "mc", "none"),
                   default="quadrature")
    p.add_argument("--v2-draws", type=int, default=100_000)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("check", help="assumption and certificate checks")
    shared(p)
    p.add_argument("--points", type=int)
    p.add_argument("--radius", type=float)
    p.add_argument("--override", action="append", metavar="NAME=VALUE",
                   help="replace an assumption constant (falsification control)")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergenceExit:
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
