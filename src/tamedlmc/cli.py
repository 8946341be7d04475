"""Command-line front end: sampling runs, histogram/density exports, rate
sweeps, constants reports, and assumption checks.

Each command returns its files; ``main`` checks every output path, the
sibling ``<out>.manifest.json`` of resolved options included, before the
command runs, and writes the manifest last.  CSV/JSON payloads are
byte-reproducible given a seed.

Exit codes: 0 success, 1 property violation (check), 2 usage error (also
an option outside its domain, from a flag, preset or config file alike, a
JSON payload holding a non-finite number, and an output that exists
without ``--force``, is a directory, lies in a missing directory or fails
to write), 3 runtime divergence (all chains lost; for rate, any chain lost).
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np

# the constants pipeline, and with it mpmath (about 30 ms of import), is
# imported only by constants and check
from . import __version__, metrics, potentials, sampler
from .numerics import RngStream

REQUIRED = object()  # the default of an option a command cannot run without
PRESETS = {"desk": {"dim": 20, "chains": 500}}


def _each(default, *commands) -> dict:
    return dict.fromkeys(commands, default)


def _domain(what: str, parse, ok):
    """An argparse ``type``: the parsed text, if ``ok`` accepts it.  A miss
    exits 2 with ``argument --<name>: expected <what>``."""
    def convert(text):
        try:
            value = parse(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return convert


def _at_least(low: int):
    return _domain(f"an integer >= {low}", int, lambda n: n >= low)


def _list(item):
    return lambda text: [item(x) for x in text.split(",")]


def _override(text: str) -> dict:
    name, raw = (part.strip() for part in text.split("=", 1))
    return {name: int(raw) if name in ("r", "nu") else float(raw)}


class _Merge(argparse.Action):
    """Repeated ``--override`` values merged into one dict, ``{}`` if none."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **{**kwargs, "default": {}})

    def __call__(self, parser, namespace, value, option_string=None):
        setattr(namespace, self.dest, {**getattr(namespace, self.dest), **value})


POSITIVE = _domain("a positive finite number", float, lambda x: math.isfinite(x) and x > 0)
FINITE = _domain("a finite number", float, math.isfinite)
GRID = _domain("at least two distinct step sizes", _list(POSITIVE),
               lambda grid: len(set(grid)) == len(grid) >= 2)
OVERRIDE = _domain("NAME=VALUE with a finite value (an integer for r, nu)", _override,
                   lambda override: all(map(math.isfinite, override.values())))


# Every option of every command: its long name, its argparse keywords, and
# its default for each command that takes it.  A numeric or list option's
# ``type`` is its domain.  The long name is also the option's config-file
# and preset key and, with dashes as underscores, its manifest key.  The
# defaults are the experiment's: beta=1, 250 chains, horizon 400, d=100,
# and the six-step grid of the published histograms.
OPTIONS = (
    ("target", {"choices": potentials.TARGET_NAMES},
     {**_each(REQUIRED, "sample", "rate", "constants", "check"), "histogram": None}),
    ("dim", {"type": _at_least(1)}, {"sample": 100, "rate": 100, "constants": 2, "check": 10}),
    ("beta", {"type": POSITIVE}, _each(1.0, "sample", "rate", "constants")),
    ("seed", {"type": _at_least(0)}, _each(0, "sample", "rate", "check")),
    ("out", {}, {**_each(REQUIRED, "sample", "histogram"), **_each(None, "rate", "constants", "check")}),
    ("force", {"action": "store_true"}, _each(False, "sample", "histogram", "rate", "constants", "check")),
    ("config", {"help": "JSON config file (explicit flags win)"}, _each(None, "sample", "rate")),
    ("preset", {"choices": sorted(PRESETS)}, _each(None, "sample", "rate")),
    ("lambda", {"type": POSITIVE}, {"sample": REQUIRED}),
    ("chains", {"type": _at_least(1)}, _each(250, "sample", "rate")),
    ("horizon", {"type": POSITIVE}, _each(400.0, "sample", "rate")),
    ("workers", {"type": _at_least(1)}, _each(1, "sample", "rate")),
    ("theta0", {"type": FINITE}, {"sample": 0.0}),
    ("algorithm", {"choices": sampler.ALGORITHMS}, {"sample": "mtula"}),
    ("in", {}, {"histogram": REQUIRED}),
    ("bins", {"type": _at_least(1)}, {"histogram": 60}),
    ("range", {"type": FINITE, "nargs": 2, "metavar": ("LO", "HI")}, {"histogram": None}),
    ("metric", {"choices": ("w1", "w2", "sw1", "sw2", "gaussian-exact")}, {"rate": "w1"}),
    ("grid", {"type": GRID, "help": "comma-separated step sizes"},
     {"rate": "0.001,0.005,0.01,0.025,0.05,0.1"}),
    ("analytic", {"action": "store_true", "help": "closed-form W2 (gaussian-exact, dim 1)"},
     {"rate": False}),
    ("ref-fine-step", {"type": POSITIVE}, {"rate": None}),
    ("ref-horizon", {"type": POSITIVE}, {"rate": None}),
    ("n-proj", {"type": _at_least(1)}, {"rate": 256}),
    ("p-list", {"type": _list(_at_least(0)), "help": "comma-separated extra moment degrees"},
     {"constants": None}),
    ("points", {"type": _at_least(1)}, {"check": 10_000}),
    ("radius", {"type": POSITIVE}, {"check": 10.0}),
    ("override", {"type": OVERRIDE, "action": _Merge, "metavar": "NAME=VALUE",
                  "help": "replace an assumption constant (falsification control)"}, {"check": None}),
)


def command_options(cmd: str) -> list:
    """The rows of ``cmd``'s options: (long name, argparse keywords, default)."""
    return [(name, kwargs, defaults[cmd]) for name, kwargs, defaults in OPTIONS if cmd in defaults]


class UsageError(ValueError):
    pass


class DivergenceExit(Exception):
    pass


@functools.cache
def _version_stamp() -> str:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5, cwd=Path(__file__).parent,
        )
        if rev.returncode == 0:
            return f"{__version__}+git.{rev.stdout.strip()}"
    except Exception:
        pass
    return __version__


def _peak_rss_mb() -> dict:
    """Peak resident set size in MB (1e6 bytes) of this process and of its
    largest reaped child process (the kernel's helpers and workers)."""
    scale = 1e-6 if sys.platform == "darwin" else 1024e-6  # ru_maxrss: bytes, else KiB
    return {who: round(resource.getrusage(which).ru_maxrss * scale, 3)
            for who, which in (("self", resource.RUSAGE_SELF), ("children", resource.RUSAGE_CHILDREN))}


def _parse_settings(args, settings: dict, source: str) -> dict:
    """A preset's or config file's settings, keyed by manifest key.

    Keys are the command's long option names other than ``config``
    (``lambda``, ``ref-fine-step``).  Each value goes through the
    command's own parser as ``--name=value``, so it is converted and
    checked exactly like the flag; a true value sets a switch."""
    switch = {name: kwargs.get("action") == "store_true"
              for name, kwargs, _ in command_options(args.cmd) if name != "config"}
    argv = []
    for key, value in settings.items():
        if key not in switch:
            raise UsageError(
                f"unknown config key {key!r} in {source}; expected one of {sorted(switch)}"
            )
        if switch[key]:
            argv += [f"--{key}"] if value else []
        else:
            argv.append(f"--{key}={value}")
    parsed = vars(args.parser.parse_args(argv))
    return {key.replace("-", "_"): parsed[key.replace("-", "_")] for key in settings}


def _read_json_object(path, what: str) -> dict:
    """The JSON object in ``path``; a file that cannot be read or parsed,
    or holds anything else, is a usage error naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise UsageError(f"{what} {path} must contain a JSON object")
    return obj


def _load_config(args) -> dict:
    """The ``--config`` file's settings, keyed by manifest key."""
    path = getattr(args, "config", None)
    if not path:
        return {}
    return _parse_settings(args, _read_json_object(path, "config file"), path)


def _resolve(args) -> tuple[dict, set]:
    """Every option of the command, keyed by manifest key: the flag, else
    the preset's value, else the config file's, else the default.  Also
    returns the keys that one of the first three set."""
    flags = vars(args)
    config = _load_config(args)
    chosen = flags.get("preset") or config.get("preset")
    preset = _parse_settings(args, PRESETS[chosen], f"preset {chosen}") if chosen else {}
    opts, explicit = {}, set()
    for name, kwargs, default in command_options(args.cmd):
        key = name.replace("-", "_")
        for source in (flags, preset, config):
            if source.get(key) is not None:
                opts[key] = source[key]
                explicit.add(key)
                break
        else:
            if default is REQUIRED:
                raise UsageError(f"--{name} is required")
            # like argparse, convert a string default with the option's type
            opts[key] = kwargs.get("type", str)(default) if isinstance(default, str) else default
    return opts, explicit


def _json(payload) -> str:
    # a non-finite number raises ValueError (exit 2): a bare NaN is not JSON
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


def _plan(opts, siblings) -> list:
    """``--out``, its ``siblings`` and its manifest, in writing order (none
    without ``--out``); each a file in an existing directory, new unless ``--force``."""
    if opts["out"] is None:
        return []
    out = Path(opts["out"])
    paths = [out, *(out.with_suffix(s) for s in siblings),
             out.with_suffix(out.suffix + ".manifest.json")]
    for p in paths:
        if not p.parent.is_dir():
            raise UsageError(f"cannot write {p}: no directory {p.parent}")
        if p.is_dir():
            raise UsageError(f"cannot write {p}: it is a directory")
        if p.exists() and not opts["force"]:
            raise UsageError(f"output {p} exists; pass --force to overwrite")
    return paths


def _write(paths, files, command: str, opts):
    """Write each of ``files`` (a measure, CSV text, or a JSON payload that
    gains the manifest's path) to its path, then the manifest.  Every
    payload is serialised before the first file is opened."""
    *outputs, manifest = paths
    contents = [_json({**f, "manifest": str(manifest)}) + "\n" if isinstance(f, dict) else f
                for f in files]
    contents.append(_json({
        "command": command,
        "resolved_config": opts,
        "peak_rss_mb": _peak_rss_mb(),  # read before the version stamp runs git
        "version": _version_stamp(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": [str(o) for o in outputs],
    }) + "\n")
    for path, content in zip(paths, contents):
        try:
            if isinstance(content, sampler.EmpiricalMeasure):
                sampler.save_measure_csv(content, path)
            else:
                path.write_text(content, encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _chains(where: str, run, *args, every=True, **kwargs) -> sampler.EmpiricalMeasure:
    """``run(*args, **kwargs)``'s measure.  Exit 3 naming ``where`` if it
    lost every chain or, with ``every``, any chain: a distance between
    survivors is not the one asked for."""
    try:
        measure = run(*args, **kwargs)
    except sampler.DivergenceError as exc:
        print(f"error at {where}: {exc}", file=sys.stderr)
        raise DivergenceExit() from exc
    lost = len(measure.meta["diverged_chains"])
    if lost and every:
        print(f"error at {where}: {lost} of {measure.meta['n_chains']} chains diverged",
              file=sys.stderr)
        raise DivergenceExit()
    return measure


# --- sample ---

def cmd_sample(opts, explicit) -> tuple:
    lam, dim = opts["lambda"], opts["dim"]
    target = potentials.make_target(opts["target"], dim)
    lam_max, _ = target.step_size_limits()
    if lam > lam_max:
        print(f"warning: lambda={lam:g} exceeds the theoretical maximum step size "
              f"{lam_max:g} for target {target.name!r}", file=sys.stderr)

    cfg = sampler.SamplerConfig(
        lam=lam, beta=opts["beta"], d=dim, n_chains=opts["chains"], horizon=opts["horizon"],
        master_seed=opts["seed"], theta0=opts["theta0"], algorithm=opts["algorithm"],
    )
    measure = _chains(f"lambda={lam:g}", sampler.run_chains, cfg, target, every=False,
                      n_workers=opts["workers"])
    n_div = len(measure.meta["diverged_chains"])
    return 0, [measure, measure.meta], (
        f"wrote {Path(opts['out'])} ({measure.samples.shape[0]} chains x d={dim}"
        + (f", {n_div} diverged" if n_div else "") + ")")


# --- histogram ---

def cmd_histogram(opts, explicit) -> tuple:
    if opts["range"] is not None and not opts["range"][0] < opts["range"][1]:
        raise UsageError("--range requires lo < hi")
    in_path = Path(opts["in"])
    try:
        _, samples = sampler.load_measure_csv(in_path)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read samples from {in_path}: {exc}") from exc

    meta_path = in_path.with_suffix(".meta.json")
    meta = _read_json_object(meta_path, "metadata file") if meta_path.exists() else {}
    beta = meta.get("beta", 1.0)
    if beta != 1.0:
        raise UsageError(
            f"the analytic marginals are for beta = 1; the samples have beta = {beta}"
        )
    opts["target"] = opts["target"] or meta.get("target")
    if opts["target"] is None:
        raise UsageError("--target is required when the samples have no metadata file")
    target = potentials.make_target(opts["target"], samples.shape[1])

    density = potentials.marginal_pdf(target)
    first = samples[:, 0]
    if opts["range"] is None:
        lo, hi = density.support
        opts["range"] = [min(lo, float(first.min()) - 0.5), max(hi, float(first.max()) + 0.5)]
    hist = metrics.histogram(first, opts["bins"], opts["range"])
    analytic = np.asarray(density.pdf(hist.centers), dtype=float)
    ks = metrics.ks_statistic(first, density.cdf)

    lines = ["bin_center,empirical_density,analytic_density"]
    for ctr, emp, ana in zip(hist.centers, hist.densities, analytic):
        lines.append(f"{repr(float(ctr))},{repr(float(emp))},{repr(float(ana))}")
    summary = {
        "ks_statistic": ks,
        "n_samples": int(first.size),
        "inside_fraction": hist.inside_fraction,
        "target": target.name,
        "normalization_check": density.normalization_check,
        "source_meta": meta,
    }
    return 0, ["\n".join(lines) + "\n", summary], (
        f"wrote {Path(opts['out'])} (KS statistic {ks:.4f})")


# --- rate ---

def cmd_rate(opts, explicit) -> tuple:
    dim, beta, metric, analytic = opts["dim"], opts["beta"], opts["metric"], opts["analytic"]
    grid = opts["grid"]
    target = potentials.make_target(opts["target"], dim)

    if metric == "gaussian-exact" and target.exact_draw is None:
        raise UsageError("--metric gaussian-exact requires a target drawn exactly (gaussian)")
    if metric == "gaussian-exact" and not analytic:
        raise UsageError("--metric gaussian-exact is the closed-form W2 and requires --analytic; "
                         "for a sampled distance use --metric w1|w2")
    if analytic and (metric != "gaussian-exact" or dim != 1):
        raise UsageError("--analytic requires --metric gaussian-exact and --dim 1")
    # an option that cannot shape the result is refused, not ignored
    unused = {}
    if analytic:
        unused["--analytic runs no chain"] = (
            "chains", "horizon", "workers", "ref_fine_step", "ref_horizon")
    elif target.exact_draw is not None:
        unused[f"the {target.name} reference is exact"] = ("ref_fine_step", "ref_horizon")
    if metric not in ("sw1", "sw2"):
        unused[f"--metric {metric} takes no projections"] = ("n_proj",)
    for why, keys in unused.items():
        given = ["--" + key.replace("_", "-") for key in keys if key in explicit]
        if given:
            raise UsageError(f"{', '.join(given)} cannot apply: {why}")
        opts.update(dict.fromkeys(keys))

    distances = []
    if analytic:
        # per-coordinate W2 between the chain's stationary N(0, sigma^2)
        # and the target N(0, 1/beta)
        distances = [abs(sampler.gaussian_chain_std(lam, beta) - 1.0 / np.sqrt(beta))
                     for lam in grid]
    else:
        seed, workers = opts["seed"], opts["workers"]
        # built first, so a step count that overflows exits 2 before any chain runs
        configs = [sampler.SamplerConfig(lam=lam, beta=beta, d=dim, n_chains=opts["chains"],
                                         horizon=opts["horizon"], master_seed=seed)
                   for lam in grid]
        if target.exact_draw is None:
            if opts["ref_fine_step"] is None:
                opts["ref_fine_step"] = target.step_size_limits()[0] / 10.0
            if opts["ref_horizon"] is None:
                opts["ref_horizon"] = min(opts["horizon"], 50.0)
        b = _chains(
            "the reference", sampler.reference_measure, target, beta, master_seed=seed + 10_000,
            n_draws=opts["chains"], horizon=opts["ref_horizon"], fine_step=opts["ref_fine_step"],
            n_workers=workers,
        ).samples
        for cfg in configs:
            a = _chains(f"lambda={cfg.lam:g}", sampler.run_chains, cfg, target,
                        n_workers=workers).samples
            p = 2 if metric.endswith("2") else 1
            if metric in ("w1", "w2"):
                dist = metrics.wasserstein_1d(a[:, 0], b[:, 0], p=p)
            else:
                dist = metrics.sliced_wasserstein(
                    a, b, p=p, n_proj=opts["n_proj"], stream=RngStream(seed + 20_000, 0),
                )
            distances.append(dist)

    fit = metrics.fit_rate(grid, distances)
    lines = ["lambda,distance,metric"]
    for lam, dist in zip(grid, distances):
        lines.append(f"{repr(float(lam))},{repr(float(dist))},{metric}")
    return 0, ["\n".join(lines) + "\n", fit.to_dict()], (
        f"fitted slope {fit.slope:.4f} (r^2 = {fit.r_squared:.4f})")


# --- constants ---

def cmd_constants(opts, explicit) -> tuple:
    dim, beta = opts["dim"], opts["beta"]
    target = potentials.make_target(opts["target"], dim)

    # the target's closed form: every built-in target has one
    v2 = sampler.estimate_v2_integral(target, beta)
    from . import constants
    dc = constants.derive_constants(target, beta, dim, p_list=opts["p_list"], v2_integral=v2)
    report = dc.to_report()
    return 0, [report], _json(report) if opts["out"] is None else f"wrote {Path(opts['out'])}"


# --- check ---

def cmd_check(opts, explicit) -> tuple:
    dim, points, radius, seed = opts["dim"], opts["points"], opts["radius"], opts["seed"]
    overrides = opts["override"]
    target = potentials.override_constants(potentials.make_target(opts["target"], dim), **overrides)

    reports = [
        potentials.check_assumption_2(target, points, radius, RngStream(seed, 0)),
        potentials.check_assumption_3(target, points, radius, RngStream(seed, 1)),
        potentials.check_assumption_4(target, points, radius, RngStream(seed, 2)),
    ]
    from . import constants
    moduli = constants.certified_moduli(target)
    reports.extend(
        constants.certify_derived_constants(target, moduli, points, radius, RngStream(seed, 3))
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
    lines = [f"{target.name}: {r.assumption}: "
             + ("ok" if r.ok else f"{r.n_violations} violation(s)") for r in reports]
    return 0 if all_ok else 1, [payload], "\n".join(lines)


# --- parser ---

# Each command: its function, its files' suffixes beside --out, its help.
# It returns (exit code, its files' contents, console line); main writes.
COMMANDS = {
    "sample": (cmd_sample, (".meta.json",), "run chains and write final iterates as CSV"),
    "histogram": (cmd_histogram, (".summary.json",),
                  "first-component histogram vs analytic marginal"),
    "rate": (cmd_rate, (".fit.json",), "distance-vs-step-size sweep and log-log fit"),
    "constants": (cmd_constants, (), "derived-constants JSON report"),
    "check": (cmd_check, (), "assumption and certificate checks"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tamedlmc",
        description="Tamed Langevin Monte Carlo sampling laboratory",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    for cmd, (_, _, help_text) in COMMANDS.items():
        p = sub.add_parser(cmd, help=help_text)
        # every default is None (--override's is {}), so the resolver can
        # tell a flag was given
        for name, kwargs, _ in command_options(cmd):
            p.add_argument(f"--{name}", default=None, **kwargs)
        p.set_defaults(parser=p)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    func, siblings, _ = COMMANDS[args.cmd]
    try:
        opts, explicit = _resolve(args)
        paths = _plan(opts, siblings)
        code, files, console = func(opts, explicit)
        if paths:
            _write(paths, files, args.cmd, opts)
    except DivergenceExit:
        return 3
    except ValueError as exc:  # a UsageError, or a value a library call refuses
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(console)
    return code


if __name__ == "__main__":
    sys.exit(main())
