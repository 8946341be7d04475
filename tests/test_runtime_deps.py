"""The package runs on numpy, mpmath and the standard library alone: scipy
is a test and benchmark oracle, never imported by ``tamedlmc``.  A command
loads the constants pipeline, and so mpmath, only if it uses it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import tamedlmc

SRC = str(Path(tamedlmc.__file__).resolve().parents[1])

# scipy made unimportable before the CLI is, so any import of it, eager or
# lazy, fails the command
WITHOUT_SCIPY = (
    "import sys; sys.modules['scipy'] = None; "
    "from tamedlmc.cli import main; sys.exit(main(sys.argv[1:]))"
)
# the same for mpmath, which the commands that derive no constant do not
# need, and importlib.metadata, which no command needs
WITHOUT_MPMATH = (
    "import sys; sys.modules['mpmath'] = None; sys.modules['importlib.metadata'] = None; "
    "from tamedlmc.cli import main; sys.exit(main(sys.argv[1:]))"
)
UNUSED_AT_START = ("mpmath", "tamedlmc.constants", "importlib.metadata")


def run_python(args, cwd):
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_every_command_runs_without_scipy(tmp_path):
    lines = [
        "sample --target mixture --dim 3 --chains 20 --lambda 0.05 --horizon 1 --out m.csv",
        "sample --target double-well --dim 10 --chains 50 --lambda 0.01 --horizon 1 --out dw.csv",
        "histogram --in dw.csv --out dwh.csv",
        "constants --target double-well --dim 10 --out c.json",
        "check --target mixture --dim 3 --points 200 --out k.json",
        "rate --target gaussian --dim 1 --metric gaussian-exact --analytic --grid 0.2,0.1",
    ]
    for line in lines:
        proc = run_python(["-c", WITHOUT_SCIPY, *line.split()], tmp_path)
        assert proc.returncode == 0, (line, proc.stderr)


def test_help_loads_no_scipy_module(tmp_path):
    proc = run_python(["-X", "importtime", "-m", "tamedlmc", "--help"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    modules = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
               if line.startswith("import time:")]
    assert "tamedlmc.cli" in modules
    assert not [m for m in modules if m.split(".")[0] == "scipy"]


def test_import_loads_no_numpy_random(tmp_path):
    # importing numpy.random costs about 15 ms, which commands that draw
    # nothing (histogram, constants) should not pay
    proc = run_python(["-c", "import sys, tamedlmc.cli; print(sorted(sys.modules))"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "tamedlmc.cli" in proc.stdout
    assert "'numpy.random'" not in proc.stdout


def test_import_loads_no_process_pool(tmp_path):
    # concurrent.futures.process and multiprocessing.connection cost about
    # 30 ms of import; only a run with more than one worker needs them
    proc = run_python(["-c", "import sys, tamedlmc.cli; print(sorted(sys.modules))"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "tamedlmc.cli" in proc.stdout
    loaded = [m for m in proc.stdout.strip("[]\n").replace("'", "").split(", ")
              if m.split(".")[0] in ("concurrent", "multiprocessing")]
    assert loaded == []


def test_import_loads_no_constants_pipeline(tmp_path):
    # mpmath alone costs about 30 ms of import, which sample, histogram
    # and rate never use
    proc = run_python(["-c", "import sys, tamedlmc.cli; print(sorted(sys.modules))"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "'tamedlmc.cli'" in proc.stdout
    assert [m for m in UNUSED_AT_START if repr(m) in proc.stdout] == []

    proc = run_python(["-X", "importtime", "-m", "tamedlmc", "--help"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    modules = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
               if line.startswith("import time:")]
    assert "tamedlmc.cli" in modules
    assert [m for m in UNUSED_AT_START if m in modules] == []


def test_commands_that_derive_no_constant_run_without_mpmath(tmp_path):
    # sample's step-size warning and rate's default reference step read
    # lambda_max = 1/2048 of the double-well from the target, not mpmath
    lines = {
        "dw.csv": "sample --target double-well --dim 10 --chains 50 --lambda 0.01 --horizon 1",
        "dwh.csv": "histogram --in dw.csv",
        "g.csv": "rate --target gaussian --dim 1 --metric gaussian-exact --analytic --grid 0.2,0.1",
        "r.csv": "rate --target double-well --dim 2 --chains 20 --horizon 1 --grid 0.1,0.05 "
                 "--ref-fine-step 0.01 --ref-horizon 1",
        "rd.csv": "rate --target double-well --dim 2 --chains 20 --horizon 1 --grid 0.1,0.05 "
                  "--ref-horizon 0.01",
    }
    for out, line in lines.items():
        proc = run_python(["-c", WITHOUT_MPMATH, *line.split(), "--out", out], tmp_path)
        assert proc.returncode == 0, (line, proc.stderr)
        manifest = json.loads((tmp_path / f"{out}.manifest.json").read_text())
        assert manifest["version"].startswith(tamedlmc.__version__), manifest["version"]
        if out == "dw.csv":
            assert "exceeds the theoretical maximum step size 0.000488281" in proc.stderr
        if out == "rd.csv":
            assert manifest["resolved_config"]["ref_fine_step"] == 1 / 20480


def test_constants_names_resolve_on_first_use(tmp_path):
    script = ("import sys, tamedlmc; loaded = 'mpmath' in sys.modules; "
              "from tamedlmc import derive_constants, certified_moduli; "
              "from tamedlmc import constants; "
              "print(loaded, derive_constants is constants.derive_constants, "
              "certified_moduli is constants.certified_moduli)")
    proc = run_python(["-c", script], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True", "True"]
