"""The package runs on numpy, mpmath and the standard library alone: scipy
is a test and benchmark oracle, never imported by ``tamedlmc``."""

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
