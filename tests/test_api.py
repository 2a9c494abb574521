import importlib
import json
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import becgates

MODULES = sorted(m.name for m in pkgutil.iter_modules(becgates.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"becgates.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_cli_runs_without_scipy(tmp_path):
    # scipy is not a dependency: block it, run an evolve, and check that nothing loaded it
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "params": {"omega_a": 4.0, "omega_b": 0.0, "gamma_a": 0.0, "gamma_b": 0.0,
                   "gamma_ab": 0.0, "g": 1.0, "delta": 4.0, "n_atoms": 10},
        "initial": {"theta": 0.3, "phi": 0.0},
        "t": 1.0,
    }))
    script = (
        "import sys; sys.modules['scipy'] = None\n"
        "from becgates.cli import main\n"
        "assert main(['evolve', '--config', sys.argv[1], '--output', sys.argv[2]]) == 0\n"
        "print([m for m, v in sys.modules.items() if m.split('.')[0] == 'scipy' and v])\n"
    )
    src = str(pathlib.Path(becgates.__file__).parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    argv = [sys.executable, "-c", script, str(config), str(tmp_path / "o.csv")]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
    assert (tmp_path / "o.csv").read_text().startswith("k,re,im\n")
