"""numpy loads on first array use: importing the package and classifying a
coin run on Python floats alone, and never import it."""

import glob
import os
import subprocess
import sys

import pytest

import qqwalk

SRC = os.path.dirname(os.path.dirname(qqwalk.__file__))
COINS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir,
                                      "coins", "*.json")))


def _numpy_loaded_after(code: str) -> bool:
    """Run ``code`` in a fresh interpreter; report whether numpy was imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    script = code + "\nimport sys\nprint('numpy' in sys.modules)\n"
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    return out.splitlines()[-1] == "True"


@pytest.mark.parametrize("module", ("qqwalk", "qqwalk.cli"))
def test_import_leaves_numpy_unloaded(module):
    assert not _numpy_loaded_after(f"import {module}")


def test_classify_leaves_numpy_unloaded():
    assert COINS
    code = ("from qqwalk.cli import main\n"
            + "".join(f"assert main(['classify', '--coin', {f!r}]) == 0\n"
                      for f in COINS))
    assert not _numpy_loaded_after(code)


def test_simulate_loads_numpy(tmp_path):
    out = str(tmp_path / "sim.csv")
    code = ("from qqwalk.cli import main\n"
            f"assert main(['simulate', '--coin', {COINS[0]!r},"
            " '--alpha', '[1, 0, 0, 0]', '--beta', '[0, 0, 0, 0]',"
            f" '--steps', '4', '--out', {out!r}]) == 0\n")
    assert _numpy_loaded_after(code)
