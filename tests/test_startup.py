"""numpy loads on first array use: importing the package, classifying a
coin and the closed forms of `exact` and `xi` run on Python floats alone,
and never import it."""

import glob
import os
import subprocess
import sys

import numpy as np
import pytest

import qqwalk
from qqwalk.coin import classify, coin_to_json, load_coin, random_coin

SRC = os.path.dirname(os.path.dirname(qqwalk.__file__))
COIN_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "coins")
COINS = sorted(glob.glob(os.path.join(COIN_DIR, "*.json")))
QUAT_INIT = "'--alpha', '[0.5, 0.5, 0, 0]', '--beta', '[0, 0, 0.5, 0.5]'"


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


def _closed_form_coin(kind: str, tmp_path) -> str:
    """hadamard.json (case3), tracefree_ij.json (case4), or a generic
    complex coin written to tmp_path."""
    if kind == "complex":
        path = tmp_path / "complex.json"
        path.write_text(coin_to_json(random_coin(np.random.default_rng(5), "complex")),
                        encoding="utf-8")
        assert load_coin(path).is_complex()
        return str(path)
    path = os.path.join(COIN_DIR, {"case3": "hadamard.json",
                                   "case4": "tracefree_ij.json"}[kind])
    assert classify(load_coin(path)) == kind
    return path


@pytest.mark.parametrize("kind", ("case3", "case4", "complex"))
def test_closed_forms_leave_numpy_unloaded(kind, tmp_path):
    coin = _closed_form_coin(kind, tmp_path)
    out = str(tmp_path / "exact.csv")
    code = ("from qqwalk.cli import main\n"
            f"assert main(['exact', '--coin', {coin!r}, {QUAT_INIT},"
            f" '--steps', '40', '--out', {out!r}]) == 0\n"
            f"assert main(['xi', '--coin', {coin!r}, '--l', '12', '--m', '17']) == 0\n")
    assert not _numpy_loaded_after(code)


def test_exact_out_of_scope_leaves_numpy_unloaded(tmp_path):
    # superposition.json has no closed form: the refusal comes before any array
    coin = os.path.join(COIN_DIR, "superposition.json")
    out = str(tmp_path / "exact.csv")
    code = ("from qqwalk.cli import main\n"
            f"assert main(['exact', '--coin', {coin!r}, {QUAT_INIT},"
            f" '--steps', '40', '--out', {out!r}]) == 2\n")
    assert not _numpy_loaded_after(code)


def test_xi_brute_loads_numpy():
    code = ("from qqwalk.cli import main\n"
            f"assert main(['xi', '--coin', {COINS[0]!r}, '--l', '3', '--m', '4',"
            " '--brute']) == 0\n")
    assert _numpy_loaded_after(code)
