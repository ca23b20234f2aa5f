"""numpy loads on first array use: importing the package, classifying a
coin, the closed forms of `exact` and `xi`, the eigensystem of `spectrum`
and the limit density of `limit` run on Python floats alone, and never
import it.  No job imports `dataclasses`, whose import pulls in
`inspect`.  The layers load on first use, so each job executes only the
layers it calls."""

import glob
import json
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


def _loaded_after(code: str, module: str = "numpy") -> bool:
    """Run ``code`` in a fresh interpreter; report whether ``module`` was
    imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    script = code + f"\nimport sys\nprint({module!r} in sys.modules)\n"
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    return out.splitlines()[-1] == "True"


@pytest.mark.parametrize("module", ("qqwalk", "qqwalk.cli"))
def test_import_leaves_numpy_unloaded(module):
    assert not _loaded_after(f"import {module}")


@pytest.mark.parametrize("module", ("dataclasses", "inspect"))
def test_import_leaves_dataclasses_unloaded(module):
    assert not _loaded_after("import qqwalk.cli", module)


def test_classify_leaves_numpy_unloaded():
    assert COINS
    code = ("from qqwalk.cli import main\n"
            + "".join(f"assert main(['classify', '--coin', {f!r}]) == 0\n"
                      for f in COINS))
    assert not _loaded_after(code)


def test_simulate_loads_numpy(tmp_path):
    out = str(tmp_path / "sim.csv")
    code = ("from qqwalk.cli import main\n"
            f"assert main(['simulate', '--coin', {COINS[0]!r},"
            " '--alpha', '[1, 0, 0, 0]', '--beta', '[0, 0, 0, 0]',"
            f" '--steps', '4', '--out', {out!r}]) == 0\n")
    assert _loaded_after(code)


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
    assert not _loaded_after(code)


def test_exact_out_of_scope_leaves_numpy_unloaded(tmp_path):
    # superposition.json has no closed form: the refusal comes before any array
    coin = os.path.join(COIN_DIR, "superposition.json")
    out = str(tmp_path / "exact.csv")
    code = ("from qqwalk.cli import main\n"
            f"assert main(['exact', '--coin', {coin!r}, {QUAT_INIT},"
            f" '--steps', '40', '--out', {out!r}]) == 2\n")
    assert not _loaded_after(code)


def test_xi_brute_loads_numpy():
    code = ("from qqwalk.cli import main\n"
            f"assert main(['xi', '--coin', {COINS[0]!r}, '--l', '3', '--m', '4',"
            " '--brute']) == 0\n")
    assert _loaded_after(code)


@pytest.mark.parametrize("name", ("tracefree_ij", "tracefree_jk", "tracefree_mixed"))
def test_limit_leaves_numpy_unloaded(name, tmp_path):
    coin = os.path.join(COIN_DIR, f"{name}.json")
    out = str(tmp_path / "density.csv")
    code = ("from qqwalk.cli import main\n"
            f"assert main(['limit', '--coin', {coin!r}, {QUAT_INIT},"
            f" '--grid', '1001', '--out', {out!r}]) == 0\n")
    assert not _loaded_after(code)


@pytest.mark.parametrize("name, exit_code", (
    ("tracefree_ij", 0), ("tracefree_jk", 0), ("tracefree_mixed", 0),
    ("hadamard", 3),  # degenerate at every theta
))
def test_spectrum_leaves_numpy_unloaded(name, exit_code):
    argv = ["spectrum", "--coin", os.path.join(COIN_DIR, f"{name}.json"), "--theta", "0.4"]
    code = f"from qqwalk.cli import main\nassert main({argv!r}) == {exit_code}\n"
    assert not _loaded_after(code)


def test_compare_loads_numpy():
    argv = ["compare", "--coin", os.path.join(COIN_DIR, "tracefree_ij.json"),
            "--alpha", "[1, 0, 0, 0]", "--beta", "[0, 0, 0, 0]", "--steps", "100"]
    assert _loaded_after(f"from qqwalk.cli import main\nassert main({argv!r}) == 0\n")


LAYERS = {"quaternion", "coin", "walk", "exact", "spectral", "_numpy"}
PACKAGE_DIR = os.path.dirname(qqwalk.__file__)


def _executed_layers(code: str) -> set:
    """Run ``code`` in a fresh interpreter; the layers whose module body it
    executed.  The audit event ``exec`` fires for every module body, from
    source or from a bytecode cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    script = ("import json, sys\n"
              "_bodies = []\n"
              "sys.addaudithook(lambda event, args: event == 'exec'"
              " and _bodies.append(args[0].co_filename))\n"
              + code
              + "print(json.dumps(_bodies))\n")
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    files = json.loads(out.splitlines()[-1])
    return {os.path.splitext(os.path.basename(f))[0] for f in files
            if os.path.dirname(f) == PACKAGE_DIR} & LAYERS


def _cli(argv: list, exit_code: int = 0) -> str:
    return f"from qqwalk.cli import main\nassert main({argv!r}) == {exit_code}\n"


def _init(extra: list) -> list:
    return ["--alpha", "[0.5, 0.5, 0, 0]", "--beta", "[0, 0, 0.5, 0.5]", *extra]


def test_import_and_usage_errors_execute_no_layer():
    coin = COINS[0]
    code = ("import qqwalk.cli\n"
            + _cli(["bogus"], 1)
            + _cli(["simulate", "--coin", coin], 1)
            + _cli(["spectrum", "--coin", coin, "--theta", "x"], 1))
    assert _executed_layers(code) == set()


def test_classify_executes_coin_and_quaternion_only():
    code = "".join(_cli(["classify", "--coin", f]) for f in COINS)
    assert _executed_layers(code) == {"coin", "quaternion", "_numpy"}


def test_spectrum_executes_no_walk_or_exact():
    code = _cli(["spectrum", "--coin", os.path.join(COIN_DIR, "tracefree_ij.json"),
                 "--theta", "0.4"])
    assert _executed_layers(code) == {"coin", "quaternion", "_numpy", "spectral"}


@pytest.mark.parametrize("kind", ("case3", "case4", "complex"))
def test_closed_forms_execute_no_spectral(kind, tmp_path):
    coin = _closed_form_coin(kind, tmp_path)
    code = (_cli(["exact", "--coin", coin, *_init(["--steps", "40", "--out",
                                                   str(tmp_path / "exact.csv")])])
            + _cli(["xi", "--coin", coin, "--l", "12", "--m", "17"]))
    assert "spectral" not in _executed_layers(code)


def test_simulate_executes_no_exact_or_spectral(tmp_path):
    code = _cli(["simulate", "--coin", COINS[0],
                 *_init(["--steps", "4", "--out", str(tmp_path / "sim.csv")])])
    assert _executed_layers(code) == {"coin", "quaternion", "_numpy", "walk"}
