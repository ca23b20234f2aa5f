"""numpy loads on first array use: importing the package, classifying a
coin, the closed forms of `exact`, `xi` and of `simulate` on their coins
with the total and moments of a closed-form distribution, the
eigensystem of `spectrum`, the limit density of `limit`, the Kolmogorov
distance of `compare` and the weighted moments of the limit law run on
Python floats alone, and never import it; `simulate` and `xi` on a
general coin do, and so does `xi` wherever it takes the propagator.  No
job imports `dataclasses`, whose import pulls in `inspect`, `argparse`
and its `gettext`, or `fractions` and `decimal`.  The layers load on first use, so each job executes only
the layers it calls."""

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
SUPERPOSITION = os.path.join(COIN_DIR, "superposition.json")  # general: the walk
QUAT_INIT = "'--alpha', '[0.5, 0.5, 0, 0]', '--beta', '[0, 0, 0.5, 0.5]'"


def _modules_after(code: str, modules) -> set:
    """Run ``code`` in a fresh interpreter; the ``modules`` it imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    script = (code + "\nimport json, sys\n"
              f"print(json.dumps([m for m in {list(modules)!r} if m in sys.modules]))\n")
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    return set(json.loads(out.splitlines()[-1]))


def _loaded_after(code: str, module: str = "numpy") -> bool:
    """Run ``code`` in a fresh interpreter; report whether ``module`` was
    imported."""
    return bool(_modules_after(code, [module]))


@pytest.mark.parametrize("module", ("qqwalk", "qqwalk.cli"))
def test_import_leaves_numpy_unloaded(module):
    assert not _loaded_after(f"import {module}")


@pytest.mark.parametrize("module", ("dataclasses", "inspect", "argparse", "gettext"))
def test_import_leaves_dataclasses_unloaded(module):
    assert not _loaded_after("import qqwalk.cli", module)


JOBS = {
    "classify": [],
    "simulate": ["--alpha", "[1, 0, 0, 0]", "--beta", "[0, 0, 0, 0]", "--steps", "4",
                 "--out", "<out>"],
    "exact": ["--alpha", "[1, 0, 0, 0]", "--beta", "[0, 0, 0, 0]", "--steps", "4",
              "--out", "<out>"],
    "xi": ["--l", "2", "--m", "3"],
    "spectrum": ["--theta", "0.4"],
    "limit": ["--alpha", "[1, 0, 0, 0]", "--beta", "[0, 0, 0, 0]", "--grid", "11",
              "--out", "<out>"],
    "compare": ["--alpha", "[1, 0, 0, 0]", "--beta", "[0, 0, 0, 0]", "--steps", "100"],
}


@pytest.mark.parametrize("command", JOBS)
def test_jobs_leave_argparse_and_dataclasses_unloaded(command, tmp_path):
    # tracefree_ij has every closed form, limit law and a simple spectrum
    argv = [command, "--coin", os.path.join(COIN_DIR, "tracefree_ij.json"),
            *(str(tmp_path / "out.csv") if a == "<out>" else a for a in JOBS[command])]
    assert not _modules_after(_cli(argv), ("argparse", "gettext", "dataclasses",
                                          "fractions", "decimal"))


def test_classify_leaves_numpy_unloaded():
    assert COINS
    code = ("from qqwalk.cli import main\n"
            + "".join(f"assert main(['classify', '--coin', {f!r}]) == 0\n"
                      for f in COINS))
    assert not _loaded_after(code)


def test_simulate_loads_numpy(tmp_path):
    out = str(tmp_path / "sim.csv")
    code = ("from qqwalk.cli import main\n"
            f"assert main(['simulate', '--coin', {SUPERPOSITION!r},"
            " '--alpha', '[1, 0, 0, 0]', '--beta', '[0, 0, 0, 0]',"
            f" '--steps', '4', '--out', {out!r}]) == 0\n")
    assert _loaded_after(code)


def _closed_form_coin(kind: str, tmp_path) -> str:
    """hadamard.json (case3), tracefree_ij.json (case4),
    tracefree_mixed.json (case5), or a generic complex coin written to
    tmp_path."""
    if kind == "complex":
        path = tmp_path / "complex.json"
        path.write_text(coin_to_json(random_coin(np.random.default_rng(5), "complex")),
                        encoding="utf-8")
        assert load_coin(path).is_complex()
        return str(path)
    path = os.path.join(COIN_DIR, {"case3": "hadamard.json",
                                   "case4": "tracefree_ij.json",
                                   "case5": "tracefree_mixed.json"}[kind])
    assert classify(load_coin(path)) == kind
    return path


@pytest.mark.parametrize("kind", ("case3", "case4", "complex", "case5"))
def test_closed_forms_leave_numpy_unloaded(kind, tmp_path):
    coin = _closed_form_coin(kind, tmp_path)
    out = str(tmp_path / "exact.csv")
    code = ("from qqwalk.cli import main\n"
            f"assert main(['exact', '--coin', {coin!r}, {QUAT_INIT},"
            f" '--steps', '40', '--out', {out!r}]) == 0\n"
            f"assert main(['xi', '--coin', {coin!r}, '--l', '12', '--m', '17']) == 0\n"
            f"assert main(['simulate', '--coin', {coin!r}, {QUAT_INIT},"
            f" '--steps', '40', '--out', {out!r}]) == 0\n")
    assert not _loaded_after(code)


def test_closed_form_total_leaves_numpy_unloaded():
    # `Distribution.total` sums a closed form's list without numpy
    code = ("import math\n"
            "from qqwalk import Quaternion, closed_form_distribution, load_coin\n"
            f"coin = load_coin({os.path.join(COIN_DIR, 'hadamard.json')!r})\n"
            "dist = closed_form_distribution(coin, Quaternion(1), Quaternion(), 40)\n"
            "assert dist.total() == math.fsum(dist.probs)\n"
            "assert abs(dist.total() - 1.0) <= 1e-12\n")
    assert not _loaded_after(code)


def test_closed_form_moment_leaves_numpy_unloaded():
    # `walk.moment` sums a closed form's list without numpy
    code = ("from qqwalk import Quaternion, closed_form_distribution, load_coin, moment\n"
            f"coin = load_coin({os.path.join(COIN_DIR, 'hadamard.json')!r})\n"
            "dist = closed_form_distribution(coin, Quaternion(1), Quaternion(), 40)\n"
            "assert abs(moment(dist, 0) - 1.0) <= 1e-12\n"
            "assert moment(dist, 2) > 0.0\n")
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
    # a general coin has no closed-form path sum: `xi` takes xi_bruteforce
    assert _loaded_after(_cli(["xi", "--coin", SUPERPOSITION, "--l", "3", "--m", "4"]))


def test_xi_edges_leave_numpy_unloaded():
    # the edges l = 0 and m = 0 of a kernel-family coin take the closed form
    hadamard = os.path.join(COIN_DIR, "hadamard.json")
    assert not _loaded_after("".join(
        _cli(["xi", "--coin", hadamard, "--l", str(l), "--m", str(m)])
        for l, m in ((0, 0), (1, 0), (0, 1), (0, 500), (500, 0))))


def test_xi_above_the_cap_leaves_numpy_unloaded():
    # the size refusal comes before any array of the propagator
    assert not _loaded_after(_cli(["xi", "--coin", SUPERPOSITION,
                                   "--l", "1", "--m", "1000000"], 1))


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


@pytest.mark.parametrize("name", ("tracefree_ij", "tracefree_mixed", "hadamard"))
def test_compare_leaves_numpy_unloaded(name):
    # case4, case5 and case3: every route of the closed-form distribution
    argv = ["compare", "--coin", os.path.join(COIN_DIR, f"{name}.json"),
            "--alpha", "[1, 0, 0, 0]", "--beta", "[0, 0, 0, 0]", "--steps", "100"]
    assert not _loaded_after(f"from qqwalk.cli import main\nassert main({argv!r}) == 0\n")


def test_limit_moments_leave_numpy_unloaded():
    # the weighted moments of the limit law are closed forms in math
    code = ("from qqwalk import load_coin\n"
            "from qqwalk.spectral import integrate_weighted_density, qqw_limit_params\n"
            + "".join(f"params = qqw_limit_params(load_coin({f!r}))\n"
                      "[integrate_weighted_density(params, 0.3, k) for k in range(5)]\n"
                      for f in COINS if f != SUPERPOSITION))
    assert not _loaded_after(code)


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


def test_limit_executes_no_walk_or_exact(tmp_path):
    # a trace-free (case4) and a closed-family (case3) coin
    code = "".join(_cli(["limit", "--coin", os.path.join(COIN_DIR, f"{name}.json"),
                         *_init(["--grid", "11", "--out", str(tmp_path / "density.csv")])])
                   for name in ("tracefree_ij", "hadamard"))
    assert _executed_layers(code) == {"coin", "quaternion", "_numpy", "spectral"}


def test_spectrum_executes_no_walk_or_exact():
    code = _cli(["spectrum", "--coin", os.path.join(COIN_DIR, "tracefree_ij.json"),
                 "--theta", "0.4"])
    assert _executed_layers(code) == {"coin", "quaternion", "_numpy", "spectral"}


@pytest.mark.parametrize("kind", ("case3", "case4", "complex", "case5"))
def test_closed_forms_execute_no_spectral(kind, tmp_path):
    coin = _closed_form_coin(kind, tmp_path)
    code = (_cli(["exact", "--coin", coin, *_init(["--steps", "40", "--out",
                                                   str(tmp_path / "exact.csv")])])
            + _cli(["xi", "--coin", coin, "--l", "12", "--m", "17"])
            + _cli(["simulate", "--coin", coin, *_init(["--steps", "40", "--out",
                                                        str(tmp_path / "sim.csv")])]))
    assert "spectral" not in _executed_layers(code)


def test_simulate_executes_no_exact_or_spectral(tmp_path):
    code = _cli(["simulate", "--coin", SUPERPOSITION,
                 *_init(["--steps", "4", "--out", str(tmp_path / "sim.csv")])])
    assert _executed_layers(code) == {"coin", "quaternion", "_numpy", "walk"}
