import json
import math
import os
import re
import sys
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest

import qqwalk.cli as cli
from qqwalk import NormDriftError, Quaternion
from qqwalk.cli import main
from qqwalk.coin import coin_to_json, hadamard_coin, load_coin, random_coin, validate_coin
from qqwalk.spectral import qqw_limit_params, weight_constant

from helpers import numpy_limit_csv, ratio4_coin

S = math.sqrt(0.5)
I = Quaternion.i()
J = Quaternion.j()

ALPHA = "[1, 0, 0, 0]"
BETA = "[0, 0, 0, 0]"
TOO_BIG = str(cli.MAX_SIZE + 1)
OUT = "<out>"
COIN_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "coins")
TRACEFREE_IJ = os.path.join(COIN_DIR, "tracefree_ij.json")
TRACEFREE = [os.path.join(COIN_DIR, f"tracefree_{name}.json")
             for name in ("ij", "jk", "mixed")]
QUAT_INIT = ["--alpha", "[0.5, 0.5, 0, 0]", "--beta", "[0, 0, 0.5, 0.5]"]


@pytest.fixture
def hadamard_file(tmp_path):
    path = tmp_path / "hadamard.json"
    path.write_text(coin_to_json(hadamard_coin()), encoding="utf-8")
    return str(path)


@pytest.fixture
def ij_file(tmp_path):
    coin = validate_coin(S * I, S * J, S * J, S * I)
    path = tmp_path / "ij.json"
    path.write_text(coin_to_json(coin), encoding="utf-8")
    return str(path)


def test_classify_output(hadamard_file, capsys):
    assert main(["classify", "--coin", hadamard_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["class"] == "case3"
    assert set(payload["residuals"]) == {
        "row1-norm", "row2-norm", "row-orthogonality",
        "column-orthogonality", "modulus-pairing"}
    assert max(payload["residuals"].values()) <= 1e-12


def test_simulate_csv_format_and_determinism(hadamard_file, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        code = main(["simulate", "--coin", hadamard_file, "--alpha", ALPHA,
                     "--beta", BETA, "--steps", "6", "--out", str(out)])
        assert code == 0
    b1 = out1.read_bytes()
    assert b1 == out2.read_bytes()
    lines = b1.decode().splitlines()
    assert lines[0] == "x,probability"
    assert len(lines) == 1 + 7  # parity support of 6 steps
    xs = [int(row.split(",")[0]) for row in lines[1:]]
    assert xs == list(range(-6, 7, 2))
    total = sum(float(row.split(",")[1]) for row in lines[1:])
    assert total == pytest.approx(1.0, abs=1e-10)
    assert b"\r" not in b1


def test_exact_matches_simulate(hadamard_file, tmp_path):
    sim = tmp_path / "sim.csv"
    exa = tmp_path / "exact.csv"
    args = ["--coin", hadamard_file, "--alpha", ALPHA, "--beta", BETA,
            "--steps", "25"]
    assert main(["simulate", *args, "--out", str(sim)]) == 0
    assert main(["exact", *args, "--out", str(exa)]) == 0
    rows_s = sim.read_text().splitlines()[1:]
    rows_e = exa.read_text().splitlines()[1:]
    assert len(rows_s) == len(rows_e)
    for rs, re_ in zip(rows_s, rows_e):
        xs, ps = rs.split(",")
        xe, pe = re_.split(",")
        assert xs == xe
        assert abs(float(ps) - float(pe)) <= 1e-10


def test_xi_closed_and_brute(hadamard_file, tmp_path, capsys):
    assert main(["xi", "--coin", hadamard_file, "--l", "1", "--m", "3"]) == 0
    closed = json.loads(capsys.readouterr().out)
    assert main(["xi", "--coin", hadamard_file, "--l", "1", "--m", "3",
                 "--brute"]) == 0
    brute = json.loads(capsys.readouterr().out)
    assert brute["paths"] == 4
    assert closed["position"] == brute["position"] == 2
    for r in range(2):
        for c in range(2):
            got = np.array(closed["matrix"][r][c])
            want = np.array(brute["matrix"][r][c])
            assert np.max(np.abs(got - want)) <= 1e-10
    # --brute sums paths at any size: C(80, 40) is about 1e23 of them
    args = ["xi", "--coin", hadamard_file, "--l", "40", "--m", "40"]
    assert main(args) == 0
    closed = json.loads(capsys.readouterr().out)
    assert main([*args, "--brute"]) == 0
    brute = json.loads(capsys.readouterr().out)
    assert brute["paths"] == math.comb(80, 40)
    assert np.max(np.abs(np.array(closed["matrix"])
                         - np.array(brute["matrix"]))) <= 1e-12
    # and for any coin, where the closed forms stop at their domain
    path = tmp_path / "case5.json"
    path.write_text(coin_to_json(random_coin(np.random.default_rng(91), "case5")),
                    encoding="utf-8")
    args = ["xi", "--coin", str(path), "--l", "3", "--m", "4"]
    assert main(args) == 2
    assert main([*args, "--brute"]) == 0
    assert json.loads(capsys.readouterr().out)["paths"] == 35


@pytest.mark.parametrize("kind", ("case4", "complex"))
def test_xi_closed_and_brute_case4_and_complex(kind, tmp_path, capsys):
    # these closed forms divide and raise unit phases to powers in Python
    # complex arithmetic, which rounds unlike numpy's; l = m = 150 takes
    # the power past 100, where Python switches to the polar form
    path = TRACEFREE_IJ
    if kind == "complex":
        path = str(tmp_path / "complex.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(coin_to_json(random_coin(np.random.default_rng(92), "complex")))
    for l, m in ((1, 3), (12, 17), (150, 150)):
        args = ["xi", "--coin", path, "--l", str(l), "--m", str(m)]
        assert main(args) == 0
        closed = json.loads(capsys.readouterr().out)
        assert main([*args, "--brute"]) == 0
        brute = json.loads(capsys.readouterr().out)
        assert closed["position"] == brute["position"] == m - l
        assert np.max(np.abs(np.array(closed["matrix"])
                             - np.array(brute["matrix"]))) <= 1e-12, (l, m)


def test_xi_brute_prints_long_path_counts(hadamard_file, capsys):
    # C(16000, 8000) has 4815 digits, more than Python prints by default
    limit = sys.get_int_max_str_digits()
    assert main(["xi", "--coin", hadamard_file, "--l", "8000", "--m", "8000",
                 "--brute"]) == 0
    assert sys.get_int_max_str_digits() == limit
    digits = re.search(r'"paths": (\d+)', capsys.readouterr().out).group(1)
    assert Decimal(digits) == Decimal(math.comb(16000, 8000))


@pytest.mark.parametrize("args", [
    ["classify"],
    ["simulate", *QUAT_INIT, "--steps", "120", "--out", OUT],
    ["exact", *QUAT_INIT, "--steps", "120", "--out", OUT],
    ["xi", "--l", "3", "--m", "4"],
    ["xi", "--l", "3", "--m", "4", "--brute"],
    ["spectrum", "--theta", "0.4"],
    ["limit", *QUAT_INIT, "--grid", "101", "--out", OUT],
    ["compare", *QUAT_INIT, "--steps", "120"],
], ids=["classify", "simulate", "exact", "xi", "xi-brute", "spectrum", "limit",
        "compare"])
def test_rerun_is_byte_identical(tmp_path, capsys, args):
    # the second run in the same process meets warm caches
    runs = []
    for k in range(2):
        out = tmp_path / f"{k}.csv"
        argv = [args[0], "--coin", TRACEFREE_IJ, *(str(out) if a == OUT else a
                                                   for a in args[1:])]
        assert main(argv) == 0
        runs.append((capsys.readouterr().out,
                     out.read_bytes() if OUT in args else None))
    assert runs[0] == runs[1]
    assert runs[0][0] or runs[0][1]


def test_spectrum_json(ij_file, capsys):
    assert main(["spectrum", "--coin", ij_file, "--theta", "0.4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["eigenvalues"]) == 4
    for (re_, im), res in zip(payload["eigenvalues"], payload["residuals"]):
        assert abs(complex(re_, im)) == pytest.approx(1.0, abs=1e-10)
        assert res <= 1e-9
    assert payload["angles"] == sorted(payload["angles"])


def test_limit_csv(ij_file, tmp_path):
    out = tmp_path / "density.csv"
    assert main(["limit", "--coin", ij_file, "--alpha", ALPHA, "--beta", BETA,
                 "--grid", "101", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "y,density"
    assert len(lines) == 102
    ys = np.array([float(r.split(",")[0]) for r in lines[1:]])
    dens = np.array([float(r.split(",")[1]) for r in lines[1:]])
    assert ys[0] == -1.0 and ys[-1] == 1.0
    r = math.sqrt(0.5)
    assert np.all(dens[np.abs(ys) > r] == 0.0)
    assert np.all(dens[np.abs(ys) < r - 0.05] > 0.0)


@pytest.mark.parametrize("grid", (3, 4, 7, 1001, 20001))
def test_limit_bytes_match_numpy_route(grid, tmp_path):
    out = tmp_path / "density.csv"
    for path in TRACEFREE:
        coin = load_coin(path)
        params = qqw_limit_params(coin)
        for init in (["--alpha", ALPHA, "--beta", BETA], QUAT_INIT):
            assert main(["limit", "--coin", path, *init, "--grid", str(grid),
                         "--out", str(out)]) == 0
            c = weight_constant(coin, Quaternion.from_json(json.loads(init[1])),
                                Quaternion.from_json(json.loads(init[3])))
            assert out.read_bytes() == numpy_limit_csv(params, c, grid)


def test_limit_memory_does_not_grow_with_rows(tmp_path):
    # a list of every CSV row costs about 170 bytes a grid point; only the
    # densities, at most 32 bytes a point, are held
    grid = 100001
    args = ["limit", "--coin", TRACEFREE[2], "--alpha", ALPHA, "--beta", BETA,
            "--grid", str(grid), "--out", str(tmp_path / "density.csv")]
    tracemalloc.start()
    try:
        assert main(args) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * grid


def test_compare_json(ij_file, capsys):
    assert main(["compare", "--coin", ij_file, "--alpha", ALPHA, "--beta", BETA,
                 "--steps", "200"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"kolmogorov", "r", "G", "weightC"}
    assert payload["r"] == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert payload["weightC"] == pytest.approx(1.0)
    assert 0.0 < payload["kolmogorov"] < 0.2


# the limit law holds for the trace-free coins (case5, and trace-free
# case4) and for the case3, case4 and complex coins that walk like a
# complex walk; every other coin is a domain error
LAW_COINS = {"case1": 2, "case2": 2, "case3": 0, "case4": 0, "case5": 0,
             "general": 2, "complex": 0, "hadamard.json": 0, "superposition.json": 2}


@pytest.mark.parametrize("command", ("limit", "compare"))
@pytest.mark.parametrize("kind", sorted(LAW_COINS))
def test_limit_and_compare_by_coin_class(kind, command, tmp_path, capsys):
    if kind.endswith(".json"):
        path = os.path.join(COIN_DIR, kind)
    else:
        path = tmp_path / f"{kind}.json"
        coin = random_coin(np.random.default_rng(95), kind)
        path.write_text(coin_to_json(coin), encoding="utf-8")
    args = [command, "--coin", str(path), *QUAT_INIT]
    if command == "limit":
        args += ["--grid", "11", "--out", str(tmp_path / "density.csv")]
    else:
        args += ["--steps", "100"]
    assert main(args) == LAW_COINS[kind]
    captured = capsys.readouterr()
    if LAW_COINS[kind]:
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    else:
        assert captured.err == ""


# a coin with a zero entry has neither a closed-form path sum nor a limit
# law; both layers refuse it through one check, each naming itself
ZERO_ENTRY_COINS = {
    "diagonal": (Quaternion(1.0), Quaternion(), Quaternion(), Quaternion(1.0)),
    "trace-free diagonal": (I, Quaternion(), Quaternion(), J),
}


@pytest.mark.parametrize("coin", sorted(ZERO_ENTRY_COINS))
@pytest.mark.parametrize("command, err", (
    (["xi", "--l", "2", "--m", "3"],
     "error: closed form requires a, b, c, d all nonzero\n"),
    (["limit", *QUAT_INIT, "--grid", "5", "--out", OUT],
     "error: limit law requires a, b, c, d all nonzero\n"),
    (["compare", *QUAT_INIT, "--steps", "100"],
     "error: limit law requires a, b, c, d all nonzero\n"),
), ids=("xi", "limit", "compare"))
def test_zero_entry_messages(coin, command, err, tmp_path, capsys):
    path = tmp_path / "coin.json"
    path.write_text(coin_to_json(validate_coin(*ZERO_ENTRY_COINS[coin])), encoding="utf-8")
    out = tmp_path / "density.csv"
    argv = [command[0], "--coin", str(path),
            *(str(out) if a == OUT else a for a in command[1:])]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", err)
    assert not out.exists()


# ---------------------------------------------------------------------
# error handling / exit codes
# ---------------------------------------------------------------------

def test_usage_errors(hadamard_file, tmp_path, capsys):
    # missing required flag
    assert main(["simulate", "--alpha", ALPHA, "--beta", BETA,
                 "--steps", "4", "--out", str(tmp_path / "x.csv")]) == 1
    # unknown command
    assert main(["frobnicate"]) == 1
    # missing file
    assert main(["classify", "--coin", str(tmp_path / "nope.json")]) == 1
    # negative size
    assert main(["compare", "--coin", hadamard_file, "--alpha", ALPHA,
                 "--beta", BETA, "--steps", "-1"]) == 1
    capsys.readouterr()


def test_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"a": [1, 0, 0', encoding="utf-8")
    assert main(["classify", "--coin", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "malformed JSON" in err


def test_unnormalized_init_names_flag(hadamard_file, tmp_path, capsys):
    code = main(["simulate", "--coin", hadamard_file, "--alpha", "[1,0,0,0]",
                 "--beta", "[1,0,0,0]", "--steps", "4",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "--alpha/--beta" in capsys.readouterr().err


def test_invalid_coin_is_domain_error(tmp_path, capsys):
    bad = tmp_path / "notunitary.json"
    bad.write_text(json.dumps({"a": [1, 0, 0, 0], "b": [1, 0, 0, 0],
                               "c": [0, 0, 0, 0], "d": [0, 0, 0, 0]}),
                   encoding="utf-8")
    assert main(["classify", "--coin", str(bad)]) == 2
    capsys.readouterr()


def test_nan_coin_is_domain_error(tmp_path, capsys):
    bad = tmp_path / "nan.json"
    bad.write_text('{"a": [NaN, 0, 0, 0], "b": [0.6, 0, 0, 0], '
                   '"c": [0.6, 0, 0, 0], "d": [-0.8, 0, 0, 0]}', encoding="utf-8")
    assert main(["classify", "--coin", str(bad)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "not unitary" in out.err


def test_nan_init_is_usage_error(hadamard_file, tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(["simulate", "--coin", hadamard_file, "--alpha", "[NaN,0,0,0]",
                 "--beta", BETA, "--steps", "4", "--out", str(out)])
    assert code == 1
    assert "--alpha/--beta" in capsys.readouterr().err
    assert not out.exists()


def test_coin_path_is_directory(tmp_path, capsys):
    assert main(["classify", "--coin", str(tmp_path)]) == 1
    assert "cannot read coin file" in capsys.readouterr().err


@pytest.mark.parametrize("payload", [
    '{"a": [1, 0, 0], "b": [0, 0, 0, 0], "c": [0, 0, 0, 0], "d": [1, 0, 0, 0]}',
    '{"a": [1, 0, 0, 0], "b": [0, 0, 0, 0], "c": [0, 0, 0, 0]}',
    '{"a": [1, 0, 0, 0], "b": "zero", "c": [0, 0, 0, 0], "d": [1, 0, 0, 0]}',
], ids=["wrong-shape", "missing-key", "string-entry"])
def test_malformed_coin_is_usage_error(tmp_path, capsys, payload):
    bad = tmp_path / "bad.json"
    bad.write_text(payload, encoding="utf-8")
    assert main(["classify", "--coin", str(bad)]) == 1
    assert str(bad) in capsys.readouterr().err


HUGE = "1" + "0" * 400  # a JSON integer beyond the float range


@pytest.mark.parametrize("alpha", ["[true, false, false, false]",
                                   f"[{HUGE}, 0, 0, 0]"],
                         ids=["boolean", "oversized"])
def test_bad_spinor_number_is_usage_error(hadamard_file, tmp_path, capsys, alpha):
    out = tmp_path / "x.csv"
    code = main(["simulate", "--coin", hadamard_file, "--alpha", alpha,
                 "--beta", BETA, "--steps", "4", "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: --alpha: ")
    assert not out.exists()


def test_oversized_coin_number_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "huge.json"
    bad.write_text(f'{{"a": [{HUGE}, 0, 0, 0], "b": [0, 0, 0, 0], '
                   '"c": [0, 0, 0, 0], "d": [1, 0, 0, 0]}', encoding="utf-8")
    assert main(["classify", "--coin", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert str(bad) in captured.err and "float range" in captured.err


@pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
def test_nonfinite_theta_is_usage_error(hadamard_file, capsys, theta):
    assert main(["spectrum", "--coin", hadamard_file, f"--theta={theta}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "--theta" in captured.err


@pytest.mark.parametrize("theta", ["-1e-3", "-1E2", "-.5", "-inf", "-nan"])
def test_negative_theta_is_a_value(capsys, theta):
    # a separate word that is not a plain decimal must still reach --theta;
    # tracefree_ij, since hadamard is degenerate at every theta
    code = main(["spectrum", "--coin", TRACEFREE_IJ, "--theta", theta])
    split = capsys.readouterr()
    if math.isfinite(float(theta)):
        assert code == 0
        assert main(["spectrum", "--coin", TRACEFREE_IJ, f"--theta={theta}"]) == 0
        assert capsys.readouterr().out == split.out
        assert json.loads(split.out)["theta"] == float(theta)
    else:
        assert code == 1
        assert split.out == "" and split.err.count("\n") == 1
        assert "--theta must be finite" in split.err


def test_unwritable_out_is_usage_error(hadamard_file, tmp_path, capsys):
    out = tmp_path / "missing-dir" / "x.csv"
    code = main(["simulate", "--coin", hadamard_file, "--alpha", ALPHA,
                 "--beta", BETA, "--steps", "4", "--out", str(out)])
    assert code == 1
    assert "cannot write" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["simulate", "--alpha", ALPHA, "--beta", BETA, "--steps", TOO_BIG, "--out", OUT],
    ["exact", "--alpha", ALPHA, "--beta", BETA, "--steps", TOO_BIG, "--out", OUT],
    ["compare", "--alpha", ALPHA, "--beta", BETA, "--steps", TOO_BIG],
    ["limit", "--alpha", ALPHA, "--beta", BETA, "--grid", TOO_BIG, "--out", OUT],
    ["xi", "--l", str(cli.MAX_SIZE), "--m", "1"],
    ["xi", "--l", "1", "--m", str(cli.MAX_SIZE), "--brute"],
], ids=["simulate-steps", "exact-steps", "compare-steps", "limit-grid",
        "xi-l-m", "xi-brute-l-m"])
def test_size_above_cap_is_usage_error(hadamard_file, tmp_path, capsys, args):
    # rejected before anything of that size is allocated
    out = tmp_path / "x.csv"
    argv = [args[0], "--coin", hadamard_file, *(str(out) if a == OUT else a
                                                 for a in args[1:])]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "exceeds the limit" in captured.err
    assert not out.exists()


def test_closed_forms_at_large_n(tmp_path, capsys):
    # |b|^2/|a|^2 = 4: the unscaled sums overflow from n of a few hundred on
    path = tmp_path / "ratio4.json"
    path.write_text(coin_to_json(ratio4_coin()), encoding="utf-8")
    out = tmp_path / "exact.csv"
    assert main(["exact", "--coin", str(path), "--alpha", ALPHA, "--beta", BETA,
                 "--steps", "700", "--out", str(out)]) == 0
    probs = np.array([float(row.split(",")[1])
                      for row in out.read_text().splitlines()[1:]])
    assert len(probs) == 701 and np.all(np.isfinite(probs))
    assert probs.sum() == pytest.approx(1.0, abs=1e-10)
    assert main(["xi", "--coin", str(path), "--l", "530", "--m", "530"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert np.all(np.isfinite(np.array(payload["matrix"])))


def test_exact_out_of_scope_is_domain_error(tmp_path, capsys):
    rng = np.random.default_rng(90)
    coin = random_coin(rng, "case5")
    path = tmp_path / "case5.json"
    path.write_text(coin_to_json(coin), encoding="utf-8")
    code = main(["exact", "--coin", str(path), "--alpha", ALPHA, "--beta", BETA,
                 "--steps", "4", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    capsys.readouterr()


def test_degenerate_spectrum_is_numeric_error(ij_file, capsys):
    assert main(["spectrum", "--coin", ij_file, "--theta", "0.0"]) == 3
    capsys.readouterr()


def test_norm_drift_is_numeric_error(hadamard_file, tmp_path, monkeypatch, capsys):
    def drifting(*args, **kwargs):
        raise NormDriftError(1e-6, 100)

    # the CLI calls the walk layer through its module, as `walk.evolve`
    monkeypatch.setattr(cli.walk, "evolve", drifting)
    code = main(["simulate", "--coin", hadamard_file, "--alpha", ALPHA, "--beta", BETA,
                 "--steps", "100", "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert "drifted" in capsys.readouterr().err
