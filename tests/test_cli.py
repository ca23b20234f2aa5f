import io
import json
import math
import os
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qqwalk.cli as cli
from qqwalk import NormDriftError, Quaternion
from qqwalk.cli import main
from qqwalk.coin import (COIN_CLASSES, ZERO_TOL, classify, closed_family, coin_to_json,
                         hadamard_coin, load_coin, random_coin, split_pq, validate_coin)
from qqwalk.exact import xi_bruteforce, xi_closed
from qqwalk.spectral import qqw_limit_params, weight_constant
from qqwalk.walk import distribution, evolve

from helpers import (enumerate_xi, near_zero_coin, numpy_limit_csv, random_spinor, ratio4_coin,
                     zero_entry_coin)

S = math.sqrt(0.5)
I = Quaternion.i()
J = Quaternion.j()

ALPHA = "[1, 0, 0, 0]"
BETA = "[0, 0, 0, 0]"
TOO_BIG = str(cli.MAX_SIZE + 1)
OUT = "<out>"
COIN_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "coins")
TRACEFREE_IJ = os.path.join(COIN_DIR, "tracefree_ij.json")
SUPERPOSITION = os.path.join(COIN_DIR, "superposition.json")
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


def test_exact_matches_simulate_on_trace_free_coin(tmp_path):
    # tracefree_mixed is case5: the Chebyshev closed form, not the walk
    args = ["--coin", TRACEFREE[2], *QUAT_INIT, "--steps", "301"]
    assert main(["simulate", *args, "--out", str(tmp_path / "sim.csv")]) == 0
    assert main(["exact", *args, "--out", str(tmp_path / "exact.csv")]) == 0
    sim = np.loadtxt(tmp_path / "sim.csv", delimiter=",", skiprows=1)
    exa = np.loadtxt(tmp_path / "exact.csv", delimiter=",", skiprows=1)
    assert np.array_equal(sim[:, 0], exa[:, 0])
    assert np.max(np.abs(sim[:, 1] - exa[:, 1])) <= 1e-12


def test_xi_closed_and_brute(hadamard_file, tmp_path, capsys):
    coin = load_coin(hadamard_file)
    assert main(["xi", "--coin", hadamard_file, "--l", "1", "--m", "3"]) == 0
    closed = json.loads(capsys.readouterr().out)
    brute = xi_bruteforce(coin, 1, 3)
    assert closed["position"] == brute.position == 2
    for r in range(2):
        for c in range(2):
            got = np.array(closed["matrix"][r][c])
            want = np.array(brute.matrix[r][c])
            assert np.max(np.abs(got - want)) <= 1e-10
    # the propagator sums paths at any size: C(80, 40) is about 1e23 of them
    assert main(["xi", "--coin", hadamard_file, "--l", "40", "--m", "40"]) == 0
    closed = json.loads(capsys.readouterr().out)
    assert np.max(np.abs(np.array(closed["matrix"])
                         - np.array(xi_bruteforce(coin, 40, 40).matrix))) <= 1e-12
    # and a coin outside the closed forms takes the propagator itself
    path = tmp_path / "general.json"
    path.write_text(coin_to_json(random_coin(np.random.default_rng(91), "general")),
                    encoding="utf-8")
    assert main(["xi", "--coin", str(path), "--l", "3", "--m", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"l": 3, "m": 4, "position": 1,
                       "matrix": xi_bruteforce(load_coin(path), 3, 4).matrix}


@pytest.mark.parametrize("kind", ("case4", "complex", "case5"))
def test_xi_closed_and_brute_case4_and_complex(kind, tmp_path, capsys):
    # these closed forms divide and raise unit phases to powers in Python
    # complex arithmetic, which rounds unlike numpy's; l = m = 150 takes
    # the power past 100, where Python switches to the polar form
    path = {"case4": TRACEFREE_IJ, "case5": TRACEFREE[-1]}.get(kind)
    if kind == "complex":
        path = str(tmp_path / "complex.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(coin_to_json(random_coin(np.random.default_rng(92), "complex")))
    coin = load_coin(path)
    for l, m in ((1, 3), (12, 17), (150, 150)):
        assert main(["xi", "--coin", path, "--l", str(l), "--m", str(m)]) == 0
        closed = json.loads(capsys.readouterr().out)
        brute = xi_bruteforce(coin, l, m)
        assert closed["position"] == brute.position == m - l
        assert np.max(np.abs(np.array(closed["matrix"])
                             - np.array(brute.matrix))) <= 1e-12, (l, m)


JOBS = [
    ["classify"],
    ["simulate", *QUAT_INIT, "--steps", "120", "--out", OUT],
    ["exact", *QUAT_INIT, "--steps", "120", "--out", OUT],
    ["xi", "--l", "3", "--m", "4"],
    ["xi", "--coin", SUPERPOSITION, "--l", "3", "--m", "4"],  # by xi_bruteforce
    ["spectrum", "--theta", "0.4"],
    ["limit", *QUAT_INIT, "--grid", "101", "--out", OUT],
    ["compare", *QUAT_INIT, "--steps", "120"],
]
JOB_IDS = ["classify", "simulate", "exact", "xi", "xi-brute", "spectrum", "limit",
           "compare"]


def _job_argv(args: list, out, coin: str = TRACEFREE_IJ) -> list:
    """A job's command line: `--coin coin` unless the job names its own, and
    OUT replaced by out."""
    given = ["--coin", coin] if "--coin" not in args else []
    return [args[0], *given, *(str(out) if a == OUT else a for a in args[1:])]


@pytest.mark.parametrize("args", JOBS, ids=JOB_IDS)
def test_rerun_is_byte_identical(tmp_path, capsys, args):
    # the second run in the same process meets warm caches
    runs = []
    for k in range(2):
        out = tmp_path / f"{k}.csv"
        assert main(_job_argv(args, out)) == 0
        runs.append((capsys.readouterr().out,
                     out.read_bytes() if OUT in args else None))
    assert runs[0] == runs[1]
    assert runs[0][0] or runs[0][1]


def _joined(argv: list) -> list:
    """argv with each `--flag value` pair written as one `--flag=value` word."""
    words, joined = iter(argv), []
    for word in words:
        joined.append(f"{word}={next(words)}" if word.startswith("--") else word)
    return joined


@pytest.mark.parametrize("args", JOBS, ids=JOB_IDS)
def test_flag_forms_agree(tmp_path, capsys, args):
    runs = []
    for form in (list, _joined):
        out = tmp_path / f"{form.__name__}.csv"
        assert main(form(_job_argv(args, out))) == 0
        runs.append((capsys.readouterr().out,
                     out.read_bytes() if OUT in args else None))
    assert runs[0] == runs[1]
    assert runs[0][0] or runs[0][1]


@pytest.mark.parametrize("argv", [
    [],
    ["frobnicate"],
    ["classify", "--coin", TRACEFREE_IJ, "--bogus", "1"],
    ["classify", TRACEFREE_IJ],
    ["spectrum", "--coin", TRACEFREE_IJ, "--th", "0.4"],
    ["spectrum", "--coin", TRACEFREE_IJ, "--theta"],
    ["spectrum", "--coin", TRACEFREE_IJ],
    ["xi", "--coin", TRACEFREE_IJ, "--l", "1.5", "--m", "2"],
    ["xi", "--coin", TRACEFREE_IJ, "--l=", "--m", "2"],
    ["spectrum", "--coin", TRACEFREE_IJ, "--theta=abc"],
    ["xi", "--coin", TRACEFREE_IJ, "--l", "1", "--m", "2", "--brute"],
], ids=["no-command", "unknown-command", "unknown-flag", "stray-word",
        "flag-prefix", "missing-value", "missing-flag", "bad-int", "empty-int",
        "bad-float", "brute-is-unknown"])
def test_parse_errors_are_usage_errors(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["xi", "--help"],
                                  ["limit", "--coin", TRACEFREE_IJ, "-h"]])
def test_help_prints_usage(argv, capsys):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.startswith("usage: qqwalk COMMAND")
    commands = cli.COMMANDS if len(argv) == 1 else [argv[0]]
    for name in commands:
        assert f"  {name} --coin COIN" in captured.out


def test_help_marks_optional_flags(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "[--grid GRID]" in out and "--steps STEPS" in out


def test_main_reads_sys_argv(monkeypatch, capsys):
    # cli.run(), the entry point of the script and of -m, calls main() with no arguments
    monkeypatch.setattr(sys, "argv", ["qqwalk", "classify", "--coin", TRACEFREE_IJ])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["class"] == "case4"


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


# a coin with a zero entry is case1 (b or c zero) or case2 (a or d zero),
# whose laws are the two-point and the localized one: it has neither a
# closed-form path sum nor a limit law.  `spectral` refuses it by its
# family, naming the law and the tag, and `xi` takes the propagator
ZERO_ENTRY_COINS = {
    "diagonal": ("case1", (Quaternion(1.0), Quaternion(), Quaternion(), Quaternion(1.0))),
    "trace-free diagonal": ("case1", (I, Quaternion(), Quaternion(), J)),
    "b-zero": ("case1", (Quaternion(1.0), Quaternion(), 1e-11 * J, Quaternion(1.0))),
    "a-zero": ("case2", (Quaternion(), Quaternion(1.0), Quaternion(1.0), Quaternion(1e-11))),
}
FAMILY_REFUSALS = (
    (["limit", *QUAT_INIT, "--grid", "5", "--out", OUT], "limit law"),
    (["compare", *QUAT_INIT, "--steps", "100"], "limit law"),
)


def _refuses_by_family(path, tag, command, what, tmp_path):
    out = tmp_path / "density.csv"
    argv = [command[0], "--coin", str(path),
            *(str(out) if a == OUT else a for a in command[1:])]
    with redirect_stdout(io.StringIO()) as stdout, redirect_stderr(io.StringIO()) as stderr:
        assert main(argv) == 2
    assert stdout.getvalue() == ""
    assert stderr.getvalue() == f"error: no closed-form {what} for a '{tag}' coin\n"
    assert not out.exists()


@pytest.mark.parametrize("coin", sorted(ZERO_ENTRY_COINS))
@pytest.mark.parametrize("command, what", FAMILY_REFUSALS, ids=("limit", "compare"))
def test_zero_entry_messages(coin, command, what, tmp_path):
    tag, entries = ZERO_ENTRY_COINS[coin]
    path = tmp_path / "coin.json"
    path.write_text(coin_to_json(validate_coin(*entries)), encoding="utf-8")
    _refuses_by_family(path, tag, command, what, tmp_path)


ALL_PAIRS = [(l, n - l) for n in range(9) for l in range(n + 1)]
EDGES = [(l, m) for l, m in ALL_PAIRS if min(l, m) == 0]


@pytest.mark.parametrize("coin", ["superposition", *sorted(ZERO_ENTRY_COINS)])
def test_xi_takes_the_propagator_off_the_closed_forms(coin, tmp_path, capsys):
    # a general coin, and case1 and case2 coins: `xi` prints
    # `xi_bruteforce`'s matrix, which matches path enumeration
    if coin == "superposition":
        path = SUPERPOSITION
    else:
        path = tmp_path / "coin.json"
        path.write_text(coin_to_json(validate_coin(*ZERO_ENTRY_COINS[coin][1])),
                        encoding="utf-8")
    loaded = load_coin(path)
    table = enumerate_xi(split_pq(loaded), 8)
    for l, m in ALL_PAIRS:
        assert main(["xi", "--coin", str(path), "--l", str(l), "--m", str(m)]) == 0, (l, m)
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"l": l, "m": m, "position": m - l,
                           "matrix": xi_bruteforce(loaded, l, m).matrix}, (l, m)
        assert np.max(np.abs(np.array(payload["matrix"]) - table[l, m])) <= 1e-12, (l, m)


def test_xi_takes_the_closed_form_at_the_edges(tmp_path, capsys):
    # on the kernel's families (case3, case4, case5 and complex) the edges
    # l = 0 and m = 0 take the closed form, as the interior does: `xi`
    # prints `xi_closed`'s matrix, which matches path enumeration
    complex_path = tmp_path / "complex.json"
    complex_path.write_text(coin_to_json(random_coin(np.random.default_rng(93), "complex")),
                            encoding="utf-8")
    for path in (os.path.join(COIN_DIR, "hadamard.json"), TRACEFREE_IJ, TRACEFREE[-1],
                 complex_path):
        loaded = load_coin(path)
        table = enumerate_xi(split_pq(loaded), 8)
        for l, m in EDGES:
            assert main(["xi", "--coin", str(path), "--l", str(l), "--m", str(m)]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload == {"l": l, "m": m, "position": m - l,
                               "matrix": xi_closed(loaded, l, m).matrix}, (path, l, m)
            gap = np.max(np.abs(np.array(payload["matrix"]) - table[l, m]))
            assert gap <= 1e-12, (path, l, m)


@pytest.mark.parametrize("l, m", ((0, cli.MAX_SIZE), (cli.MAX_SIZE, 0)))
def test_xi_edges_at_the_size_limit(l, m, capsys):
    # Q^m and P^l, whose entries underflow to zero: on hadamard by the
    # closed form, on superposition as one word
    for path in (os.path.join(COIN_DIR, "hadamard.json"), SUPERPOSITION):
        assert main(["xi", "--coin", path, "--l", str(l), "--m", str(m)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["position"] == m - l
        assert not np.any(np.array(payload["matrix"]))


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
    ["xi", "--coin", SUPERPOSITION, "--l", "1", "--m", str(cli.MAX_SIZE)],
], ids=["simulate-steps", "exact-steps", "compare-steps", "limit-grid",
        "xi-l-m", "xi-brute-l-m"])
def test_size_above_cap_is_usage_error(hadamard_file, tmp_path, capsys, args):
    # rejected before anything of that size is allocated
    out = tmp_path / "x.csv"
    assert main(_job_argv(args, out, hadamard_file)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "exceeds the limit" in captured.err
    assert not out.exists()


def test_closed_forms_at_large_n(tmp_path, capsys):
    # |b|^2/|a|^2 = 4: (|a|^2)^(n-1) underflows from n of a few hundred on
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
    coin = random_coin(rng, "general")
    path = tmp_path / "general.json"
    path.write_text(coin_to_json(coin), encoding="utf-8")
    code = main(["exact", "--coin", str(path), "--alpha", ALPHA, "--beta", BETA,
                 "--steps", "4", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    capsys.readouterr()


def test_degenerate_spectrum_is_numeric_error(ij_file, capsys):
    assert main(["spectrum", "--coin", ij_file, "--theta", "0.0"]) == 3
    capsys.readouterr()


def test_norm_drift_is_numeric_error(tmp_path, monkeypatch, capsys):
    def drifting(*args, **kwargs):
        raise NormDriftError(1e-6, 100)

    # superposition.json is general, so `simulate` runs the walk, which the
    # CLI calls through its module, as `walk.evolve`
    monkeypatch.setattr(cli.walk, "evolve", drifting)
    code = main(["simulate", "--coin", SUPERPOSITION, "--alpha", ALPHA, "--beta", BETA,
                 "--steps", "100", "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert "drifted" in capsys.readouterr().err


@pytest.mark.parametrize("steps, drift", (("100", "9.642e-10"), ("1000", "9.652e-09")))
def test_valid_general_coin_can_drift_past_the_norm_check(steps, drift, tmp_path,
                                                          capsys):
    # UNITARITY_TOL and NORM_TOL are both 1e-10: a general coin 5.1e-11 off
    # unitary passes validation, and its walk drifts by about 2n times that,
    # so simulate exits 3 cleanly from n = 100 on, with no CSV
    base = random_coin(np.random.default_rng(3), "general")
    d = base.d
    coin = validate_coin(base.a, base.b, base.c, Quaternion(d.x0, d.x1 + 4e-11, d.x2, d.x3))
    assert closed_family(coin) is None
    path = tmp_path / "coin.json"
    path.write_text(coin_to_json(coin), encoding="utf-8")
    argv = ["simulate", "--coin", str(path), "--alpha", ALPHA, "--beta", BETA]
    assert main([*argv, "--steps", "10", "--out", str(tmp_path / "ok.csv")]) == 0
    capsys.readouterr()
    out = tmp_path / "sim.csv"
    assert main([*argv, "--steps", steps, "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"error: total probability drifted by {drift} after {steps} steps\n")
    assert not out.exists()


def test_closed_route_norm_drift_is_numeric_error(tmp_path, capsys):
    # the closed form's total is asserted as the walk's is, by `exact`
    # itself, so every command that reads it fails alike: tracefree_mixed
    # with b and c scaled by 1 + 9e-11 is a valid coin (residual 9e-11)
    # whose law at n = 1000 sums to 1 + 1.48e-10
    base = load_coin(os.path.join(COIN_DIR, "tracefree_mixed.json"))
    scale = 1.0 + 9e-11
    path = tmp_path / "near.json"
    path.write_text(coin_to_json(validate_coin(base.a, scale * base.b, scale * base.c,
                                               base.d)), encoding="utf-8")
    out = tmp_path / "x.csv"
    for command in (["simulate", "--out", str(out)], ["exact", "--out", str(out)],
                    ["compare"]):
        code = main([command[0], "--coin", str(path), "--alpha", ALPHA, "--beta", BETA,
                     "--steps", "1000", *command[1:]])
        assert code == 3, command[0]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: total probability drifted by 1.482e-10"
                                " after 1000 steps\n"), command[0]
        assert not out.exists()


def test_simulate_hadamard_at_the_size_limit(tmp_path):
    # the propagator drifts linearly in n and exited 3 here, 1.6e-10 off;
    # the closed form keeps s + u = 1 exact
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--coin", os.path.join(COIN_DIR, "hadamard.json"),
                 "--alpha", f"[{S}, 0, 0, 0]", "--beta", f"[0, {S}, 0, 0]",
                 "--steps", str(cli.MAX_SIZE), "--out", str(out)]) == 0
    with open(out, encoding="utf-8") as fh:
        assert next(fh) == "x,probability\n"
        total = math.fsum(float(line.partition(",")[2]) for line in fh)
    assert abs(total - 1.0) <= 1e-10


# ---------------------------------------------------------------------
# simulate: the closed form on exact's coins, the walk on the others
# ---------------------------------------------------------------------

@pytest.mark.parametrize("near_zero", (False, True), ids=("exact", "near-zero"))
@pytest.mark.parametrize("kind", COIN_CLASSES + ("complex",))
@settings(derandomize=True, max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n=st.integers(min_value=0, max_value=40))
def test_simulate_matches_the_walk_on_every_class(kind, near_zero, seed, n,
                                                  tmp_path_factory):
    # each class takes its route, the closed form or the walk, and every
    # site stays within 1e-12 of the walk.  A coin ZERO_TOL off its class
    # takes its class's route, and its walk strays from the class's law by
    # up to about ZERO_TOL per step (7e-13 per step on case2 coins)
    rng = np.random.default_rng(seed)
    coin = random_coin(rng, kind)
    family, eps = closed_family(coin), 0.0
    if near_zero:
        coin, eps = near_zero_coin(rng, coin), ZERO_TOL
    assert closed_family(coin) == family
    alpha, beta = random_spinor(rng)
    tmp = tmp_path_factory.mktemp("simulate")
    (tmp / "coin.json").write_text(coin_to_json(coin), encoding="utf-8")
    assert main(["simulate", "--coin", str(tmp / "coin.json"),
                 "--alpha", json.dumps(alpha.to_list()), "--beta", json.dumps(beta.to_list()),
                 "--steps", str(n), "--out", str(tmp / "sim.csv")]) == 0
    got = np.loadtxt(tmp / "sim.csv", delimiter=",", skiprows=1, ndmin=2)
    want = distribution(evolve(coin, alpha, beta, n))
    assert np.array_equal(got[:, 0], want.positions())
    assert np.max(np.abs(got[:, 1] - want.probs)) <= 1e-12 + n * eps


def _simulate_and_exact(path, alpha, beta, n, tmp_path):
    """The CSV bytes of `simulate` and of `exact` on one coin file."""
    texts = []
    for command in ("simulate", "exact"):
        out = tmp_path / f"{command}.csv"
        assert main([command, "--coin", str(path), "--alpha", json.dumps(alpha.to_list()),
                     "--beta", json.dumps(beta.to_list()), "--steps", str(n),
                     "--out", str(out)]) == 0
        texts.append(out.read_bytes())
    return texts


@pytest.mark.parametrize("coin", ("b-zero", "a-zero"))
def test_exact_takes_a_coin_with_a_zero_entry(coin, tmp_path, capsys):
    # a coin within the unitarity tolerance of a diagonal or antidiagonal
    # one is case1 or case2: `simulate` and `exact` write its law.  Its
    # partner entry of norm 1e-11 puts its walk off unitary, and n steps of
    # it stray from the law by at most 2 n 1e-11 per site
    tag, entries = ZERO_ENTRY_COINS[coin]
    coin = validate_coin(*entries)
    size = min(q.norm() for q in coin.entries() if q.norm())
    path = tmp_path / "coin.json"
    path.write_text(coin_to_json(coin), encoding="utf-8")
    assert main(["classify", "--coin", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["class"] == tag
    alpha, beta = Quaternion(0.5, 0.5), Quaternion(0.0, 0.0, 0.5, 0.5)
    for n in (3, 40):
        sim, ex = _simulate_and_exact(path, alpha, beta, n, tmp_path)
        assert sim == ex
        got = np.loadtxt(tmp_path / "exact.csv", delimiter=",", skiprows=1, ndmin=2)
        want = distribution(evolve(coin, alpha, beta, n))
        assert np.max(np.abs(got[:, 1] - want.probs)) <= 1e-12 + 2 * n * size


@pytest.mark.parametrize("kind", COIN_CLASSES + ("complex",))
@settings(derandomize=True, max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n=st.integers(min_value=0, max_value=40),
       size=st.floats(min_value=0.0, max_value=1e-11),
       zeroed=st.sampled_from("abcd"))
def test_zero_entry_coins_take_the_case1_case2_law(kind, seed, n, size, zeroed,
                                                  tmp_path_factory):
    # from a coin of any class, one entry zero and its partner of norm up to
    # 1e-11 (about 1e-10 fails validation): the coin is case1 when b or c is
    # zero and case2 when a or d is; `simulate` and `exact` write the same
    # bytes, within 1e-12 of the walk of the coin with the partner zeroed as
    # well; `limit` and `compare` refuse it by its family, and `xi` prints
    # the propagator's path sum.  The walk of the coin as given is off
    # unitary by the partner's norm, and at n = 40 can fail its own norm
    # check
    rng = np.random.default_rng(seed)
    coin = random_coin(rng, kind)
    if kind == "case1" and zeroed in "ad" or kind == "case2" and zeroed in "bc":
        zeroed = {"a": "b", "b": "a", "c": "d", "d": "c"}[zeroed]  # its other pair is zero
    coin = zero_entry_coin(rng, coin, zeroed, size)
    tag = "case1" if zeroed in "bc" else "case2"
    assert classify(coin) == tag
    tmp = tmp_path_factory.mktemp("zero_entry")
    path = tmp / "coin.json"
    path.write_text(coin_to_json(coin), encoding="utf-8")
    alpha, beta = random_spinor(rng)
    sim, ex = _simulate_and_exact(path, alpha, beta, n, tmp)
    assert sim == ex
    got = np.loadtxt(tmp / "exact.csv", delimiter=",", skiprows=1, ndmin=2)
    exact_class = validate_coin(*(q if q.norm() > 0.5 else Quaternion.zero()
                                  for q in coin.entries()))  # the others are units
    want = distribution(evolve(exact_class, alpha, beta, n))
    assert np.max(np.abs(got[:, 1] - want.probs)) <= 1e-12
    for command, what in FAMILY_REFUSALS:
        _refuses_by_family(path, tag, command, what, tmp)
    with redirect_stdout(io.StringIO()) as stdout:
        assert main(["xi", "--coin", str(path), "--l", "1", "--m", "1"]) == 0
    brute = xi_bruteforce(coin, 1, 1)
    assert json.loads(stdout.getvalue())["matrix"] == brute.matrix
