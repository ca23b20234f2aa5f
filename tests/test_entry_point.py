"""The process entry point `qqwalk.cli.run`: `python -m qqwalk.cli` and the
`qqwalk` script end the process with os._exit right after flushing their
output.  Output buffered and never flushed would be lost there, so these
runs drop PYTHONUNBUFFERED, which would hide it, and compare each spawned
job with the same job run in-process through `main`.  A spawned job loads
numpy with one BLAS thread, the in-process one with the test process's
thread pool, so the numpy jobs check that this leaves the bytes alone."""

import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

import qqwalk
import qqwalk.cli as cli

SRC = os.path.dirname(os.path.dirname(qqwalk.__file__))
ROOT = os.path.dirname(SRC)
COIN_DIR = os.path.join(ROOT, "coins")
HADAMARD = os.path.join(COIN_DIR, "hadamard.json")
TRACEFREE_IJ = os.path.join(COIN_DIR, "tracefree_ij.json")
SUPERPOSITION = os.path.join(COIN_DIR, "superposition.json")
INIT = ["--alpha", "[0.5, 0.5, 0, 0]", "--beta", "[0, 0, 0.5, 0.5]"]
OUT = "<out>"

JOBS = {
    "classify": (["classify", "--coin", TRACEFREE_IJ], 0),
    "xi": (["xi", "--coin", HADAMARD, "--l", "12", "--m", "288"], 0),
    "xi-walk": (["xi", "--coin", SUPERPOSITION, "--l", "40", "--m", "40"], 0),
    "simulate-walk": (["simulate", "--coin", SUPERPOSITION, *INIT, "--steps", "3000",
                       "--out", OUT], 0),
    "spectrum": (["spectrum", "--coin", TRACEFREE_IJ, "--theta", "0.4"], 0),
    "compare": (["compare", "--coin", HADAMARD, *INIT, "--steps", "400"], 0),
    "limit": (["limit", "--coin", TRACEFREE_IJ, *INIT, "--grid", "101", "--out", OUT], 0),
    "help": (["--help"], 0),
    "usage-error": (["classify"], 1),
    "domain-error": (["limit", "--coin", SUPERPOSITION, *INIT, "--out", OUT], 2),
    "numeric-error": (["spectrum", "--coin", TRACEFREE_IJ, "--theta", "0.0"], 3),
}


def _env(unbuffered: bool = False) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def _spawn(argv, stdout, env=None, code=None) -> subprocess.CompletedProcess:
    command = ["-c", code] if code else ["-m", "qqwalk.cli", *argv]
    return subprocess.run([sys.executable, *command], env=env or _env(),
                          stdout=stdout, stderr=subprocess.PIPE)


def _in_process(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue().encode(), err.getvalue().encode()


def _read(path) -> bytes:
    return path.read_bytes() if path.exists() else None


@pytest.mark.parametrize("target", ["pipe", "file"])
@pytest.mark.parametrize("job", list(JOBS))
def test_spawned_job_matches_main(job, target, tmp_path):
    argv, code = JOBS[job]
    here, there = tmp_path / "main.csv", tmp_path / "run.csv"
    expected = _in_process([str(here) if w == OUT else w for w in argv])
    spawned_argv = [str(there) if w == OUT else w for w in argv]
    if target == "pipe":
        proc = _spawn(spawned_argv, subprocess.PIPE)
        stdout = proc.stdout
    else:
        with open(tmp_path / "stdout", "wb") as fh:
            proc = _spawn(spawned_argv, fh)
        stdout = (tmp_path / "stdout").read_bytes()
    assert (proc.returncode, stdout, proc.stderr) == expected
    assert expected[0] == code
    assert _read(there) == _read(here)


@pytest.mark.parametrize("code", [0, 1, 2, 3])
def test_main_returns_without_ending_the_process(code, monkeypatch, capsys):
    def refuse(rc):
        raise AssertionError(f"os._exit({rc}) inside main()")

    monkeypatch.setattr(os, "_exit", refuse)
    argv = {0: JOBS["classify"][0], 1: JOBS["usage-error"][0],
            2: ["compare", "--coin", SUPERPOSITION, *INIT, "--steps", "10"],
            3: JOBS["numeric-error"][0]}[code]
    assert cli.main(argv) == code


def test_run_skips_atexit_handlers():
    code = ("import atexit, sys\n"
            "import qqwalk.cli as cli\n"
            "atexit.register(print, 'teardown')\n"
            "sys.argv = ['qqwalk', 'classify', '--coin', %r]\n"
            "cli.run()\n" % TRACEFREE_IJ)
    proc = _spawn(None, subprocess.PIPE, code=code)
    assert proc.returncode == 0, proc.stderr
    assert b'"class": "case4"' in proc.stdout and b"teardown" not in proc.stdout


@pytest.mark.parametrize("preset", [None, "2"])
def test_run_loads_numpy_with_one_blas_thread_by_default(preset):
    code = ("import os\n"
            "import qqwalk.cli as cli\n"
            "from qqwalk import _numpy\n"
            "def main():\n"
            "    _numpy.ndarray\n"
            "    task = '/proc/self/task'\n"
            "    threads = len(os.listdir(task)) if os.path.isdir(task) else None\n"
            "    print(os.environ['OPENBLAS_NUM_THREADS'], threads)\n"
            "    return 0\n"
            "cli.main = main\n"
            "cli.run()\n")
    env = _env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = _spawn(None, subprocess.PIPE, env=env, code=code)
    assert proc.returncode == 0, proc.stderr
    value, threads = proc.stdout.decode().split()
    assert value == (preset or "1")
    if preset is None and threads != "None":
        assert threads == "1"


def test_main_leaves_the_environment_alone(monkeypatch, capsys):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    before = dict(os.environ)
    assert cli.main(JOBS["xi-walk"][0]) == 0
    assert dict(os.environ) == before


STDOUT_ERROR = b"error: cannot write stdout: "


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv", [JOBS["classify"][0], JOBS["help"][0]],
                         ids=["classify", "help"])
def test_full_stdout_is_a_usage_error(argv, unbuffered):
    with open("/dev/full", "wb") as full:
        proc = _spawn(argv, full, env=_env(unbuffered))
    assert proc.returncode == 1
    assert proc.stderr.startswith(STDOUT_ERROR) and proc.stderr.count(b"\n") == 1


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_pipe_is_a_usage_error(unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _spawn(JOBS["spectrum"][0], write_end, env=_env(unbuffered))
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == STDOUT_ERROR + b"Broken pipe\n"


def test_failed_stdout_write_in_process():
    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    err = io.StringIO()
    with redirect_stdout(Closed()), redirect_stderr(err):
        assert cli.main(JOBS["classify"][0]) == 1
    assert err.getvalue() == "error: cannot write stdout: Broken pipe\n"


def test_script_entry_point_is_run():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    module, _, attr = scripts["qqwalk"].partition(":")
    assert module == "qqwalk.cli" and getattr(cli, attr) is cli.run
