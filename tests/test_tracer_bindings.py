"""The benchmark tracer (`perfbench/tracer.py`) binds package names by
attribute and parameter name; a rename or a dropped cache there breaks
`perfbench/run.py --trace 1` without failing any other test.  The layers
load on first use, so a traced job must still record a span for every
traced function it reaches, and for no other."""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys

import pytest

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                           "tracer.py")


def _load_tracer():
    # the tracer imports only the standard library at module level
    spec = importlib.util.spec_from_file_location("qqwalk_bench_tracer", TRACER_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


TRACER = _load_tracer()


def _target(layer: str, attr: str):
    return getattr(importlib.import_module("qqwalk." + layer), attr)


@pytest.mark.parametrize("layer,name", [(layer, name)
                                        for layer, names in TRACER.SPANS.items()
                                        for name in names])
def test_span_names_exist(layer, name):
    assert callable(_target(layer, name))


class _ReadArgs(dict):
    """Bound arguments that record every name read and answer 1."""

    def __init__(self):
        super().__init__()
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return 1


@pytest.mark.parametrize("name", sorted(TRACER.WORK))
def test_work_functions_read_real_parameters(name):
    args = _ReadArgs()
    TRACER.WORK[name](args)
    assert args.read
    params = inspect.signature(_target(*name.split("."))).parameters
    assert args.read <= set(params), args.read - set(params)


@pytest.mark.parametrize("key", sorted(TRACER.CACHES))
def test_cache_targets_report_statistics(key):
    info = _target(*TRACER.CACHES[key]).cache_info()
    assert info.hits >= 0 and info.misses >= 0


SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
COIN_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "coins")
TRACED_JOBS = {  # argv, the traced functions the job reaches, work counts
    "compare": (["compare", "--coin", os.path.join(COIN_DIR, "tracefree_ij.json"),
                 "--alpha", "[1, 0, 0, 0]", "--beta", "[0, 0, 0, 0]", "--steps", "100"],
                {"cli.main", "coin.load_coin", "coin.unitarity_residuals", "coin.classify",
                 "spectral.limit_compare", "spectral.qqw_limit_params",
                 "spectral.weight_constant", "exact.closed_form_distribution",
                 "spectral.kolmogorov_distance"},
                {}),
    "exact": (["exact", "--coin", os.path.join(COIN_DIR, "hadamard.json"),
               "--alpha", "[1, 0, 0, 0]", "--beta", "[0, 0, 0, 0]", "--steps", "40",
               "--out", "out.csv"],
              {"cli.main", "coin.load_coin", "coin.unitarity_residuals", "coin.classify",
               "exact.closed_form_distribution"},
              {}),
    "simulate": (["simulate", "--coin", os.path.join(COIN_DIR, "superposition.json"),
                  "--alpha", "[1, 0, 0, 0]", "--beta", "[0, 0, 0, 0]", "--steps", "40",
                  "--out", "out.csv"],
                 {"cli.main", "coin.load_coin", "coin.unitarity_residuals", "coin.classify",
                  "walk.evolve", "walk.distribution"},
                 {"walk.evolve": {"site_updates": 40 * 41 // 2}}),
    "simulate-closed": (["simulate", "--coin", os.path.join(COIN_DIR, "hadamard.json"),
                         "--alpha", "[1, 0, 0, 0]", "--beta", "[0, 0, 0, 0]",
                         "--steps", "40", "--out", "out.csv"],
                        {"cli.main", "coin.load_coin", "coin.unitarity_residuals",
                         "coin.classify", "exact.closed_form_distribution"},
                        {}),
    "xi": (["xi", "--coin", os.path.join(COIN_DIR, "hadamard.json"), "--l", "12", "--m", "288"],
           {"cli.main", "coin.load_coin", "coin.unitarity_residuals", "coin.classify",
            "exact.xi_closed"},
           {}),
}


def _run(argv: list, cwd) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv], env=env, cwd=cwd,
                          capture_output=True)


@pytest.mark.parametrize("job", sorted(TRACED_JOBS))
def test_traced_job_records_every_span(job, tmp_path):
    argv, reached, work = TRACED_JOBS[job]
    plain = _run(["-m", "qqwalk.cli", *argv], tmp_path)
    traced = _run([TRACER_PATH, str(tmp_path / "spans.json"), *argv], tmp_path)
    assert plain.returncode == traced.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    with open(tmp_path / "spans.json", encoding="utf-8") as fh:
        trace = json.load(fh)
    spans = trace["spans"]
    names = {name for name, *_ in spans}
    assert names == reached, names ^ reached
    assert {name: counts for name, _, _, _, counts in spans if counts} == work
    if job == "xi":  # the path sum reads its coefficient windows through the cache
        assert trace["caches"]["exact._s_sums"]["misses"] >= 1
