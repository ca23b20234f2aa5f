"""Tests of the benchmark's own checks: real CLI outputs pass, perturbed ones fail.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import math
import os
import random

import numpy as np
import pytest

import checks
import inputs
import refs
from run import PER_LAYER_UNITS, layer_pass, self_times
from qqwalk import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
IJ = inputs.repo_coin(ROOT, "tracefree_ij")
HAD = inputs.repo_coin(ROOT, "hadamard")
ONE = ((1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0))


def _absolute(coin: inputs.Coin) -> inputs.Coin:
    return inputs.Coin(os.path.join(ROOT, coin.path), coin.entries, coin.tag)


def run_cli(job: inputs.Job, tmp_path, capsys) -> tuple[int, bytes, bytes | None]:
    job = inputs.Job(**{**job.__dict__, "coin": _absolute(job.coin)})
    out_path = str(tmp_path / "out.csv")
    capsys.readouterr()
    rc = cli.main(job.argv(out_path))
    stdout = capsys.readouterr().out.encode()
    out = open(out_path, "rb").read() if job.writes_file else None
    return rc, stdout, out


def errors(job, rc, stdout, out):
    return checks.check(job, rc, stdout, out, checks.reference(job))


def _replace_field(out: bytes, row: int, fn) -> bytes:
    lines = out.decode().split("\n")
    key, value = lines[row].split(",")
    lines[row] = f"{key},{fn(float(value))!r}"
    return "\n".join(lines).encode()


@pytest.mark.parametrize("command", ["simulate", "exact"])
def test_distribution_check(command, tmp_path, capsys):
    alpha, beta = inputs.random_spinor(random.Random(1))
    job = inputs.Job("d", command, HAD, alpha=alpha, beta=beta, steps=30)
    rc, stdout, out = run_cli(job, tmp_path, capsys)
    assert errors(job, rc, stdout, out) == []
    assert errors(job, rc, stdout, _replace_field(out, 9, lambda p: p + 1e-8))
    lines = out.decode().split("\n")
    assert errors(job, rc, stdout, "\n".join(lines[:5] + lines[6:]).encode())
    assert errors(job, rc, stdout, out.replace(b"\n", b"\r\n"))
    assert errors(job, 2, stdout, out) == ["exit code 2, expected 0"]


def test_xi_check(tmp_path, capsys):
    job = inputs.Job("x", "xi", HAD, l=5, m=8)
    rc, stdout, out = run_cli(job, tmp_path, capsys)
    assert errors(job, rc, stdout, out) == []
    doc = json.loads(stdout)
    doc["matrix"][1][0][2] += 1e-8
    assert errors(job, rc, json.dumps(doc).encode(), out)
    doc = json.loads(stdout)
    doc["position"] = 0
    assert errors(job, rc, json.dumps(doc).encode(), out)


def test_spectrum_check(tmp_path, capsys):
    job = inputs.Job("s", "spectrum", IJ, theta=0.7)
    rc, stdout, out = run_cli(job, tmp_path, capsys)
    assert errors(job, rc, stdout, out) == []
    doc = json.loads(stdout)
    doc["eigenvalues"][2][1] += 1e-8
    assert errors(job, rc, json.dumps(doc).encode(), out)
    doc = json.loads(stdout)
    doc["vectors"][0][1][0] += 1e-8
    assert errors(job, rc, json.dumps(doc).encode(), out)


def test_limit_check(tmp_path, capsys):
    job = inputs.Job("l", "limit", IJ, alpha=ONE[0], beta=ONE[1], grid=101)
    rc, stdout, out = run_cli(job, tmp_path, capsys)
    assert errors(job, rc, stdout, out) == []
    assert errors(job, rc, stdout, _replace_field(out, 50, lambda f: f * (1 + 1e-8)))
    lines = out.decode().split("\n")
    assert errors(job, rc, stdout, "\n".join(lines[:-2] + [""]).encode())


def test_compare_check(tmp_path, capsys):
    job = inputs.Job("c", "compare", IJ, alpha=ONE[0], beta=ONE[1], steps=100)
    rc, stdout, out = run_cli(job, tmp_path, capsys)
    assert errors(job, rc, stdout, out) == []
    doc = json.loads(stdout)
    doc["r"] += 1e-8
    assert errors(job, rc, json.dumps(doc).encode(), out)
    # the 0.02 bound applies from n = 2000 on
    doc = json.loads(stdout)
    at_2000 = inputs.Job("c", "compare", IJ, alpha=ONE[0], beta=ONE[1], steps=2000)
    doc["kolmogorov"] = 0.03
    assert errors(at_2000, rc, json.dumps(doc).encode(), out)
    doc["kolmogorov"] = 0.01
    assert errors(at_2000, rc, json.dumps(doc).encode(), out) == []


def test_classify_check(tmp_path, capsys):
    job = inputs.Job("k", "classify", IJ)
    rc, stdout, out = run_cli(job, tmp_path, capsys)
    assert errors(job, rc, stdout, out) == []
    doc = json.loads(stdout)
    doc["class"] = "case5"
    assert errors(job, rc, json.dumps(doc).encode(), out)
    doc = json.loads(stdout)
    doc["residuals"]["row1-norm"] = 1e-9
    assert errors(job, rc, json.dumps(doc).encode(), out)
    assert errors(job, rc, b"{not json", out)


def test_references_small_cases():
    s = math.sqrt(0.5)
    # Hadamard walk from (1, 0): P(X_2 = -2, 0, 2) = 1/4, 1/2, 1/4
    probs = refs.walk_probs(HAD.entries, *ONE, 2)
    assert np.allclose(probs, [0.25, 0.5, 0.25], atol=1e-15)
    # Xi(1, 0) = P = [[a, b], [0, 0]] and Xi(1, 1) = PQ + QP
    xi = refs.xi_matrix(HAD.entries, 1, 0)
    assert np.allclose(xi[0, 0], [s, 0, 0, 0]) and np.allclose(xi[1], 0.0)
    assert np.allclose(refs.xi_matrix(HAD.entries, 1, 1)[:, :, 0],
                       [[0.5, -0.5], [0.5, 0.5]])
    vals = refs.eigenvalues(IJ.entries, 0.3)
    assert np.allclose(np.abs(vals), 1.0)


@pytest.mark.parametrize("kind", ["case1", "case2", "case3", "case4", "case5",
                                  "general", "complex"])
def test_generated_coins_are_unitary(kind):
    a, b, c, d = inputs.random_coin(random.Random(kind), kind)
    qm, qc = inputs.qmul, inputs.qconj
    row = [x + y for x, y in zip(qm(a, qc(c)), qm(b, qc(d)))]
    assert abs(inputs.norm_sq(a) + inputs.norm_sq(b) - 1.0) < 1e-14
    assert abs(inputs.norm_sq(c) + inputs.norm_sq(d) - 1.0) < 1e-14
    assert max(abs(x) for x in row) < 1e-14


def test_job_lists_depend_only_on_seed():
    for workload in inputs.WORKLOADS:
        first = inputs.build(workload, 7, ROOT, "w")
        again = inputs.build(workload, 7, ROOT, "w")
        other = inputs.build(workload, 8, ROOT, "w")
        assert first.jobs == again.jobs and first.coin_files == again.coin_files
        assert first.jobs != other.jobs
        names = [j.name for j in first.jobs + first.probes]
        assert len(set(names)) == len(names)


def test_self_times_subtract_children():
    spans = [["cli.main", 0.0, 10.0, -1, None],
             ["walk.evolve", 1.0, 7.0, 0, {"site_updates": 6}],
             ["walk.distribution", 7.0, 8.0, 0, None],
             ["walk.evolve", 8.0, 9.0, 0, {"site_updates": 1}]]
    agg = self_times(spans)
    assert agg["cli.main"]["self_s"] == pytest.approx(2.0)
    assert agg["walk.evolve"] == {"self_s": pytest.approx(7.0), "calls": 2,
                                  "site_updates": 7}


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    traced = set(layer_pass([], 0.0)) | {"trace.overhead_s"}
    assert {name: PER_LAYER_UNITS.get(name, "s") for name in traced} == \
        {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "peak_rss_mb"}
