"""The qqwalk benchmark: seeded CLI job lists, checked against references.

    python3 perfbench/run.py --workload walk-long --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Each workload is a fixed, seeded
list of ``python -m qqwalk.cli`` jobs, run one at a time from this process
(a closed loop with one client).  The list is run again and again, one
pass after another, until ``--seconds`` is used up, with at least two
passes.  Every job's exit code and output are checked against a reference
computed here, and every pass must reproduce the first pass byte for byte.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes whose jobs run under ``perfbench/tracer.py``
and reports per-layer metrics; ``trace.overhead_s`` is the difference
between the two.  The last line of standard output is one JSON object;
the lines above it are a report for people.  See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

import checks
import inputs

SETUP_SAMPLES = 3       # import timings before the first pass and after each pass
MIN_PASSES = 2
JOB_TIMEOUT_S = 120.0
COMMANDS = ("simulate", "exact", "xi", "spectrum", "limit", "compare", "classify")
LAYERS = ("cli", "coin", "walk", "exact", "spectral")


@dataclass
class Result:
    job: inputs.Job
    rc: int
    wall_s: float
    maxrss_kb: int
    stdout: bytes
    stderr: bytes
    out: bytes | None
    trace: dict | None = None


def spawn(argv: list[str], env: dict, stdout_path: str, stderr_path: str):
    """Run argv to completion; (exit code, wall seconds, max RSS in KiB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            # reaped: tell Popen, so that neither it nor the timer signals the pid
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    return proc.returncode, wall, usage.ru_maxrss


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class Runner:
    """Runs jobs in a private work directory under perfbench/_work."""

    def __init__(self, root: str, work: str):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def run(self, job: inputs.Job, traced: bool) -> Result:
        out_path = os.path.join(self.work, "out.dat")
        spans_path = os.path.join(self.work, "spans.json")
        for path in (out_path, spans_path):
            if os.path.exists(path):
                os.remove(path)
        if traced:
            prefix = [sys.executable, os.path.join("perfbench", "tracer.py"), spans_path]
        else:
            prefix = [sys.executable, "-m", "qqwalk.cli"]
        rc, wall, rss = spawn(prefix + job.argv(out_path), self.env,
                              os.path.join(self.work, "stdout"),
                              os.path.join(self.work, "stderr"))
        return Result(
            job, rc, wall, rss,
            _read(os.path.join(self.work, "stdout")),
            _read(os.path.join(self.work, "stderr")),
            _read(out_path) if job.writes_file and os.path.exists(out_path) else None,
            json.loads(_read(spans_path)) if traced and os.path.exists(spans_path) else None)

    def setup_times(self, count: int) -> list[float]:
        """Wall times of ``count`` fresh interpreters running ``import qqwalk.cli``."""
        argv = [sys.executable, "-c", "import qqwalk.cli"]
        times = []
        for _ in range(count):
            rc, wall, _ = spawn(argv, self.env, os.path.join(self.work, "stdout"),
                                os.path.join(self.work, "stderr"))
            if rc != 0:
                raise RuntimeError("import qqwalk.cli failed: "
                                   + _read(os.path.join(self.work, "stderr")).decode())
            times.append(wall)
        return times


# ---------------------------------------------------------------------
# traced passes: self times from spans
# ---------------------------------------------------------------------

def self_times(spans: list) -> dict:
    """Per span name: total self time (duration minus child spans), calls,
    and summed work counts."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict] = {}
    for (name, start, end, _, work), covered in zip(spans, child):
        agg = out.setdefault(name, {"self_s": 0.0, "calls": 0})
        agg["self_s"] += (end - start) - covered
        agg["calls"] += 1
        for key, value in (work or {}).items():
            agg[key] = agg.get(key, 0) + value
    return out


def layer_pass(results: list[Result], wall_s: float) -> dict:
    """Per-layer figures of one traced pass, summed over its jobs."""
    m = {"import.qqwalk_s": 0.0, "job.startup_s": 0.0, "cli.bytes_out": 0,
         "trace.wall_s": wall_s}
    spans_total: dict[str, dict] = {}
    caches: dict[str, list[int]] = {}
    for r in results:
        m["cli.bytes_out"] += len(r.stdout) + len(r.out or b"")
        if r.trace is None:
            continue
        m["import.qqwalk_s"] += r.trace["import_s"]
        main = [s for s in r.trace["spans"] if s[0] == "cli.main"]
        m["job.startup_s"] += r.wall_s - sum(s[2] - s[1] for s in main)
        for name, agg in self_times(r.trace["spans"]).items():
            tot = spans_total.setdefault(name, {})
            for key, value in agg.items():
                tot[key] = tot.get(key, 0) + value
        for name, info in r.trace["caches"].items():
            c = caches.setdefault(name, [0, 0])
            c[0] += info["hits"]
            c[1] += info["hits"] + info["misses"]

    def span(name, key="self_s"):
        return spans_total.get(name, {}).get(key, 0)

    for name in ("cli.main", "coin.load_coin", "coin.classify", "walk.evolve",
                 "walk.distribution", "exact.closed_form_distribution",
                 "exact.xi_closed", "spectral.limit_compare",
                 "spectral.kolmogorov_distance", "spectral.limit_cdf",
                 "spectral.eigen_system", "spectral.qqw_limit_density"):
        m[f"{name}.self_s"] = span(name)
    m["walk.evolve.calls"] = span("walk.evolve", "calls")
    m["walk.evolve.site_updates"] = span("walk.evolve", "site_updates")
    m["spectral.limit_cdf.points"] = span("spectral.limit_cdf", "points")
    for name in ("exact._s_sums", "spectral._gauss_legendre"):
        hits, lookups = caches.get(name, [0, 0])
        m[f"{name}.hit_ratio"] = hits / lookups if lookups else 0.0
        m[f"{name}.lookups"] = lookups
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = sum(
            agg["self_s"] for name, agg in spans_total.items()
            if name.split(".")[0] == layer)
    return m


PER_LAYER_UNITS = {"cli.bytes_out": "bytes", "walk.evolve.calls": "count",
                   "walk.evolve.site_updates": "count",
                   "spectral.limit_cdf.points": "count",
                   "exact._s_sums.hit_ratio": "ratio",
                   "exact._s_sums.lookups": "count",
                   "spectral._gauss_legendre.hit_ratio": "ratio",
                   "spectral._gauss_legendre.lookups": "count"}


# ---------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------

def meta(root: str) -> dict:
    """What the numbers were measured on."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "qqwalk")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode() + _read(os.path.join(src, name)))
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, check=False)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    try:
        import numba  # noqa: F401
        have_numba = True
    except ImportError:
        have_numba = False
    return {"commit": commit, "source_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "numba": have_numba}


def _distribution(values: list[float], unit: str) -> str:
    """Median with its sample count, plus the highest of p90/p99 that has
    at least ten samples beyond it."""
    text = f"median {statistics.median(values):.4f} {unit}, n={len(values)}"
    for pct in (99, 90):
        if len(values) * (100 - pct) / 100 >= 10:
            q = statistics.quantiles(values, n=100)[pct - 1]
            return text + f", p{pct} {q:.4f} {unit}"
    return text


class Run:
    def __init__(self, args, root: str):
        self.args = args
        self.root = root
        self.work = os.path.join("perfbench", "_work",
                                 f"{args.workload}-{args.seed}-{os.getpid()}")
        self.runner = Runner(root, self.work)
        self.attempted = 0
        self.failures: list[str] = []
        self.first: dict[str, tuple] = {}
        self.refs: dict[str, object] = {}

    def check(self, results: list[Result]) -> None:
        """Count and check every job of a pass, including byte-identity
        with the job's output in the first pass."""
        for r in results:
            self.attempted += 1
            name = r.job.name
            errors = checks.check(r.job, r.rc, r.stdout, r.out, self.refs[name])
            output = (r.stdout, r.out)
            if self.first.setdefault(name, output) != output:
                errors.append("output differs from the first pass")
            if errors:
                self.failures.append(f"{name}: {'; '.join(errors)}")

    def run_pass(self, jobs, traced: bool) -> tuple[float, list[Result]]:
        t0 = time.perf_counter()
        results = [self.runner.run(job, traced) for job in jobs]
        return time.perf_counter() - t0, results

    def execute(self) -> tuple[dict, list[str]]:
        args = self.args
        os.makedirs(os.path.join(self.work, "coins"))
        wl = inputs.build(args.workload, args.seed, self.root,
                          os.path.join(self.work, "coins"))
        inputs.write_coins(self.root, wl.coin_files)
        report = [f"perfbench {args.workload} seed={args.seed} "
                  f"seconds={args.seconds} trace={args.trace}"]
        info = meta(self.root)
        report.append("meta " + json.dumps(info, sort_keys=True))

        self.runner.setup_times(1)  # writes the bytecode cache; not counted
        setup = self.runner.setup_times(SETUP_SAMPLES)
        for job in wl.jobs + wl.probes:
            self.refs[job.name] = checks.reference(job)

        walls = {False: [], True: []}
        per_job: dict[str, list[float]] = {job.name: [] for job in wl.jobs}
        rss = []
        layer_passes = []
        t0 = time.perf_counter()
        step = 0.0  # duration of the last pass with its checks and import timings
        while (len(walls[False]) + len(walls[True]) < MIN_PASSES
               or time.perf_counter() - t0 + step <= args.seconds):
            t_step = time.perf_counter()
            traced = bool(args.trace) and len(walls[False]) > len(walls[True])
            last, results = self.run_pass(wl.jobs, traced)
            walls[traced].append(last)
            setup += self.runner.setup_times(SETUP_SAMPLES)
            self.check(results)
            if traced:
                layer_passes.append(layer_pass(results, last))
            else:
                for r in results:
                    per_job[r.job.name].append(r.wall_s)
                    rss.append(r.maxrss_kb)
            step = time.perf_counter() - t_step
        # The job list's wall time, from each job's median over the passes.
        wall_s = sum(statistics.median(t) for t in per_job.values())

        report.append(f"setup_s        median {statistics.median(setup):.4f} s of "
                      f"{len(setup)} fresh 'import qqwalk.cli' interpreters")
        report.append(f"wall_s         {wall_s:.4f} s, sum over {len(wl.jobs)} jobs of each "
                      f"job's median over {len(walls[False])} untraced passes")
        report.append(f"peak_rss_mb    {max(rss) / 1024:.1f} MB (largest child max-RSS)")
        for cmd in COMMANDS:
            times = [t for job in wl.jobs if job.command == cmd for t in per_job[job.name]]
            if times:
                report.append(f"{cmd + '_s':<14} {_distribution(times, 's')}")
        failed = len(self.failures)
        report.append(f"failed_ratio   {failed / self.attempted:.4f} "
                      f"(failed {failed} of {self.attempted} jobs attempted)")
        report += [f"FAILED {line}" for line in self.failures]
        report += self.probe(wl.probes)

        if args.trace:
            metrics = {}
            for key in layer_passes[0]:
                metrics[key] = {
                    "value": statistics.median(p[key] for p in layer_passes),
                    "unit": PER_LAYER_UNITS.get(key, "s")}
            metrics["trace.overhead_s"] = {
                "value": statistics.median(walls[True]) - statistics.median(walls[False]),
                "unit": "s"}
            wall = metrics["trace.wall_s"]["value"]
            shares = {name: metrics[f"layer.{name}.self_s"]["value"] / wall
                      for name in LAYERS}
            shares["startup"] = metrics["job.startup_s"]["value"] / wall
            report.append("share of trace.wall_s: " + ", ".join(
                f"{k} {v:.1%}" for k, v in shares.items()))
            for key, m in metrics.items():
                report.append(f"{key:<40} {m['value']:.6g} {m['unit']}")
        else:
            metrics = {
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "wall_s": {"value": wall_s, "unit": "s"},
                "peak_rss_mb": {"value": max(rss) / 1024, "unit": "MB"},
            }
        result = {"correct": not self.failures, "attempted": self.attempted,
                  "failed": failed, "metrics": metrics}
        return result, report

    def probe(self, probes: list[inputs.Job]) -> list[str]:
        """Run the known-defect jobs once, untimed, and report each outcome.

        They are not part of the timed job list and not counted in
        ``failed``; see perfbench/NOTES.md."""
        lines = []
        for job in probes:
            r = self.runner.run(job, traced=False)
            errors = checks.check(job, r.rc, r.stdout, r.out, self.refs[job.name])
            if r.rc != 0 and r.stderr:
                errors.append(r.stderr.decode(errors="replace").strip().splitlines()[-1])
            verdict = "FAILS" if errors else "passes"
            lines.append(f"known defect {job.name}: {verdict}"
                         + (f" ({'; '.join(errors)})" if errors else ""))
        return lines

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    needed = [os.path.join("src", "qqwalk", "cli.py"), os.path.join("coins", "hadamard.json")]
    missing = [p for p in needed if not os.path.isfile(os.path.join(root, p))]
    if missing:
        print(f"perfbench: run from the root of a qqwalk checkout; missing {missing}",
              file=sys.stderr)
        return 2
    run = Run(args, root)
    try:
        result, report = run.execute()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    print("\n".join(report))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
