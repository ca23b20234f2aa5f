"""Checks of CLI job outputs against the benchmark's own references.

``check(job, rc, stdout, out, ref)`` returns a list of error strings; an
empty list means the job passed.  Every check counts, none is skipped:
one wrong probability, row or key fails the job.
"""

from __future__ import annotations

import json

import numpy as np

import refs
from inputs import Job

PROB_TOL = 1e-10      # absolute, on every probability and on the total
XI_TOL = 1e-10        # absolute, on every path-sum component (amplitude scale)
EIG_TOL = 1e-9        # on eigenvalues, eigenvector residuals and unit norms
LAW_TOL = 1e-12       # on r, G and the weight constant C
DENSITY_TOL = 1e-9    # relative to max(1, |density|), away from the support edge
EDGE_ULPS = 16 * np.finfo(float).eps  # relative rounding of r between two evaluations
RESIDUAL_TOL = 1e-10  # coin unitarity residuals, the library's own tolerance
KOLMOGOROV_MAX = 0.02  # distance to the limit CDF, required from n = 2000 on
KOLMOGOROV_MIN_STEPS = 2000


def reference(job: Job):
    """What the output of ``job`` is checked against."""
    e = job.coin.entries
    if job.command in ("simulate", "exact"):
        return refs.walk_probs(e, job.alpha, job.beta, job.steps)
    if job.command == "xi":
        return refs.xi_matrix(e, job.l, job.m)
    if job.command == "spectrum":
        return refs.u_theta(e, job.theta), refs.eigenvalues(e, job.theta)
    if job.command in ("limit", "compare"):
        return refs.limit_law(e, job.alpha, job.beta)
    return None


def _csv(out: bytes, header: str, rows: int) -> tuple[list[str], np.ndarray]:
    """Parse a two-column CSV; raises ValueError naming the schema break."""
    text = out.decode("utf-8")
    if "\r" in text or not text.endswith("\n"):
        raise ValueError("CSV must use LF line endings and end with a newline")
    lines = text[:-1].split("\n")
    if lines[0] != header:
        raise ValueError(f"header {lines[0]!r}, expected {header!r}")
    if len(lines) - 1 != rows:
        raise ValueError(f"{len(lines) - 1} rows, expected {rows}")
    cols = [line.split(",") for line in lines[1:]]
    if any(len(c) != 2 for c in cols):
        raise ValueError("every row must have two fields")
    return [c[0] for c in cols], np.array([float(c[1]) for c in cols])


def _check_distribution(job: Job, out: bytes, ref) -> list[str]:
    n = job.steps
    xs, probs = _csv(out, "x,probability", n + 1)
    if xs != [str(x) for x in range(-n, n + 1, 2)]:
        return ["x column is not the parity support -n, -n+2, ..., n"]
    errors = []
    total = float(np.sum(probs))
    if not abs(total - 1.0) <= PROB_TOL:
        errors.append(f"sum of probabilities {total!r} is not within {PROB_TOL} of 1")
    gap = np.abs(probs - ref)
    worst = int(np.argmax(gap))
    if not gap[worst] <= PROB_TOL:
        errors.append(f"P(x={xs[worst]}) off the reference stepper by {gap[worst]:.3e}")
    return errors


def _check_xi(job: Job, doc: dict, ref) -> list[str]:
    if (doc.get("l"), doc.get("m"), doc.get("position")) != (job.l, job.m, job.m - job.l):
        return ["l, m or position do not match the request"]
    mat = np.array(doc["matrix"], dtype=float)
    if mat.shape != (2, 2, 4):
        return [f"matrix has shape {mat.shape}, expected (2, 2, 4)"]
    gap = float(np.max(np.abs(mat - ref)))
    return [] if gap <= XI_TOL else [f"path sum off the recursion by {gap:.3e}"]


def _check_spectrum(job: Job, doc: dict, ref) -> list[str]:
    u, expected = ref
    if doc.get("theta") != job.theta:
        return ["theta does not match the request"]
    vals = np.array([complex(re, im) for re, im in doc["eigenvalues"]])
    if vals.shape != (4,):
        return [f"{vals.size} eigenvalues, expected 4"]
    errors = []
    gap = float(np.max(np.abs(vals - expected)))
    if not gap <= EIG_TOL:
        errors.append(f"eigenvalues off numpy.linalg.eigvals by {gap:.3e}")
    angles = np.array(doc["angles"], dtype=float)
    if not np.max(np.abs(np.exp(1j * angles) - vals)) <= EIG_TOL:
        errors.append("angles do not match the eigenvalues")
    for val, vec in zip(vals, doc["vectors"]):
        v = np.array([complex(re, im) for re, im in vec])
        if not abs(np.linalg.norm(v) - 1.0) <= EIG_TOL:
            errors.append("an eigenvector is not unit norm")
        res = float(np.linalg.norm(u @ v - val * v))
        if not res <= EIG_TOL:
            errors.append(f"eigenvector residual {res:.3e}")
    if not all(0.0 <= r <= EIG_TOL for r in doc["residuals"]):
        errors.append("reported residuals exceed the tolerance")
    return errors


def _check_law(doc: dict, law: dict) -> list[str]:
    return [f"{key} = {doc[key]!r}, reference {law[ref]!r}"
            for key, ref in (("r", "r"), ("G", "G"), ("weightC", "C"))
            if not abs(doc[key] - law[ref]) <= LAW_TOL]


def _check_limit(job: Job, out: bytes, law: dict) -> list[str]:
    ys_text, dens = _csv(out, "y,density", job.grid)
    ys = np.array([float(y) for y in ys_text])
    grid = np.linspace(-1.0, 1.0, job.grid)
    if not np.array_equal(ys, grid):
        return ["y column is not linspace(-1, 1, grid)"]
    expected = refs.limit_density(law, grid)
    # f ~ (r^2 - y^2)^(-1/2), so a relative change e in r moves f by
    # e r^2 / (r^2 - y^2): grid points just inside the edge amplify the last
    # ulp of r, and points within rounding of r are not comparable at all.
    r2 = law["r"] ** 2
    with np.errstate(divide="ignore"):
        edge = EDGE_ULPS * r2 / np.where(r2 > grid ** 2, r2 - grid ** 2, 0.0)
    tol = DENSITY_TOL + np.where(np.abs(grid) < law["r"], edge, 0.0)
    gap = np.abs(dens - expected) / np.maximum(1.0, np.abs(expected)) / tol
    worst = int(np.argmax(gap))
    if not gap[worst] <= 1.0:
        return [f"density at y={ys_text[worst]} off the formula by "
                f"{gap[worst] * tol[worst]:.3e} (tolerance {tol[worst]:.1e})"]
    return []


def _check_compare(job: Job, doc: dict, law: dict) -> list[str]:
    """Below n = 2000 the distance is only checked to be a distance."""
    errors = _check_law(doc, law)
    k = doc["kolmogorov"]
    bound = KOLMOGOROV_MAX if job.steps >= KOLMOGOROV_MIN_STEPS else 1.0
    if not 0.0 <= k <= bound:
        errors.append(f"Kolmogorov distance {k!r} exceeds {bound}")
    return errors


def _check_classify(job: Job, doc: dict) -> list[str]:
    errors = []
    if doc.get("class") != job.coin.tag:
        errors.append(f"class {doc.get('class')!r}, generator made {job.coin.tag!r}")
    res = doc.get("residuals", {})
    if len(res) != 5 or not all(0.0 <= v <= RESIDUAL_TOL for v in res.values()):
        errors.append("unitarity residuals missing or above tolerance")
    return errors


def check(job: Job, rc: int, stdout: bytes, out: bytes | None, ref) -> list[str]:
    """Errors of one job's exit code and output; [] when it passed."""
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    if job.writes_file and out is None:
        return ["no output file written"]
    try:
        if job.command in ("simulate", "exact"):
            return _check_distribution(job, out, ref)
        if job.command == "limit":
            return _check_limit(job, out, ref)
        doc = json.loads(stdout)
        if job.command == "xi":
            return _check_xi(job, doc, ref)
        if job.command == "spectrum":
            return _check_spectrum(job, doc, ref)
        if job.command == "compare":
            return _check_compare(job, doc, ref)
        return _check_classify(job, doc)
    except (ValueError, KeyError, TypeError, IndexError, UnicodeDecodeError) as exc:
        return [f"malformed output: {exc}"]

