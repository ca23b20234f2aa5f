"""Seeded inputs of the benchmark: coins, spinors and each workload's job list.

Coins and spinors come from the generators below, never from
``qqwalk.random_coin``, so that a change to the library cannot change the
inputs it is measured on.  The same seed gives the same job list.

A quaternion is a tuple ``(x0, x1, x2, x3)`` of x0 + x1 i + x2 j + x3 k.
For arithmetic it is written as the complex pair (z, w) with
q = z + w j, z = x0 + i x1, w = x2 + i x3, so that
(z1 + w1 j)(z2 + w2 j) = (z1 z2 - w1 conj(w2)) + (z1 w2 + w1 conj(z2)) j.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

WORKLOADS = ("walk-long", "closed-form", "limit-short")

# Class tag of each coin file in coins/, as the README and coin docstrings
# define the tags.
REPO_COINS = {
    "hadamard": "case3",
    "superposition": "general",
    "tracefree_ij": "case4",
    "tracefree_jk": "case5",
    "tracefree_mixed": "case5",
}


# ---------------------------------------------------------------------
# quaternions as complex pairs
# ---------------------------------------------------------------------

def pair(q):
    return complex(q[0], q[1]), complex(q[2], q[3])


def unpair(z, w):
    return (z.real, z.imag, w.real, w.imag)


def qmul(p, q):
    z1, w1 = pair(p)
    z2, w2 = pair(q)
    return unpair(z1 * z2 - w1 * w2.conjugate(), z1 * w2 + w1 * z2.conjugate())


def qconj(q):
    return (q[0], -q[1], -q[2], -q[3])


def qscale(s, q):
    return tuple(s * x for x in q)


def norm_sq(q):
    return sum(x * x for x in q)


def _unit(v):
    n = math.sqrt(sum(x * x for x in v))
    return tuple(x / n for x in v)


# ---------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------

def random_unit(rng: random.Random):
    return _unit([rng.gauss(0.0, 1.0) for _ in range(4)])


def random_spinor(rng: random.Random):
    """(alpha, beta) with |alpha|^2 + |beta|^2 = 1."""
    v = _unit([rng.gauss(0.0, 1.0) for _ in range(8)])
    return v[:4], v[4:]


def basis_spinor(rng: random.Random, side: int):
    """(q, 0) for side 0 or (0, q) for side 1, with q a random unit quaternion.

    The walk multiplies amplitudes from the left, so these give the same
    distribution as (1, 0) and (0, 1): the initial states for which the
    trace-free limit law is known to hold.
    """
    q, zero = random_unit(rng), (0.0, 0.0, 0.0, 0.0)
    return (q, zero) if side == 0 else (zero, q)


def _complete(a_hat, b_hat, g, phi):
    """The unitary coin with first row (cos phi a_hat, sin phi b_hat):

    c = -sin(phi) g, d = cos(phi) g conj(a_hat) b_hat for a unit g.
    """
    cp, sp = math.cos(phi), math.sin(phi)
    return (qscale(cp, a_hat), qscale(sp, b_hat), qscale(-sp, g),
            qscale(cp, qmul(qmul(g, qconj(a_hat)), b_hat)))


def random_coin(rng: random.Random, kind: str, phi: float | None = None):
    """Entries (a, b, c, d) of a unitary coin of the given class.

    ``kind`` is a class tag or ``"complex"`` (all entries in the 1, i
    plane; such a coin classifies as ``general``).  |a| = cos(phi) and
    |b| = sin(phi); phi is drawn from [0.15 pi, 0.35 pi] unless given,
    which keeps |b|^2 / |a|^2 generic and away from 0 and infinity.
    """
    if phi is None:
        phi = rng.uniform(0.15 * math.pi, 0.35 * math.pi)
    zero = (0.0, 0.0, 0.0, 0.0)
    if kind == "case1":
        return random_unit(rng), zero, zero, random_unit(rng)
    if kind == "case2":
        return zero, random_unit(rng), random_unit(rng), zero
    if kind == "case3":
        sign = rng.choice((1.0, -1.0))
        a = (math.cos(phi), 0.0, 0.0, 0.0)
        b = qscale(math.sin(phi), random_unit(rng))
        return a, b, qscale(-sign, qconj(b)), qscale(sign, a)
    if kind == "case4":
        psi = rng.uniform(0.0, 2.0 * math.pi)
        a_hat = (math.cos(psi), math.sin(psi), 0.0, 0.0)
        b_hat = _unit([0.0, 0.0, rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)])
        g = _unit([0.0, 0.0, rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)])
        return _complete(a_hat, b_hat, g, phi)
    if kind == "case5":
        # trace-free: Re a = Re d = 0.  d = cos(phi) g w with
        # w = conj(a_hat) b_hat, and Re(g w) = <g, conj(w)>, so g is drawn
        # orthogonal to conj(w).
        a_hat = _unit([0.0] + [rng.gauss(0.0, 1.0) for _ in range(3)])
        b_hat = random_unit(rng)
        normal = qconj(qmul(qconj(a_hat), b_hat))
        g = [rng.gauss(0.0, 1.0) for _ in range(4)]
        dot = sum(x * y for x, y in zip(g, normal))
        g = _unit([x - dot * y for x, y in zip(g, normal)])
        return _complete(a_hat, b_hat, g, phi)
    if kind == "complex":
        t1, t2, t3 = (rng.uniform(0.0, 2.0 * math.pi) for _ in range(3))
        a = complex(math.cos(phi)) * complex(math.cos(t1), math.sin(t1))
        b = complex(math.sin(phi)) * complex(math.cos(t2), math.sin(t2))
        det = complex(math.cos(t3), math.sin(t3))
        c, d = -det * b.conjugate(), det * a.conjugate()
        return tuple((z.real, z.imag, 0.0, 0.0) for z in (a, b, c, d))
    if kind == "general":
        return _complete(random_unit(rng), random_unit(rng), random_unit(rng), phi)
    raise ValueError(f"unknown coin kind {kind!r}")


# ---------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class Coin:
    """A coin input: the file the CLI reads and the entries it holds."""

    path: str          # relative to the checkout root
    entries: tuple     # (a, b, c, d), each a 4-tuple
    tag: str           # class tag the coin must classify as


@dataclass(frozen=True)
class Job:
    """One ``python -m qqwalk.cli`` invocation and what it must produce."""

    name: str
    command: str
    coin: Coin
    alpha: tuple | None = None
    beta: tuple | None = None
    steps: int = 0
    l: int = 0
    m: int = 0
    theta: float = 0.0
    grid: int = 0

    @property
    def writes_file(self) -> bool:
        return self.command in ("simulate", "exact", "limit")

    def argv(self, out_path: str) -> list[str]:
        args = [self.command, "--coin", self.coin.path]
        if self.alpha is not None:
            args += ["--alpha", json.dumps(list(self.alpha)),
                     "--beta", json.dumps(list(self.beta))]
        if self.command in ("simulate", "exact", "compare"):
            args += ["--steps", str(self.steps)]
        if self.command == "xi":
            args += ["--l", str(self.l), "--m", str(self.m)]
        if self.command == "spectrum":
            args += ["--theta", repr(self.theta)]
        if self.command == "limit":
            args += ["--grid", str(self.grid)]
        if self.writes_file:
            args += ["--out", out_path]
        return args


@dataclass
class Workload:
    jobs: list[Job]        # the timed job list, run in order
    probes: list[Job]      # known-defect jobs: checked every run, not timed
    coin_files: dict       # path -> entries, to be written before the run


class _Builder:
    """Collects generated coin files while a workload's job list is built."""

    def __init__(self, workload: str, seed: int, coin_dir: str):
        self.rng = random.Random(f"{workload}:{seed}")
        self.coin_dir = coin_dir
        self.files: dict[str, tuple] = {}

    def generated(self, kind: str, phi: float | None = None) -> Coin:
        entries = random_coin(self.rng, kind, phi)
        path = os.path.join(self.coin_dir, f"gen{len(self.files)}_{kind}.json")
        self.files[path] = entries
        return Coin(path, entries, "general" if kind == "complex" else kind)

    def fixed_ratio4(self) -> Coin:
        """The case4 coin a = d = 1/sqrt(5), b = c = 2j/sqrt(5)."""
        a, b = 1.0 / math.sqrt(5.0), 2.0 / math.sqrt(5.0)
        entries = ((a, 0.0, 0.0, 0.0), (0.0, 0.0, b, 0.0),
                   (0.0, 0.0, b, 0.0), (a, 0.0, 0.0, 0.0))
        path = os.path.join(self.coin_dir, "ratio4_case4.json")
        self.files[path] = entries
        return Coin(path, entries, "case4")

    def spinor_job(self, name, command, coin, side=None, **kw) -> Job:
        """A job from a random spinor, or from a basis spinor on ``side``."""
        if side is None:
            alpha, beta = random_spinor(self.rng)
        else:
            alpha, beta = basis_spinor(self.rng, side)
        return Job(name, command, coin, alpha=alpha, beta=beta, **kw)


def repo_coin(root: str, name: str) -> Coin:
    path = os.path.join("coins", name + ".json")
    with open(os.path.join(root, path), encoding="utf-8") as fh:
        payload = json.load(fh)
    entries = tuple(tuple(float(x) for x in payload[k]) for k in "abcd")
    return Coin(path, entries, REPO_COINS[name])


def _smoke(b: _Builder, case3: Coin, tracefree: Coin, skip: tuple = ()) -> list[Job]:
    """One small job of each subcommand, so every layer is traced on every
    workload.  Each costs little beyond interpreter start-up."""
    jobs = [
        Job("smoke-classify", "classify", tracefree),
        b.spinor_job("smoke-simulate", "simulate", case3, steps=200),
        b.spinor_job("smoke-exact", "exact", case3, steps=40),
        Job("smoke-xi", "xi", case3, l=7, m=7),
        Job("smoke-spectrum", "spectrum", tracefree, theta=0.4),
        b.spinor_job("smoke-limit", "limit", tracefree, side=0, grid=201),
        b.spinor_job("smoke-compare", "compare", tracefree, side=0, steps=100),
    ]
    return [j for j in jobs if j.command not in skip]


def build(workload: str, seed: int, root: str, coin_dir: str) -> Workload:
    """The job list of one workload; ``coin_dir`` is relative to ``root``."""
    b = _Builder(workload, seed, coin_dir)
    had = repo_coin(root, "hadamard")
    ij = repo_coin(root, "tracefree_ij")
    probes: list[Job] = []
    if workload == "walk-long":
        sup = repo_coin(root, "superposition")
        # |a| fixes how far the amplitudes at the walk's edges decay, and so
        # how much subnormal arithmetic the stepping does; a seed-drawn |a|
        # would change the cost of the job from seed to seed.
        tf = b.generated("case5", phi=math.pi / 4)
        jobs = [
            b.spinor_job("simulate-superposition-3000", "simulate", sup, steps=3000),
            b.spinor_job("simulate-tracefree-3000", "simulate", tf, steps=3000),
            b.spinor_job("simulate-superposition-2000", "simulate", sup, steps=2000),
        ] + _smoke(b, had, tf, skip=("simulate",))
    elif workload == "closed-form":
        coins = [b.generated("case3"), b.generated("case4"),
                 b.generated("complex"), had]
        # hadamard's ratio |b|^2/|a|^2 = 1 keeps the rational sums cheap, so
        # the generic coins carry most of the exact work.
        jobs = [b.spinor_job(f"exact-{c.tag}{i}-{n}", "exact", c, steps=n)
                for i, (c, n) in enumerate(zip(coins, (300, 300, 300, 400)))]
        sizes = ((7, 7), (16, 16), (4, 60), (12, 288))
        jobs += [Job(f"xi-{c.tag}{i}-{l}-{m}", "xi", c, l=l, m=m)
                 for i, (c, (l, m)) in enumerate(zip(coins, sizes))]
        jobs += _smoke(b, coins[0], ij, skip=("exact", "xi"))
        # The closed form loses all accuracy as min(l, m) grows, and
        # (|b|^2/|a|^2)^g overflows past g ~ 512 when the ratio is 4.
        probes = [Job(f"xi-hadamard-{k}-{k}", "xi", had, l=k, m=k)
                  for k in (40, 60, 100)]
        probes.append(Job("xi-ratio4-530-530", "xi", b.fixed_ratio4(), l=530, m=530))
    elif workload == "limit-short":
        mixed = repo_coin(root, "tracefree_mixed")
        tf = [b.generated("case5"), b.generated("case5"), ij,
              repo_coin(root, "tracefree_jk"), mixed]
        classify = [repo_coin(root, name) for name in REPO_COINS]
        classify += [b.generated(k) for k in
                     ("case1", "case2", "case3", "case4", "case5", "general")]
        jobs = [Job(f"classify-{i}", "classify", c) for i, c in enumerate(classify)]
        jobs += [Job(f"spectrum-{i}", "spectrum", tf[i % len(tf)],
                     theta=b.rng.uniform(0.05, math.pi - 0.05)) for i in range(6)]
        jobs += [b.spinor_job(f"limit-{i}", "limit", tf[i], side=i % 2, grid=20001)
                 for i in range(3)]
        # Kolmogorov <= 0.02 at n = 2000 holds for these two coins from (1, 0);
        # on other trace-free coins the distance is still above 0.02 there.
        jobs += [b.spinor_job(f"compare-{i}", "compare", c, side=0, steps=2000)
                 for i, c in enumerate((ij, tf[4], ij))]
        jobs += _smoke(b, had, tf[0], skip=("classify", "spectrum", "limit", "compare"))
        # The limit law does not hold from a general spinor: the distance
        # stays near 0.2 as n grows from 500 to 4000.
        s = (math.sqrt(0.5), 0.0, 0.0, 0.0)
        probes = [Job("compare-mixed-real-spinor-2000", "compare", mixed,
                      alpha=s, beta=s, steps=2000)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Workload(jobs, probes, b.files)


def write_coins(root: str, files: dict) -> None:
    for path, entries in files.items():
        payload = {k: list(q) for k, q in zip("abcd", entries)}
        with open(os.path.join(root, path), "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
