"""Command-line front end.

Subcommands: classify | simulate | exact | xi | spectrum | limit | compare.
Outputs are deterministic: CSV with a header row, LF endings and floats at
17 significant digits; JSON via the standard shortest-round-trip float
representation.  Exit codes: 0 success, 1 usage or input error, 2 domain
error, 3 numeric failure (degenerate spectrum, total probability drift).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from itertools import islice
from math import comb, isfinite

from . import coin as coin_layer
from . import exact, quaternion, spectral, walk
from .errors import (
    DegenerateABError,
    DegenerateError,
    DomainError,
    NormDriftError,
    NotNormalizedError,
    NotUnitaryError,
)

EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_NUMERIC = 3

MAX_SIZE = 10**6  # largest --steps, --grid and --l + --m; checked before allocating
CSV_CHUNK = 4096  # CSV rows formatted and written at a time


class UsageError(Exception):
    pass


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _parse_quaternion(text: str, flag: str) -> quaternion.Quaternion:
    try:
        return quaternion.Quaternion.from_json(json.loads(text))
    except json.JSONDecodeError as exc:
        raise UsageError(f"{flag}: malformed JSON array (line {exc.lineno})") from exc
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from exc


def _check_size(flag: str, size: int) -> None:
    if size < 0:
        raise UsageError(f"{flag} must be non-negative")
    if size > MAX_SIZE:
        raise UsageError(f"{flag} = {size} exceeds the limit {MAX_SIZE}")


def _load_coin(path: str) -> coin_layer.Coin:
    try:
        return coin_layer.load_coin(path)
    except OSError as exc:
        raise UsageError(f"cannot read coin file {path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: malformed JSON (line {exc.lineno})") from exc
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _parse_init(args) -> tuple[quaternion.Quaternion, quaternion.Quaternion]:
    alpha = _parse_quaternion(args.alpha, "--alpha")
    beta = _parse_quaternion(args.beta, "--beta")
    try:
        walk.check_spinor(alpha, beta)
    except NotNormalizedError as exc:
        raise UsageError(f"--alpha/--beta: {exc}") from exc
    return alpha, beta


def _write_csv(path: str, header: str, rows) -> None:
    """Write the header and then each row of an iterable of strings, every
    line ending in LF.  Rows are consumed CSV_CHUNK at a time, so no list
    of all rows is held."""
    rows = iter(rows)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header + "\n")
            while chunk := list(islice(rows, CSV_CHUNK)):
                fh.write("\n".join(chunk) + "\n")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_dist_csv(path: str, dist) -> None:
    _write_csv(path, "x,probability",
               (f"{x},{_fmt(float(p))}"
                for x, p in zip(range(-dist.n, dist.n + 1, 2), dist.probs)))


def _linspace(start: float, stop: float, num: int):
    """The num >= 2 points of numpy.linspace(start, stop, num), term by
    term as numpy computes them: i * step + start, the last one stop."""
    step = (stop - start) / (num - 1)
    for i in range(num - 1):
        yield i * step + start
    yield stop


def _complex_json(z: complex) -> list[float]:
    return [z.real, z.imag]


# ---------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------

def _cmd_classify(args) -> int:
    coin = _load_coin(args.coin)
    payload = {
        "class": coin_layer.classify(coin),
        "residuals": coin_layer.unitarity_residuals(*coin.entries()),
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_simulate(args) -> int:
    coin = _load_coin(args.coin)
    alpha, beta = _parse_init(args)
    _check_size("--steps", args.steps)
    dist = walk.distribution(walk.evolve(coin, alpha, beta, args.steps))
    _write_dist_csv(args.out, dist)
    return 0


def _cmd_exact(args) -> int:
    coin = _load_coin(args.coin)
    alpha, beta = _parse_init(args)
    _check_size("--steps", args.steps)
    dist = exact.closed_form_distribution(coin, alpha, beta, args.steps)
    _write_dist_csv(args.out, dist)
    return 0


def _cmd_xi(args) -> int:
    coin = _load_coin(args.coin)
    if args.l < 0 or args.m < 0:
        raise UsageError("--l and --m must be non-negative")
    _check_size("--l + --m", args.l + args.m)
    if args.brute:
        ps = exact.xi_bruteforce(coin_layer.split_pq(coin), args.l, args.m)
    else:
        ps = exact.xi_closed(coin, args.l, args.m)
    payload = {
        "l": ps.l,
        "m": ps.m,
        "position": ps.position,
        "matrix": ps.matrix,
    }
    if args.brute:
        payload["paths"] = comb(args.l + args.m, args.l)
    # C(l+m, l) has ~0.3 (l+m) digits; Python prints at most 4300 by default
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        print(json.dumps(payload, sort_keys=True))
    finally:
        sys.set_int_max_str_digits(digits)
    return 0


def _cmd_spectrum(args) -> int:
    coin = _load_coin(args.coin)
    if not isfinite(args.theta):
        raise UsageError(f"--theta must be finite, got {args.theta}")
    pairs = spectral.eigen_system(coin, args.theta)
    payload = {
        "theta": args.theta,
        "eigenvalues": [_complex_json(p.value) for p in pairs],
        "angles": [p.lam for p in pairs],
        "vectors": [[_complex_json(z) for z in p.vector] for p in pairs],
        "residuals": [p.residual for p in pairs],
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_limit(args) -> int:
    coin = _load_coin(args.coin)
    alpha, beta = _parse_init(args)
    if args.grid < 3:
        raise UsageError("--grid must be at least 3")
    _check_size("--grid", args.grid)
    params = spectral.qqw_limit_params(coin)
    c = spectral.weight_constant(coin, alpha, beta)
    dens = spectral.qqw_limit_density(params, _linspace(-1.0, 1.0, args.grid))
    _write_csv(args.out, "y,density",
               (f"{_fmt(y)},{_fmt(f * (1.0 - c * y))}"
                for y, f in zip(_linspace(-1.0, 1.0, args.grid), dens)))
    return 0


def _cmd_compare(args) -> int:
    coin = _load_coin(args.coin)
    alpha, beta = _parse_init(args)
    _check_size("--steps", args.steps)
    result = spectral.limit_compare(coin, alpha, beta, args.steps)
    payload = {
        "kolmogorov": result.kolmogorov,
        "r": result.r,
        "G": result.g,
        "weightC": result.weight_c,
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


# ---------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------

def _add_init_args(sub) -> None:
    sub.add_argument("--alpha", required=True,
                     help="initial left amplitude as a JSON array [x0,x1,x2,x3]")
    sub.add_argument("--beta", required=True,
                     help="initial right amplitude as a JSON array [x0,x1,x2,x3]")


class _Parser(argparse.ArgumentParser):
    """argparse takes a word that starts with '-' for an option unless it is a
    plain decimal, so `--theta -1e-3` or `--theta -inf` would fail with
    "expected one argument".  Here every word that starts with -<digit>,
    -.<digit>, -inf or -nan is a value; the flag's type then checks it.
    Subparsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qqwalk",
        description="quaternionic coined quantum walks on the line")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("classify", help="print the coin class and unitarity residuals")
    sub.add_argument("--coin", required=True)
    sub.set_defaults(func=_cmd_classify)

    sub = subs.add_parser("simulate", help="evolve the walk and write x,probability CSV")
    sub.add_argument("--coin", required=True)
    _add_init_args(sub)
    sub.add_argument("--steps", type=int, required=True)
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=_cmd_simulate)

    sub = subs.add_parser("exact", help="closed-form distribution, same CSV schema")
    sub.add_argument("--coin", required=True)
    _add_init_args(sub)
    sub.add_argument("--steps", type=int, required=True)
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=_cmd_exact)

    sub = subs.add_parser("xi", help="print a path-sum matrix as JSON")
    sub.add_argument("--coin", required=True)
    sub.add_argument("--l", type=int, required=True)
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--brute", action="store_true",
                     help="sum any coin's paths from the propagator, not the closed form")
    sub.set_defaults(func=_cmd_xi)

    sub = subs.add_parser("spectrum", help="eigenvalues/eigenvectors of the symbol")
    sub.add_argument("--coin", required=True)
    sub.add_argument("--theta", type=float, required=True)
    sub.set_defaults(func=_cmd_spectrum)

    sub = subs.add_parser("limit", help="write the weighted limit density as y,density CSV")
    sub.add_argument("--coin", required=True)
    _add_init_args(sub)
    sub.add_argument("--grid", type=int, default=1001)
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=_cmd_limit)

    sub = subs.add_parser("compare", help="Kolmogorov distance to the limit CDF, as JSON")
    sub.add_argument("--coin", required=True)
    _add_init_args(sub)
    sub.add_argument("--steps", type=int, required=True)
    sub.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage and 0 on --help
        return 0 if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except (UsageError, NotNormalizedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, NotUnitaryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (DegenerateError, DegenerateABError, NormDriftError,
            ZeroDivisionError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
