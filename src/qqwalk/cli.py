"""Command-line front end.

Subcommands: classify | simulate | exact | xi | spectrum | limit | compare,
with flags as `--flag value` or `--flag=value`; `--help` prints the usage.
Outputs are deterministic: CSV with a header row, LF endings and floats at
17 significant digits; JSON via the standard shortest-round-trip float
representation.  `simulate` and `xi` work for every valid coin: each takes
`exact`'s closed form where `coin.closed_family` or, for `xi`,
`coin.kernel_family` names one (and l, m >= 1), and the propagator
elsewhere.  Exit codes: 0 success, 1 usage or input error (an unwritable
--out or stdout included), 2 domain error, 3 numeric failure (degenerate
spectrum, total probability drift).  `main` returns the exit code; `run`,
the process entry point, ends the process with it right after flushing the
output, without interpreter teardown.
"""

from __future__ import annotations

import json
import os
import sys
from itertools import islice
from math import isfinite

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


def _parse_init(alpha: str, beta: str) -> tuple[quaternion.Quaternion, quaternion.Quaternion]:
    alpha = _parse_quaternion(alpha, "--alpha")
    beta = _parse_quaternion(beta, "--beta")
    try:
        coin_layer.check_spinor(alpha, beta)
    except NotNormalizedError as exc:
        raise UsageError(f"--alpha/--beta: {exc}") from exc
    return alpha, beta


def _print(text: str) -> None:
    """Write a line to stdout and flush it; a failed write is a usage
    error, as an unwritable --out is."""
    try:
        print(text, flush=True)
    except OSError as exc:
        raise UsageError(f"cannot write stdout: {exc.strerror or exc}") from exc


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
               ("%d,%.17g" % row
                for row in zip(range(-dist.n, dist.n + 1, 2), dist.probs)))


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

def _cmd_classify(*, coin) -> int:
    coin = _load_coin(coin)
    payload = {
        "class": coin_layer.classify(coin),
        "residuals": coin_layer.unitarity_residuals(*coin.entries()),
    }
    _print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_simulate(*, coin, alpha, beta, steps, out) -> int:
    coin = _load_coin(coin)
    alpha, beta = _parse_init(alpha, beta)
    _check_size("--steps", steps)
    if coin_layer.closed_family(coin) is not None:
        # the walk's law in O(n) on Python floats, without the propagator or numpy
        dist = exact.closed_form_distribution(coin, alpha, beta, steps)
        coin_layer.check_norm((dist.total(),), steps)
    else:
        dist = walk.distribution(walk.evolve(coin, alpha, beta, steps))
    _write_dist_csv(out, dist)
    return 0


def _cmd_exact(*, coin, alpha, beta, steps, out) -> int:
    coin = _load_coin(coin)
    alpha, beta = _parse_init(alpha, beta)
    _check_size("--steps", steps)
    dist = exact.closed_form_distribution(coin, alpha, beta, steps)
    _write_dist_csv(out, dist)
    return 0


def _cmd_xi(*, coin, l, m) -> int:
    coin = _load_coin(coin)
    if l < 0 or m < 0:
        raise UsageError("--l and --m must be non-negative")
    _check_size("--l + --m", l + m)
    if coin_layer.kernel_family(coin) is not None and min(l, m) >= 1:
        # O(min(l, m)) on Python floats, without the propagator or numpy
        ps = exact.xi_closed(coin, l, m)
    else:
        ps = exact.xi_bruteforce(coin_layer.split_pq(coin), l, m)
    payload = {
        "l": ps.l,
        "m": ps.m,
        "position": ps.position,
        "matrix": ps.matrix,
    }
    _print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_spectrum(*, coin, theta) -> int:
    coin = _load_coin(coin)
    if not isfinite(theta):
        raise UsageError(f"--theta must be finite, got {theta}")
    pairs = spectral.eigen_system(coin, theta)
    payload = {
        "theta": theta,
        "eigenvalues": [_complex_json(p.value) for p in pairs],
        "angles": [p.lam for p in pairs],
        "vectors": [[_complex_json(z) for z in p.vector] for p in pairs],
        "residuals": [p.residual for p in pairs],
    }
    _print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_limit(*, coin, alpha, beta, out, grid=1001) -> int:
    coin = _load_coin(coin)
    alpha, beta = _parse_init(alpha, beta)
    if grid < 3:
        raise UsageError("--grid must be at least 3")
    _check_size("--grid", grid)
    params = spectral.qqw_limit_params(coin)
    c = spectral.weight_constant(coin, alpha, beta)
    dens = spectral.qqw_limit_density(params, _linspace(-1.0, 1.0, grid))
    _write_csv(out, "y,density",
               ("%.17g,%.17g" % (y, f * (1.0 - c * y))
                for y, f in zip(_linspace(-1.0, 1.0, grid), dens)))
    return 0


def _cmd_compare(*, coin, alpha, beta, steps) -> int:
    coin = _load_coin(coin)
    alpha, beta = _parse_init(alpha, beta)
    _check_size("--steps", steps)
    result = spectral.limit_compare(coin, alpha, beta, steps)
    payload = {
        "kolmogorov": result.kolmogorov,
        "r": result.r,
        "G": result.g,
        "weightC": result.weight_c,
    }
    _print(json.dumps(payload, sort_keys=True))
    return 0


# ---------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------

_INIT = {"alpha": str, "beta": str}

# command: (handler, help, {flag: type}).  Each flag is a keyword-only
# parameter of the handler; it is required unless the handler gives it a
# default.
COMMANDS = {
    "classify": (_cmd_classify, "print the coin class and unitarity residuals",
                 {"coin": str}),
    "simulate": (_cmd_simulate, "write the walk's x,probability CSV (exact's "
                                "closed form where it has one)",
                 {"coin": str, **_INIT, "steps": int, "out": str}),
    "exact": (_cmd_exact, "closed-form distribution, same CSV schema",
              {"coin": str, **_INIT, "steps": int, "out": str}),
    "xi": (_cmd_xi, "print a path-sum matrix as JSON (the closed form where "
                    "it has one)",
           {"coin": str, "l": int, "m": int}),
    "spectrum": (_cmd_spectrum, "eigenvalues/eigenvectors of the symbol",
                 {"coin": str, "theta": float}),
    "limit": (_cmd_limit, "write the weighted limit density as y,density CSV",
              {"coin": str, **_INIT, "grid": int, "out": str}),
    "compare": (_cmd_compare, "Kolmogorov distance to the limit CDF, as JSON",
                {"coin": str, **_INIT, "steps": int}),
}


def _cmd_help(*, text) -> int:
    _print(text)
    return 0


def _usage(commands) -> str:
    lines = ["usage: qqwalk COMMAND --flag VALUE ...  (or --flag=VALUE)"]
    for name in commands:
        handler, text, flags = COMMANDS[name]
        optional = handler.__kwdefaults__ or {}
        words = []
        for flag in flags:
            word = f"--{flag} {flag.upper()}"
            words.append(f"[{word}]" if flag in optional else word)
        lines += [f"  {name} {' '.join(words)}", f"      {text}"]
    lines.append("COIN is a coin JSON file; ALPHA and BETA are JSON arrays [x0,x1,x2,x3].")
    return "\n".join(lines)


def _parse(argv: list) -> tuple:
    """(handler, keyword arguments) of a command line, the usage printer
    being the handler of -h/--help; raises UsageError.  A flag's value is
    always the next word, so `--theta -1e-3` reads -1e-3."""
    if not argv:
        raise UsageError("missing command; try --help")
    name, *words = argv
    if name in ("-h", "--help"):
        return _cmd_help, {"text": _usage(COMMANDS)}
    if name not in COMMANDS:
        raise UsageError(f"unknown command {name!r}; choose from {', '.join(COMMANDS)}")
    handler, _, flags = COMMANDS[name]
    values = {}
    words = iter(words)
    for word in words:
        if word in ("-h", "--help"):
            return _cmd_help, {"text": _usage([name])}
        flag, eq, value = word.partition("=")
        key = flag[2:]
        kind = flags.get(key) if flag.startswith("--") else None
        if kind is None:
            raise UsageError(f"{name}: unknown argument {word!r}")
        if not eq:
            value = next(words, None)
            if value is None:
                raise UsageError(f"{flag} expects a value")
        try:
            values[key] = kind(value)
        except ValueError:
            raise UsageError(f"{flag}: invalid {kind.__name__} value {value!r}") from None
    missing = [f"--{f}" for f in flags
               if f not in values and f not in (handler.__kwdefaults__ or {})]
    if missing:
        raise UsageError(f"{name}: missing required {', '.join(missing)}")
    return handler, values


def main(argv=None) -> int:
    try:
        handler, values = _parse(sys.argv[1:] if argv is None else list(argv))
        return handler(**values)
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


def run() -> None:
    """The process entry point: main(), then flush stdout and stderr and
    end the process with os._exit, skipping interpreter teardown (freeing
    the loaded modules costs about as much as a short job).  So atexit
    handlers do not run.  Every --out file is closed before main() returns,
    and main() flushes each stdout write and reports a failed one itself."""
    rc = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            try:
                stream.flush()
            except OSError:  # the rest of a failed write, reported by main()
                pass
    os._exit(rc)


if __name__ == "__main__":
    run()
