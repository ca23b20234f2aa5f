"""Run one qqwalk CLI job with spans around the public functions of each layer.

    python3 perfbench/tracer.py SPANS.json <cli arguments>

behaves like ``python -m qqwalk.cli <cli arguments>``: same output, same
exit code.  It also times ``import qqwalk.cli``, wraps the functions in
``SPANS`` everywhere the package refers to them, and writes the recorded
spans and the lru_cache statistics to SPANS.json when the job ends.
Spans are recorded here, around the calls into each layer; the library
itself is not changed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

SPANS = {
    "coin": ("load_coin", "classify", "split_pq", "unitarity_residuals"),
    "walk": ("evolve", "distribution"),
    "exact": ("closed_form_distribution", "xi_closed", "xi_bruteforce"),
    "spectral": ("eigen_system", "qqw_limit_params", "qqw_limit_density",
                 "weight_constant", "limit_compare", "kolmogorov_distance",
                 "limit_cdf"),
}
CACHES = {"exact._s_sums": ("exact", "_s_sums"),
          "spectral._gauss_legendre": ("spectral", "_gauss_legendre")}


def _evolve_work(args: dict) -> dict:
    n = int(args["steps"])
    return {"site_updates": n * (n + 1) // 2}


def _limit_cdf_work(args: dict) -> dict:
    import numpy as np
    return {"points": int(np.atleast_1d(args["ys"]).size) * int(args["n_nodes"])}


WORK = {"walk.evolve": _evolve_work, "spectral.limit_cdf": _limit_cdf_work}


class Tracer:
    """Spans as [name, start, end, parent index, work counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, None]
        if name in WORK:
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            rec[4] = WORK[name](bound.arguments)
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def install(self) -> None:
        """Replace each function in SPANS by a wrapper in every qqwalk module
        that holds a reference to it, so calls through ``from x import f``
        bindings are traced as well."""
        modules = [m for name, m in sys.modules.items()
                   if name == "qqwalk" or name.startswith("qqwalk.")]
        for layer, names in SPANS.items():
            mod = importlib.import_module("qqwalk." + layer)
            for fname in names:
                orig = getattr(mod, fname)
                wrapper = functools.wraps(orig)(
                    functools.partial(self.call, f"{layer}.{fname}", orig))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import qqwalk.cli as cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        rc = tracer.call("cli.main", cli.main, argv)
    finally:
        sys.stdout.flush()
        caches = {}
        for key, (layer, attr) in CACHES.items():
            info = getattr(importlib.import_module("qqwalk." + layer), attr).cache_info()
            caches[key] = {"hits": info.hits, "misses": info.misses}
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans,
                       "caches": caches}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
