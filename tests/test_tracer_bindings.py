"""The benchmark tracer (`perfbench/tracer.py`) binds package names by
attribute and parameter name; a rename or a dropped cache there breaks
`perfbench/run.py --trace 1` without failing any other test."""

import importlib
import importlib.util
import inspect
import os

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
