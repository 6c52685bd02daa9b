"""The benchmark's tracer still finds what it traces.

``bench/spans.py`` patches package functions by name and silently skips a
name it cannot find, so a rename in the package would drop that layer's
metrics from traced runs without failing anything.  These tests fail
instead.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

from weakdep import laws

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_is_patched(spans):
    tracer = spans.Tracer()
    patched = {(module.__name__.rsplit(".", 1)[1], fname)
               for module, fname, *_ in tracer._patches}
    for module, fname, where in spans.TRACED:
        sites = {(site, fname) for site in where}
        assert sites & patched, f"{module}.{fname} is patched nowhere in {where}"


def test_sample_keeps_n_second():
    # the tracer counts rows from laws.sample's second positional argument
    params = list(inspect.signature(laws.sample).parameters)
    assert params[1] == "n"
