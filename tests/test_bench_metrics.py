"""The benchmark's per-layer metrics still name functions of the package.

``bench/spans.py`` silently skips a traced name that the package no longer
defines, so a rename would drop a per-layer metric of ``BENCHMARK.json``
from every report without failing anything.  This test reads
``BENCHMARK.json`` and fails instead.
"""

import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_every_per_layer_function_is_defined():
    names = [metric["name"] for metric in json.loads(BENCHMARK.read_text())["per_layer"]]
    layered = [name.split(".") for name in names if name.count(".") == 2]
    assert layered
    for module_name, function, _ in layered:
        module = importlib.import_module(f"weakdep.{module_name}")
        obj = getattr(module, function, None)
        assert inspect.isfunction(obj) and obj.__module__ == module.__name__, \
            f"weakdep.{module_name} defines no function {function}"
