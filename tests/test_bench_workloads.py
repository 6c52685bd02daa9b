"""The benchmark's workloads still run on the package, and pass their checks.

``bench/workloads.py`` drives the package through its public API; a change
there that breaks a workload (a renamed option, a check that no longer
holds, an output that differs on a rerun) fails these tests before the
benchmark meets it.  Each workload is set up at seed 1 and runs chunk 0
untraced and then under the benchmark's tracer.
"""

import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


@pytest.fixture(scope="module")
def spans():
    return _load("spans")


def _failed(checks):
    return [(name, detail) for name, passed, detail in checks if not passed]


@pytest.mark.parametrize("name", ["sweep_ratio", "sweep_strata", "certify_kx"])
def test_workload_chunk_passes_its_checks(workloads, spans, name, tmp_path):
    workload = workloads.WORKLOADS[name](1, tmp_path)
    items, first = workload.chunk(0)
    assert items > 0
    assert not _failed(workload.check(first))
    with spans.Tracer().trace(0):
        traced_items, traced = workload.chunk(0)
    assert traced_items == items
    assert not _failed(workload.check(traced))
    assert not _failed(workload.final_checks())
    assert workload.same_output(first, workload.chunk(0)[1])
    assert workload.same_output(first, traced)
