"""Benchmark of the weakdep package: one workload, one seed, one result line.

    python3 bench/run.py --workload sweep_ratio --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory and from nowhere else.  ``--workload all`` runs every
workload in turn, each in its own process.

With ``--trace 0`` the workload is set up several times (``setup_s`` is the
median import time, here and in fresh interpreters, plus the median
set-up), then numbered chunks run in a closed loop (one caller, next call
after the previous returns) for ``--seconds``.
A fixed reference kernel is timed before, after and between the calls of
every chunk, because host speed drifts over seconds; ``items_per_ref``
divides each chunk's items by its wall time in reference-kernel units.
Throughputs are medians over chunks.

With ``--trace 1`` the workload runs a fixed number of chunk pairs, one
chunk traced and one not, in alternating order, so every count repeats
exactly; the per-layer metrics come from the traced chunks and the traced
set-up, and ``trace.overhead_frac`` from the pairs.

The last line of standard output is the result as JSON.  Every output check
that fails is counted in ``failed`` and makes the exit code 1.  Run records
and spans go to ``.bench_runs/`` under the checkout.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_runs"
WORKLOAD_NAMES = ("sweep_ratio", "sweep_strata", "certify_kx")
SETUP_REPEATS = 5
MIN_CHUNKS = 3
REF_REPEATS = 5
# chunk pairs of the traced run: a fixed number, so counts repeat exactly
TRACE_PAIRS = {"sweep_ratio": 16, "sweep_strata": 16, "certify_kx": 4}
# the unit of work of each workload, for the summary line
ITEM_NAMES = {"sweep_ratio": "reps", "sweep_strata": "reps", "certify_kx": "laws"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# host-speed reference


class Reference:
    """Fixed mix of what the package runs: small least-squares solves, a
    sort of a few thousand floats and a short Python loop."""

    def __init__(self, np):
        self.np = np
        grid = np.arange(4096, dtype=float)
        self.values = np.sin(grid * 12.9898) * 43758.5453 % 1.0
        self.lhs = np.cos(np.arange(9.0).reshape(3, 3) * 1.7) + 2.0 * np.eye(3)
        self.rhs = np.sin(np.arange(3.0))

    def kernel(self):
        for _ in range(8):
            self.np.linalg.lstsq(self.lhs, self.rhs, rcond=None)
        self.np.sort(self.values)
        acc = 0.0
        for i in range(1500):
            acc += i * 0.5
        return acc

    def seconds(self):
        times = []
        for _ in range(REF_REPEATS):
            start = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - start)
        return statistics.median(times)


class ChunkClock:
    """Wall time of one chunk and the same time in reference-kernel units.

    The reference is timed when the clock starts and at every tick; each
    stretch between two timings is divided by their mean, so a chunk of
    several calls follows the host's speed call by call.
    """

    def __init__(self, ref):
        self.ref = ref
        self.wall = 0.0
        self.ref_units = 0.0
        self._ref_s = ref.seconds()
        self._start = time.perf_counter()

    def tick(self):
        stretch = time.perf_counter() - self._start
        ref_s = self.ref.seconds()
        self.wall += stretch
        self.ref_units += stretch / ((self._ref_s + ref_s) / 2.0)
        self._ref_s = ref_s
        self._start = time.perf_counter()


IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path[:0] = sys.argv[1:]; "
    "import numpy, weakdep, spans, workloads; print(time.perf_counter() - t)"
)


def import_seconds(first):
    """Median import time: this process's, and that of fresh interpreters."""
    times = [first]
    for _ in range(SETUP_REPEATS - 1):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(Path(__file__).parent)],
            capture_output=True, text=True, timeout=120, check=True,
        ).stdout
        times.append(float(out))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# run metadata


def run_metadata(args, np):
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": sha,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------------------
# one workload


class Tally:
    """Operations attempted and failed: timed calls plus output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def call_failed(self, what):
        self.attempted += 1
        self.failed += 1
        print(f"# FAIL {what}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)

    def call_ok(self):
        self.attempted += 1

    def checks(self, results):
        for name, ok, detail in results:
            self.attempted += 1
            if not ok:
                self.failed += 1
                print(f"# FAIL check {name}: {detail}", file=sys.stderr)


def timed_chunk(workload, index, ref, tally, WeakdepError):
    """One chunk: (items, wall seconds, reference units, output)."""
    clock = ChunkClock(ref)
    try:
        items, output = workload.chunk(index, clock.tick)
    except WeakdepError:
        items, output = 0, None
    except Exception:  # counted as a failure; the loop goes on
        items, output = 0, None
        tally.call_failed(f"chunk {index}")
    else:
        tally.call_ok()
    clock.tick()
    if output is not None:
        tally.checks(workload.check(output))
    return items, clock.wall, clock.ref_units, output


def rates(chunks):
    """(median items/s, median items per reference unit) over chunks."""
    done = [c for c in chunks if c[0]]
    if not done:
        return None, None
    return (statistics.median(items / wall for items, wall, _ in done),
            statistics.median(items / units for items, _, units in done))


def timed_run(args, workload, ref, tally, WeakdepError):
    """Chunks in a closed loop for args.seconds: (metrics, chunks, chunk 0 output)."""
    chunks = []
    first = None
    start = time.perf_counter()
    while len(chunks) < MIN_CHUNKS or time.perf_counter() - start < args.seconds:
        *chunk, output = timed_chunk(workload, len(chunks), ref, tally, WeakdepError)
        if not chunks:
            first = output
        chunks.append(chunk)
    per_s, per_ref = rates(chunks)
    return {"items_per_s": per_s, "items_per_ref": per_ref}, chunks, first


def traced_run(args, workload, tracer, ref, tally, WeakdepError):
    """Chunk pairs, traced and untraced in alternating order, on the same
    chunk index: (metrics, chunks, chunk 0 output)."""
    plain, traced = [], []
    first = None
    for pair in range(TRACE_PAIRS[args.workload]):
        for use_trace in ((False, True) if pair % 2 == 0 else (True, False)):
            if use_trace:
                with tracer.trace(pair):
                    *chunk, output = timed_chunk(workload, pair, ref, tally,
                                                 WeakdepError)
                if isinstance(output, dict):
                    tracer.counts["cli.bytes_written"] += output["bytes_written"]
                traced.append(chunk)
            else:
                *chunk, output = timed_chunk(workload, pair, ref, tally, WeakdepError)
                plain.append(chunk)
            if pair == 0:
                first = output
    metrics = tracer.layer_metrics()
    plain_rate, traced_rate = rates(plain)[1], rates(traced)[1]
    if plain_rate and traced_rate:
        metrics["trace.overhead_frac"] = 1.0 - traced_rate / plain_rate
    return metrics, plain + traced, first


def run_workload(args, spec):
    sys.path.insert(0, str(SRC))
    import numpy as np

    import weakdep
    from weakdep.errors import WeakdepError

    package = Path(weakdep.__file__).resolve()
    if SRC.resolve() not in package.parents:
        raise SystemExit(f"weakdep imported from {package}, not from {SRC}")
    from spans import Tracer
    from workloads import WORKLOADS

    import_s = time.perf_counter() - T0
    meta = run_metadata(args, np)
    print("# run " + json.dumps(meta), flush=True)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    make = WORKLOADS[args.workload]
    ref = Reference(np)
    tally = Tally()
    record = {"meta": meta}
    try:
        if args.trace:
            tracer = Tracer()
            with tracer.trace(-1):
                workload = make(args.seed, workdir)
            metrics, chunks, first = traced_run(args, workload, tracer, ref, tally,
                                                WeakdepError)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            tracer.write(spans_path)
            record["spans"] = spans_path.name
        else:
            setups = []
            for _ in range(SETUP_REPEATS):
                start = time.perf_counter()
                workload = make(args.seed, workdir)
                setups.append(time.perf_counter() - start)
            metrics, chunks, first = timed_run(args, workload, ref, tally, WeakdepError)
            import_s = import_seconds(import_s)
            metrics["setup_s"] = import_s + statistics.median(setups)
            record.update(import_s=import_s, setup_runs_s=setups)
        record["chunks"] = chunks
        tally.checks(workload.final_checks())
        if first is not None:
            try:
                again = workload.chunk(0)[1]
            except Exception:  # chunk 0 passed once, so any error here fails
                tally.call_failed("chunk 0 rerun")
            else:
                tally.checks([("rerun_identical", workload.same_output(first, again),
                               "chunk 0 rerun with the same seed")])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted if metrics.get(m["name"]) is not None
        },
    }
    record.update(metrics=metrics, result=result)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    summary = [f"failed_frac={tally.failed / tally.attempted:.4g} "
               f"({tally.failed}/{tally.attempted})", f"chunks={len(chunks)}"]
    if not args.trace:
        item = ITEM_NAMES[args.workload]
        summary = [
            f"setup_s={metrics['setup_s']:.4f} s",
            f"{item}_per_s={metrics['items_per_s']:.2f} {item}/s",
            f"{item}_per_ref={metrics['items_per_ref']:.5g} {item}/ref",
            f"peak_rss_mb={metrics['peak_rss_mb']:.1f} MB",
        ] + summary
    print(f"# {args.workload} seed={args.seed}: " + "  ".join(summary), flush=True)
    print(json.dumps(result), flush=True)
    return 0 if tally.failed == 0 else 1


# ---------------------------------------------------------------------------
# every workload


def run_all(args):
    """Each workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        code = code or proc.returncode
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            merged["correct"] = False
            continue
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged), flush=True)
    return code


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "weakdep" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'weakdep'}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
