"""In-memory span tracing of the package's layers, installed from outside.

The traced run replaces each traced function with a wrapper under every
module-global name its callers look it up by (``simulate.sample`` is the
``laws.sample`` that ``simulate.run`` calls), so the package itself is not
edited.  A span is ``(name, start, end, parent span index, chunk id)``;
spans stay in memory until the run ends.  Span names are
``<defining module>.<function>``.

A function a later version no longer defines is skipped, so its metrics are
absent from the report rather than zero.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from collections import Counter

from weakdep import adversarial, cli, confsets, functionals, laws, simulate
from weakdep.errors import WeakdepError

MODULES = {
    "laws": laws, "functionals": functionals, "confsets": confsets,
    "adversarial": adversarial, "simulate": simulate, "cli": cli,
}

# (defining module, function, modules whose globals callers look it up in)
TRACED = (
    ("laws", "sample", ("simulate",)),
    ("laws", "estimate", ("confsets",)),
    ("functionals", "solve_g", ("confsets", "functionals")),
    ("functionals", "solve_q", ("confsets", "functionals")),
    ("functionals", "riesz_alpha", ("confsets", "functionals")),
    ("functionals", "psi1_values", ("confsets",)),
    ("functionals", "cond_mean_operator", ("functionals",)),
    ("functionals", "response_vector", ("functionals",)),
    ("functionals", "adjoint_mean_operator", ("functionals",)),
    ("functionals", "check_model_membership", ("functionals", "adversarial")),
    ("functionals", "evaluate_phi", ("functionals", "adversarial")),
    ("confsets", "wald_ci", ("simulate",)),
    ("confsets", "score_invert_late", ("simulate",)),
    ("confsets", "binary_union_set", ("simulate",)),
    ("simulate", "run", ("simulate",)),
    ("cli", "main", ("cli",)),
)

# region constructors: their degenerate results are wasted work
CONSTRUCTORS = ("confsets.wald_ci", "confsets.score_invert_late",
                "confsets.binary_union_set")


def _adversarial_public():
    """Every public function adversarial defines, looked up in adversarial
    (and generate_sequence also in simulate)."""
    out = []
    for name, obj in vars(adversarial).items():
        if (name.startswith("_") or not inspect.isfunction(obj)
                or obj.__module__ != adversarial.__name__):
            continue
        where = ("adversarial", "simulate") if name == "generate_sequence" \
            else ("adversarial",)
        out.append(("adversarial", name, where))
    return tuple(out)


class Tracer:
    """Spans and counters of the traced chunks; wrappers are installed only
    while a chunk is traced, so untraced chunks run the original code."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.chunk = None
        self._patches = []
        for module, fname, where in TRACED + _adversarial_public():
            original = getattr(MODULES[module], fname, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{module}.{fname}", original)
            for site in where:
                if getattr(MODULES[site], fname, None) is original:
                    self._patches.append((MODULES[site], fname, original, wrapper))
        self.traced_names = sorted({w.__name__ for *_, w in self._patches})

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.chunk]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except WeakdepError:
                if name in CONSTRUCTORS:
                    counts[name + ".degenerate"] += 1
                raise
            finally:
                stack.pop()
                span[2] = clock()
            self._count(name, args, kwargs, result)
            return result

        wrapper.__name__ = name
        return wrapper

    def _count(self, name, args, kwargs, result):
        counts = self.counts
        if name == "laws.sample":
            counts["laws.sample.rows"] += int(kwargs.get("n", args[1]))
        elif name == "simulate.run":
            plan = kwargs.get("plan", args[0])
            counts["simulate.reps"] += len(plan.laws) * plan.reps
        elif name == "adversarial.generate_sequence":
            counts["adversarial.accepted_steps"] += len(result.steps)
        elif name in CONSTRUCTORS and result.degenerate:
            counts[name + ".degenerate"] += 1

    @contextlib.contextmanager
    def trace(self, chunk):
        """Trace everything called inside the block as part of `chunk`."""
        self.chunk = chunk
        for module, fname, _, wrapper in self._patches:
            setattr(module, fname, wrapper)
        try:
            yield self
        finally:
            for module, fname, original, _ in self._patches:
                setattr(module, fname, original)
            self.chunk = None

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "fields": ["name", "start", "end", "parent", "chunk"],
            "names": names,
            "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")

    def layer_metrics(self):
        """calls / busy_s / self_s per traced name, plus the derived counts."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, busy, own = Counter(), Counter(), Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            busy[name] += end - start
            own[name] += end - start - child[i]
        out = {}
        for name in self.traced_names:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.busy_s"] = busy[name]
            out[f"{name}.self_s"] = own[name]
        for name in CONSTRUCTORS:
            if name in self.traced_names:
                out[f"{name}.degenerate_frac"] = (
                    self.counts[name + ".degenerate"] / calls[name] if calls[name] else 0.0
                )
        for name, counter in (("laws.sample", "laws.sample.rows"),
                              ("simulate.run", "simulate.reps"),
                              ("cli.main", "cli.bytes_written")):
            if name in self.traced_names:
                out[counter] = self.counts[counter]
        if "adversarial.default_params" in self.traced_names:
            candidates = calls["adversarial.default_params"]
            out["adversarial.steps_per_candidate"] = (
                self.counts["adversarial.accepted_steps"] / candidates if candidates else 0.0
            )
        return out

