"""The benchmark's three workloads, built from the workload seed alone.

Each workload is set up by its constructor (bases, sequence, plan and a
warm-up call) and then runs numbered chunks.  A chunk is one timed call
sequence into the public API; ``chunk(i, tick)`` returns ``(items, output)``,
where ``items`` counts the unit of work (replications or certified laws) and
``tick`` is called between two calls of a chunk that makes several, and
``check(output)`` returns ``(check name, passed, detail)`` triples.  Every
check holds whatever the package's random stream is.

* ``sweep_ratio``: the paper's headline experiment on the binary ratio
  (LATE) target; cost is row work plus region construction.
* ``sweep_strata``: cross-fitted Wald on a 16-stratum ATE-IV law; cost is
  the per-stratum solves.
* ``certify_kx``: ``weakdep adversarial`` then ``weakdep solve`` on bases
  with 256 strata, through ``cli.main`` in-process; no sampling.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import replace

import numpy as np

from weakdep import adversarial, cli, simulate
from weakdep.adversarial import BaseLawSpec
from weakdep.confsets import Interval
from weakdep.errors import WeakdepError
from weakdep.functionals import FunctionalSpec, check_model_membership
from weakdep.laws import SupportSpec
from weakdep.simulate import ExperimentPlan, LawCase, MethodConfig, wilson_interval

ZETA = 5.0
TV_TARGETS = (0.05, 0.01, 0.002)
CERT_TOL = 1e-8
LEVEL = 0.95
# The coverage checks use a Wilson bound at this level: the score set's
# coverage at the weakest sweep_ratio step is close to nominal (0.9487,
# Wilson 95% 0.946-0.951 over 25,000 replications), so a 95% bound would
# fail by chance in a few percent of runs.
CHECK_LEVEL = 1.0 - 1e-6
WALD_SIGNATURE_MAX = 0.90
MAX_BASE_DRAWS = 20


def chunk_seed(seed, index):
    """Plan seed of chunk `index`; a function of the workload seed only."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def product_base(rng, k, k_y, k_x, functional):
    """Product base law with weights drawn from a narrow band.

    Binary Z and W (k == 2) get counting measures, as the ratio and ATE-IV
    targets need; otherwise the cell measures are drawn too.  Spread-out Y
    cell means keep the Y integrals away from the Y cell measures.
    """
    unit = k == 2
    mu_y = rng.uniform(0.5, 2.0, size=k_y)
    mu_z = np.ones(k) if unit else rng.uniform(0.5, 2.0, size=k)
    mu_w = np.ones(k) if unit else rng.uniform(0.5, 2.0, size=k)
    mu_x = rng.uniform(0.5, 2.0, size=k_x)
    support = SupportSpec(mu_y=mu_y, mu_z=mu_z, mu_w=mu_w, mu_x=mu_x,
                          iota_y=mu_y * np.linspace(0.0, 1.0, k_y))
    f_zx = rng.uniform(0.5, 1.5, size=(k, k_x))
    f_zx /= f_zx.sum()
    pi_w = rng.uniform(0.5, 1.5, size=(k_x, k))
    pi_w /= (pi_w * mu_w).sum(axis=1, keepdims=True)
    pi_y = rng.uniform(0.5, 1.5, size=(k_x, k_y))
    pi_y /= (pi_y * mu_y).sum(axis=1, keepdims=True)
    if functional == "generic":
        alpha = rng.uniform(-2.0, 2.0, size=(k, k_x))
        alpha[0, :] += 1.0
        spec = FunctionalSpec.generic(alpha)
    else:
        spec = FunctionalSpec.ate_iv()
    return BaseLawSpec(support=support, f_zx=f_zx, pi_w_given_x=pi_w,
                       pi_y_given_x=pi_y, functional=spec)


def ratio_base():
    """Binary Y, Z, W and no X; f_Z(1) = 0.5, uniform W and Y, cell means (0, 1)."""
    support = SupportSpec(mu_y=[1.0, 1.0], mu_z=[1.0, 1.0], mu_w=[1.0, 1.0],
                          mu_x=[1.0], iota_y=[0.0, 1.0])
    return BaseLawSpec(support=support, f_zx=[[0.5], [0.5]],
                       pi_w_given_x=[[0.5, 0.5]], pi_y_given_x=[[0.5, 0.5]],
                       functional=FunctionalSpec.late())


def certify_steps(sequence, spec):
    """Checks that every step of a generated sequence is certified."""
    out = []
    for t, step in enumerate(sequence.steps):
        report = check_model_membership(step.law, spec, CERT_TOL)
        ok = (abs(step.phi_closed - ZETA) <= CERT_TOL
              and abs(step.phi_verified - ZETA) <= CERT_TOL and report.in_model)
        out.append((f"step{t + 1}_certified", ok,
                    f"phi_closed={step.phi_closed!r} phi_verified="
                    f"{step.phi_verified!r} in_model={report.in_model}"))
    return out


class Sweep:
    """Coverage sweep along a certified weak-dependence sequence."""

    def __init__(self, seed, base, methods, n, reps_per_chunk, s):
        self.seed = seed
        self.base = base
        self.sequence = adversarial.generate_sequence(base, ZETA, TV_TARGETS)
        laws = tuple(
            LawCase(f"step{t + 1}", step.law, ZETA)
            for t, step in enumerate(self.sequence.steps)
        )
        self.plan = ExperimentPlan(laws=laws, methods=methods, n=n,
                                   reps=reps_per_chunk, level=LEVEL,
                                   seed=chunk_seed(seed, 0), s=s)
        # plan seed -> {(label, method): (covered + errors, reps)}; keyed by
        # seed so a chunk run twice counts once
        self.tallies = {}
        simulate.run(replace(self.plan, reps=2))

    def chunk(self, index, tick=None):
        seed = chunk_seed(self.seed, index)
        report = simulate.run(replace(self.plan, seed=seed))
        return len(self.plan.laws) * self.plan.reps, (seed, report)

    def check(self, output):
        seed, report = output
        self.tallies[seed] = {
            (cell.label, cell.method): (cell.covered + cell.errors, cell.reps)
            for cell in report.cells
        }
        out = []
        for cell in report.cells:
            total = cell.covered + cell.missed + cell.errors
            out.append((f"{cell.label}.{cell.method}.tally", total == cell.reps,
                        f"covered+missed+errors={total} reps={cell.reps}"))
        return out

    def coverage_counts(self):
        """(label, method) -> (covered + errors, reps) over every distinct chunk."""
        counts = {}
        for tally in self.tallies.values():
            for key, (hits, reps) in tally.items():
                total_hits, total_reps = counts.get(key, (0, 0))
                counts[key] = (total_hits + hits, total_reps + reps)
        return counts

    def final_checks(self):
        return certify_steps(self.sequence, self.base.functional)

    def same_output(self, first, again):
        return first[1].to_csv() == again[1].to_csv()


class SweepRatio(Sweep):
    def __init__(self, seed, workdir):
        methods = (
            MethodConfig("wald", {"functional": {"kind": "late"}}),
            MethodConfig("score"),
            MethodConfig("union"),
        )
        super().__init__(seed, ratio_base(), methods, n=2000, reps_per_chunk=50,
                         s=Interval(-20.0, 20.0))

    def final_checks(self):
        out = super().final_checks()
        weakest = self.plan.laws[-1].label
        for (label, method), (hits, reps) in sorted(self.coverage_counts().items()):
            if method in ("score", "union"):
                hi = wilson_interval(hits, reps, CHECK_LEVEL)[1]
                out.append((f"{label}.{method}.wilson_hi", hi >= LEVEL,
                            f"coverage={hits / reps:.4f} reps={reps} wilson_hi={hi:.4f}"))
            elif method == "wald" and label == weakest:
                cov = hits / reps
                out.append((f"{label}.wald.signature", cov < WALD_SIGNATURE_MAX,
                            f"coverage={cov:.4f} reps={reps}"))
        return out


class SweepStrata(Sweep):
    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        methods = (MethodConfig("wald", {"functional": {"kind": "ate_iv"},
                                         "cross_fit": True}),)
        for _ in range(MAX_BASE_DRAWS):
            base = product_base(rng, k=2, k_y=3, k_x=16, functional="ate_iv")
            try:
                super().__init__(seed, base, methods, n=4000, reps_per_chunk=10,
                                 s=Interval(-20.0, 20.0))
                return
            except WeakdepError:
                continue
        raise RuntimeError(f"no certifiable base in {MAX_BASE_DRAWS} draws")


class CertifyKx:
    """`weakdep adversarial` and `weakdep solve` through cli.main in-process."""

    POOL = 8

    def __init__(self, seed, workdir):
        self.workdir = workdir
        rng = np.random.default_rng(seed)
        self.bases = []
        for b in range(self.POOL):
            base = product_base(rng, k=3, k_y=3, k_x=256, functional="generic")
            self.bases.append(self._write_base(base, f"base{b}"))
        warm = product_base(rng, k=3, k_y=3, k_x=4, functional="generic")
        self._run(self._write_base(warm, "warm"))

    def _write_base(self, base, name):
        base_path = self.workdir / f"{name}.json"
        spec_path = self.workdir / f"{name}.spec.json"
        base_path.write_text(json.dumps(base.to_dict()), encoding="utf-8")
        spec_path.write_text(json.dumps(base.functional.to_dict()), encoding="utf-8")
        return base_path, spec_path

    @staticmethod
    def _main(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def _run(self, paths, tick=None):
        base_path, spec_path = paths
        out_dir = self.workdir / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        code, text = self._main([
            "adversarial", str(base_path), "--zeta", repr(ZETA),
            "--tv-targets", ",".join(map(repr, TV_TARGETS)), "--out", str(out_dir),
        ])
        result = {"adversarial": code, "certificates": [], "solves": [],
                  "bytes_written": len(text), "files": {}}
        if code != 0:
            return result
        result["certificates"] = json.loads(text)["steps"]
        for cert in result["certificates"]:
            if tick:
                tick()
            code, solved = self._main(["solve", str(out_dir / cert["file"]),
                                       str(spec_path)])
            result["solves"].append((code, json.loads(solved) if code == 0 else None))
            result["bytes_written"] += len(solved)
        for path in sorted(out_dir.iterdir()):
            data = path.read_bytes()
            result["files"][path.name] = data
            result["bytes_written"] += len(data)
        return result

    def chunk(self, index, tick=None):
        result = self._run(self.bases[index % self.POOL], tick)
        return len(result["solves"]), result

    def check(self, result):
        out = [("adversarial.exit", result["adversarial"] == 0,
                f"exit={result['adversarial']}")]
        if len(result["certificates"]) != len(TV_TARGETS):
            out.append(("adversarial.steps", False,
                        f"{len(result['certificates'])} steps"))
        for cert, (code, solved) in zip(result["certificates"], result["solves"]):
            name = cert["file"]
            out.append((f"{name}.certified",
                        abs(cert["phi_closed"] - ZETA) <= CERT_TOL
                        and abs(cert["phi_verified"] - ZETA) <= CERT_TOL,
                        f"phi_closed={cert['phi_closed']!r} "
                        f"phi_verified={cert['phi_verified']!r}"))
            out.append((f"{name}.solve.exit", code == 0, f"exit={code}"))
            if code == 0:
                ok = (solved["diagnostics"]["in_model"]
                      and abs(solved["phi"] - cert["phi_verified"]) <= CERT_TOL)
                out.append((f"{name}.solve.phi", ok,
                            f"phi={solved['phi']!r} in_model="
                            f"{solved['diagnostics']['in_model']}"))
        return out

    def final_checks(self):
        return []

    def same_output(self, first, again):
        return first["files"] == again["files"] and first["solves"] == again["solves"]


WORKLOADS = {
    "sweep_ratio": SweepRatio,
    "sweep_strata": SweepStrata,
    "certify_kx": CertifyKx,
}
