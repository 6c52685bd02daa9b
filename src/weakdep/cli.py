"""Command-line entry point.

Subcommands: ``validate`` a law file, ``solve`` a functional on a law,
``adversarial`` to generate a certified weak-dependence sequence, and
``coverage`` to execute a Monte Carlo plan.  All randomness flows from the
plan seed, which ``coverage --seed`` alone may override; outputs are
machine-first: ``solve`` and ``adversarial`` print one line of JSON, and
``coverage`` writes CSV (and JSON) and prints the CSV's path.

Exit codes: 0 success, 1 validation failure, 2 input parse error,
3 model-membership failure, 4 generation failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import itertools
import json
import os
import sys
from pathlib import Path

from . import adversarial, functionals, laws, simulate
from .errors import WeakdepError

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_NO_SOLUTION = 3
EXIT_GENERATION = 4


class _InputError(Exception):
    """Wraps any malformed-input failure so main can map it to exit code 2."""


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _parse(obj, builder, what):
    try:
        return builder(obj)
    except (KeyError, TypeError, ValueError, OverflowError, WeakdepError) as exc:
        raise _InputError(f"bad {what}: {exc}") from exc


def _check_tol(tol):
    if not 0.0 <= tol < float("inf"):
        raise _InputError(f"bad --tol: must be a finite number >= 0; got {tol}")


def _invalid(violations):
    for violation in violations:
        print(violation, file=sys.stderr)
    return EXIT_INVALID


def cmd_validate(args) -> int:
    law = _parse(_load_json(args.law), laws.law_from_dict, "law file")
    violations = laws.validate(law)
    for violation in violations:
        print(violation)
    if not violations:
        print("ok")
    return EXIT_INVALID if violations else EXIT_OK


def cmd_solve(args) -> int:
    _check_tol(args.tol)
    law = _parse(_load_json(args.law), laws.law_from_dict, "law file")
    spec = _parse(_load_json(args.spec), functionals.FunctionalSpec.from_dict,
                  "functional spec")
    violations = laws.validate(law)
    if violations:
        return _invalid(violations)
    try:
        report = functionals.check_model_membership(law, spec, args.tol)
    except ValueError as exc:
        raise _InputError(f"functional spec does not fit the law support: {exc}")
    print(json.dumps({"phi": report.phi, "diagnostics": report.to_dict()}))
    return EXIT_OK if report.in_model else EXIT_NO_SOLUTION


def cmd_adversarial(args) -> int:
    _check_tol(args.tol)
    base = _parse(_load_json(args.base), adversarial.BaseLawSpec.from_dict,
                  "base law spec")
    try:
        tv_targets = [float(t) for t in args.tv_targets.split(",")]
    except ValueError as exc:
        raise _InputError(f"bad --tv-targets: {exc}")
    try:
        sequence = adversarial.generate_sequence(
            base, args.zeta, tv_targets, cert_tol=args.tol
        )
    except ValueError as exc:
        raise _InputError(f"bad --zeta or --tv-targets: {exc}")
    except WeakdepError as exc:
        print(f"generation failed: {exc}", file=sys.stderr)
        return EXIT_GENERATION

    certificates = []
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for t, step in enumerate(sequence.steps):
            name = f"law_{t + 1:02d}.json"
            certificate = step.certificate()
            payload = laws.law_to_dict(step.law)
            payload["certificate"] = certificate
            (out_dir / name).write_text(json.dumps(payload), encoding="utf-8")
            certificates.append({"file": name, **certificate})
        summary = json.dumps({"target_zeta": sequence.target_zeta,
                              "steps": certificates})
        (out_dir / "certificates.json").write_text(summary, encoding="utf-8")
    except OSError as exc:
        raise _InputError(f"cannot write --out: {exc}") from exc
    print(summary)
    return EXIT_OK


def _open_report(path, created):
    """Opens a report for writing without emptying it.  A file this call
    creates is removed again when the ExitStack ``created`` closes."""
    try:
        output = open(path, "x", encoding="utf-8")
    except FileExistsError:
        return open(path, "a", encoding="utf-8")
    created.callback(os.unlink, path)
    return output


def cmd_coverage(args) -> int:
    plan = _parse(_load_json(args.plan), simulate.plan_from_dict, "experiment plan")
    if args.seed is not None:
        plan = _parse(args.seed, lambda seed: dataclasses.replace(plan, seed=seed), "--seed")
    violations = [
        f"law {case.label!r}: {violation}"
        for case in plan.laws
        for violation in laws.validate(case.law)
    ]
    if violations:
        return _invalid(violations)
    with contextlib.ExitStack() as stack:
        try:
            # opened before the run, so an unwritable path costs no
            # replications, and without truncating, so a report path that
            # cannot be opened, or that is the other report or the plan,
            # leaves every file as it was and creates none
            with contextlib.ExitStack() as created:
                outputs = [stack.enter_context(_open_report(path, created))
                           for path in (args.out, args.json) if path]
                files = [os.stat(args.plan)] + [os.fstat(out.fileno()) for out in outputs]
                if any(itertools.starmap(os.path.samestat, itertools.combinations(files, 2))):
                    raise _InputError("cannot write report: it is the plan or the other report")
                created.pop_all()
            for output in outputs:
                output.seek(0)
                output.truncate()
        except OSError as exc:
            raise _InputError(f"cannot write report: {exc}") from exc
        report = simulate.run(plan)
        outputs[0].write(report.to_csv())
        if args.json:
            outputs[1].write(report.to_json())
    print(args.out)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="weakdep",
        description="discrete weak-dependence laws and confidence-set experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a law file against its invariants")
    p.add_argument("law", help="law JSON file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="evaluate the functional on a law")
    p.add_argument("law", help="law JSON file")
    p.add_argument("spec", help="functional spec JSON file")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="consistency tolerance for the per-stratum systems")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("adversarial",
                       help="generate a certified weak-dependence sequence")
    p.add_argument("base", help="base law spec JSON file")
    p.add_argument("--zeta", type=float, required=True,
                   help="target functional value")
    p.add_argument("--tv-targets", required=True,
                   help="comma-separated decreasing total-variation targets")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="certification tolerance")
    p.set_defaults(func=cmd_adversarial)

    p = sub.add_parser("coverage", help="run a Monte Carlo coverage plan")
    p.add_argument("plan", help="experiment plan JSON file")
    p.add_argument("--out", required=True, help="CSV report path")
    p.add_argument("--json", help="optional full JSON report path")
    p.add_argument("--seed", type=int, help="override the plan seed")
    p.set_defaults(func=cmd_coverage)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
