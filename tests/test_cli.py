"""Command-line behavior: exit codes, file outputs, determinism."""

import contextlib
import io
import json
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakdep import cli, laws
from weakdep.functionals import DEFAULT_TOL, FunctionalSpec

from helpers import (
    acceptance_base,
    kind_spec,
    kind_support,
    limit_phi,
    random_base,
    random_law,
)

from test_functionals import w_indep_z_law, wz_identity_late


def _strict_json(text):
    """Parse RFC 8259 JSON: a bare NaN or Infinity fails the test."""
    def reject(token):
        raise AssertionError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


# JSON values that are not an object, where a functional spec must be one
_NOT_OBJECTS = ([{"kind": "late"}], "late", 3, None)


@pytest.fixture
def valid_law_file(tmp_path):
    path = tmp_path / "law.json"
    path.write_text(json.dumps(laws.law_to_dict(wz_identity_late())))
    return path


@pytest.fixture
def late_spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(FunctionalSpec.late().to_dict()))
    return path


@pytest.fixture
def base_file(tmp_path):
    path = tmp_path / "base.json"
    path.write_text(json.dumps(acceptance_base().to_dict()))
    return path


class TestValidate:
    def test_valid_law_exit_zero(self, valid_law_file, capsys):
        assert cli.main(["validate", str(valid_law_file)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_mass_sum_off_exit_one(self, tmp_path, capsys):
        law = wz_identity_late()
        bad = laws.DiscreteLaw(law.support, law.mass * 0.98)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(laws.law_to_dict(bad)))
        assert cli.main(["validate", str(path)]) == 1
        assert "total mass" in capsys.readouterr().out

    def test_malformed_json_exit_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["validate", str(path)]) == 2

    def test_wrong_schema_exit_two(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps({"support": {}, "mass": []}))
        assert cli.main(["validate", str(path)]) == 2


def test_parser_is_built_once(valid_law_file, late_spec_file, capsys):
    argv = ["solve", str(valid_law_file), str(late_spec_file)]
    parser = cli.build_parser()
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:          # a refused flag in between
        cli.main(argv + ["--tol", "x"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == first
    assert cli.build_parser() is parser


class TestSolve:
    def test_identity_law_phi(self, valid_law_file, late_spec_file, capsys):
        assert cli.main(["solve", str(valid_law_file), str(late_spec_file)]) == 0
        payload = _strict_json(capsys.readouterr().out)
        assert payload["phi"] == pytest.approx(0.4, abs=1e-10)
        assert payload["diagnostics"]["in_model"] is True
        # W = Z: the operator is the identity, both singular values are one
        assert payload["diagnostics"]["per_stratum"]["sigma_min"] == \
            pytest.approx([1.0], abs=1e-12)

    def test_out_of_model_exit_three(self, tmp_path, late_spec_file, capsys):
        path = tmp_path / "indep.json"
        path.write_text(json.dumps(laws.law_to_dict(w_indep_z_law())))
        assert cli.main(["solve", str(path), str(late_spec_file)]) == 3
        payload = _strict_json(capsys.readouterr().out)
        assert payload["phi"] is None
        assert payload["diagnostics"]["g_residual"] > 1e-8
        # W independent of Z: the operator is rank one
        assert payload["diagnostics"]["per_stratum"]["sigma_min"][0] < 1e-12

    def test_empty_conditioning_cell_exit_three(self, tmp_path, late_spec_file,
                                                 capsys):
        path = tmp_path / "one_arm.json"
        path.write_text(json.dumps(laws.law_to_dict(wz_identity_late(p_z1=1.0))))
        assert cli.main(["solve", str(path), str(late_spec_file)]) == 3
        payload = _strict_json(capsys.readouterr().out)
        assert payload["phi"] is None
        assert payload["diagnostics"]["in_model"] is False
        assert payload["diagnostics"]["g_residual"] is None
        assert "zero probability" in payload["diagnostics"]["message"]

    def test_empty_adjoint_cell_reports_null_q_residual(self, tmp_path, capsys):
        # W = 0 always: every Z cell has mass but the W = 1 cell has none, so
        # the g equation is solved and the adjoint equation is not
        law = wz_identity_late()
        mass = law.mass.sum(axis=2, keepdims=True) * np.array([1.0, 0.0])[:, None]
        path = tmp_path / "one_w.json"
        one_w = laws.DiscreteLaw(law.support, mass)
        path.write_text(json.dumps(laws.law_to_dict(one_w)))
        spec = tmp_path / "generic.json"
        generic = FunctionalSpec.generic(np.array([[1.0], [2.0]]))
        spec.write_text(json.dumps(generic.to_dict()))
        assert cli.main(["solve", str(path), str(spec)]) == 3
        diagnostics = _strict_json(capsys.readouterr().out)["diagnostics"]
        assert diagnostics["g_residual"] is not None
        assert diagnostics["q_residual"] is None
        assert "zero probability" in diagnostics["message"]

    @pytest.mark.parametrize("spec", [
        {"kind": "generic", "alpha": [[float("nan")], [1.0]]},
        {"kind": "npiv", "omega": [float("inf"), 1.0]},
        *_NOT_OBJECTS,
    ])
    def test_non_finite_spec_exit_two(self, tmp_path, valid_law_file, capsys, spec):
        """A NaN or infinite representer coefficient or weight, or a spec
        that is not a JSON object, is refused with one line, not solved into
        non-strict JSON."""
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert cli.main(["solve", str(valid_law_file), str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        reason = "must be finite" if isinstance(spec, dict) else "must be a JSON object"
        assert reason in captured.err and "Traceback" not in captured.err

    def test_invalid_law_exit_one(self, tmp_path, late_spec_file, capsys):
        """A law that fails validate is not solved: exit 1, its violations
        on stderr and nothing on stdout."""
        law = wz_identity_late()
        bad = laws.DiscreteLaw(law.support, law.mass * 0.98)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(laws.law_to_dict(bad)))
        assert cli.main(["solve", str(path), str(late_spec_file)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == laws.validate(bad)
        assert "total mass" in captured.err

    @pytest.mark.parametrize("spec", [
        {"kind": "generic", "alpha": [[1.0, 2.0], [3.0, 4.0]]},    # k_x is 1
        {"kind": "proximal_ate"},                                   # needs even k_x
    ])
    def test_spec_off_the_support_exit_two(self, tmp_path, valid_law_file, capsys, spec):
        """A spec that does not fit the law's support exits 2 with one line
        and no traceback."""
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert cli.main(["solve", str(valid_law_file), str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert "does not fit the law support" in captured.err
        assert "Traceback" not in captured.err

    def test_adversarial_law_matches_certificate(
        self, tmp_path, base_file, late_spec_file, capsys
    ):
        out_dir = tmp_path / "seq"
        assert cli.main([
            "adversarial", str(base_file), "--zeta", "5", "--tv-targets",
            "0.05,0.01", "--out", str(out_dir),
        ]) == 0
        capsys.readouterr()
        law_file = out_dir / "law_01.json"
        payload = json.loads(law_file.read_text())
        assert cli.main(["solve", str(law_file), str(late_spec_file)]) == 0
        solved = _strict_json(capsys.readouterr().out)
        assert solved["phi"] == pytest.approx(
            payload["certificate"]["phi_verified"], abs=1e-8
        )


class TestAdversarial:
    def test_sequence_files_and_certificates(self, tmp_path, base_file, capsys):
        out_dir = tmp_path / "seq"
        assert cli.main([
            "adversarial", str(base_file), "--zeta", "5", "--tv-targets",
            "0.05,0.01,0.002", "--out", str(out_dir),
        ]) == 0
        summary = json.loads((out_dir / "certificates.json").read_text())
        assert len(summary["steps"]) == 3
        for t, step in enumerate(summary["steps"]):
            assert abs(step["phi_verified"] - 5.0) <= 1e-8
            assert (out_dir / step["file"]).exists()
        tvs = [s["tv_to_base"] for s in summary["steps"]]
        assert tvs == sorted(tvs, reverse=True)

    def test_certificates_are_the_solve_of_each_law_file(self, tmp_path, capsys):
        """On a 3x3 base with four strata, stdout is certificates.json's
        text, and each certificate's phi_verified, g_residual and q_residual
        are the bits that solve prints for its law file, although the law
        the certificate was computed on was laid out by an einsum; and its
        tv_to_base is the TV distance of that file read back to the base."""
        base = random_base(np.random.default_rng(5), k=3, k_y=2, k_x=4, tame=True)
        base_path, spec_path = tmp_path / "base.json", tmp_path / "spec.json"
        base_path.write_text(json.dumps(base.to_dict()))
        spec_path.write_text(json.dumps(base.functional.to_dict()))
        out_dir = tmp_path / "seq"
        assert cli.main(["adversarial", str(base_path), "--zeta", "5", "--tv-targets",
                         "0.05,0.01,0.002", "--out", str(out_dir)]) == 0
        text = (out_dir / "certificates.json").read_text()
        assert capsys.readouterr().out == text + "\n"
        for step in json.loads(text)["steps"]:
            assert cli.main(["solve", str(out_dir / step["file"]), str(spec_path)]) == 0
            solved = _strict_json(capsys.readouterr().out)
            assert solved["phi"] == step["phi_verified"]
            assert solved["diagnostics"]["g_residual"] == step["g_residual"]
            assert solved["diagnostics"]["q_residual"] == step["q_residual"]
            law = laws.law_from_dict(json.loads((out_dir / step["file"]).read_text()))
            assert laws.tv_distance(law, base.product_law()) == step["tv_to_base"]

    def test_certificate_tv_is_that_of_each_law_file(self, tmp_path, capsys):
        """On a 3x3 base with sixteen strata and three Y cells, each
        certificate's tv_to_base is the TV distance of its law file read
        back to the base, bit for bit: a law's sums do not depend on the
        layout it was assembled in."""
        base = random_base(np.random.default_rng(5), k=3, k_y=3, k_x=16, tame=True)
        base_path = tmp_path / "base.json"
        base_path.write_text(json.dumps(base.to_dict()))
        out_dir = tmp_path / "seq"
        assert cli.main(["adversarial", str(base_path), "--zeta", "5", "--tv-targets",
                         "0.05,0.01,0.002", "--out", str(out_dir)]) == 0
        steps = json.loads(capsys.readouterr().out)["steps"]
        assert len(steps) == 3
        for step in steps:
            law = laws.law_from_dict(json.loads((out_dir / step["file"]).read_text()))
            assert laws.tv_distance(law, base.product_law()) == step["tv_to_base"]

    @pytest.mark.parametrize("functional", _NOT_OBJECTS)
    def test_functional_not_an_object_exit_two(self, tmp_path, functional, capsys):
        """A base file whose functional is not a JSON object exits 2 with
        one line."""
        doc = acceptance_base().to_dict()
        doc["functional"] = functional
        path = tmp_path / "base.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["adversarial", str(path), "--zeta", "5", "--tv-targets",
                         "0.05", "--out", str(tmp_path / "seq")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err
        assert not (tmp_path / "seq").exists()

    @pytest.mark.parametrize("case, code", [("f_zx_off_by_5e-11", 2),
                                            ("each_sum_off_by_9e-13", 4)])
    def test_no_base_leads_to_a_law_validate_rejects(self, tmp_path, case, code, capsys):
        """A base whose masses sum to 1 + 5e-11 is refused as a bad base;
        one whose three sums are each 9e-13 off, inside the mass tolerance,
        builds laws of total mass 1 + 2.7e-12, which their certificate
        refuses.  Neither run writes a law file."""
        d = 5e-11 if case == "f_zx_off_by_5e-11" else 9e-13
        base = acceptance_base().to_dict()
        base["f_zx"] = [[0.5 + d], [0.5]]
        if case == "each_sum_off_by_9e-13":
            base["pi_w_given_x"] = base["pi_y_given_x"] = [[0.5 + d, 0.5]]
        path = tmp_path / "base.json"
        path.write_text(json.dumps(base))
        out = tmp_path / "seq"
        assert cli.main(["adversarial", str(path), "--zeta", "5",
                         "--tv-targets", "0.05,0.01", "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        if code == 4:
            assert "total mass 1.0000000000026" in err
        assert not out.exists()

    def test_negative_zeta_in_exponent_form(self, tmp_path, base_file, capsys):
        """argparse takes "-1e3" for a flag, so a negative zeta in exponent
        form is given as --zeta=-1e3, and it writes a certified sequence."""
        out_dir = tmp_path / "seq"
        assert cli.main(["adversarial", str(base_file), "--zeta=-1e3", "--tv-targets",
                         "0.05,0.01", "--out", str(out_dir)]) == 0
        summary = _strict_json(capsys.readouterr().out)
        assert summary["target_zeta"] == -1000.0 and len(summary["steps"]) == 2
        for step in summary["steps"]:
            assert abs(step["phi_closed"] + 1000.0) <= DEFAULT_TOL
            assert abs(step["phi_verified"] + 1000.0) <= DEFAULT_TOL
            law = laws.law_from_dict(json.loads((out_dir / step["file"]).read_text()))
            assert laws.validate(law) == []

    def test_infeasible_target_exit_four(self, tmp_path, base_file, capsys):
        assert cli.main([
            "adversarial", str(base_file), "--zeta", "5", "--tv-targets",
            "0.05,1e-12", "--out", str(tmp_path / "x"),
        ]) == 4
        assert "generation failed" in capsys.readouterr().err

    def test_intercept_target_gamma_near_zero(self, tmp_path, base_file, capsys):
        zeta = limit_phi(acceptance_base(), 0.0)
        assert cli.main([
            "adversarial", str(base_file), "--zeta", str(zeta), "--tv-targets",
            "0.05,0.01", "--out", str(tmp_path / "z"),
        ]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert all(abs(s["gamma"]) < 0.05 for s in summary["steps"])

    def test_idempotent_outputs(self, tmp_path, base_file, capsys):
        outs = []
        for name in ("first", "second"):
            out_dir = tmp_path / name
            assert cli.main([
                "adversarial", str(base_file), "--zeta", "3.7", "--tv-targets",
                "0.05,0.01", "--out", str(out_dir),
            ]) == 0
            outs.append({
                p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
            })
        assert outs[0] == outs[1]


# argv (after the subcommand's file arguments) that must exit 2 with a
# one-line message; "{file}" and "{dir}" name an existing file and directory
_BAD_FLAGS = {
    "tv_targets_increasing": ("adversarial", ["--tv-targets", "0.01,0.05"]),
    "tv_targets_negative": ("adversarial", ["--tv-targets", "-0.01"]),
    "tv_targets_nan": ("adversarial", ["--tv-targets", "nan"]),
    "tv_targets_empty": ("adversarial", ["--tv-targets", ""]),
    "tv_targets_empty_item": ("adversarial", ["--tv-targets", "0.05,,0.01"]),
    "zeta_nan": ("adversarial", ["--zeta", "nan"]),
    "zeta_inf": ("adversarial", ["--zeta", "inf"]),
    "adversarial_out_is_file": ("adversarial", ["--out", "{file}"]),
    "coverage_out_missing_dir": ("coverage", ["--out", "{dir}/missing/r.csv"]),
    "coverage_out_is_dir": ("coverage", ["--out", "{dir}"]),
    "coverage_json_missing_dir": ("coverage", ["--json", "{dir}/missing/r.json"]),
    "coverage_seed_negative": ("coverage", ["--seed", "-1", "--out", "{file}"]),
}


@pytest.fixture
def command_argv(tmp_path, base_file, valid_law_file, late_spec_file):
    """A valid invocation of solve, adversarial and coverage, by name; the
    last two write under tmp_path (to seq/ and r.csv)."""
    plan = tmp_path / "plan.json"
    plan.write_text(resources.files("weakdep").joinpath("data/demo_plan.json").read_text())
    return {
        "adversarial": ["adversarial", str(base_file), "--zeta", "5",
                        "--tv-targets", "0.05,0.01", "--out", str(tmp_path / "seq")],
        "solve": ["solve", str(valid_law_file), str(late_spec_file)],
        "coverage": ["coverage", str(plan), "--out", str(tmp_path / "r.csv")],
    }


@pytest.mark.parametrize("case", sorted(_BAD_FLAGS))
def test_bad_flag_exit_two(case, tmp_path, command_argv, capsys):
    command, flags = _BAD_FLAGS[case]
    existing = tmp_path / "existing.txt"
    existing.write_text("keep")
    flags = [f.format(file=existing, dir=tmp_path) for f in flags]
    assert cli.main(command_argv[command] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert "Traceback" not in captured.err
    assert existing.read_text() == "keep"


# flags the commands do not define: the plan file alone sets a report's
# level and methods, each command prints one format, and the consistency
# tolerance is a constant
_REMOVED_FLAGS = {
    "solve_pretty": ("solve", ["--pretty"]),
    "adversarial_pretty": ("adversarial", ["--pretty"]),
    "solve_tol": ("solve", ["--tol", "1e-3"]),
    "solve_tol_nan": ("solve", ["--tol", "nan"]),
    "solve_tol_negative": ("solve", ["--tol", "-1"]),
    "adversarial_tol": ("adversarial", ["--tol", "1e-3"]),
    "adversarial_tol_nan": ("adversarial", ["--tol", "nan"]),
    "coverage_pretty": ("coverage", ["--pretty"]),
    "coverage_level": ("coverage", ["--level", "0.8"]),
    "coverage_methods": ("coverage", ["--methods", "wald"]),
}


@pytest.mark.parametrize("case", sorted(_REMOVED_FLAGS))
def test_removed_flag_exit_two(case, tmp_path, command_argv, capsys):
    """Exit 2 with argparse's usage message, and nothing is written."""
    command, flags = _REMOVED_FLAGS[case]
    with pytest.raises(SystemExit) as exc:
        cli.main(command_argv[command] + flags)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: weakdep")
    assert f"unrecognized arguments: {' '.join(flags)}" in captured.err
    assert "Traceback" not in captured.err
    assert not (tmp_path / "seq").exists() and not (tmp_path / "r.csv").exists()


# (input file, path to one entry, value) that puts something other than a
# JSON number where a law file, functional spec or base spec needs one; each
# value reads as the number it replaces (or, for k_y, rounds to it)
_NOT_NUMBERS = {
    "mass_string": ("law", ("mass", 0), "0.35"),
    "mass_bool": ("law", ("mass", 1), False),
    "measure_string": ("law", ("support", "mu_y", 0), "1"),
    "measure_bool": ("law", ("support", "mu_w", 1), True),
    "iota_bool": ("law", ("support", "iota_y", 1), True),
    "k_fractional": ("law", ("support", "k_y"), 2.5),
    "k_string": ("law", ("support", "k_y"), "2"),
    "k_bool": ("law", ("support", "k_x"), True),
    "alpha_string": ("spec", ("alpha", 0, 0), "-1"),
    "alpha_bool": ("spec", ("alpha", 1, 0), True),
    "omega_string": ("spec", ("omega", 0), "0.5"),
    "base_mass_string": ("base", ("f_zx", 0, 0), "0.5"),
    "base_kernel_string": ("base", ("pi_w_given_x", 0, 1), "0.5"),
    "base_measure_bool": ("base", ("support", "mu_z", 0), True),
    "base_alpha_bool": ("base", ("functional", "alpha", 1, 0), True),
}


@pytest.mark.parametrize("case", sorted(_NOT_NUMBERS))
def test_input_numbers_are_not_repaired(case, tmp_path, valid_law_file, capsys):
    """A string, a boolean or a fractional k_* in an input file exits 2 with
    one line, instead of being converted to the number it spells."""
    which, path, value = _NOT_NUMBERS[case]
    if which == "law":
        doc = laws.law_to_dict(wz_identity_late())
    elif which == "spec":
        doc = ({"kind": "npiv", "omega": [0.5, 1.0]} if path[0] == "omega"
               else {"kind": "generic", "alpha": [[-1.0], [1.0]]})
    else:
        doc = acceptance_base().to_dict()
        doc["functional"] = {"kind": "generic", "alpha": [[-1.0], [1.0]]}
    entry = doc
    for key in path[:-1]:
        entry = entry[key]
    entry[path[-1]] = value
    file = tmp_path / f"{which}.json"
    file.write_text(json.dumps(doc))
    argv = {
        "law": ["validate", str(file)],
        "spec": ["solve", str(valid_law_file), str(file)],
        "base": ["adversarial", str(file), "--zeta", "5", "--tv-targets", "0.05",
                 "--out", str(tmp_path / "seq")],
    }[which]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert "Traceback" not in captured.err


# (input file, function of its document giving the file's content, the one
# line on stderr): a value of the wrong JSON shape, or a key or coefficient
# a functional does not take
_MISSHAPEN = {
    "law_array": ("law", lambda doc: [1, 2], "bad law file: law must be a JSON object"),
    "support_string": ("law", lambda doc: {**doc, "support": "x"},
                       "bad law file: support must be a JSON object"),
    "base_array": ("base", lambda doc: [1, 2],
                   "bad base law spec: base must be a JSON object"),
    "spec_unknown_key": ("spec", lambda doc: {**doc, "bogus": 1},
                         "bad functional spec: unknown functional keys ['bogus']"),
    "spec_alpha_off_kind": ("spec", lambda doc: {**doc, "alpha": [[1.0], [2.0]]},
                            "bad functional spec: generic needs representer "
                            "coefficients alpha, and only generic takes them"),
    "plan_law_array": ("plan", lambda doc: {**doc, "laws": [{**doc["laws"][0], "law": [1, 2]}]},
                       "bad experiment plan: law must be a JSON object"),
    "s_string": ("plan", lambda doc: {**doc, "s": "ab"},
                 "bad experiment plan: s must be a JSON array"),
    "s_number": ("plan", lambda doc: {**doc, "s": 5},
                 "bad experiment plan: s must be a JSON array"),
    "s_three": ("plan", lambda doc: {**doc, "s": [1, 2, 3]},
                "bad experiment plan: s must be a JSON array of two numbers; got [1, 2, 3]"),
}


@pytest.mark.parametrize("case", sorted(_MISSHAPEN))
def test_input_shapes_are_read_as_written(case, tmp_path, valid_law_file, capsys):
    """A law, support, base or plan value of the wrong JSON shape, and a
    functional spec with a key or coefficient its kind does not take, exit
    2 with one line naming the field."""
    which, edit, line = _MISSHAPEN[case]
    doc = {
        "law": lambda: laws.law_to_dict(wz_identity_late()),
        "base": lambda: acceptance_base().to_dict(),
        "spec": lambda: FunctionalSpec.late().to_dict(),
        "plan": lambda: json.loads(resources.files("weakdep").joinpath(
            "data/demo_plan.json").read_text()),
    }[which]()
    file = tmp_path / f"{which}.json"
    file.write_text(json.dumps(edit(doc)))
    argv = {
        "law": ["validate", str(file)],
        "spec": ["solve", str(valid_law_file), str(file)],
        "base": ["adversarial", str(file), "--zeta", "5", "--tv-targets", "0.05",
                 "--out", str(tmp_path / "seq")],
        "plan": ["coverage", str(file), "--out", str(tmp_path / "r.csv")],
    }[which]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [line]
    assert not (tmp_path / "seq").exists() and not (tmp_path / "r.csv").exists()


class TestCoverage:
    @pytest.fixture
    def demo_plan(self, tmp_path):
        text = resources.files("weakdep").joinpath("data/demo_plan.json").read_text()
        path = tmp_path / "plan.json"
        path.write_text(text)
        return path

    def test_csv_header_and_rows(self, demo_plan, tmp_path, capsys):
        out = tmp_path / "report.csv"
        assert cli.main(["coverage", str(demo_plan), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ("label,method,n,reps,coverage,wilson_lo,wilson_hi,"
                            "diam_mean,diam_p50,diam_p90,frac_fullrange,frac_error,"
                            "frac_diam_ge_s")
        assert len(lines) == 4   # three methods, one law

    def test_same_seed_bitwise_identical(self, demo_plan, tmp_path, capsys):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert cli.main(["coverage", str(demo_plan), "--out", str(out_a)]) == 0
        assert cli.main(["coverage", str(demo_plan), "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_seed_override_changes_output(self, demo_plan, tmp_path, capsys):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert cli.main(["coverage", str(demo_plan), "--out", str(out_a)]) == 0
        assert cli.main([
            "coverage", str(demo_plan), "--out", str(out_b), "--seed", "1",
        ]) == 0
        assert out_a.read_bytes() != out_b.read_bytes()

    def test_json_report_and_threads(self, demo_plan, tmp_path, capsys):
        out = tmp_path / "r.csv"
        js = tmp_path / "r.json"
        assert cli.main([
            "coverage", str(demo_plan), "--out", str(out), "--json", str(js),
        ]) == 0
        payload = json.loads(js.read_text())
        assert len(payload["cells"]) == 3
        # the thread pool and the score grid are gone, and so are their flags
        for flag in (["--threads", "4"], ["--grid", "801"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(["coverage", str(demo_plan), "--out", str(out), *flag])
            assert exc.value.code == 2

    # method and (k_y, k_z, k_w, k_x) of a law whose support the method cannot use
    _UNSUPPORTED = {
        "score_on_binary_x": ("score", (2, 2, 2, 2)),
        "union_on_three_x": ("union", (2, 2, 2, 3)),
        "score_on_three_zw": ("score", (2, 3, 3, 1)),
        "union_on_three_zw": ("union", (2, 3, 3, 1)),
    }

    @pytest.mark.parametrize("defect, code", [
        ("mass_sums_to_0.8", 1),
        ("negative_mass", 1),
        ("unknown_method_option", 2),
        ("wald_without_functional", 2),
        ("score_points_option", 2),
        ("plan_is_array_with_seed_flag", 2),
        ("method_not_object", 2),
        ("score_on_binary_x", 2),
        ("union_on_three_x", 2),
        ("score_on_three_zw", 2),
        ("union_on_three_zw", 2),
        ("no_methods", 2),
        ("no_laws", 2),
        ("duplicate_labels", 2),
        ("true_phi_outside_s", 2),
        ("level_rounds_to_one", 2),
        *((f"wald_functional_{i}", 2) for i in range(len(_NOT_OBJECTS))),
    ])
    def test_invalid_plan_exit_code(self, demo_plan, tmp_path, capsys,
                                    defect, code):
        plan = json.loads(demo_plan.read_text())
        mass = plan["laws"][0]["law"]["mass"]
        flags = []
        if defect == "mass_sums_to_0.8":
            mass[:] = [0.8 * m for m in mass]
        elif defect == "negative_mass":
            mass[0], mass[1] = mass[0] + mass[1] + 0.1, -0.1
        elif defect == "unknown_method_option":
            plan["methods"].append({"name": "union", "bogus": 1})
        elif defect == "wald_without_functional":
            plan["methods"] = [{"name": "wald"}]
        elif defect == "score_points_option":
            plan["methods"] = [{"name": "score", "points": 4001}]
        elif defect in self._UNSUPPORTED:
            method, shape = self._UNSUPPORTED[defect]
            law = random_law(np.random.default_rng(3), *shape, unit_zw=True)
            plan["laws"][0]["law"] = laws.law_to_dict(law)
            plan["methods"] = [{"name": method}]
        elif defect == "no_methods":
            plan["methods"] = []
        elif defect == "no_laws":
            plan["laws"] = []
        elif defect == "duplicate_labels":
            plan["laws"].append(dict(plan["laws"][0], true_phi=0.5))
        elif defect == "true_phi_outside_s":
            plan["s"] = [1.0, 2.0]                      # the law's true_phi is 0.4
        elif defect == "level_rounds_to_one":
            plan["level"] = 0.9999999999999999         # 1 - 2**-53
        elif defect.startswith("wald_functional_"):
            functional = _NOT_OBJECTS[int(defect.rsplit("_", 1)[1])]
            plan["methods"] = [{"name": "wald", "functional": functional}]
        elif defect == "plan_is_array_with_seed_flag":
            plan, flags = [plan], ["--seed", "3"]
        else:
            plan["methods"].append("wald")
        demo_plan.write_text(json.dumps(plan))
        out = tmp_path / "r.csv"
        assert cli.main(["coverage", str(demo_plan), "--out", str(out), *flags]) == code
        err = capsys.readouterr().err
        assert err and "Traceback" not in err
        if code == 2:
            assert len(err.splitlines()) == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("n", 100.7),
        ("reps", 2.9),
        ("seed", -5),
        ("seed", 1.5),
        ("n", "100"),
        ("reps", True),
        ("level", "0.95"),
        ("cross_fit", "false"),
        ("cross_fit", 1),
        ("tol", "1e-3"),
        ("tol", float("nan")),
        ("tol", -1.0),
        ("tol", float("inf")),
        ("true_phi", float("nan")),
        ("true_phi", float("inf")),
        ("n", 2**53 + 1),
        ("n", 2**63),
        ("n", 10**30),
        ("s", [float("inf"), float("inf")]),
        ("s", [-float("inf"), -float("inf")]),
        ("tol", 1e-8),
        ("label", None),
        ("label", 5),
        ("label", True),
    ])
    def test_plan_values_are_not_repaired(self, demo_plan, tmp_path, capsys,
                                          key, value):
        """A value of the wrong type (a label that is not a string among
        them), a fractional count, a negative seed, a true_phi that is not
        finite, an n beyond 2**53 or a range s with no finite value exits 2
        with one line instead of running a rounded, coerced or meaningless
        plan.  Wald has no tol option, so a plan that
        carries one, of any value, exits 2 as an unknown option."""
        plan = json.loads(demo_plan.read_text())
        if key in ("cross_fit", "tol"):
            plan["methods"] = [{"name": "wald", "functional": {"kind": "late"},
                                key: value}]
        elif key in ("true_phi", "label"):
            plan["laws"][0][key] = value
        else:
            plan[key] = value
        demo_plan.write_text(json.dumps(plan))
        out = tmp_path / "r.csv"
        out.write_text("keep")
        assert cli.main(["coverage", str(demo_plan), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert out.read_text() == "keep"
        if key == "tol":
            assert "unknown options ['tol']" in err

    def test_largest_n_runs(self, demo_plan, tmp_path, capsys):
        """n = 2**53, the largest size whose counts stay exact in float64,
        runs, and every method covers the true value in both replications."""
        plan = json.loads(demo_plan.read_text())
        plan["n"], plan["reps"] = 2**53, 2
        demo_plan.write_text(json.dumps(plan))
        out = tmp_path / "r.csv"
        assert cli.main(["coverage", str(demo_plan), "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[4] for row in rows] == ["1.0"] * 3

    def test_unopenable_json_leaves_out_untouched(self, demo_plan, tmp_path, capsys):
        out = tmp_path / "r.csv"
        out.write_bytes(b"an earlier report\n")
        assert cli.main(["coverage", str(demo_plan), "--out", str(out),
                         "--json", str(tmp_path / "missing" / "r.json")]) == 2
        assert out.read_bytes() == b"an earlier report\n"
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    @pytest.mark.parametrize("clash", ["json_is_out", "json_links_to_out",
                                       "out_is_plan", "json_is_plan"])
    def test_report_over_another_file_exit_two(self, demo_plan, tmp_path, capsys, clash):
        """A report that is the other report, by name or through a symlink,
        or that is the plan, is refused, and every file stays as it was."""
        out, js = tmp_path / "r.csv", tmp_path / "r.json"
        for path in (out, js):
            path.write_bytes(b"an earlier report\n")
        if clash == "json_is_out":
            js = out
        elif clash == "json_links_to_out":
            js.unlink()
            js.symlink_to(out)
        elif clash == "out_is_plan":
            out = demo_plan
        else:
            js = demo_plan
        before = {path: path.read_bytes() for path in (out, js, demo_plan)}
        assert cli.main(["coverage", str(demo_plan), "--out", str(out),
                         "--json", str(js)]) == 2
        assert {path: path.read_bytes() for path in before} == before
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("clash", ["json_is_out", "json_in_missing_dir"])
    def test_refused_run_creates_no_file(self, demo_plan, tmp_path, capsys, clash):
        """A new --out that is also --json, or a new --out next to a --json
        in a missing directory, exits 2 and creates no file."""
        out = tmp_path / "new.csv"
        js = out if clash == "json_is_out" else tmp_path / "missing" / "r.json"
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}
        assert cli.main(["coverage", str(demo_plan), "--out", str(out),
                         "--json", str(js)]) == 2
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err

    def test_reports_replace_longer_files(self, demo_plan, tmp_path, capsys):
        fresh, out, js = tmp_path / "fresh.csv", tmp_path / "r.csv", tmp_path / "r.json"
        assert cli.main(["coverage", str(demo_plan), "--out", str(fresh)]) == 0
        for path in (out, js):
            path.write_text("x" * 100_000)
        assert cli.main(["coverage", str(demo_plan), "--out", str(out),
                         "--json", str(js)]) == 0
        assert out.read_bytes() == fresh.read_bytes()
        assert len(json.loads(js.read_text())["cells"]) == 3

    @pytest.mark.parametrize("raised", [KeyboardInterrupt, RuntimeError])
    def test_failed_run_leaves_every_report_as_it_was(self, demo_plan, tmp_path,
                                                      monkeypatch, raised):
        """A run interrupted or failing inside simulate.run empties no
        earlier report and leaves no new one behind."""
        def failing(plan):
            raise raised("stopped")
        monkeypatch.setattr(cli.simulate, "run", failing)
        out, js = tmp_path / "r.csv", tmp_path / "r.json"
        out.write_bytes(b"an earlier report\n")
        js.write_bytes(b"{}")
        for argv in ([str(out), "--json", str(js)],
                     [str(tmp_path / "new.csv"), "--json", str(tmp_path / "new.json")]):
            before = {path: path.read_bytes() for path in tmp_path.iterdir()}
            with pytest.raises(raised):
                cli.main(["coverage", str(demo_plan), "--out", *argv])
            assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_oversized_plan_exit_two(self, demo_plan, tmp_path, capsys):
        """A plan whose outcome tables numpy cannot allocate (3 methods times
        10**15 replications) exits 2 with one line, and changes no file."""
        plan = json.loads(demo_plan.read_text())
        plan["reps"] = 10**15
        demo_plan.write_text(json.dumps(plan))
        out = tmp_path / "r.csv"
        out.write_bytes(b"an earlier report\n")
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}
        assert cli.main(["coverage", str(demo_plan), "--out", str(out),
                         "--json", str(tmp_path / "new.json")]) == 2
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert err.startswith("plan too large: ")

    @pytest.mark.parametrize("case, field", [
        ("plan_array", "the plan"),
        ("plan_string", "the plan"),
        ("laws_object", "laws"),
        ("methods_object", "methods"),
        ("law_pairs", "laws[0]"),
        ("method_pairs", "methods[0]"),
        ("method_string", "methods[1]"),
    ])
    def test_plan_shape_is_read_as_written(self, demo_plan, tmp_path, capsys,
                                           case, field):
        """A plan that is not a JSON object, laws or methods that are not an
        array, and a law or method that is not an object each exit 2 with
        one line naming the field: a method given as [key, value] pairs is
        not converted into one."""
        plan = json.loads(demo_plan.read_text())
        if case == "plan_array":
            plan = [plan]
        elif case == "plan_string":
            plan = "plan"
        elif case == "laws_object":
            plan["laws"] = {"late": plan["laws"][0]}
        elif case == "methods_object":
            plan["methods"] = plan["methods"][0]
        elif case == "law_pairs":
            plan["laws"] = [list(plan["laws"][0].items())]
        elif case == "method_pairs":
            plan["methods"] = [[["name", "wald"], ["functional", {"kind": "late"}]]]
        else:
            plan["methods"] = [plan["methods"][0], "wald"]
        demo_plan.write_text(json.dumps(plan))
        out = tmp_path / "r.csv"
        assert cli.main(["coverage", str(demo_plan), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.splitlines() == [
            f"bad experiment plan: {field} must be a JSON "
            f"{'array' if case.endswith('_object') else 'object'}"]
        assert not out.exists()

    def test_bad_plan_exit_two(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"laws": []}))
        assert cli.main(["coverage", str(path), "--out", str(tmp_path / "r.csv")]) == 2


def _functional_dict(spec):
    return {"kind": spec.kind, **{key: value for key, value in spec.to_dict().items()
                                  if key != "kind"}}


@st.composite
def fuzzed_plans(draw):
    """Small coverage plans: laws with zero-mass cells on k_x = 1 to 3, Wald
    on a functional kind the support suits, plain or cross-fit, and more
    methods (Wald on any kind, score, union) that may not suit it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(FunctionalSpec.KINDS))
    k = 2 if kind in ("late", "ate_iv") else draw(st.integers(2, 3))
    k_x = {"late": 1, "npiv": 1, "proximal_ate": 2}.get(kind, draw(st.integers(1, 3)))
    support = kind_support(rng, kind, k, draw(st.integers(2, 3)), k_x)
    laws_ = []
    for t in range(draw(st.integers(1, 2))):
        keep = rng.random(support.shape) >= draw(st.floats(0.0, 0.8))
        raw = rng.gamma(1.0, size=support.shape) * keep
        if not raw.any():
            raw.flat[0] = 1.0
        law = laws.DiscreteLaw(support, raw / raw.sum())
        laws_.append({"label": f"law{t}", "law": laws.law_to_dict(law),
                      "true_phi": draw(st.floats(-5.0, 5.0))})
    kinds = [kind] + draw(st.lists(st.sampled_from(FunctionalSpec.KINDS), max_size=2))
    methods = [{"name": "wald", "functional": _functional_dict(kind_spec(rng, name, support)),
                "cross_fit": draw(st.booleans())} for name in kinds]
    methods += [{"name": name} for name in draw(
        st.lists(st.sampled_from(["score", "union"]), max_size=2, unique=True))]
    return {
        "laws": laws_, "methods": methods,
        "n": draw(st.sampled_from([1, 2, 3, 8, 40, 300])),
        "reps": draw(st.integers(1, 20)),
        "level": 0.95, "seed": draw(st.integers(0, 99)), "s": [-10.0, 10.0],
    }


@settings(max_examples=80, deadline=None, derandomize=True)
@given(plan=fuzzed_plans())
def test_fuzzed_coverage_plans_never_raise(plan):
    """`weakdep coverage` on any such plan exits 0, 1 or 2 with no traceback:
    a degenerate replication is a tallied outcome, never an exception."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "plan.json"
        path.write_text(json.dumps(plan))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["coverage", str(path), "--out", str(Path(tmp) / "r.csv"),
                             "--json", str(Path(tmp) / "r.json")])
        assert code in (0, 1, 2)
        assert "Traceback" not in out.getvalue() + err.getvalue()
        if code == 0:
            report = json.loads((Path(tmp) / "r.json").read_text())
            for cell in report["cells"]:
                assert sum(cell["errors_by_kind"].values()) == cell["errors"]
