"""Harness: config validation, dispatch, reports, determinism, CLI."""

import json
import math
import os
import re
import runpy
from types import SimpleNamespace

import numpy as np
import pytest

from growthlab import _evalcore, cli, harness, ode
from growthlab import nevanlinna as nev
from growthlab import series as ps
from growthlab.harness import ConfigError
from marchref import assert_march_holds_bands, recording_marches
import reports
from reports import differing, load_reports


def minimal_analyze(**over):
    cfg = {
        "schema": harness.SCHEMA,
        "name": "t_analyze",
        "kind": "analyze",
        "subject": {"builtin": "exp", "n_terms": 300},
        "scales": {"alpha": {"kind": "identity"},
                   "beta": {"kind": "identity"},
                   "gamma": {"kind": "identity"}},
        "grid": {"r_min": 5.0, "r_max": 60.0, "points": 16},
        "expected_order": [0.9, 1.1],
    }
    cfg.update(over)
    return cfg


class TestValidation:
    def test_schema_required(self):
        with pytest.raises(ConfigError) as err:
            harness.run_config({"kind": "analyze"})
        assert "/schema" in str(err.value)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError) as err:
            harness.run_config({"schema": harness.SCHEMA, "kind": "dance"})
        assert "/kind" in str(err.value)

    def test_malformed_scale_names_field(self):
        cfg = minimal_analyze(scales={"alpha": {"kind": "not_a_scale"},
                                      "beta": {"kind": "identity"},
                                      "gamma": {"kind": "identity"}})
        with pytest.raises(ConfigError) as err:
            harness.run_config(cfg)
        assert "/scales" in str(err.value)

    def test_descriptor_round_trip(self):
        def triple(alpha):
            return harness.resolve_triple({"alpha": alpha,
                                           "beta": {"kind": "identity"},
                                           "gamma": {"kind": "identity"}})

        t = triple({"kind": "iterated_log", "p": 2})
        assert t.alpha.kind == "iterated_log" and t.alpha.params == (2,)
        with pytest.raises(ConfigError) as err:
            triple({"kind": "does_not_exist"})
        assert err.value.path == "/scales/alpha/kind"

    def test_missing_subject_field(self):
        cfg = minimal_analyze()
        del cfg["subject"]
        with pytest.raises(ConfigError) as err:
            harness.run_config(cfg)
        assert "/subject" in str(err.value)

    def test_equation_coefficient_count(self):
        cfg = {
            "schema": harness.SCHEMA, "kind": "solve", "name": "bad",
            "equation": {"k": 2, "A": [{"poly": [1.0]}]},
            "init": [1.0, 0.0],
        }
        with pytest.raises(ConfigError) as err:
            harness.run_config(cfg)
        assert "/equation/A" in str(err.value)


class TestReports:
    def test_analyze_passes(self):
        rep = harness.run_config(minimal_analyze())
        assert rep.verdict == "pass"
        assert any(c.name == "order_upper" for c in rep.checks)

    def test_emit_json_and_csv(self, tmp_path):
        rep = harness.run_config(minimal_analyze())
        (jpath,) = harness.emit(rep, "json", str(tmp_path))
        (cpath,) = harness.emit(rep, "csv", str(tmp_path))
        doc = json.loads(open(jpath).read())
        assert doc["schema"] == "growthlab-report/1"
        assert doc["verdict"] == "pass"
        assert {"name", "measured", "expected", "tolerance", "verdict",
                "detail"} <= set(doc["checks"][0])
        assert "environment" in doc
        lines = open(cpath).read().splitlines()
        assert lines[0].startswith("name,measured")

    def test_determinism_of_check_records(self):
        rep1 = harness.run_config(minimal_analyze())
        rep2 = harness.run_config(minimal_analyze())
        d1, d2 = rep1.as_dict(), rep2.as_dict()
        d1.pop("environment"); d2.pop("environment")
        assert d1 == d2

    def test_wv_error_path_reported_not_crashed(self):
        # a subject with a_0 = 0 must surface a precondition failure in the
        # report instead of raising out of the harness
        cfg = {
            "schema": harness.SCHEMA, "kind": "wiman_valiron",
            "name": "wv_sin",
            "grid": {"r_min": 1.0, "r_max": 10.0, "points": 6},
            "subjects": [{"builtin": "sin", "n_terms": 100, "label": "sin"}],
        }
        rep = harness.run_config(cfg)
        assert rep.verdict == "fail"
        rec = next(c for c in rep.checks if "wv_identity" in c.name)
        assert "precondition" in rec.detail

    def test_negative_control_gates_conclusions(self):
        cfg = harness.shipped_config("theorem_dominant_negative")
        rep = harness.run_config(cfg)
        assert rep.verdict == "hypotheses-not-met"
        assert not any("wrapped_mu" in c.name for c in rep.checks)
        assert not any("lambda" in c.name for c in rep.checks)

    @pytest.mark.parametrize("name", ["theorem_dominant_first_order",
                                      "log_derivative_exp_exp",
                                      "gundersen_exp", "theorem_type",
                                      "theorem_proximity",
                                      "theorem_proximity_liminf",
                                      "wiman_valiron"])
    def test_shipped_experiment_passes(self, name):
        assert harness.run_config(harness.shipped_config(name)).verdict \
            == "pass"

    def test_shipped_configs_parse(self):
        for name in harness.shipped_names():
            cfg = harness.shipped_config(name)
            assert cfg.get("schema") == harness.SCHEMA
            assert cfg.get("kind") in harness.KINDS


def _record(name, measured, verdict="pass", detail=""):
    return {"name": name, "measured": measured, "expected": None,
            "tolerance": None, "verdict": verdict, "detail": detail}


class TestReportsTool:
    """tests/reports.py on two synthetic report directories."""

    @staticmethod
    def write(directory, reports_by_name):
        directory.mkdir()
        for name, rep in reports_by_name.items():
            (directory / f"{name}.report.json").write_text(json.dumps(rep))

    def dirs(self, tmp_path):
        def report(env, checks, verdict="pass"):
            return {"schema": "growthlab-report/1", "name": "x",
                    "verdict": verdict, "environment": {"host": env},
                    "checks": checks}

        same = [_record("n", 3, "info")]
        self.write(tmp_path / "a", {
            "equal": report("a", same),
            "moved": report("a", [
                _record("r", 2.0, "info"), _record("ok", True, detail="d"),
                _record("counts", [1, 2]), _record("zero", 0.0, "info"),
                _record("gone", 1.0, "info")]),
            "only_a": report("a", same)})
        self.write(tmp_path / "b", {
            "equal": report("b", same),
            "moved": report("b", [
                _record("r", 2.5, "info"),
                _record("ok", False, "fail", detail="e"),
                _record("counts", [1, 2]), _record("zero", 1e-3, "info"),
                _record("new", 1.0, "info")], verdict="fail")})
        return str(tmp_path / "a"), str(tmp_path / "b")

    def test_names_only_by_default(self, tmp_path, capsys):
        a, b = self.dirs(tmp_path)
        assert reports.main([a, b]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "moved.report.json", "only_a.report.json"]

    def test_values_list_every_changed_check(self, tmp_path, capsys):
        a, b = self.dirs(tmp_path)
        assert reports.main([a, b, "--values"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "moved.report.json",
            "  r: 2.0 -> 2.5 (relative +2.50e-01)",
            "  ok: True -> False",
            "  ok: VERDICT pass -> fail",
            "  ok: detail 'd' -> 'e'",
            "  zero: 0.0 -> 0.001",
            "  gone: only in A",
            "  new: only in B",
            "  report VERDICT pass -> fail",
            "only_a.report.json",
            "  only in A"]

    def test_values_list_each_config_key_changed(self, tmp_path, capsys):
        def report(config):
            return {"name": "x", "verdict": "pass", "checks": [],
                    "config": config}

        self.write(tmp_path / "a", {"t": report({
            "seed": 1, "n_random": 1, "grid": {"r_max": 40.0},
            "oscillation": {"n_subjects": 3, "dps_budget": 400}})})
        self.write(tmp_path / "b", {"t": report({
            "seed": 2, "grid": {"r_max": 40.0, "points": 8},
            "oscillation": {"n_subjects": 3}, "expect": None})})
        assert reports.main([str(tmp_path / "a"), str(tmp_path / "b"),
                             "--values"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "t.report.json",
            "  config: changed /seed 1 -> 2",
            "  config: removed /n_random",
            "  config: added /grid/points",
            "  config: removed /oscillation/dps_budget",
            "  config: added /expect"]

    def test_equal_directories_exit_zero(self, tmp_path, capsys):
        a, _ = self.dirs(tmp_path)
        assert reports.main([a, a, "--values"]) == 0
        assert capsys.readouterr().out == ""
        assert reports.main([a]) == 2

    def rel_tol_dirs(self, tmp_path, changed, config=None):
        """Directories a and b of one report each: a float moved by 1e-13
        relative in b, plus the check records `changed` holds, each as
        (name in a, in b), and b's config."""
        def report(checks, cfg):
            return {"name": "x", "verdict": "pass", "config": cfg,
                    "checks": [_record("m", 8.9, "info")] + checks}

        self.write(tmp_path / "a", {"t": report(
            [old for old, _ in changed], {"seed": 1})})
        self.write(tmp_path / "b", {"t": report(
            [new for _, new in changed], config or {"seed": 1})})
        b = json.loads((tmp_path / "b" / "t.report.json").read_text())
        b["checks"][0]["measured"] = 8.9 * (1.0 + 1e-13)
        (tmp_path / "b" / "t.report.json").write_text(json.dumps(b))
        return str(tmp_path / "a"), str(tmp_path / "b")

    def test_rel_tol_forgives_small_float_moves_and_lists_them(
            self, tmp_path, capsys):
        a, b = self.rel_tol_dirs(tmp_path, [
            (_record("v", 2.0, "info"), _record("v", 2.0 + 1e-12, "info"))])
        assert reports.main([a, b, "--rel-tol", "1e-12"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "t.report.json"
        assert [line.split(":")[0] for line in out[1:]] == ["  m", "  v"]
        # the same moves past the tolerance, or without one, exit 1
        assert reports.main([a, b, "--rel-tol", "1e-13"]) == 1
        assert reports.main([a, b, "--values"]) == 1
        assert reports.main([a, b, "--rel-tol", "0"]) == 1

    @pytest.mark.parametrize("old,new,config", [
        (_record("n", 19, "info"), _record("n", 20, "info"), None),
        (_record("b", True), _record("b", False), None),
        (_record("l", [1.0, 2.0], "info"), _record("l", [1.0, 2.0 + 1e-15],
                                                   "info"), None),
        (_record("ok", 1.0), _record("ok", 1.0, "fail"), None),
        (_record("ok", 1.0, detail="d"), _record("ok", 1.0, detail="e"),
         None),
        (_record("f", 3.0, "info"), _record("f", 4, "info"), None),
        (_record("z", 0.0, "info"), _record("z", 1e-300, "info"), None),
        (_record("s", "x", "info"), _record("s", "x", "info"), {"seed": 2}),
    ], ids=["integer", "bool", "list", "verdict", "detail", "float_to_int",
            "zero", "config"])
    def test_rel_tol_keeps_other_differences(self, tmp_path, capsys, old,
                                             new, config):
        a, b = self.rel_tol_dirs(tmp_path, [(old, new)], config)
        assert reports.main([a, b, "--rel-tol", "0.5"]) == 1

    def test_rel_tol_keeps_a_report_in_one_directory(self, tmp_path):
        a, b = self.dirs(tmp_path)
        (tmp_path / "b" / "moved.report.json").unlink()
        (tmp_path / "a" / "moved.report.json").unlink()
        assert reports.main([a, b, "--rel-tol", "1"]) == 1

    @pytest.mark.parametrize("tail", [["--rel-tol"], ["--rel-tol", "x"],
                                      ["--rel-tol", "-1"],
                                      ["--rel-tol", "nan"]])
    def test_rel_tol_needs_a_tolerance(self, tmp_path, tail):
        a, b = self.dirs(tmp_path)
        assert reports.main([a, b] + tail) == 2


class TestCli:
    def test_verify_single_config_exit_zero(self, tmp_path):
        cfg = minimal_analyze()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = cli.main(["verify", "--config", str(path),
                       "--out", str(tmp_path / "rep")])
        assert rc == 0

    def test_failing_config_exit_one(self, tmp_path):
        cfg = minimal_analyze(expected_order=[5.0, 6.0])  # impossible band
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = cli.main(["verify", "--config", str(path),
                       "--out", str(tmp_path / "rep")])
        assert rc == 1

    def test_config_error_exit_two(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"schema": "nope", "kind": "analyze"}))
        rc = cli.main(["verify", "--config", str(path),
                       "--out", str(tmp_path / "rep")])
        assert rc == 2

    def test_solve_writes_csv(self, tmp_path):
        cfg = harness.shipped_config("solve_airy")
        path = tmp_path / "airy.json"
        path.write_text(json.dumps(cfg))
        rc = cli.main(["solve", "--config", str(path),
                       "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "solve_airy.csv").exists()

    def test_solve_report_is_independent_of_out_dir(self, tmp_path):
        # the CSV is named relative to --out, beside the report
        dirs = [str(tmp_path / "a"), str(tmp_path / "b" / "deeper")]
        for d in dirs:
            assert cli.main(["verify", "--name", "solve_airy",
                             "--out", d]) == 0
        assert differing(*dirs) == []
        (report,) = load_reports(dirs[0]).values()
        (rec,) = [c for c in report["checks"]
                  if c["name"] == "coefficients_csv"]
        assert rec["measured"] == "solve_airy.csv"
        assert (tmp_path / "b" / "deeper" / "solve_airy.csv").exists()

    @pytest.mark.parametrize("field,value", [
        ("max_terms", 1), ("max_terms", 64.5), ("residual_tol", "abc"),
        ("residual_tol", -1), ("r_max", -2), ("n_start", "abc"),
        ("n_start", 1), ("n_start", 64.5), ("n_start", True)])
    def test_bad_solver_limit_exit_two_with_path(self, tmp_path, capsys,
                                                 field, value):
        cfg = harness.shipped_config("solve_airy")
        cfg[field] = value
        path = tmp_path / "airy.json"
        path.write_text(json.dumps(cfg))
        rc = cli.main(["solve", "--config", str(path),
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"/{field}" in capsys.readouterr().err

    def test_theorem_cap_below_first_length_is_config_error(self):
        cfg = harness.shipped_config("theorem_type")
        cfg["max_terms"] = 512  # its solutions start at 1024 terms
        with pytest.raises(ConfigError) as err:
            harness.run_config(cfg)
        assert err.value.path == "/max_terms"

    def test_command_kind_mismatch(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_analyze()))
        rc = cli.main(["solve", "--config", str(path),
                       "--out", str(tmp_path / "rep")])
        assert rc == 2

    def test_scales_subcommand(self, tmp_path):
        cfg = harness.shipped_config("scales_default")
        path = tmp_path / "scales.json"
        path.write_text(json.dumps(cfg))
        rc = cli.main(["scales", "--config", str(path),
                       "--out", str(tmp_path / "rep")])
        assert rc == 0


def _bad_configs():
    """Configs, each invalid in one field, with that field's path: a
    config error must exit 2 and name it."""
    def shipped(name, **over):
        cfg = harness.shipped_config(name)
        cfg.update(over)
        return cfg

    def alpha(**desc):
        return shipped("scales_default", scales={
            "alpha": desc, "beta": {"kind": "identity"},
            "gamma": {"kind": "identity"}})

    def grid(r_min, r_max, points=8):
        return {"r_min": r_min, "r_max": r_max, "points": points}

    small = grid(5.0, 20.0, 4)
    wv = shipped("wiman_valiron")
    wv["subjects"][0]["ratio_orders"] = [0]
    cases = [
        ("iterated_log_p_float", alpha(kind="iterated_log", p=2.5),
         "/scales/alpha/p"),
        ("log_plus_x0_text", alpha(kind="log_plus", x0="5"),
         "/scales/alpha/x0"),
        ("power_c_nan", alpha(kind="power", c=math.nan), "/scales/alpha/c"),
        ("power_c_above_1", alpha(kind="power", c=2.0), "/scales/alpha"),
        ("user_table_xs_text", alpha(kind="user_table", xs="0123",
                                     ys=[0, 1, 2, 3]), "/scales/alpha/xs"),
        ("composed_log_no_inner", alpha(kind="composed_log"),
         "/scales/alpha/inner"),
        ("profile_c_text", shipped("analyze_exp", quantity="log_T", subject={
            "profile": {"log_T": {"form": "ln_c_rp", "c": "2", "p": 1.0}}}),
         "/subject/profile/log_T/c"),
        # each grid wholly past its series' trusted radius
        ("wv_grid_past_radius", shipped("wiman_valiron",
                                        grid=grid(300.0, 400.0)), "/grid"),
        ("gundersen_grid_past_radius", shipped("gundersen_exp",
                                               grid=grid(300.0, 400.0)),
         "/grid"),
        ("log_derivative_grid_past_radius", shipped(
            "log_derivative_exp_exp", grid=grid(50.0, 60.0)), "/grid"),
        # sin 200 is trusted to about 97: 2 of these radii lie within
        ("count_zeros_grid_past_radius", shipped(
            "analyze_exp", subject={"builtin": "sin", "n_terms": 200},
            count_zeros={"grid": grid(10.0, 400.0, 4)}),
         "/count_zeros/grid"),
        ("grid_not_object", shipped("analyze_exp", grid=5), "/grid"),
        ("grid_null", shipped("analyze_exp", grid={"r_min": None}), "/grid"),
        ("zero_margin", shipped("analyze_exp", count_zeros={
            "zero_margin": "x", "grid": small}), "/count_zeros/zero_margin"),
        # a misspelt band would leave the order unchecked
        ("expected_ordr", shipped("analyze_exp", expected_ordr=[5, 6]),
         "/expected_ordr"),
        # zeros are counted on a series, never on a profile
        ("count_zeros_on_profile", shipped(
            "analyze_exp", quantity="log_T", subject={"profile": {
                "log_T": {"form": "ln_c_rp", "c": 1.0, "p": 1.0}}},
            count_zeros={"grid": small, "expected_lambda": [5.0, 6.0]}),
         "/count_zeros"),
        ("ratio_order_0", wv, "/subjects/0/ratio_orders"),
        # sin 4000 at r = 1300 winds at ~603 digits, past the 600 budget
        ("winding_budget", shipped(
            "analyze_exp", subject={"builtin": "sin", "n_terms": 4000},
            grid=small, count_zeros={"grid": {
                "r_min": 1300.0, "r_max": 1400.0, "points": 4}}),
         "/count_zeros/grid"),
        ("poly_empty", shipped("analyze_exp", subject={"poly": []}),
         "/subject/poly"),
        ("poly_zero", shipped("analyze_exp", subject={"poly": [0]}),
         "/subject"),
        ("n_terms", shipped("analyze_exp", subject={
            "builtin": "exp", "n_terms": "x"}), "/subject/n_terms"),
        ("z_scale", shipped("analyze_exp", subject={
            "builtin": "exp", "n_terms": 100, "z_scale": 0}),
         "/subject/z_scale"),
        ("init_length", shipped("solve_airy", init=[1.0]), "/init"),
        ("init_zero", shipped("solve_airy", init=[0.0, 0.0]), "/init"),
        ("init_nan", shipped("solve_airy", init=[math.nan, 0.0]), "/init"),
        # 1e400 in a JSON file reads as inf
        ("init_inf", shipped("solve_airy", init=[math.inf, 0.0]), "/init"),
        ("poly_nan", shipped("solve_airy", equation={
            "k": 2, "A": [{"poly": [0.0, math.nan]}, {"poly": [0.0]}]}),
         "/equation/A/0/poly"),
        ("poly_inf", shipped("solve_airy", equation={
            "k": 2, "A": [{"poly": [0.0, -1.0]}, {"poly": [-math.inf]}]}),
         "/equation/A/1/poly"),
        ("gundersen_i_above_j", shipped("gundersen_exp", i=2, j=1), "/j"),
        ("log_derivative_k0", shipped("log_derivative_exp_exp", k=0), "/k"),
        ("gundersen_chi_1", shipped("gundersen_exp", chi=1.0), "/chi"),
        ("gundersen_chi_text", shipped("gundersen_exp", chi="x"), "/chi"),
        ("gundersen_i_text", shipped("gundersen_exp", i="x"), "/i"),
        ("gundersen_j_float", shipped("gundersen_exp", j=1.5), "/j"),
        ("log_derivative_k_text", shipped("log_derivative_exp_exp", k="x"),
         "/k"),
        ("grid_points_float", shipped("gundersen_exp", grid={
            "r_min": 2.0, "r_max": 40.0, "points": 31.5}), "/grid/points"),
        ("equation_k_float", shipped("solve_airy", equation={
            "k": 2.5, "A": [{"poly": [0.0, -1.0]}, {"poly": [0]}]}),
         "/equation/k"),
    ]
    return [pytest.param(cfg, path, id=name) for name, cfg, path in cases] \
        + _bad_theorem_configs()


def _bad_theorem_configs():
    """Theorem configs, each invalid in one of its own fields: the error
    must come before any march."""
    def theorem(**over):
        cfg = harness.shipped_config("theorem_dominant")
        cfg.update(over)
        return cfg

    def oscillation(**over):
        cfg = harness.shipped_config("theorem_dominant")
        cfg["oscillation"].update(over)
        return cfg

    def solution_grid(**over):
        cfg = harness.shipped_config("theorem_dominant")
        cfg["solution_grid"].update(over)
        return cfg

    # exp 220 is trusted to about 106, e^{2z} of 300 terms to about 88
    past = {"r_min": 200.0, "r_max": 300.0, "points": 8}
    proximity = harness.shipped_config("theorem_proximity")
    proximity["proximity_grid"] = past
    cases = [
        ("radii_decreasing", oscillation(radii=[6.0, 5.0]),
         "/oscillation/radii"),
        ("coeff_grid_past_radius", theorem(coeff_grid=past), "/coeff_grid"),
        ("proximity_grid_past_radius", proximity, "/proximity_grid"),
        ("solution_grid_r_min_text", solution_grid(r_min="x"),
         "/solution_grid/r_min"),
        ("solution_grid_r_max_nan", solution_grid(r_max=math.nan),
         "/solution_grid/r_max"),
        ("solution_grid_two_points", solution_grid(points=2),
         "/solution_grid/points"),
        ("n_random_negative", theorem(n_random=-1), "/n_random"),
        ("n_random_float", theorem(n_random=1.5), "/n_random"),
        ("n_random_text", theorem(n_random="two"), "/n_random"),
        ("seed_text", theorem(seed="x"), "/seed"),
        ("seed_negative", theorem(seed=-1), "/seed"),
        ("solution_band_one", theorem(solution_band=[1.0]),
         "/solution_band"),
        ("solution_band_reversed", theorem(solution_band=[1.1, 0.8]),
         "/solution_band"),
        ("solution_band_text", theorem(solution_band=["a", "b"]),
         "/solution_band"),
        ("lambda_tolerance_text", theorem(lambda_tolerance="x"),
         "/lambda_tolerance"),
        ("hypothesis_margin_negative", theorem(hypothesis_margin=-0.2),
         "/hypothesis_margin"),
        ("type_margin_text", theorem(type_margin="x"), "/type_margin"),
        ("classical_min_nan", theorem(classical_min="nan"),
         "/classical_min"),
        ("oscillation_not_object", theorem(oscillation=[]), "/oscillation"),
        ("radii_text", oscillation(radii="x"), "/oscillation/radii"),
        ("radii_negative", oscillation(radii=[-1.0]), "/oscillation/radii"),
        ("radii_empty", oscillation(radii=[]), "/oscillation/radii"),
        ("n_subjects_text", oscillation(n_subjects="x"),
         "/oscillation/n_subjects"),
        ("min_radius_text", oscillation(min_radius="x"),
         "/oscillation/min_radius"),
        ("dps_budget_text", oscillation(dps_budget="x"),
         "/oscillation/dps_budget"),
        ("dps_budget_zero", oscillation(dps_budget=0),
         "/oscillation/dps_budget"),
        ("enabled_text", oscillation(enabled="false"),
         "/oscillation/enabled"),
        ("enabled_number", oscillation(enabled=0), "/oscillation/enabled"),
        ("expect_infinite_classical_text",
         theorem(expect_infinite_classical="false"),
         "/expect_infinite_classical"),
        ("variant_limsup", theorem(variant="limsup"), "/variant"),
        ("variant_null", theorem(variant=None), "/variant"),
    ]
    return [pytest.param(cfg, path, id=name) for name, cfg, path in cases]


# each tuning field that is now a module constant: a shipped config of its
# kind, the field's path and its old default
_REMOVED_FIELDS = [
    ("theorem_dominant", "/lambda_tolerance", 0.3),
    ("theorem_dominant", "/hypothesis_margin", 0.2),
    ("theorem_type", "/type_margin", 0.1),
    ("theorem_dominant", "/expect_infinite_classical", True),
    ("theorem_dominant", "/n_random", 1),
    ("theorem_dominant", "/residual_tol", 1e-8),
    ("theorem_dominant", "/oscillation/dps_budget", 400),
    # n_subjects 0 turns the clause off
    ("theorem_dominant", "/oscillation/enabled", False),
    ("analyze_exp", "/count_zeros/zero_margin", "auto"),
    ("log_derivative_exp_exp", "/ratio_bound", 2.0),
    ("propositions", "/tolerance", 0.05)]


class TestCliConfigErrors:
    @pytest.mark.parametrize("cfg,path", _bad_configs())
    def test_exit_two_with_path(self, tmp_path, capsys, cfg, path):
        file = tmp_path / "cfg.json"
        file.write_text(json.dumps(cfg))
        rc = cli.main(["verify", "--config", str(file),
                       "--out", str(tmp_path / "rep")])
        err = capsys.readouterr().err
        assert rc == 2 and f"config error: {path}: " in err, err
        if path in {p for _, p, _ in _REMOVED_FIELDS}:
            assert f"config error: {path}: unknown field" in err, err

    @pytest.mark.parametrize("cfg,path", _bad_theorem_configs())
    def test_theorem_fields_fail_before_any_march(self, monkeypatch, cfg,
                                                  path):
        def refuse(*args, **kw):
            raise AssertionError("marched before the config was checked")

        monkeypatch.setattr(ode, "_march_d", refuse)
        with pytest.raises(ConfigError) as err:
            harness.run_config(cfg)
        assert err.value.path == path

    @pytest.mark.parametrize("name,path,value", _REMOVED_FIELDS,
                             ids=[p for _, p, _ in _REMOVED_FIELDS])
    def test_removed_field_is_unknown(self, tmp_path, capsys, name, path,
                                      value):
        """Each tuning field made a constant is an error at its path, even
        at its old default."""
        cfg = harness.shipped_config(name)
        *keys, last = path.strip("/").split("/")
        node = cfg
        for key in keys:
            node = node.setdefault(key, {})
        node[last] = value
        file = tmp_path / "cfg.json"
        file.write_text(json.dumps(cfg))
        rc = cli.main(["verify", "--config", str(file),
                       "--out", str(tmp_path / "rep")])
        err = capsys.readouterr().err
        assert rc == 2 and f"config error: {path}: unknown field" in err, err

    @pytest.mark.parametrize("flag,value", [
        ("--r-max", "40"), ("--grid-points", "12"), ("--max-terms", "500"),
        ("--seed", "7")])
    def test_removed_flag_is_a_usage_error(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exit_:
            cli.main(["verify", "--name", "analyze_exp", flag, value])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" \
            in capsys.readouterr().err

    def test_zero_coefficient_is_still_valid(self):
        # the zero series is rejected as an analyze subject only
        eq = harness.resolve_equation({"k": 2, "A": [
            {"poly": [0.0, -1.0]}, {"poly": [0]}]})
        assert eq.coeffs[1].n_terms == 1


def _non_finite_configs():
    """Shipped configs with one numeric leaf set to Infinity, and that
    leaf."""
    def at(name, leaf):
        cfg = harness.shipped_config(name)
        *keys, last = leaf.strip("/").split("/")
        node = cfg
        for key in keys:
            node = node[int(key)] if isinstance(node, list) else node[key]
        node[last] = math.inf
        return pytest.param(cfg, leaf, id=name + leaf)

    first_order = "theorem_dominant_first_order"
    return [at(first_order, "/equation/A/0/n_terms"),
            at(first_order, "/equation/A/0/z_scale"),
            at(first_order, "/coeff_grid/r_max"),
            at(first_order, "/solution_grid/r_max"),
            at("analyze_exp", "/grid/r_max"),
            at("theorem_proximity", "/proximity_grid/r_max")]


class TestDegenerateLeaves:
    @pytest.mark.parametrize("cfg,leaf", _non_finite_configs())
    def test_non_finite_leaf_is_config_error(self, cfg, leaf):
        with pytest.raises(ConfigError) as err:
            harness.run_config(cfg)
        assert err.value.path == leaf

    def test_constant_coefficient_has_order_zero(self):
        # f'' - f' + e^z f = 0: A_1 = -1 grows like a zero A_1, not at all
        cfg = harness.shipped_config("theorem_dominant")
        cfg["equation"]["A"][1] = {"poly": [-1.0]}
        cfg["oscillation"]["n_subjects"] = 0
        rep = harness.run_config(cfg)
        (rho1,) = [c for c in rep.checks if c.name == "rho_hat[A1]"]
        assert rho1.measured == 0.0 and rep.verdict == "pass"

    def test_constant_dominant_coefficient_is_config_error(self,
                                                           monkeypatch):
        def refuse(*args, **kw):
            raise AssertionError("marched before the config was checked")

        monkeypatch.setattr(ode, "_march_d", refuse)
        cfg = harness.shipped_config("theorem_dominant")
        cfg["equation"]["A"][0] = {"poly": [2.0]}
        with pytest.raises(ConfigError) as err:
            harness.run_config(cfg)
        assert err.value.path == "/equation/A/0"

    @staticmethod
    def _flat_tail_config():
        # beta(log gamma(r)) = log_plus(ln r) is 1 wherever ln r <= e: on
        # the whole solution grid (r <= 14), not on the coefficient grid
        # (to 70), so the hypotheses pass and the solutions' estimators
        # have no spread to read
        cfg = harness.shipped_config("theorem_dominant")
        cfg["scales"] = {"alpha": {"kind": "log_plus"},
                         "beta": {"kind": "log_plus"},
                         "gamma": {"kind": "identity"}}
        return cfg

    def test_flat_scale_tail_is_config_error_at_its_grid(self):
        with pytest.raises(ConfigError, match="no denominator spread") as err:
            harness.run_config(self._flat_tail_config())
        assert err.value.path == "/solution_grid"

    def test_flat_scale_tail_exits_two(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(self._flat_tail_config()))
        rc = cli.main(["verify", "--config", str(path),
                       "--out", str(tmp_path / "rep")])
        assert rc == 2
        assert "config error: /solution_grid: " in capsys.readouterr().err


def _leaves(node, path=""):
    """The path of every numeric leaf under node, bools excluded."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, f"{path}/{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, f"{path}/{i}")
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


def _keys(node, path=""):
    """The path of every object key under node."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        if isinstance(node, dict):
            yield f"{path}/{key}"
        yield from _keys(value, f"{path}/{key}")


def _objects(node, path=""):
    """The path of every object under node, node itself included."""
    if isinstance(node, dict):
        yield path
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield from _objects(value, f"{path}/{key}")


def _with(cfg, path, value):
    """A deep copy of cfg with the value at path replaced."""
    cfg = json.loads(json.dumps(cfg))
    *keys, last = path.strip("/").split("/")
    node = cfg
    for key in keys:
        node = node[int(key)] if isinstance(node, list) else node[key]
    node[int(last) if isinstance(node, list) else last] = value
    return cfg


def _names_leaf_or_parent(cfg, path):
    """validate(cfg) raises a ConfigError naming path or its parent."""
    with pytest.raises(ConfigError) as err:
        harness.validate(cfg)
    assert err.value.path in (path, path.rsplit("/", 1)[0]), (path, err.value)


def _legal(path, value):
    """A mutation the schema accepts: -1 as a polynomial coefficient, an
    initial value, an argument scale or the low end of a band."""
    return value == -1.0 and re.search(
        r"/(poly|init)/\d+$|/z_scale$|/(expected_\w+|solution_band)/0$",
        path) is not None


def _perfbench_configs():
    """The configs perfbench's fixed_precision and oscillation workloads
    hand to run_config, from its own workload code."""
    workloads = runpy.run_path(os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "perfbench", "workloads.py"))
    given = []
    gl = SimpleNamespace(harness=SimpleNamespace(
        shipped_config=harness.shipped_config, run_config=given.append))
    for name in ("fixed_precision", "oscillation"):
        for op in workloads[name](gl, 1)[1]:
            op.run()
    return given


# a legal value of each parameter of the scale kinds (tag "kind") and of
# the profile forms (tag "form"); an int marks an integer field
_PARAMETERS = {
    "kind": {"x0": 5.0, "p": 2, "c": 0.5, "a": 2.0, "b": 1.0,
             "xs": [0.0, 1.0, 2.0], "ys": [0.0, 1.0, 3.0],
             "inner": {"kind": "log_plus"}},
    "form": {"c": 2.0, "p": 1.5}}


def _descriptors():
    """Each scale kind and profile form, as a descriptor giving every
    parameter, with its spec."""
    for tag, kinds, spec in (("kind", harness._SCALE_KINDS, harness._SCALE),
                             ("form", harness._PROFILE_FORMS, harness._FORM)):
        for kind, (_, fields) in kinds.items():
            desc = {tag: kind, **{f: _PARAMETERS[tag][f]
                                  for f in fields if f != tag}}
            yield pytest.param(spec, tag, desc, fields, id=f"{tag}={kind}")


@pytest.fixture
def no_work(monkeypatch):
    """Validation only: a march or a circle evaluation fails the test."""
    def refuse(*args, **kw):
        raise AssertionError("validation marched or evaluated")

    for mod, name in ((ode, "_march_d"), (ode, "_solve_series_mp"),
                      (_evalcore, "eval_circle"), (_evalcore, "eval_points")):
        monkeypatch.setattr(mod, name, refuse)


class TestSchema:
    @pytest.mark.parametrize("name", harness.shipped_names())
    def test_every_numeric_leaf_is_checked(self, no_work, name):
        """Each numeric leaf set to nan, Infinity, -1 and "x": a legal
        mutation validates, any other is a ConfigError at that leaf or its
        parent."""
        cfg = harness.shipped_config(name)
        for path in _leaves(cfg):
            for value in (math.nan, math.inf, -1.0, "x"):
                bad = _with(cfg, path, value)
                if _legal(path, value):
                    harness.validate(bad)
                else:
                    _names_leaf_or_parent(bad, path)

    @pytest.mark.parametrize("name,path,value,where", [
        ("analyze_exp", "/quantity", "foo", "/quantity"),
        ("analyze_exp", "/expected_order", [1.0], "/expected_order"),
        ("analyze_exp", "/expected_order", 0.5, "/expected_order"),
        ("analyze_exp", "/count_zeros", {"log_wrap": "no"},
         "/count_zeros/log_wrap"),
        ("scales_default", "/p", 2.5, "/p"),
        ("gundersen_exp", "/name", 5, "/name")])
    def test_non_numeric_leaf_is_checked(self, no_work, name, path, value,
                                         where):
        with pytest.raises(ConfigError) as err:
            harness.validate(_with(harness.shipped_config(name), path, value))
        assert err.value.path == where

    @pytest.mark.parametrize("cfg", [
        *(pytest.param(harness.shipped_config(n), id=n)
          for n in harness.shipped_names()),
        *(pytest.param(cfg, id="perfbench-" + cfg["name"])
          for cfg in _perfbench_configs())])
    def test_every_key_given_is_declared(self, no_work, cfg):
        """A key the tables do not declare would be ignored: each key of a
        shipped config, and of each config perfbench runs, set to a value
        no spec takes is a ConfigError at that key or its parent."""
        harness.validate(cfg)
        for path in _keys(cfg):
            _names_leaf_or_parent(_with(cfg, path, object()), path)

    @pytest.mark.parametrize("cfg", [
        *(pytest.param(harness.shipped_config(n), id=n)
          for n in harness.shipped_names()),
        *(pytest.param(cfg, id="perfbench-" + cfg["name"])
          for cfg in _perfbench_configs())])
    def test_stray_key_is_an_error_at_its_path(self, no_work, cfg):
        """A key no table declares, put in any object of a shipped config
        or of a config perfbench runs, is a ConfigError at that key."""
        for path in _objects(cfg):
            stray = f"{path}/stray"
            with pytest.raises(ConfigError, match="unknown field") as err:
                harness.validate(_with(cfg, stray, 1.0))
            assert err.value.path == stray

    @pytest.mark.parametrize("spec,tag,desc,fields", _descriptors())
    def test_every_descriptor_parameter_is_checked(self, spec, tag, desc,
                                                   fields):
        """Each parameter, and each number in it, set to nan, Infinity, -1,
        "x", true (and 2.5 in an integer field) is a ConfigError at that
        leaf, its parent or the descriptor; the legal ones, -1 as linear's
        b or as user_table's first knot, build.  A parameter left out
        builds with its default or is missing at its path."""
        spec(desc, "/d")
        params = [f for f in fields if f != tag]
        for path in sorted({f"/{f}" for f in params} | set(_leaves(desc))):
            int_field = type(desc.get(path[1:])) is int
            for value in [math.nan, math.inf, -1.0, "x", True] \
                    + [2.5, 5] * int_field:
                bad = _with(desc, path, value)
                if value == -1.0 and path in ("/b", "/xs/0"):
                    spec(bad, "/d")
                    continue
                # iterated_log's freeze point passes the float range at 5
                with pytest.raises(ConfigError, match="p <= 4" if value == 5
                                   else None) as err:
                    spec(bad, "/d")
                assert err.value.path in (
                    "/d" + path, "/d" + path.rsplit("/", 1)[0], "/d"), \
                    (desc, path, value, err.value)
        for f in params:
            short = {k: v for k, v in desc.items() if k != f}
            if fields[f][1] is not harness._REQUIRED:
                spec(short, "/d")
                continue
            with pytest.raises(ConfigError, match="missing") as err:
                spec(short, "/d")
            assert err.value.path == f"/d/{f}"

    def test_validate_leaves_the_config_as_given(self):
        for name in harness.shipped_names():
            cfg = harness.shipped_config(name)
            harness.validate(cfg)
            assert cfg == harness.shipped_config(name)

    def test_theorem_config_is_resolved_once(self, monkeypatch):
        made = []

        def counted(cls):
            def make(*args, **kw):
                made.append(cls.__name__)
                return cls(*args, **kw)
            return make

        monkeypatch.setattr(harness, "ScaleTriple",
                            counted(harness.ScaleTriple))
        monkeypatch.setattr(ode, "LinearODE", counted(ode.LinearODE))
        rep = harness.run_config(
            harness.shipped_config("theorem_dominant_negative"))
        assert rep.verdict == "hypotheses-not-met"
        assert sorted(made) == ["LinearODE", "ScaleTriple"]

    def test_run_theorem_experiment_checks_its_config(self, no_work):
        cfg = harness.shipped_config("theorem_dominant")
        cfg["seed"] = -1
        with pytest.raises(ConfigError, match="^/seed: "):
            harness.run_theorem_experiment(cfg)
        with pytest.raises(ConfigError, match="^/kind: "):
            harness.run_theorem_experiment(
                harness.shipped_config("analyze_exp"))


class TestCliPaths:
    def test_expected_hypotheses_not_met_exits_zero(self, tmp_path, capsys):
        rc = cli.main(["verify", "--name", "theorem_dominant_negative",
                       "--out", str(tmp_path)])
        assert rc == 0
        assert "theorem_dominant_negative: hypotheses-not-met (expected) " \
            in capsys.readouterr().out

    def test_analyze_needs_config(self, capsys):
        assert cli.main(["analyze"]) == 2
        assert "--config is required" in capsys.readouterr().err

    def test_forcing_term_from_config(self, tmp_path):
        # f' = 1 + 2z, f(0) = 0: f = z + z^2
        cfg = {"schema": harness.SCHEMA, "kind": "solve", "name": "forced",
               "equation": {"k": 1, "A": [{"poly": [0.0]}],
                            "F": {"poly": [1.0, 2.0]}},
               "init": [0.0], "n_start": 16}
        path = tmp_path / "forced.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["solve", "--config", str(path),
                         "--out", str(tmp_path)]) == 0
        rows = [line.split(",") for line in
                (tmp_path / "forced.csv").read_text().splitlines()[1:]]
        ln_abs = [float(r[1]) for r in rows]
        assert ln_abs[0] == -math.inf
        assert abs(ln_abs[1]) < 1e-14 and abs(ln_abs[2]) < 1e-14
        assert all(abs(float(r[2])) < 1e-14 for r in rows[1:3])
        assert all(v == -math.inf for v in ln_abs[3:])


class TestSolutionZeroCounts:
    def test_each_solution_is_marched_once(self, monkeypatch):
        """Counting the zeros of f - z for f'' + e^z f = 0 up to r = 5.6
        marches f in mpmath exactly once.

        At this radius a march at the depth chosen for ln r - 45 is one
        digit short of what the winding at min(0, ln r) - 45 asks for, so
        choosing the two depths by different rules marches twice.
        """
        marches = []
        march = ode._solve_series_mp

        def counted(eq, init, n_terms, dps):
            marches.append((n_terms, dps))
            return march(eq, init, n_terms, dps)

        monkeypatch.setattr(ode, "_solve_series_mp", counted)
        monkeypatch.setattr(harness, "_PROBE_TERMS", 64)
        eq = ode.LinearODE(2, (ps.builtin("exp", 60),
                               ps.builtin("poly", coeffs=[0.0])))
        data = harness._count_solution_zeros(
            eq, ode.InitialData((1.0, 0.0)),
            ps.builtin("poly", coeffs=[0.0, 1.0]), [5.6])
        assert data.counts == (11,)
        assert len(marches) == 1

    def test_coefficient_short_of_top_radius_raises(self, monkeypatch):
        """f'' + P f = 0, P the 20-term exp (trusted to 1.99): counting
        f - z up to r = 4 raises before any probe, instead of marching
        the probe to its 65,536-term cap and counting past A_0's radius."""
        lengths = []
        solve = ode.solve_series

        def recorded(eq, init, n_terms, **kw):
            lengths.append(n_terms)
            return solve(eq, init, n_terms, **kw)

        monkeypatch.setattr(ode, "solve_series", recorded)
        eq = ode.LinearODE(2, (ps.builtin("exp", 20),
                               ps.builtin("poly", coeffs=[0.0])))
        with pytest.raises(ConfigError, match=r"A_0 .* 1\.99") as err:
            harness._count_solution_zeros(
                eq, ode.InitialData((1.0, 0.0)),
                ps.builtin("poly", coeffs=[0.0, 1.0]), [2.0, 4.0])
        assert err.value.path == "/oscillation/radii"
        assert all(n <= harness._PROBE_TERMS for n in lengths)

    def test_radii_past_a_coefficient_exit_two(self, tmp_path, capsys):
        # exp 220 is trusted to ~106: counting up to 120 is a config error
        cfg = harness.shipped_config("theorem_dominant_first_order")
        cfg["oscillation"] = {"n_subjects": 1, "radii": [5.0, 120.0]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = cli.main(["verify", "--config", str(path),
                       "--out", str(tmp_path / "rep")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "/oscillation/radii" in err and "A_0" in err

    def test_depth_past_budget_raises_before_any_march(self, monkeypatch):
        """Counting f - z up to r = 5.6 needs 47 digits; with a budget of
        20 the depth is a config error, raised before any integer march."""
        marches = []
        monkeypatch.setattr(ode, "_solve_series_mp",
                            lambda *args: marches.append(args))
        monkeypatch.setattr(nev, "_DPS_BUDGET", 20)
        eq = ode.LinearODE(2, (ps.builtin("exp", 60),
                               ps.builtin("poly", coeffs=[0.0])))
        with pytest.raises(ConfigError, match="budget is 20") as err:
            harness._count_solution_zeros(
                eq, ode.InitialData((1.0, 0.0)),
                ps.builtin("poly", coeffs=[0.0, 1.0]), [5.6])
        assert err.value.path == "/oscillation/radii"
        assert marches == []

    def test_radii_past_the_digit_budget_exit_two(self, tmp_path, capsys):
        # radii inside A_0's trusted radius (~106), but no probe up to
        # 65,536 terms is trusted to 102, and r = 100 would wind at ~54,000
        # digits against a budget of 600 (which used to escape as a
        # traceback)
        cfg = harness.shipped_config("theorem_dominant_first_order")
        cfg["oscillation"] = {"n_subjects": 1,
                              "radii": [5.0, 100.0], "min_radius": 4.0}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = cli.main(["verify", "--config", str(path),
                       "--out", str(tmp_path / "rep")])
        assert rc == 2
        assert "/oscillation/radii" in capsys.readouterr().err

    def test_probe_holds_the_band_it_sizes(self, monkeypatch):
        """With 64-term probes, the 512-term probe is trusted to the march
        radius 1.002 r at r = 5.6, but its mp band of f - z there, at the
        47 digits chosen, reaches its last term; the probe doubles until
        the band ends inside it, f - z is counted on it, and the march
        stops short of it."""
        monkeypatch.setattr(harness, "_PROBE_TERMS", 64)
        eq = ode.LinearODE(2, (ps.builtin("exp", 60),
                               ps.builtin("poly", coeffs=[0.0])))
        with recording_marches(count=False) as recs:
            harness._count_solution_zeros(
                eq, ode.InitialData((1.0, 0.0)),
                ps.builtin("poly", coeffs=[0.0, 1.0]), [5.6])
        (rec,) = recs
        probe, ((n, dps),) = rec["h"], rec["marches"]
        assert dps == 47 and probe.n_terms == 1024
        log_r = math.log(5.6) + harness._RETRY_REACH
        assert math.log(ps._certify_radius(probe.coeff.lh[:512])) >= log_r
        assert _evalcore._mp_band(probe.coeff, log_r, 47)[1] < 1024
        short = ps.make_series(probe.coeff.lh[:512], probe.coeff.ph[:512],
                               0.0, "512-term probe")
        assert _evalcore._mp_band(short.coeff, log_r, 47)[1] == 512
        assert n < probe.n_terms
        assert_march_holds_bands(rec)

    def test_probe_short_at_the_cap_raises(self, monkeypatch):
        monkeypatch.setattr(harness, "_PROBE_TERMS", 64)
        monkeypatch.setattr(harness, "_PROBE_CAP", 512)
        eq = ode.LinearODE(2, (ps.builtin("exp", 60),
                               ps.builtin("poly", coeffs=[0.0])))
        with pytest.raises(ConfigError, match="512-term probe") as err:
            harness._count_solution_zeros(
                eq, ode.InitialData((1.0, 0.0)),
                ps.builtin("poly", coeffs=[0.0, 1.0]), [5.6])
        assert err.value.path == "/oscillation/radii"


class TestTheoremSolutions:
    @pytest.mark.parametrize("name", ["theorem_type",
                                      "theorem_dominant_first_order"])
    def test_only_the_basis_is_marched(self, monkeypatch, name):
        marched, march = set(), ode._march_d

        def recorded(eq, init, n_terms, prev):
            marched.add(init.values)
            return march(eq, init, n_terms, prev)

        monkeypatch.setattr(ode, "_march_d", recorded)
        rep = harness.run_config(harness.shipped_config(name))
        assert rep.verdict == "pass"
        assert marched == {(1.0, 0.0), (0.0, 1.0)}

    def test_rejected_combination_is_marched_directly(self, monkeypatch):
        """A combination whose residual fails is dropped, and its initial
        vector is marched by auto_solve, with the bytes and info of that
        march."""
        residual = ode.residual_norm

        def failing(eq, f, log_r):
            if f.provenance == "ode combination":
                return math.inf
            return residual(eq, f, log_r)

        monkeypatch.setattr(ode, "residual_norm", failing)
        cfg = harness.shipped_config("theorem_dominant_first_order")
        eq = harness.resolve_equation(cfg["equation"])
        inits = harness._initial_vectors(eq.k, cfg["seed"])
        args = (cfg["r_max"], 1e-8, cfg["max_terms"])
        (sol, info), = harness._theorem_solutions(eq, inits, *args)[2:]
        want, want_info = ode.auto_solve(
            eq, inits[2], cfg["r_max"], n_start=harness._THEOREM_N_START,
            n_cap=cfg["max_terms"])
        assert sol.provenance == "ode solution" and info == want_info
        assert sol.coeff.lh.tobytes() == want.coeff.lh.tobytes()
        assert sol.coeff.ph.tobytes() == want.coeff.ph.tobytes()

    def test_accepted_combination_keeps_its_check(self):
        cfg = harness.shipped_config("theorem_dominant_first_order")
        eq = harness.resolve_equation(cfg["equation"])
        solved = harness._theorem_solutions(
            eq, harness._initial_vectors(eq.k, cfg["seed"]), cfg["r_max"],
            1e-8, cfg["max_terms"])
        (sol, info), = solved[2:]
        assert sol.provenance == "ode combination"
        assert sol.n_terms == max(s.n_terms for s, _ in solved[:2])
        assert info == ode.final_check(eq, sol, cfg["r_max"], 1e-8,
                                       cfg["max_terms"])
        assert info["residual"] < 1e-8

    def test_forced_equation_marches_every_solution(self):
        # f'' + e^z f = cos z: a combination of its solutions solves it
        # only when the weights sum to 1, so each one is marched
        eq = ode.LinearODE(2, (ps.builtin("exp", 200),
                               ps.builtin("poly", coeffs=[0.0])),
                           ps.builtin("cos", 200))
        inits = harness._initial_vectors(eq.k, 5)
        solved = harness._theorem_solutions(eq, inits, 5.0, 1e-8, 4096)
        assert [s.provenance for s, _ in solved] == ["ode solution"] * 3
        want = ode.auto_solve(eq, inits[2], 5.0, n_start=1024, n_cap=4096)
        assert solved[2][0].coeff.lh.tobytes() == want[0].coeff.lh.tobytes()


@pytest.fixture(scope="module")
def mini_count():
    """Counting f - z for the first solution of theorem_dominant in
    miniature (counts at 4.5, 5.6 and 6.3): its march record
    (marchref.recording_marches), with the counts."""
    cfg = harness.shipped_config("theorem_dominant")
    eq = harness.resolve_equation(cfg["equation"])
    with recording_marches() as recs:
        data = harness._count_solution_zeros(
            eq, ode.InitialData.basis(eq.k, 0),
            ps.builtin("poly", coeffs=[0.0, 1.0]), [4.5, 5.6, 6.3])
    (rec,) = recs
    rec.update(counts=data.counts)
    return rec


class TestMarchLength:
    def test_miniature_march_is_short_and_made_once(self, mini_count):
        # counting reads to ~800 of the probe's 2,048 terms
        assert mini_count["counts"] == (7, 11, 19)
        ((n, _),) = mini_count["marches"]
        assert n < 1024 < mini_count["h"].n_terms

    def test_miniature_march_holds_every_band_read(self, mini_count):
        assert_march_holds_bands(mini_count)

    def test_short_march_holds_every_band_read(self):
        # cos z - z: at r = 10 the band ends ~90 terms past nu = 10, where
        # the radius slack is worth ~1.6 nats, under one digit: the march
        # must hold every band at short lengths too
        eq = ode.LinearODE(2, (ps.builtin("poly", coeffs=[1.0]),
                               ps.builtin("poly", coeffs=[0.0])))
        with recording_marches(count=False) as recs:
            harness._count_solution_zeros(
                eq, ode.InitialData((1.0, 0.0)),
                ps.builtin("poly", coeffs=[0.0, 1.0]), [4.0, 10.0])
        (rec,) = recs
        assert rec["marches"][0][0] < 128
        assert_march_holds_bands(rec)


class TestAnalyzeCountZeros:
    def test_sin_zero_exponent(self):
        # n(r, 1/sin) = 2 [r / pi] + 1, whose exponent of convergence is 1
        cfg = minimal_analyze(
            subject={"builtin": "sin", "n_terms": 700},
            grid={"r_min": 5.0, "r_max": 40.0, "points": 12},
            expected_order=[0.9, 1.1],
            count_zeros={"grid": {"r_min": 10.0, "r_max": 60.0,
                                  "points": 8},
                         "expected_lambda": [0.9, 1.1]})
        rep = harness.run_config(cfg)
        assert rep.verdict == "pass"
        (lam,) = [c for c in rep.checks if c.name == "lambda_upper"]
        radii = np.geomspace(10.0, 60.0, 8)
        counts = tuple(2 * int(r // math.pi) + 1 for r in radii)
        assert lam.detail == f"counts {counts!r}"
        assert abs(lam.measured - 1.0) < 0.05
        assert [c.name for c in rep.checks][-1] == "expected_lambda"


class TestMaxModulusSearch:
    @pytest.mark.parametrize("name", ["wiman_valiron", "analyze_exp",
                                      "theorem_type",
                                      "theorem_dominant_first_order"])
    def test_at_most_one_circle_and_six_sums(self, monkeypatch, name):
        # the shipped experiments that read ln M(r): each grid search
        # folds its seed circles itself, with no eval_circle call, and
        # each of its radii reads at most 6 stacked band sums
        counts, per_search = {"circle": 0, "sums": {}}, []
        circle, sums = _evalcore.eval_circle, _evalcore._poly_at_points_d
        search = ps._max_modulus

        def circle_counted(*args, **kw):
            counts["circle"] += 1
            return circle(*args, **kw)

        def sums_counted(t, x):
            if t.ndim == 2:  # a radius' stacked band, keyed by its address
                key = t.ctypes.data
                counts["sums"][key] = counts["sums"].get(key, 0) + 1
            return sums(t, x)

        def search_counted(f, log_r):
            counts.update(circle=0, sums={})
            out = search(f, log_r)
            per_search.append((np.size(log_r), counts["circle"],
                               list(counts["sums"].values())))
            return out

        monkeypatch.setattr(_evalcore, "eval_circle", circle_counted)
        monkeypatch.setattr(_evalcore, "_poly_at_points_d", sums_counted)
        monkeypatch.setattr(ps, "_max_modulus", search_counted)
        assert harness.run_config(harness.shipped_config(name)).verdict \
            == "pass"
        assert per_search
        for radii, circles, per_radius in per_search:
            assert circles == 0
            assert len(per_radius) == radii
            assert max(per_radius) <= 6

    def test_one_search_per_radius(self, monkeypatch):
        # wv_bound and wv_ratio share one grid search, which reads each
        # radius once
        grids, search = [], ps._max_modulus

        def search_logged(f, log_r):
            grids.append(np.array(log_r, dtype=float))
            return search(f, log_r)

        monkeypatch.setattr(ps, "_max_modulus", search_logged)
        grid = np.geomspace(1.0, 50.0, 24)
        rep = harness.check_wiman_valiron(ps.builtin("exp", 400), grid,
                                          ratio_orders=(1, 2))
        assert rep.verdict == "pass"
        (searched,) = grids
        assert searched.tolist() == [math.log(r) for r in grid]


def old_wv_quotient(f, log_r, theta, order):
    """z^n f^(n)/f at r e^{i theta} as wv_ratio read it before: the
    derivative series f^(n), and f and f^(n) at dd."""
    fk = f
    for _ in range(order):
        fk = ps.derivative(fk)
    rf, rk = (_evalcore.eval_points(g.coeff, log_r, np.array([theta]),
                                    level="dd") for g in (f, fk))
    dlog = rk.logabs[0] - rf.logabs[0] + order * log_r
    dph = rk.phase[0] - rf.phase[0] + order * theta
    return complex(math.exp(dlog) * math.cos(dph),
                   math.exp(dlog) * math.sin(dph))


@pytest.mark.parametrize("name", ["exp", "cos", "exp_exp"])
def test_wv_quotients_match_derivative_series(name):
    f = ps.builtin(name, 400)
    for r in np.geomspace(1.0, min(30.0, f.guaranteed_radius / 2.0), 6):
        lr = math.log(r)
        theta = ps._max_modulus(f, lr)[1]
        got = ps._derivative_quotients(f, lr, theta, 3)
        for order in (1, 2, 3):
            want = old_wv_quotient(f, lr, theta, order)
            assert abs(got[order - 1] - want) <= 1e-10 * abs(want)


def noisy_sin():
    """sin 200 claiming coefficients good only to 1e-12: on |z| = 12 its
    dd trust line lies above |sin| near the real axis."""
    s = ps.builtin("sin", 200)
    return ps.make_series(s.coeff.lh, s.coeff.ph, math.log(1e-12),
                          "noisy sin")


class TestLogDerivativeDetail:
    triple = harness.resolve_triple({"alpha": {"kind": "log_plus"},
                                     "beta": {"kind": "identity"},
                                     "gamma": {"kind": "identity"}})

    def detail(self, f):
        rep = harness.check_log_derivative(f, self.triple, 1.0, 1,
                                           np.array([10.0, 12.0]))
        return rep.checks[0].detail

    def test_clean_radii_keep_the_plain_detail(self):
        assert self.detail(ps.builtin("sin", 200)).startswith(
            "tail ratios m/bound = [")
        assert ";" not in self.detail(ps.builtin("sin", 200))

    def test_names_trimmed_radii(self):
        assert self.detail(noisy_sin()).endswith(
            "; trimmed mean at r = [10.0, 12.0]")

    def test_names_unconverged_radii(self, monkeypatch):
        monkeypatch.setattr(nev, "_PROX_MAX_ANGLES", nev._PROX_START)
        assert self.detail(ps.builtin("sin", 200)).endswith(
            "; unconverged at r = [10.0, 12.0]")
