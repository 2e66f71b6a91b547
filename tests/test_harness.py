"""Harness: config validation, dispatch, reports, determinism, CLI."""

import json
import math

import pytest

from growthlab import cli, harness, ode
from growthlab import series as ps
from growthlab.harness import ConfigError


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
                                      "theorem_proximity_liminf"])
    def test_shipped_experiment_passes(self, name):
        assert harness.run_config(harness.shipped_config(name)).verdict \
            == "pass"

    def test_shipped_configs_parse(self):
        for name in harness.shipped_names():
            cfg = harness.shipped_config(name)
            assert cfg.get("schema") == harness.SCHEMA
            assert cfg.get("kind") in harness.KINDS


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


class TestOverrides:
    def test_seed_override_changes_config(self, tmp_path):
        cfg = minimal_analyze()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = cli.main(["verify", "--config", str(path), "--seed", "99",
                       "--out", str(tmp_path / "rep")])
        assert rc == 0
        doc = json.loads((tmp_path / "rep" / "t_analyze.report.json")
                         .read_text())
        assert doc["config"]["seed"] == 99


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
            ps.builtin("poly", coeffs=[0.0, 1.0]), [5.6], 400)
        assert data.counts == (11,)
        assert len(marches) == 1
