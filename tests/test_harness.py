"""Harness: config validation, dispatch, reports, determinism, CLI."""

import json
import math

import pytest

from growthlab import _evalcore, cli, harness, ode
from growthlab import series as ps
from growthlab.harness import ConfigError
from marchref import assert_march_holds_bands, recording_marches


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
                ps.builtin("poly", coeffs=[0.0, 1.0]), [2.0, 4.0], 400)
        assert err.value.path == "/oscillation/radii"
        assert all(n <= harness._PROBE_TERMS for n in lengths)

    def test_radii_past_a_coefficient_exit_two(self, tmp_path, capsys):
        # exp 220 is trusted to ~106: counting up to 120 is a config error
        cfg = harness.shipped_config("theorem_dominant_first_order")
        cfg["oscillation"] = {"enabled": True, "n_subjects": 1,
                              "radii": [5.0, 120.0]}
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
        eq = ode.LinearODE(2, (ps.builtin("exp", 60),
                               ps.builtin("poly", coeffs=[0.0])))
        with pytest.raises(ConfigError, match="budget is 20") as err:
            harness._count_solution_zeros(
                eq, ode.InitialData((1.0, 0.0)),
                ps.builtin("poly", coeffs=[0.0, 1.0]), [5.6], 20)
        assert err.value.path == "/oscillation/radii"
        assert marches == []

    def test_radii_past_the_digit_budget_exit_two(self, tmp_path, capsys):
        # radii inside A_0's trusted radius (~106), but no probe up to
        # 65,536 terms is trusted to 102, and r = 100 would wind at ~54,000
        # digits against a budget of 400 (which used to escape as a
        # traceback)
        cfg = harness.shipped_config("theorem_dominant_first_order")
        cfg["oscillation"] = {"enabled": True, "n_subjects": 1,
                              "radii": [5.0, 100.0], "min_radius": 4.0}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = cli.main(["verify", "--config", str(path),
                       "--out", str(tmp_path / "rep")])
        assert rc == 2
        assert "/oscillation/radii" in capsys.readouterr().err

    def test_probe_holds_the_band_it_sizes(self, monkeypatch):
        """With 64-term probes, the 512-term probe is trusted to 1.02 r at
        r = 5.6, but its mp band of f - z there, at the 47 digits chosen,
        reaches its last term; the probe doubles until the band ends
        inside it, and the march stops short of the probe."""
        monkeypatch.setattr(harness, "_PROBE_TERMS", 64)
        eq = ode.LinearODE(2, (ps.builtin("exp", 60),
                               ps.builtin("poly", coeffs=[0.0])))
        with recording_marches(count=False) as recs:
            harness._count_solution_zeros(
                eq, ode.InitialData((1.0, 0.0)),
                ps.builtin("poly", coeffs=[0.0, 1.0]), [5.6], 400)
        (rec,) = recs
        probe = rec["h_probe"]
        assert rec["dps"] == 47 and probe.n_terms == 1024
        assert ps._certify_radius(probe.coeff.lh[:512]) >= 5.6 * 1.02
        log_r = math.log(5.6 * harness._RADIUS_SLACK)
        assert _evalcore._mp_band(probe.coeff, log_r, 47)[1] < 1024
        short = ps.make_series(probe.coeff.lh[:512], probe.coeff.ll[:512],
                               probe.coeff.ph[:512], 0.0, "512-term probe")
        assert _evalcore._mp_band(short.coeff, log_r, 47)[1] == 512
        assert rec["n"] < probe.n_terms
        assert_march_holds_bands(rec)

    def test_probe_short_at_the_cap_raises(self, monkeypatch):
        monkeypatch.setattr(harness, "_PROBE_TERMS", 64)
        monkeypatch.setattr(harness, "_PROBE_CAP", 512)
        eq = ode.LinearODE(2, (ps.builtin("exp", 60),
                               ps.builtin("poly", coeffs=[0.0])))
        with pytest.raises(ConfigError, match="512-term probe") as err:
            harness._count_solution_zeros(
                eq, ode.InitialData((1.0, 0.0)),
                ps.builtin("poly", coeffs=[0.0, 1.0]), [5.6], 400)
        assert err.value.path == "/oscillation/radii"


@pytest.fixture(scope="module")
def mini_count():
    """Counting f - z for the first solution of theorem_dominant in
    miniature (counts at 4.5, 5.6 and 6.3): its march record, with the
    integer marches made as (n_terms, dps) under rec["marches"]."""
    cfg = harness.shipped_config("theorem_dominant")
    eq = harness.resolve_equation(cfg["equation"])
    marches = []
    march = ode._solve_series_mp

    def counted(eq, init, n_terms, dps):
        marches.append((n_terms, dps))
        return march(eq, init, n_terms, dps)

    with recording_marches() as recs, \
            pytest.MonkeyPatch.context() as mpatch:
        mpatch.setattr(ode, "_solve_series_mp", counted)
        data = harness._count_solution_zeros(
            eq, ode.InitialData.basis(eq.k, 0),
            ps.builtin("poly", coeffs=[0.0, 1.0]), [4.5, 5.6, 6.3], 400)
    (rec,) = recs
    rec.update(marches=marches, counts=data.counts)
    return rec


class TestMarchLength:
    def test_miniature_march_is_short_and_made_once(self, mini_count):
        # the march was the probe's 2,048 terms; counting reads to ~800
        assert mini_count["counts"] == (7, 11, 19)
        assert len(mini_count["marches"]) == 1
        assert mini_count["marches"][0][0] == mini_count["n"] < 1024

    def test_miniature_march_holds_every_band_read(self, mini_count):
        assert_march_holds_bands(mini_count)

    def test_short_march_holds_every_band_read(self):
        # cos z - z: at r = 10 the band ends ~90 terms past nu = 10, where
        # the radius slack is worth ~1.6 nats, under one digit: the margin
        # must hold at short lengths too
        eq = ode.LinearODE(2, (ps.builtin("poly", coeffs=[1.0]),
                               ps.builtin("poly", coeffs=[0.0])))
        with recording_marches(count=False) as recs:
            harness._count_solution_zeros(
                eq, ode.InitialData((1.0, 0.0)),
                ps.builtin("poly", coeffs=[0.0, 1.0]), [4.0, 10.0], 400)
        (rec,) = recs
        assert rec["n"] < 128
        assert_march_holds_bands(rec)
