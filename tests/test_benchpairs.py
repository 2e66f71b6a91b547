"""tests/benchpairs.py summarises canned perfbench result lines; no
benchmark is run."""

import json

import pytest

import benchpairs

_ENV = {"nproc": 2, "python": "3.11.7"}


def canned(wall: float, digest: str = "abc", correct: bool = True,
           failed: int = 0) -> str:
    """perfbench/run.py's standard output for one run."""
    metrics = {name: {"value": wall * k, "unit": unit} for name, k, unit in
               (("wall_s", 1.0, "s"), ("op_max_s", 0.5, "s"),
                ("cpu_s", 1.0, "s"), ("peak_rss_mb", 400.0, "MB"),
                ("setup_s", 2.0, "s"))}
    return "\n".join([
        "perfbench workload=oracles seed=1 seconds=8 trace=0",
        "environment: " + json.dumps(_ENV, sort_keys=True),
        "passes: 3",
        f"workload digest: {digest}",
        "metrics:",
        json.dumps({"correct": correct, "attempted": 9, "failed": failed,
                    "metrics": metrics})])


def test_parse_run():
    run = benchpairs.parse_run(canned(0.05, digest="d1"))
    assert run["correct"] and run["failed"] == 0
    assert run["environment"] == _ENV
    assert run["digest"] == "d1"
    assert run["metrics"]["wall_s"] == {"value": 0.05, "unit": "s"}


def test_summary_of_pairs():
    parent = [0.050, 0.052, 0.049, 0.051]
    change = [0.045, 0.053, 0.044, 0.046]
    pairs = [{"seed": 10 + i, "first": "parent" if i % 2 == 0 else "change",
              "parent": benchpairs.parse_run(canned(p)),
              "change": benchpairs.parse_run(canned(c, digest="x" * (i == 3)
                                                    or "abc"))}
             for i, (p, c) in enumerate(zip(parent, change))]
    out = benchpairs.summarize(pairs, {"wall_s": 0.2, "setup_s": 0.25})
    assert set(out["metrics"]) == {"wall_s", "setup_s"}
    wall = out["metrics"]["wall_s"]
    assert wall["parent_median"] == pytest.approx(0.0505)
    assert wall["change_median"] == pytest.approx(0.0455)
    assert wall["parent_q1"] == pytest.approx(0.04975)
    assert wall["parent_q3"] == pytest.approx(0.05125)
    assert wall["pairs_change_lower"] == 3 and wall["pairs"] == 4
    assert wall["change_over_parent"] == pytest.approx(0.0455 / 0.0505)
    assert wall["median_gap"] == pytest.approx(0.005)
    assert wall["gap_over_parent_iqr"] == pytest.approx(0.005 / 0.0015)
    assert wall["bound"] == 0.2 and wall["unit"] == "s"
    assert out["metrics"]["setup_s"]["bound"] == 0.25
    assert [p["digests_equal"] for p in out["pairs"]] == [True] * 3 + [False]
    assert out["pairs"][1]["first"] == "change"
    assert out["pairs"][0]["parent"]["op_max_s"] == pytest.approx(0.025)


def _fake(walls: dict, bad=None):
    """A runner returning canned runs: walls[side] per pair, in call
    order; calls records (checkout, workload, seed)."""
    calls = []

    def run(checkout, workload, seed, seconds):
        calls.append((checkout, workload, seed))
        if bad == (checkout, seed):
            return benchpairs.parse_run(canned(0.05, correct=False))
        return benchpairs.parse_run(canned(walls[checkout][seed - 7]))

    return run, calls


def _bench_root(tmp_path, name):
    root = tmp_path / name
    root.mkdir()
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "wall_s", "unit": "s", "bound": 0.2},
        {"name": "peak_rss_mb", "unit": "MB", "bound": 0.1}]}))
    return str(root)


def test_main_alternates_and_writes(tmp_path):
    par, chg = _bench_root(tmp_path, "par"), _bench_root(tmp_path, "chg")
    run, calls = _fake({par: [0.05, 0.06, 0.05], chg: [0.04, 0.05, 0.06]})
    out = tmp_path / "BENCH.json"
    rc = benchpairs.main([par, chg, "--workloads", "oracles", "--pairs", "3",
                          "--seed0", "7", "--seconds", "8", "--out",
                          str(out)], run=run)
    assert rc == 0
    assert [c[0] for c in calls] == [par, chg, chg, par, par, chg]
    assert [c[2] for c in calls] == [7, 7, 8, 8, 9, 9]
    data = json.loads(out.read_text())
    assert data["environment"] == _ENV
    assert "--pairs 3" in data["command"]
    wall = data["workloads"]["oracles"]["metrics"]["wall_s"]
    assert wall["pairs_change_lower"] == 2
    assert (wall["parent_median"], wall["change_median"]) == (0.05, 0.05)
    assert set(data["workloads"]["oracles"]["metrics"]) == {"wall_s",
                                                            "peak_rss_mb"}


def test_main_refuses_a_failed_run(tmp_path, capsys):
    par, chg = _bench_root(tmp_path, "par"), _bench_root(tmp_path, "chg")
    run, _ = _fake({par: [0.05] * 2, chg: [0.04] * 2}, bad=(chg, 8))
    out = tmp_path / "BENCH.json"
    rc = benchpairs.main([par, chg, "--workloads", "oracles", "--pairs", "2",
                          "--seed0", "7", "--seconds", "8", "--out",
                          str(out)], run=run)
    assert rc == 1
    assert not out.exists()
    assert "not correct" in capsys.readouterr().err


def test_refusal_reasons():
    assert benchpairs.refusal(benchpairs.parse_run(canned(0.1))) is None
    assert benchpairs.refusal(benchpairs.parse_run(
        canned(0.1, failed=2))) == "2 failed ops"
    with pytest.raises(ValueError):
        benchpairs.parse_run("")
