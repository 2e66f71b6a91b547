"""growthlab benchmark: times one workload and checks its results.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a growthlab checkout.  Each pass runs in a fresh
interpreter (perfbench/child.py), so growthlab's in-process caches start
empty, as they do for one `growthlab verify`.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it are the human-readable report.

--trace 0  untraced passes of the operation list until S seconds have
           gone, then set-up-only processes until there are
           MIN_SETUP_SAMPLES set-up times; end-to-end metrics are medians,
           in seconds normalised to reference speed (perfbench/speed.py).
--trace 1  one untraced and one traced pass; per-layer metrics, in raw
           seconds, from the traced pass's spans, written to
           perfbench_out/.

Metric names and units come from BENCHMARK.json at the root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(ROOT, "perfbench_out")

SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ("fixed_precision", "oracles", "oscillation")
MIN_SETUP_SAMPLES = 5  # set-up times per untraced run
DEADLINE_S = 170.0     # the whole run ends within this, or fails

# span names that must record calls on each workload (trace self-test)
EXPECTED_CALLS = {
    "fixed_precision": (
        "harness.run_config", "harness.run_theorem_experiment",
        "ode.solve_series", "ode.auto_solve", "ode.residual_norm",
        "nevanlinna.proximity_of_ratio", "series.builtin",
        "series.log_max_modulus", "series.derivative", "series.combine",
        "series.scale_argument", "growth.sample", "growth.estimate_order",
        "growth.estimate_type", "evalcore.eval_circle",
        "evalcore.eval_points"),
    "oracles": (
        "nevanlinna.proximity_detailed", "nevanlinna.count_zeros_grid",
        "nevanlinna.zero_count", "series.builtin", "series.max_term",
        "series.valuation", "series.derivative", "series.combine",
        "evalcore.eval_circle", "evalcore.eval_points", "evalcore.mp_logs",
        "evalcore.dps_for_floor"),
    "oscillation": (
        "harness.run_config", "harness.run_theorem_experiment",
        "ode.solve_series", "ode._solve_series_mp", "ode.auto_solve",
        "nevanlinna.count_zeros_grid", "nevanlinna.zero_count",
        "series.builtin", "series.combine", "series.log_max_modulus",
        "growth.sample", "growth.estimate_lambda", "evalcore.eval_circle",
        "evalcore.eval_points", "evalcore.mp_logs"),
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _with_units(values: dict, kind: str) -> dict:
    """values keyed by the BENCHMARK.json `kind` metrics, with their units;
    a name missing on either side is an error of the benchmark."""
    with open(SPEC, encoding="utf-8") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)[kind]}
    if set(values) != set(units):
        raise BenchError(f"metrics differ from BENCHMARK.json {kind}: "
                         f"{sorted(set(values) ^ set(units))}")
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def environment() -> dict:
    import mpmath
    import numpy
    import scipy
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND, "blas": blas,
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _child(workload: str, seed: int, mode: str, deadline: float,
           trace_out: str = None) -> dict:
    left = deadline - time.perf_counter()
    if left <= 0:
        raise BenchError("out of time before starting a pass")
    cmd = [sys.executable, CHILD, "--workload", workload, "--seed",
           str(seed), "--mode", mode]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=ROOT,
                              capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} pass did not finish in time") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} pass exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _judge(passes: list) -> tuple:
    """(attempted, failed, digests): an op fails if it raised, missed its
    check, or gave a different digest in another pass of the run."""
    attempted = failed = 0
    digests = {}
    for p in passes:
        for row in p["ops"]:
            digests.setdefault(row["name"], set()).add(row["digest"])
    for p in passes:
        for row in p["ops"]:
            attempted += 1
            if not row["ok"] or row["digest"] is None \
                    or len(digests[row["name"]]) > 1:
                failed += 1
    return attempted, failed, digests


def _print_ops(passes: list, digests: dict) -> None:
    for i, row in enumerate(passes[0]["ops"]):
        times = " ".join(f"{p['ops'][i]['raw_s']:.4f}" for p in passes)
        same = "" if len(digests[row["name"]]) == 1 else "  DIGESTS DIFFER"
        print(f"  {row['name']:<34} {'ok  ' if row['ok'] else 'FAIL'} "
              f"{row['digest']}  [{times}] raw s  {row['why']}{same}")
    whole = hashlib.sha256("".join(
        r["digest"] or "-" for r in passes[0]["ops"]).encode()).hexdigest()
    print(f"workload digest: {whole}")


def run_untraced(workload: str, seed: int, seconds: int,
                 deadline: float) -> tuple:
    start = time.perf_counter()
    # start another pass only if it should end within the measured time
    passes, took = [], []
    while not passes or (time.perf_counter() - start
                         + statistics.median(took) <= seconds):
        t0 = time.perf_counter()
        passes.append(_child(workload, seed, "pass", deadline))
        took.append(time.perf_counter() - t0)
    setups = passes + [_child(workload, seed, "setup", deadline)
                       for _ in range(MIN_SETUP_SAMPLES - len(passes))]
    attempted, failed, digests = _judge(passes)
    print(f"passes: {len(passes)}")
    for p in passes:
        print(f"  raw wall {p['raw_wall_s']:.4f} s, speed {p['speed']:.4f} "
              f"({p['speed_samples']} samples), normalised "
              f"{p['wall_s']:.4f} s")
    print("set-up: raw s x speed = normalised s: " + ", ".join(
        f"{p['raw_setup_s']:.4f} x {p['setup_speed']:.3f} = "
        f"{p['setup_s']:.4f}" for p in setups))
    _print_ops(passes, digests)
    if workload == "oracles":
        print(f"oracle_err_max: {passes[0]['oracle_err_max']!r} "
              "(max |m(r, e^z) - r/pi| / r)")
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "op_max_s": statistics.median(max(r["s"] for r in p["ops"])
                                      for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(p["setup_s"] for p in setups),
    }
    return attempted, failed, True, _with_units(metrics, "end_to_end")


def run_traced(workload: str, seed: int, deadline: float) -> tuple:
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"trace-{workload}-{seed}.json")
    plain = _child(workload, seed, "pass", deadline)
    traced = _child(workload, seed, "traced", deadline, trace_path)
    attempted, failed, digests = _judge([plain, traced])
    print(f"trace written to {os.path.relpath(trace_path, ROOT)}")
    _print_ops([plain, traced], digests)

    layers = dict(traced["layers"])
    overhead = traced["raw_wall_s"] - plain["raw_wall_s"]
    layers["trace.overhead_s"] = overhead
    layers["trace.overhead_frac"] = overhead / plain["raw_wall_s"]

    # self-tests of the instrument itself
    problems = []
    for name in EXPECTED_CALLS[workload]:
        if traced["calls"].get(name, 0) == 0:
            problems.append(f"{name} recorded no calls")
    if workload == "fixed_precision" and layers["evalcore.points.mp"] != 0:
        problems.append("fixed_precision evaluated mp points")
    outside = 0
    top = {int(k): v for k, v in traced["op_top_level_s"].items()}
    print(f"trace overhead: {overhead:+.4f} s "
          f"({100 * layers['trace.overhead_frac']:+.2f}% of untraced wall)")
    # raw seconds: the overhead holds only if the machine's speed did not
    print(f"speed: untraced pass {plain['speed']:.4f}, traced pass "
          f"{traced['speed']:.4f} (between ops only)")
    print("per op: top-level span time vs untraced op time")
    for i, (u, t) in enumerate(zip(plain["ops"], traced["ops"])):
        spans_s = top.get(i, 0.0)
        within = abs(spans_s - u["raw_s"]) <= (abs(overhead)
                                               + 0.1 * u["raw_s"] + 0.01)
        outside += not within
        print(f"  {u['name']:<34} spans {spans_s:.4f} s, untraced "
              f"{u['raw_s']:.4f} s, traced {t['raw_s']:.4f} s"
              f"{'' if within else '  OUTSIDE OVERHEAD'}")
    layers["trace.ops_outside_overhead"] = outside
    for p in problems:
        print(f"SELF-TEST FAILED: {p}")
    return attempted, failed, not problems, _with_units(layers, "per_layer")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "growthlab",
                                       "__init__.py")):
        print("perfbench: no growthlab sources under src/ of "
              f"{ROOT}", file=sys.stderr)
        return 2
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("environment: " + json.dumps(environment(), sort_keys=True))
    try:
        if args.trace:
            attempted, failed, sound, metrics = run_traced(
                args.workload, args.seed, deadline)
        else:
            attempted, failed, sound, metrics = run_untraced(
                args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("metrics:")
    for k, v in metrics.items():
        print(f"  {k:<44} {v['value']:.6g} {v['unit']}")
    bad = [k for k, v in metrics.items() if not math.isfinite(v["value"])]
    if bad:
        print(f"perfbench: non-finite metrics {bad}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0 and sound,
                      "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
