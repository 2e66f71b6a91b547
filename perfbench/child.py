"""One benchmark pass in a fresh interpreter; prints one JSON object.

    python3 perfbench/child.py --workload NAME --seed N --mode MODE
                               --spawned T [--trace-out PATH]

MODE is `setup` (import growthlab and build the workload's builtin
subjects, then stop), `pass` (set up, then run the workload's operation
list) or `traced` (a pass with every layer wrapped by perfbench.tracer).
T is the parent's time.perf_counter() just before it started this process;
CLOCK_MONOTONIC is system-wide on Linux, so set-up time includes
interpreter start-up.  run.py starts these processes; this file is not the
benchmark's entry point.

Times are reported twice: `raw_*` as the clock read them, net of the
speedometer's own samples, and the others normalised to reference speed
(see perfbench/speed.py), each op by the samples taken during it and at
its two ends.  A pass's wall and CPU times are sums over its ops.  The
speedometer samples every 0.2 s during a `pass`, and between ops; a
`traced` pass is sampled only between ops.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import sys
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MODULES = ("harness", "growth", "nevanlinna", "ode", "series", "_evalcore")
SETUP_SAMPLES = 10  # speed samples taken right after set-up


def _import_growthlab():
    sys.path.insert(0, SRC)
    mods = {name: importlib.import_module(f"growthlab.{name}")
            for name in MODULES}
    origin = os.path.dirname(os.path.abspath(mods["harness"].__file__))
    if origin != os.path.join(SRC, "growthlab"):
        raise SystemExit(f"growthlab imported from {origin}, not {SRC}")
    return mods


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass", "traced"),
                    required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)

    mods = _import_growthlab()
    sys.path.insert(0, HERE)
    import tracer as tr
    import workloads

    tracer = None
    if args.mode == "traced":
        tracer = tr.Tracer()
        tracer.install(dict(sys.modules))
    gl = SimpleNamespace(**{k.lstrip("_"): v for k, v in mods.items()})
    builtins, ops = workloads.WORKLOADS[args.workload](gl, args.seed)
    for name, n_terms in sorted(builtins):
        gl.series.builtin(name, n_terms)
    raw_setup_s = time.perf_counter() - args.spawned
    import speed
    meter = speed.Speedometer()
    for _ in range(SETUP_SAMPLES):
        meter.sample()
    setup_speed = meter.speed()
    out = {"setup_s": raw_setup_s * setup_speed, "raw_setup_s": raw_setup_s,
           "setup_speed": setup_speed}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    pass_first = len(meter.samples) - 1
    if tracer is None:
        meter.start()
    results, op_rows = {}, []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        first = len(meter.samples) - 1   # the sample just before the op
        spent_wall0, spent_cpu0 = meter.spent_wall, meter.spent_cpu
        s0, c0 = time.perf_counter(), time.process_time()
        try:
            res = op.run()
            err = None
        except Exception as exc:  # a raising op is a failed op, not a crash
            err = exc
        raw_s = time.perf_counter() - s0 - (meter.spent_wall - spent_wall0)
        raw_cpu_s = (time.process_time() - c0
                     - (meter.spent_cpu - spent_cpu0))
        meter.sample()                   # and the one just after it
        op_speed = meter.speed(first)
        row = {"name": op.name, "raw_s": raw_s, "raw_cpu_s": raw_cpu_s,
               "s": raw_s * op_speed, "cpu_s": raw_cpu_s * op_speed}
        if err is not None:
            row.update(ok=False, why=f"{type(err).__name__}: {err}",
                       digest=None)
        else:
            ok, why = op.check(res)
            results[op.name] = res
            row.update(ok=bool(ok), why=why, digest=op.digest(res))
        op_rows.append(row)
    meter.stop()
    for key, op_key in (("wall_s", "s"), ("raw_wall_s", "raw_s"),
                        ("cpu_s", "cpu_s"), ("raw_cpu_s", "raw_cpu_s")):
        out[key] = math.fsum(r[op_key] for r in op_rows)
    out.update(speed=meter.speed(pass_first),
               speed_samples=len(meter.samples) - pass_first, ops=op_rows,
               peak_rss_mb=resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if args.workload == "oracles":
        out["oracle_err_max"] = workloads.oracle_err_max(results)
    if tracer is not None:
        spans = tracer.spans
        out["layers"] = tr.layer_metrics(spans, out["raw_wall_s"])
        out["op_top_level_s"] = tr.op_top_level_s(spans)
        out["calls"] = tr.call_counts(spans)
        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "ops": [r["name"] for r in op_rows],
                           "spans": tracer.as_records()}, fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
