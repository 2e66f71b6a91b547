"""Alternating parent/change pairs of perfbench runs, summarised as a
BENCH_<pr>.json file.

    python tests/benchpairs.py PARENT CHANGE --workloads W [W ...] \\
        --pairs N --seed0 S --seconds T --out FILE [--note TEXT]

PARENT and CHANGE are two growthlab checkouts.  For each workload, pair i
runs `python3 perfbench/run.py --workload W --seed S+i --seconds T
--trace 0` once in each checkout, each in its own directory; the side
that runs first alternates from pair to pair (the parent first in even
pairs).  The set is refused, and no file written, if any run exits
nonzero, is not `correct` or has failed ops.

For each workload and end-to-end metric the file gives, per side, the
median and quartiles of the N runs (statistics.quantiles, inclusive), the
number of pairs in which the change read lower, change/parent of the
medians, the median gap against the parent's interquartile range, and
the metric's bound from CHANGE's BENCHMARK.json.  Every run's values, the
pair's order and whether its two workload digests agree are kept, with
the `environment:` line of the first run and the command.  Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import statistics
import subprocess
import sys

RUN = ["python3", "perfbench/run.py"]


def parse_run(stdout: str) -> dict:
    """The result of one perfbench/run.py run from its standard output:
    its last line (correct, attempted, failed, metrics), its environment
    line and its workload digest."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the run printed nothing")
    out = json.loads(lines[-1])
    out["environment"] = next(
        (json.loads(ln.split(":", 1)[1]) for ln in lines
         if ln.startswith("environment:")), None)
    out["digest"] = next((ln.split(":", 1)[1].strip() for ln in lines
                          if ln.startswith("workload digest:")), None)
    return out


def refusal(run: dict) -> str | None:
    """Why a parsed run cannot enter the set, or None."""
    if not run.get("correct"):
        return "not correct"
    if run.get("failed"):
        return f"{run['failed']} failed ops"
    return None


def _quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs: list, bounds: dict) -> dict:
    """The summary of one workload's pairs, each a dict with the parsed
    runs "parent" and "change" and "first" (the side run first)."""
    out = {"pairs": [], "metrics": {}}
    for p in pairs:
        out["pairs"].append({
            "seed": p["seed"], "first": p["first"],
            "digests_equal": p["parent"]["digest"] == p["change"]["digest"],
            "parent": {k: v["value"] for k, v in
                       p["parent"]["metrics"].items()},
            "change": {k: v["value"] for k, v in
                       p["change"]["metrics"].items()}})
    for name, bound in bounds.items():
        side = {s: [p[s]["metrics"][name]["value"] for p in pairs]
                for s in ("parent", "change")}
        med = {s: statistics.median(v) for s, v in side.items()}
        quart = {s: _quartiles(v) for s, v in side.items()}
        iqr = quart["parent"][1] - quart["parent"][0]
        gap = med["parent"] - med["change"]
        out["metrics"][name] = {
            "unit": pairs[0]["parent"]["metrics"][name]["unit"],
            **{f"{s}_{k}": v for s in ("parent", "change") for k, v in
               (("median", med[s]), ("q1", quart[s][0]),
                ("q3", quart[s][1]))},
            "pairs_change_lower": sum(c < p for p, c in
                                      zip(side["parent"], side["change"])),
            "pairs": len(pairs),
            "change_over_parent": (med["change"] / med["parent"]
                                   if med["parent"] else None),
            "median_gap": gap,
            "parent_iqr": iqr,
            "gap_over_parent_iqr": gap / iqr if iqr else None,
            "bound": bound}
    return out


def bounds_of(checkout: str) -> dict:
    """name -> bound of every end-to-end metric in BENCHMARK.json."""
    with open(os.path.join(checkout, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        return {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}


def run_once(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [*RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    return parse_run(proc.stdout)


def main(argv=None, run=run_once) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed0", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--note", default="")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    bounds = bounds_of(args.change)
    sides = {"parent": args.parent, "change": args.change}
    result = {
        "note": args.note,
        "command": " ".join(shlex.quote(a) for a in
                            ["python", "tests/benchpairs.py",
                             *(argv if argv is not None else sys.argv[1:])]),
        "run_command": " ".join(RUN) + " --workload W --seed S --seconds "
                       f"{args.seconds} --trace 0",
        "method": "alternating pairs: the parent runs first in even pairs, "
                  "the change in odd ones; seeds seed0 + pair",
        "environment": None, "workloads": {}}
    for workload in args.workloads:
        pairs = []
        for i in range(args.pairs):
            seed = args.seed0 + i
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                             "parent")
            pair = {"seed": seed, "first": order[0]}
            for s in order:
                try:
                    pair[s] = run(sides[s], workload, seed, args.seconds)
                    why = refusal(pair[s])
                except (RuntimeError, ValueError) as exc:
                    why = str(exc)
                if why:
                    print(f"benchpairs: refused: {s} run of {workload} seed "
                          f"{seed}: {why}", file=sys.stderr)
                    return 1
                if result["environment"] is None:
                    result["environment"] = pair[s]["environment"]
            pairs.append(pair)
            walls = [pair[s]["metrics"]["wall_s"]["value"]
                     for s in ("parent", "change")]
            print(f"{workload} pair {i + 1}/{args.pairs} (seed {seed}): "
                  f"wall_s parent {walls[0]:.4f}, change {walls[1]:.4f}",
                  flush=True)
        result["workloads"][workload] = summarize(pairs, bounds)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
