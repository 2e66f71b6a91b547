"""Command-line front end.

Subcommands:
  analyze   growth functionals of one subject (kind=analyze config)
  solve     power-series solution + coefficient CSV (kind=solve config)
  verify    run experiment configs (a file, or a shipped suite) and report
  scales    audit a scale triple's declared class conditions

Configs are JSON documents with a versioned "schema" field; shipped
experiments live inside the package and are addressed by name; a run's
parameters are the config's own fields (edit the config to change one).
Exit codes: 0 = all verdicts pass, 1 = any fail, 2 = config or runtime
error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import harness

CORE_SUITE = ("analyze_exp", "solve_airy", "wiman_valiron", "gundersen_exp",
              "log_derivative_exp_exp", "propositions", "scales_default")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to an experiment JSON")
    common.add_argument("--out", default="reports",
                        help="output directory for reports/CSVs")
    common.add_argument("--format", choices=("json", "csv"), default="json")

    p = argparse.ArgumentParser(
        prog="growthlab",
        description="growth functionals of entire functions, ODE series "
                    "solutions, and verification experiments")
    sub = p.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("analyze", "estimate growth functionals of a subject"),
            ("solve", "solve an equation by power series"),
            ("scales", "audit a scale triple")):
        sp = sub.add_parser(name, parents=[common], help=help_text)
        sp.set_defaults(suite=None)
    vp = sub.add_parser("verify", parents=[common],
                        help="run experiment suites")
    vp.add_argument("--suite", choices=("core", "full"), default=None,
                    help="shipped suite to run when no --config is given")
    vp.add_argument("--name", action="append", dest="names",
                    help="run a shipped experiment by name (repeatable)")
    return p


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _run_one(cfg: dict, args) -> harness.Report:
    report = harness.run_config(cfg, out_dir=args.out)
    harness.emit(report, fmt=args.format, out_dir=args.out)
    shown = report.verdict
    if shown != "pass" and _verdict_ok(report, cfg):
        shown += " (expected)"
    print(f"{report.name}: {shown} "
          f"({sum(1 for c in report.checks if c.verdict == 'pass')} pass / "
          f"{sum(1 for c in report.checks if c.verdict == 'fail')} fail)")
    return report


def _verdict_ok(report: harness.Report, cfg: dict) -> bool:
    """A pass, or hypotheses-not-met where the config expects it."""
    return (report.verdict == "pass"
            or report.verdict == cfg.get("expect") == "hypotheses-not-met")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            if args.config:
                cfgs = [_load(args.config)]
            else:
                names = args.names or list(CORE_SUITE)
                if args.names is None and args.suite == "full":
                    # every shipped experiment, the core suite first
                    names += [n for n in harness.shipped_names()
                              if n not in CORE_SUITE]
                cfgs = [harness.shipped_config(n) for n in names]
            ok = True
            for cfg in cfgs:
                report = _run_one(cfg, args)
                ok = ok and _verdict_ok(report, cfg)
            return 0 if ok else 1
        if not args.config:
            print("error: --config is required", file=sys.stderr)
            return 2
        cfg = _load(args.config)
        if cfg.get("kind") != args.command:
            raise harness.ConfigError(
                "/kind", f"{args.command} needs a kind={args.command} config")
        report = _run_one(cfg, args)
        return 0 if _verdict_ok(report, cfg) else 1
    except harness.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
