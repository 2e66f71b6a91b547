"""Compare the reports of two output directories.

Loads every *.report.json in a directory with its `environment` block
removed, the one part of a report outside the determinism promise.  Run as
a script,

    python tests/reports.py DIR_A DIR_B [--values] [--rel-tol X]

it prints the name of each report that differs, or is in one directory
only, and exits 1 if there is any; 0 otherwise.  With --values it also
prints, under each report in both directories, every check whose measured
value, verdict or detail changed (numbers with their relative change,
verdict changes flagged), and any other top-level field that changed: in
an object field such as `config`, each key added, removed or changed, as
a JSON path (`config: removed /oscillation/dps_budget`).  --rel-tol X
implies --values and lists the same lines, but exits 0 when every
difference is a measured value that is a float on both sides and moved
by at most X relative; a verdict, detail, list, integer, config or any
other difference, or a report in one directory only, still exits 1.
Standard library only.
"""

import json
import os
import sys


def load_reports(directory):
    """{file name: report dict without `environment`} for the directory."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".report.json"):
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                report = json.load(fh)
            report.pop("environment", None)
            out[name] = report
    return out


def differing(dir_a, dir_b):
    """Names of the reports that differ between the two directories."""
    a, b = load_reports(dir_a), load_reports(dir_b)
    return sorted(n for n in set(a) | set(b) if a.get(n) != b.get(n))


def _number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def key_changes(a, b, path=""):
    """(what, path, a's value, b's value) for each key of object b added,
    removed or changed from object a, recursing into the objects under
    both, in a's key order, then b's."""
    for key in list(a) + [k for k in b if k not in a]:
        at = f"{path}/{key}"
        va, vb = a.get(key), b.get(key)
        if key not in b or key not in a:
            yield ("removed" if key not in b else "added"), at, va, vb
        elif isinstance(va, dict) and isinstance(vb, dict):
            yield from key_changes(va, vb, at)
        elif va != vb:
            yield "changed", at, va, vb


def _within(va, vb, rel_tol):
    """Whether measured values va -> vb are floats within rel_tol of each
    other, relative to va."""
    return (isinstance(va, float) and isinstance(vb, float)
            and abs(vb - va) <= rel_tol * abs(va))


def tolerated(report_a, report_b, rel_tol):
    """Whether report_b equals report_a once each check's measured value
    within rel_tol of report_a's (_within) is put back to report_a's."""
    checks_a = {c["name"]: c for c in report_a.get("checks", [])}
    back = []
    for cb in report_b.get("checks", []):
        ca = checks_a.get(cb["name"])
        if ca is not None and _within(ca.get("measured"), cb.get("measured"),
                                      rel_tol):
            cb = dict(cb, measured=ca["measured"])
        back.append(cb)
    return dict(report_b, checks=back) == report_a


def check_changes(report_a, report_b):
    """Lines describing each check of the two reports whose measured
    value, verdict or detail changed, in report_a's order, then each other
    top-level field that changed, an object field key by key."""
    checks_a = {c["name"]: c for c in report_a.get("checks", [])}
    checks_b = {c["name"]: c for c in report_b.get("checks", [])}
    lines = []
    for name in list(checks_a) + [n for n in checks_b if n not in checks_a]:
        ca, cb = checks_a.get(name), checks_b.get(name)
        if ca is None or cb is None:
            lines.append(f"{name}: only in {'B' if ca is None else 'A'}")
            continue
        va, vb = ca.get("measured"), cb.get("measured")
        if va != vb:
            line = f"{name}: {va!r} -> {vb!r}"
            if _number(va) and _number(vb) and va != 0:
                line += f" (relative {(vb - va) / abs(va):+.2e})"
            lines.append(line)
        if ca.get("verdict") != cb.get("verdict"):
            lines.append(f"{name}: VERDICT {ca.get('verdict')} -> "
                         f"{cb.get('verdict')}")
        if ca.get("detail") != cb.get("detail"):
            lines.append(f"{name}: detail {ca.get('detail')!r} -> "
                         f"{cb.get('detail')!r}")
    for key in sorted(set(report_a) | set(report_b)):
        va, vb = report_a.get(key), report_b.get(key)
        if key == "checks" or va == vb:
            continue
        if key == "verdict":
            lines.append(f"report VERDICT {va} -> {vb}")
        elif isinstance(va, dict) and isinstance(vb, dict):
            for what, at, xa, xb in key_changes(va, vb):
                lines.append(f"{key}: {what} {at}" + (
                    f" {xa!r} -> {xb!r}" if what == "changed" else ""))
        else:
            lines.append(f"field {key} changed")
    return lines


def _parse(argv):
    """(dirs, values, rel_tol) from the command line, or None if bad."""
    values, rel_tol, dirs = False, None, []
    args = iter(argv)
    for arg in args:
        if arg == "--values":
            values = True
        elif arg == "--rel-tol":
            try:
                rel_tol = float(next(args))
            except (StopIteration, ValueError):
                return None
            if not rel_tol >= 0.0:
                return None
            values = True
        else:
            dirs.append(arg)
    return (dirs, values, rel_tol) if len(dirs) == 2 else None


def main(argv):
    parsed = _parse(argv)
    if parsed is None:
        print("usage: python tests/reports.py DIR_A DIR_B [--values] "
              "[--rel-tol X]", file=sys.stderr)
        return 2
    dirs, values, rel_tol = parsed
    names = differing(*dirs)
    a, b = (load_reports(d) for d in dirs) if values else ({}, {})
    failing = 0
    for name in names:
        print(name)
        if values and name in a and name in b:
            for line in check_changes(a[name], b[name]):
                print("  " + line)
            failing += rel_tol is None or not tolerated(a[name], b[name],
                                                        rel_tol)
        else:
            failing += 1
            if values:
                print(f"  only in {'A' if name in a else 'B'}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
