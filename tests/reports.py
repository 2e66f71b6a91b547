"""Compare the reports of two output directories.

Loads every *.report.json in a directory with its `environment` block
removed, the one part of a report outside the determinism promise.  Run as
a script,

    python tests/reports.py DIR_A DIR_B

it prints the name of each report that differs, or is in one directory
only, and exits 1 if there is any; 0 otherwise.  Standard library only.
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


def main(argv):
    if len(argv) != 2:
        print("usage: python tests/reports.py DIR_A DIR_B", file=sys.stderr)
        return 2
    names = differing(*argv)
    for name in names:
        print(name)
    return 1 if names else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
