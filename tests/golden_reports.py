"""Golden CLI reports: argv lists, and a writer for their stdout and exit codes.

Every subcommand and every ``--family`` runs in text and in JSON, on seeded
inputs, on the instance files in ``tests/data`` (the three README examples,
three singular ones and a tuple of permutation matrices) and on a few inputs
that exit 2 or 3 before any report.  The last entries are the heavy runs and
size refusals; each has a wall ceiling in ``CEILINGS`` that ``--check``
enforces.  ``test_golden_reports.py`` replays them and compares byte for byte.
A new pinned run is one more ``COMMANDS`` entry and a rewrite of the file.

    PYTHONPATH=src python tests/golden_reports.py           # rewrite the golden file
    PYTHONPATH=src python tests/golden_reports.py --check   # compare, exit 1 on a mismatch

``--check`` needs only the standard library, so it runs on interpreters
without pytest.
"""

import io
import json
import os
import sys
import time

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
GOLDEN = os.path.join(DATA, "golden_reports.json")

COMMANDS = [
    ["verify-general", "--shape", "2,2", "--seed", "5"],
    ["verify-general", "--shape", "3,2", "--seed", "7"],
    ["verify-general", "--shape", "2,2,2", "--seed", "11"],
    ["verify-general", "--shape", "4", "--seed", "1"],
    ["verify-general", "--input", "readme_matrix_tuple.json"],
    ["verify-general", "--input", "readme_matrix_tuple.json", "--seed", "9"],
    ["verify-general", "--input", "readme_colorful.json"],
    ["verify-general", "--input", "readme_spinor.json"],
    ["verify-general"],
    ["invariant", "--family", "dense", "--shape", "2,2", "--seed", "1"],
    ["invariant", "--family", "dense", "--shape", "3", "--seed", "4"],
    ["invariant", "--family", "dense"],
    ["invariant", "--family", "colorful", "--n", "1"],
    ["invariant", "--family", "colorful", "--n", "2"],
    ["invariant", "--family", "colorful", "--n", "3"],
    ["invariant", "--family", "colorful"],
    ["invariant", "--family", "spinor", "--n", "2"],
    ["invariant", "--family", "spinor", "--n", "4"],
    ["invariant", "--family", "spinor", "--n", "1"],
    ["alon-tarsi", "--n", "1"],
    ["alon-tarsi", "--n", "2", "--cross-check"],
    ["alon-tarsi", "--n", "3", "--cross-check"],
    ["alon-tarsi", "--n", "4"],
    ["alon-tarsi", "--n", "5"],
    ["alon-tarsi", "--n", "6"],
    ["verify-onn", "--n", "1"],
    ["verify-onn", "--n", "2", "--seed", "3"],
    ["verify-onn", "--n", "3", "--seed", "7"],
    ["verify-onn", "--n", "4", "--seed", "31"],
    ["verify-onn", "--n", "5"],
    ["verify-onn", "--n", "5", "--term-budget", "30000000000"],
    ["verify-onn", "--input", "readme_colorful.json"],
    ["verify-onn", "--input", "singular_colorful.json"],
    ["verify-onn", "--input", "readme_spinor.json"],
    ["rota-search", "--n", "1"],
    ["rota-search", "--n", "2", "--seed", "6"],
    ["rota-search", "--n", "3", "--seed", "2"],
    ["rota-search", "--n", "4", "--seed", "1"],
    ["rota-search", "--n", "5", "--seed", "8"],
    ["rota-search", "--n", "6", "--seed", "3"],
    ["rota-search", "--n", "7", "--seed", "4"],
    ["rota-search", "--n", "8", "--seed", "5"],
    ["rota-search", "--input", "readme_colorful.json"],
    ["rota-search", "--input", "singular_colorful.json"],
    ["rota-search", "--input", "zero_colorful.json"],
    ["rota-search", "--n", "4", "--node-budget", "2"],
    ["verify-svrtan", "--n", "1"],
    ["verify-svrtan", "--n", "3", "--seed", "2"],
    ["verify-svrtan", "--n", "4", "--seed", "3"],
    ["verify-svrtan", "--n", "5", "--seed", "11"],
    ["verify-svrtan", "--input", "readme_spinor.json"],
    ["verify-svrtan", "--input", "singular_spinor.json"],
    ["svrtan-search", "--n", "2", "--seed", "1"],
    ["svrtan-search", "--n", "4", "--seed", "2"],
    ["svrtan-search", "--n", "6", "--seed", "9"],
    ["svrtan-search", "--input", "readme_spinor.json"],
    ["svrtan-search", "--input", "singular_spinor.json"],
    ["census", "--n", "1"],
    ["census", "--n", "3"],
    ["census", "--n", "5"],
    ["verify-svrtan", "--n", "7", "--seed", "1"],
    ["census", "--n", "3000"],
    ["verify-general", "--shape", "6,6"],
    ["verify-general", "--shape", "4,4", "--seed", "1"],
    ["invariant", "--family", "colorful", "--n", "4"],
    ["verify-onn", "--n", "3000"],
    ["verify-onn", "--n", "4", "--seed", "2"],
    ["census", "--n", "7"],
    ["alon-tarsi", "--n", "6", "--term-budget", "812851200"],
    ["invariant", "--family", "spinor", "--n", "6"],
    ["verify-svrtan", "--n", "8", "--seed", "1", "--term-budget", "268435456"],
    ["rota-search", "--input", "permutation_colorful.json"],
    ["rota-search", "--n", "31", "--seed", "1"],
]
FORMATS = ("text", "json")

# wall ceiling in seconds for one in-process run of the heavy argvs, in either format
CEILINGS = {
    ("verify-svrtan", "--n", "7", "--seed", "1"): 10,
    ("census", "--n", "3000"): 10,
    ("verify-general", "--shape", "6,6"): 60,
    ("verify-general", "--shape", "4,4", "--seed", "1"): 20,
    ("invariant", "--family", "colorful", "--n", "4"): 20,
    ("verify-onn", "--n", "3000"): 10,
    ("verify-onn", "--n", "4", "--seed", "2"): 20,
    ("census", "--n", "7"): 10,
    ("alon-tarsi", "--n", "6", "--term-budget", "812851200"): 10,
    ("invariant", "--family", "spinor", "--n", "6"): 30,
    ("verify-svrtan", "--n", "8", "--seed", "1", "--term-budget", "268435456"): 60,
    ("rota-search", "--input", "permutation_colorful.json"): 20,
    ("rota-search", "--n", "31", "--seed", "1"): 60,
}


def resolve(argv):
    """argv with each ``--input`` name turned into a path under ``DATA``."""
    out = list(argv)
    for i, arg in enumerate(out[:-1]):
        if arg == "--input":
            out[i + 1] = os.path.join(DATA, out[i + 1])
    return out


def capture(argv):
    """(exit code, stdout) of one in-process run of the command line."""
    from altdet.cli import build_parser, run

    out = io.StringIO()
    code = run(build_parser().parse_args(resolve(argv)), out=out, err=io.StringIO())
    return code, out.getvalue()


def golden_runs():
    for argv in COMMANDS:
        for fmt in FORMATS:
            yield argv + ["--format", fmt]


def check():
    """Replay every run against the golden file; print the argv of each mismatch, and return their count.

    A run past its ``CEILINGS`` entry counts as a mismatch too.
    """
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = {tuple(r["argv"]): (r["exit"], r["stdout"]) for r in json.load(fh)}
    runs = list(golden_runs())
    mismatches = 0
    for argv in runs:
        start = time.perf_counter()
        result = capture(argv)
        seconds = time.perf_counter() - start
        ceiling = CEILINGS.get(tuple(argv[:-2]))
        if result != golden.get(tuple(argv)):
            mismatches += 1
            print("mismatch:", " ".join(argv))
        elif ceiling is not None and seconds > ceiling:
            mismatches += 1
            print(f"slow: {' '.join(argv)} took {seconds:.2f} s, ceiling {ceiling} s")
    for argv in golden.keys() - {tuple(argv) for argv in runs}:
        mismatches += 1
        print("no longer run:", " ".join(argv))
    print(f"{mismatches} mismatches out of {len(golden)} golden runs", file=sys.stderr)
    return mismatches


def main(args):
    if args == ["--check"]:
        return 1 if check() else 0
    if args:
        print("usage: golden_reports.py [--check]", file=sys.stderr)
        return 2
    runs = []
    for argv in golden_runs():
        code, stdout = capture(argv)
        runs.append({"argv": argv, "exit": code, "stdout": stdout})
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(runs, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(runs)} runs to {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
