"""Every CLI report byte and exit code against the committed golden file."""

import json

import pytest

from golden_reports import GOLDEN, capture, golden_runs

with open(GOLDEN, encoding="utf-8") as fh:
    RUNS = json.load(fh)


def test_golden_file_covers_every_run():
    assert [r["argv"] for r in RUNS] == list(golden_runs())


@pytest.mark.parametrize("run", RUNS, ids=lambda r: " ".join(r["argv"]))
def test_report_matches_golden(run):
    code, stdout = capture(run["argv"])
    assert (code, stdout) == (run["exit"], run["stdout"])
