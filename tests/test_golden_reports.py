"""Every CLI report byte and exit code against the committed golden file."""

import json

import pytest

from altdet.cli import report_text
from golden_reports import GOLDEN, capture, golden_runs

with open(GOLDEN, encoding="utf-8") as fh:
    RUNS = json.load(fh)


def test_golden_file_covers_every_run():
    assert [r["argv"] for r in RUNS] == list(golden_runs())


@pytest.mark.parametrize("run", RUNS, ids=lambda r: " ".join(r["argv"]))
def test_report_matches_golden(run):
    code, stdout = capture(run["argv"])
    assert (code, stdout) == (run["exit"], run["stdout"])


REPORT_KEYS = ["command", "digest", "seed", "lhs", "rhs", "verdict", "term_count", "witness", "notes"]
PAIRS = {}
for _run in RUNS:
    PAIRS.setdefault(tuple(_run["argv"][:-2]), {})[_run["argv"][-1]] = _run


@pytest.mark.parametrize("pair", PAIRS.values(), ids=lambda p: " ".join(p["text"]["argv"][:-2]))
def test_text_report_is_the_json_report_rendered(pair):
    # the JSON document is the report: its keys come in print order, and
    # the text layout is that document rendered
    text, doc = pair["text"], pair["json"]
    assert text["exit"] == doc["exit"]
    if text["exit"] in (2, 3):
        assert text["stdout"] == doc["stdout"] == ""
        return
    parsed = json.loads(doc["stdout"])
    assert list(parsed) == [key for key in REPORT_KEYS if key in parsed]
    assert {"command", "digest", "lhs", "rhs", "verdict"} <= parsed.keys()
    assert report_text(parsed) + "\n" == text["stdout"]
