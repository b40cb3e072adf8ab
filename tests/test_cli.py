"""End-to-end behavior of the command line: reports, exit codes, determinism."""

import argparse
import io
import json
import os
import subprocess
import sys
import time
from math import factorial

import pytest

from altdet.cli import build_parser, main, run
from altdet.instances import (
    SplitMix64,
    canonical_json,
    doc_digest,
    instance_to_doc,
    random_colorful_instance,
    random_spinor_instance,
)
from altdet.engine import MatrixTuple
from altdet.exact import Polynomial
from altdet.perms import Shape
from altdet.svrtan import Choice, SpinorInstance


_SRC_ENV = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))


def invoke(argv):
    """Parse argv, run the command, return (exit_code, stdout, stderr)."""
    args = build_parser().parse_args(argv)
    out, err = io.StringIO(), io.StringIO()
    code = run(args, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def singular_spinor_file(tmp_path, n=3):
    # every edge carries twice the same spinor, so no choice can work
    one = Polynomial((1, 0))
    inst = SpinorInstance(n, ((one, one),) * (n * (n - 1) // 2))
    path = tmp_path / "singular.json"
    path.write_text(canonical_json(instance_to_doc(inst)))
    return path


class TestExitCodes:
    def test_pass_is_zero(self):
        code, out, _ = invoke(["census", "--n", "2"])
        assert code == 0
        assert out.rstrip().endswith("verdict: PASS")

    def test_missing_selector_is_two(self):
        code, _, err = invoke(["verify-onn"])
        assert code == 2
        assert "give --input or --n" in err

    def test_unreadable_input_is_two(self, tmp_path):
        code, _, err = invoke(["verify-onn", "--input", str(tmp_path / "gone.json")])
        assert code == 2
        assert "gone.json" in err

    def test_undecodable_file_is_two(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
        code, out, err = invoke(["verify-onn", "--input", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: not UTF-8 text")

    def test_undecodable_stdin_is_two(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xff\xfe{"), encoding="utf-8"))
        code, out, err = invoke(["verify-onn", "--input", "-"])
        assert (code, out) == (2, "")
        assert err.startswith("error: -: not UTF-8 text")

    def test_undecodable_spinor_file_is_two(self, tmp_path):
        # spinor subcommands read through the same instance loader as colorful ones
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"kind": "spinor", "n": 2, "note": "\xe9"}')
        code, out, err = invoke(["verify-svrtan", "--input", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: not UTF-8 text")

    @pytest.mark.parametrize("source", ["file", "stdin"])
    @pytest.mark.parametrize("command", ["verify-onn", "verify-svrtan"])
    def test_deeply_nested_json_is_two(self, source, command, tmp_path, monkeypatch):
        # json.loads recurses once per bracket, past the interpreter's recursion limit
        text = "[" * 100_000
        if source == "file":
            path = tmp_path / "deep.json"
            path.write_text(text)
            where = str(path)
        else:
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            where = "-"
        code, out, err = invoke([command, "--input", where])
        assert (code, out) == (2, "")
        assert err == f"error: {where}: JSON nested too deeply\n"

    def test_long_count_field_gives_one_short_line(self, tmp_path):
        # the message names the value's type rather than printing 200,000 zeros
        path = tmp_path / "zeros.json"
        path.write_text(json.dumps({"kind": "colorful", "n": [0] * 200_000, "matrices": []}))
        code, out, err = invoke(["verify-onn", "--input", str(path)])
        assert (code, out) == (2, "")
        assert err == "error: n: expected a positive integer, got list\n"

    @pytest.mark.parametrize("doc", [
        {"kind": [0] * 200_000},
        {"kind": "colorful", "n": 1, "matrices": [[["x" * 1_000_000]]]},
        {"kind": "colorful", "n": 1, "matrices": [[["1/" + "0" * 1_000_000]]]},
    ], ids=["kind-long-list", "literal-long-junk", "literal-zero-denominator"])
    def test_long_bad_value_gives_one_short_line(self, doc, tmp_path, capsys):
        # main lifts the integer-string limit, so the zero denominator is parsed in full
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        assert main(["verify-onn", "--input", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert len(err.encode()) < 200

    @pytest.mark.parametrize("argv,message", [
        (["verify-general", "--shape", "2,x"], "argument --shape: bad shape '2,x'"),
        (["census", "--n", "0"], "argument --n: expected a positive integer, got 0"),
    ], ids=["shape-not-integer", "n-zero"])
    def test_bad_argument_value_is_two(self, argv, message, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert message in capsys.readouterr().err

    def test_dense_invariant_needs_shape(self):
        code, out, err = invoke(["invariant", "--family", "dense"])
        assert (code, out) == (2, "")
        assert "family dense needs --shape" in err

    @pytest.mark.parametrize("family", ["colorful", "spinor"])
    def test_invariant_family_needs_n(self, family):
        code, out, err = invoke(["invariant", "--family", family])
        assert (code, out) == (2, "")
        assert f"family {family} needs --n" in err

    def test_wrong_kind_is_two(self, tmp_path):
        path = tmp_path / "spin.json"
        inst = random_spinor_instance(2, SplitMix64(3))
        path.write_text(canonical_json(instance_to_doc(inst)))
        code, _, err = invoke(["verify-onn", "--input", str(path)])
        assert code == 2
        assert "colorful" in err

    def test_budget_is_three(self):
        code, out, err = invoke(["verify-onn", "--n", "3", "--term-budget", "10"])
        assert code == 3
        assert out == ""
        assert "budget" in err

    def test_dense_coefficients_are_charged(self):
        # shape 2,2 has 4 terms but 16 coefficients, and the coefficients set the bound
        base = invoke(["verify-general", "--shape", "2,2"])
        at = invoke(["verify-general", "--shape", "2,2", "--term-budget", "16"])
        assert at[:2] == base[:2] and at[0] == 0
        code, out, err = invoke(["verify-general", "--shape", "2,2", "--term-budget", "15"])
        assert (code, out) == (3, "")
        assert err.startswith("budget exhausted: dense form has too many coefficients (16 > budget 15)")

    def test_latin_enumeration_budget_is_three(self):
        # L(6) = 812851200 squares: refused at once, not hours of DFS
        code, out, err = invoke(["alon-tarsi", "--n", "6", "--term-budget", "10"])
        assert code == 3
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("budget exhausted:")

    @pytest.mark.parametrize("argv", [
        ["census", "--n", "3000"],
        ["invariant", "--family", "spinor", "--n", "1500"],
        ["verify-svrtan", "--n", "180"],
        ["invariant", "--family", "colorful", "--n", "200"],
        ["verify-onn", "--n", "60"],
        ["verify-svrtan", "--n", "3000"],
        ["svrtan-search", "--n", "120"],
        ["verify-general", "--shape", "6,6"],
        ["verify-general", "--shape", "12"],
        ["invariant", "--family", "dense", "--shape", "7,7"],
        ["verify-general", "--input", "{tuple_6_6}"],
    ], ids=["census", "spinor-invariant", "verify-svrtan", "colorful-invariant", "verify-onn-60",
            "verify-svrtan-3000", "svrtan-search-120", "dense-6-6", "dense-12", "dense-invariant-7-7",
            "dense-input-6-6"])
    def test_huge_budget_refusal_is_one_short_line(self, argv, capsys, monkeypatch, tmp_path):
        # refused from the size alone, under the CLI's lifted digit limit, before any draw
        tuple_6_6 = tmp_path / "tuple_6_6.json"
        tuple_6_6.write_text(canonical_json(instance_to_doc(MatrixTuple.identity(Shape.of(6, 6)))))

        def undrawable(*args):
            raise AssertionError("instance drawn past the budget")

        for name in ("random_colorful_instance", "random_spinor_instance", "random_dense_form", "random_matrix_tuple"):
            monkeypatch.setattr(f"altdet.cli.{name}", undrawable)
        code = main([a.format(tuple_6_6=tuple_6_6) for a in argv])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and len(lines[0]) < 200
        assert lines[0].startswith("budget exhausted:")

    @pytest.mark.parametrize("argv", [
        ["verify-onn", "--n", "3000"],
        ["verify-general", "--shape", "1000000"],
    ], ids=["verify-onn-3000", "dense-1000000"])
    def test_bound_refuses_before_the_count_is_built(self, argv):
        # (3000!)**3000 has about 91 M bits and 1000000**1000000 about 20 M:
        # a bit-length bound refuses both without building either
        started = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "altdet.cli", *argv], env=_SRC_ENV,
                              capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - started
        assert (done.returncode, done.stdout) == (3, "")
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and len(lines[0]) < 200
        assert "(at least a " in lines[0] and "-bit number > budget 100000000)" in lines[0]
        assert elapsed < 2, f"refusal took {elapsed:.1f}s"

    @pytest.mark.parametrize("literal", ["\u0663", "\uff13/\uff14", "4\n"], ids=["arabic-indic", "fullwidth", "newline"])
    def test_non_ascii_digit_entry_is_two(self, literal, tmp_path):
        rows = [[literal, "0"], ["0", "1"]]
        path = tmp_path / "digits.json"
        path.write_text(json.dumps({"kind": "colorful", "n": 2, "matrices": [rows, rows]}))
        code, out, err = invoke(["verify-onn", "--input", str(path)])
        assert (code, out) == (2, "")
        assert "bad rational literal" in err

    def test_exhausted_search_is_one(self, tmp_path):
        path = singular_spinor_file(tmp_path)
        code, out, _ = invoke(["svrtan-search", "--input", str(path)])
        assert code == 1
        assert "search exhausted" in out
        assert "lhs = 0" in out

    def test_zero_witness_is_four(self, tmp_path, monkeypatch):
        # every choice of the singular file has determinant zero
        path = singular_spinor_file(tmp_path)
        monkeypatch.setattr("altdet.cli.svrtan_search", lambda inst, **kw: Choice(0, 3))
        code, out, err = invoke(["svrtan-search", "--input", str(path)])
        assert code == 4
        assert out == ""
        assert err == "internal check failed: search returned a choice with zero determinant\n"

    def test_invalid_selection_is_four(self, monkeypatch):
        monkeypatch.setattr("altdet.onn.TransversalSelection.is_valid_for", lambda self, inst: False)
        code, out, err = invoke(["rota-search", "--n", "2", "--seed", "6"])
        assert (code, out) == (4, "")
        assert err.startswith("internal check failed: ") and "Traceback" not in err

    def test_census_self_check_is_four(self, monkeypatch):
        # a survivor read as a non-transitive orientation trips the census check
        monkeypatch.setattr("altdet.svrtan.out_degrees", lambda c, n: (1,) * n)
        code, out, err = invoke(["census", "--n", "3"])
        assert (code, out) == (4, "")
        assert err.startswith("internal check failed: nonzero term")

    def test_colorful_file_is_not_a_matrix_tuple(self, tmp_path):
        # a colorful instance is a MatrixTuple in the library, not on the command line
        path = tmp_path / "colorful.json"
        path.write_text(canonical_json(instance_to_doc(random_colorful_instance(2, SplitMix64(3)))))
        code, out, err = invoke(["verify-general", "--input", str(path)])
        assert (code, out) == (2, "")
        assert err == f"error: {path}: expected a matrix-tuple instance\n"

    def test_unknown_command_is_two(self):
        with pytest.raises(SystemExit) as info:
            main(["no-such-thing"])
        assert info.value.code == 2

    def test_bad_seed_is_two(self):
        with pytest.raises(SystemExit) as info:
            main(["verify-onn", "--n", "2", "--seed", "-1"])
        assert info.value.code == 2


class TestReports:
    def test_text_layout(self):
        code, out, err = invoke(["verify-svrtan", "--n", "3", "--seed", "5"])
        assert code == 0
        lines = out.rstrip().split("\n")
        assert lines[0] == "command: verify-svrtan"
        assert lines[1].startswith("digest: ")
        assert lines[2] == "seed: 5"
        assert lines[-1] == "verdict: PASS"
        assert err.startswith("elapsed: ")

    def test_json_document(self):
        code, out, _ = invoke(["verify-onn", "--n", "2", "--seed", "1", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "verify-onn"
        assert doc["verdict"] is True
        assert doc["lhs"] == doc["rhs"]
        assert doc["term_count"] == 4
        assert "elapsed" not in doc

    def test_digest_matches_input_document(self, tmp_path):
        inst = random_colorful_instance(2, SplitMix64(8))
        path = tmp_path / "c.json"
        path.write_text(canonical_json(instance_to_doc(inst)))
        _, out, _ = invoke(["verify-onn", "--input", str(path), "--format", "json"])
        doc = json.loads(out)
        assert doc["digest"] == doc_digest(instance_to_doc(inst))
        assert "seed" not in doc  # nothing was generated

    def test_seed_reported_when_generating(self):
        _, out, _ = invoke(["verify-onn", "--n", "2", "--seed", "9", "--format", "json"])
        assert json.loads(out)["seed"] == 9

    def test_exact_values_of_any_size(self, tmp_path, capsys):
        # 3000-digit entries: the sides have about 12000 digits, past the
        # interpreter's default limit on converting integers to text
        a = 10**2999
        big = [[a, a + 1], [2 * a, a + 3]]
        doc = {"kind": "colorful", "n": 2, "matrices": [[[str(v) for v in row] for row in big]] * 2}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        code = main(["verify-onn", "--input", str(path)])
        out = capsys.readouterr().out
        d = big[0][0] * big[1][1] - big[0][1] * big[1][0]
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
        try:
            if limit is not None:
                sys.set_int_max_str_digits(0)  # main leaves the limit as it found it
            expected = str(2 * d * d)
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)
        assert code == 0
        assert f"\nlhs = {expected}\n" in out and out.endswith("verdict: PASS\n")

    @pytest.mark.parametrize("argv", [["census", "--n", "3"], ["census"]])
    def test_main_restores_the_integer_string_limit(self, argv, capsys):
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this Python has no limit on integer strings")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            try:
                main(argv)
            except SystemExit:  # argparse rejects the missing --n
                pass
            after = sys.get_int_max_str_digits()
        finally:
            sys.set_int_max_str_digits(limit)
        capsys.readouterr()
        assert after == 5000

    def test_stdin_input(self, monkeypatch):
        inst = random_colorful_instance(2, SplitMix64(4))
        monkeypatch.setattr("sys.stdin", io.StringIO(canonical_json(instance_to_doc(inst))))
        code, out, _ = invoke(["verify-onn", "--input", "-"])
        assert code == 0
        assert "verdict: PASS" in out


class TestCommands:
    def test_verify_general_generated(self):
        code, out, _ = invoke(["verify-general", "--shape", "2,2", "--seed", "3"])
        assert code == 0
        assert "terms: 4" in out

    def test_verify_general_needs_shape_or_input(self):
        code, _, err = invoke(["verify-general"])
        assert code == 2
        assert "--shape" in err

    def test_invariant_colorful_matches_count(self):
        _, out, _ = invoke(["invariant", "--family", "colorful", "--n", "3", "--format", "json"])
        doc = json.loads(out)
        assert doc["lhs"] == "0"
        assert doc["verdict"] is True

    def test_invariant_spinor_is_factorial(self):
        _, out, _ = invoke(["invariant", "--family", "spinor", "--n", "4", "--format", "json"])
        doc = json.loads(out)
        assert doc["lhs"] == str(factorial(4))
        assert doc["rhs"] == str(factorial(4))

    def test_invariant_dense_echoes(self):
        code, out, _ = invoke(["invariant", "--family", "dense", "--shape", "2", "--seed", "2"])
        assert code == 0
        assert "no independent route" in out

    @pytest.mark.parametrize("argv, terms", [
        (["--family", "dense", "--shape", "2,3"], factorial(2) * factorial(3)),
        (["--family", "colorful", "--n", "3"], factorial(3) ** 3),
        (["--family", "spinor", "--n", "4"], 2 ** (4 * 3 // 2)),
    ], ids=["dense", "colorful", "spinor"])
    def test_invariant_term_count(self, argv, terms):
        """The count read off the form's shape matches each family's closed form."""
        code, out, _ = invoke(["invariant", *argv, "--format", "json"])
        assert code == 0
        assert json.loads(out)["term_count"] == terms

    def test_alon_tarsi_cross_check(self):
        code, out, _ = invoke(["alon-tarsi", "--n", "3", "--cross-check", "--format", "json"])
        doc = json.loads(out)
        assert code == 0
        assert doc["lhs"] == "0"
        assert doc["rhs"] == "0"

    def test_alon_tarsi_single_route(self):
        _, out, _ = invoke(["alon-tarsi", "--n", "4", "--format", "json"])
        doc = json.loads(out)
        assert doc["lhs"] == "576"
        assert doc["verdict"] is True

    def test_rota_search_witness_is_one_based(self):
        code, out, _ = invoke(["rota-search", "--n", "2", "--seed", "6", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        maps = doc["witness"]["maps"]
        assert len(maps) == 2
        assert all(sorted(row) == [1, 2] for row in maps)

    def test_svrtan_search_witness_lists_picks(self):
        code, out, _ = invoke(["svrtan-search", "--n", "3", "--seed", "1", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert len(doc["witness"]["picks"]) == 3
        assert set(doc["witness"]["picks"]) <= {"p1", "p2"}

    def test_rota_search_at_order_31(self):
        # 31 * 31 nested picks, past the default limit of 1000 Python frames
        code, out, _ = invoke(["rota-search", "--n", "31", "--seed", "1"])
        assert code == 0
        assert out.rstrip().endswith("verdict: PASS")

    @pytest.mark.parametrize("n, note", [
        (6, "nonsingular input and l(6) = 199065600 != 0: success guaranteed"),
        (7, "l(7) = 0: success not guaranteed despite nonsingular input"),
    ], ids=["n6", "n7"])
    def test_rota_search_guarantee_up_to_order_7(self, n, note):
        code, out, _ = invoke(["rota-search", "--n", str(n), "--seed", "3", "--format", "json"])
        assert code == 0
        assert json.loads(out)["notes"] == [note]

    def test_census_failure_would_exit_one(self):
        # census passes for every n; exercise the passing path and layout
        code, out, _ = invoke(["census", "--n", "4", "--format", "json"])
        doc = json.loads(out)
        assert code == 0
        assert doc["lhs"] == str(factorial(4))
        assert doc["term_count"] == 2**6


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_stdout_identical_across_threads(self, fmt):
        outputs = []
        for threads in ("1", "2", "8"):
            _, out, _ = invoke(
                ["verify-onn", "--n", "3", "--seed", "42", "--threads", threads,
                 "--format", fmt]
            )
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_general_and_svrtan_thread_stability(self):
        for argv in (
            ["verify-general", "--shape", "2,2,2", "--seed", "11"],
            ["verify-svrtan", "--n", "4", "--seed", "11"],
            ["invariant", "--family", "colorful", "--n", "3"],
        ):
            base = invoke(argv + ["--threads", "1"])[1]
            assert invoke(argv + ["--threads", "8"])[1] == base


OPTIONS = {
    "verify-general": {"--input", "--shape", "--seed"},
    "invariant": {"--family", "--n", "--shape", "--seed"},
    "alon-tarsi": {"--n", "--cross-check"},
    "verify-onn": {"--input", "--n", "--seed"},
    "rota-search": {"--input", "--n", "--seed", "--node-budget"},
    "verify-svrtan": {"--input", "--n", "--seed"},
    "svrtan-search": {"--input", "--n", "--seed"},
    "census": {"--n"},
}
COMMON_OPTIONS = {"-h", "--help", "--threads", "--format", "--term-budget"}


def test_every_option_is_listed():
    """Each subcommand takes exactly the options in the table; a new flag must be added here."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    found = {
        name: {opt for action in parser._actions for opt in action.option_strings}
        for name, parser in sub.choices.items()
    }
    assert found == {name: opts | COMMON_OPTIONS for name, opts in OPTIONS.items()}
