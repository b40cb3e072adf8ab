"""Acceptance gate: nine exact criteria, one printed verdict line each.

Every check is exact equality on rationals or integers; there are no
tolerances anywhere.  Each criterion prints `criterion K (...): PASS` or
FAIL through the capture-disabled channel so the line shows up in any
pytest run, then asserts.  Seeds are frozen constants; reruns see the
same instances.
"""

import io
import json
import time
from fractions import Fraction
from math import factorial, prod

from altdet import (
    SpinorInstance,
    SplitMix64,
    alon_tarsi_count,
    alternating_sum,
    as_engine_instance,
    choice_det,
    colorful_form,
    invariant_at_identity,
    nonzero_term_census,
    random_colorful_instance,
    random_dense_form,
    random_matrix_tuple,
    random_spinor_instance,
    rota_search,
    svrtan_search,
    verify_identity,
    verify_onn,
    verify_svrtan,
)
from altdet.cli import build_parser, run
from altdet.perms import Shape

GENERAL_SHAPES = (Shape.of(2, 2), Shape.of(3, 2), Shape.of(2, 2, 2), Shape.of(3, 3))

SEED_FORMS = 10_000
SEED_SAMPLES = 20_000
SEED_ONN = 30_000
SEED_SVRTAN = 40_000
SEED_SEARCH = 50_000
SEED_DUAL = 60_000


def _finish(capfd, num, label, started, limit, failures):
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < limit
    with capfd.disabled():
        print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} [{elapsed:.1f}s]")
    assert not failures, f"criterion {num}: {failures[:5]}"
    assert elapsed < limit, f"criterion {num} took {elapsed:.1f}s, limit {limit}s"


def _form_and_seed(shape_index, sample):
    seed = SEED_FORMS + 100 * shape_index + sample
    rng = SplitMix64(seed)
    shape = GENERAL_SHAPES[shape_index]
    return random_dense_form(shape, rng), rng, seed


def test_criterion_1_general_identity(capfd):
    started = time.perf_counter()
    failures = []
    for s, shape in enumerate(GENERAL_SHAPES):
        for i in range(50):
            f, rng, seed = _form_and_seed(s, i)
            A = random_matrix_tuple(shape, rng)
            rep = verify_identity(f, A)
            if not rep.verdict or rep.lhs != rep.rhs:
                failures.append((shape.sizes, seed))
    _finish(capfd, 1, "general identity, 50 forms x 4 shapes", started, 60, failures)


def test_criterion_2_invariant_ratio(capfd):
    started = time.perf_counter()
    failures = []
    for s, shape in enumerate(GENERAL_SHAPES):
        for i in range(50):
            f, _, seed = _form_and_seed(s, i)
            inv = invariant_at_identity(f)
            for j in range(3):
                A = random_matrix_tuple(shape, SplitMix64(SEED_SAMPLES + 10 * seed + j))
                ratio = alternating_sum(f, A) / prod(A.determinants)
                if ratio != inv:
                    failures.append((shape.sizes, seed, j))
    _finish(capfd, 2, "sum over det product equals invariant", started, 60, failures)


def test_criterion_3_colorful_identity(capfd):
    started = time.perf_counter()
    failures = []
    for n, count in ((2, 100), (3, 100), (4, 10)):
        for i in range(count):
            inst = random_colorful_instance(n, SplitMix64(SEED_ONN + 1000 * n + i))
            rep = verify_onn(inst)
            if not rep.verdict:
                failures.append((n, i))
            if n == 3 and rep.lhs != 0:
                # the signed count vanishes at n=3, so the sum must too
                failures.append((n, i, "nonzero lhs"))
    _finish(capfd, 3, "colorful identity at n=2,3,4", started, 300, failures)


def test_criterion_4_signed_count_cross_oracle(capfd):
    started = time.perf_counter()
    failures = []
    known = {1: 1, 2: 2, 3: 0}
    for n in (1, 2, 3, 4):
        by_enumeration = alon_tarsi_count(n)
        by_engine = invariant_at_identity(colorful_form(n))
        if by_engine != by_enumeration:
            failures.append((n, by_enumeration, by_engine))
        if n in known and by_enumeration != known[n]:
            failures.append((n, "known value", by_enumeration))
    _finish(capfd, 4, "signed Latin count vs engine invariant", started, 600, failures)


def test_criterion_5_spinor_formula(capfd):
    started = time.perf_counter()
    failures = []
    for n, count in ((2, 100), (3, 100), (4, 100), (5, 100), (6, 10)):
        for i in range(count):
            inst = random_spinor_instance(n, SplitMix64(SEED_SVRTAN + 1000 * n + i))
            rep = verify_svrtan(inst)
            if not rep.verdict:
                failures.append((n, i))
    for n in range(1, 7):
        rep = verify_svrtan(SpinorInstance.identity(n))
        if rep.lhs != factorial(n):
            failures.append((n, "identity spinors", rep.lhs))
    _finish(capfd, 5, "spinor formula and n! specialization", started, 300, failures)


def test_criterion_6_tournament_census(capfd):
    started = time.perf_counter()
    failures = []
    for n in (2, 3, 4, 5):
        # the census helper itself rejects any survivor whose out-degree
        # sequence is not a permutation of 0..n-1
        count = nonzero_term_census(n)
        if count != factorial(n):
            failures.append((n, count))
    _finish(capfd, 6, "surviving terms number n!", started, 60, failures)


def test_criterion_7_constructive_searches(capfd):
    started = time.perf_counter()
    failures = []
    for n in (2, 4):
        for i in range(100):
            inst = random_colorful_instance(n, SplitMix64(SEED_SEARCH + 1000 * n + i))
            sel = rota_search(inst)
            if sel is None:
                failures.append(("rota", n, i, "exhausted"))
            elif any(d == 0 for d in sel.transversal_determinants(inst)):
                failures.append(("rota", n, i, "zero transversal"))
    for n in (2, 3, 4, 5, 6):
        for i in range(100):
            inst = random_spinor_instance(n, SplitMix64(SEED_SEARCH + 7000 + 1000 * n + i))
            c = svrtan_search(inst, incremental=bool(i % 2))
            if c is None:
                failures.append(("svrtan", n, i, "exhausted"))
            elif choice_det(inst, c) == 0:
                failures.append(("svrtan", n, i, "zero determinant"))
    _finish(capfd, 7, "searches succeed and witnesses re-verify", started, 300, failures)


def test_criterion_8_dual_route_equivalence(capfd):
    started = time.perf_counter()
    failures = []
    for n in (3, 4, 5):
        for i in range(25):
            inst = random_spinor_instance(n, SplitMix64(SEED_DUAL + 1000 * n + i))
            form, A = as_engine_instance(inst)
            engine = verify_identity(form, A)
            direct = verify_svrtan(inst)
            if (engine.lhs, engine.rhs) != (direct.lhs, direct.rhs):
                failures.append((n, i, engine.lhs, direct.lhs))
    _finish(capfd, 8, "engine route equals direct route", started, 120, failures)


def test_criterion_9_cli_determinism(capfd):
    started = time.perf_counter()
    failures = []
    commands = [
        ["verify-general", "--shape", "2,2", "--seed", "5"],
        ["invariant", "--family", "colorful", "--n", "3"],
        ["alon-tarsi", "--n", "3", "--cross-check"],
        ["verify-onn", "--n", "3", "--seed", "7"],
        ["rota-search", "--n", "4", "--seed", "1"],
        ["verify-svrtan", "--n", "4", "--seed", "3"],
        ["svrtan-search", "--n", "5", "--seed", "2"],
        ["census", "--n", "4"],
    ]
    for argv in commands:
        for fmt in ("text", "json"):
            outputs = []
            for threads in ("1", "2", "8"):
                args = build_parser().parse_args(
                    argv + ["--format", fmt, "--threads", threads]
                )
                out = io.StringIO()
                run(args, out=out, err=io.StringIO())
                outputs.append(out.getvalue())
            if not outputs[0] == outputs[1] == outputs[2]:
                failures.append((argv[0], fmt))
            if fmt == "json":
                json.loads(outputs[0])  # a report must be one well-formed document
    _finish(capfd, 9, "reports bit-identical across threads", started, 120, failures)
