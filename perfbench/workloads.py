"""The four workloads: seeded inputs, the item mix of one round, exact checks.

A workload is built by ``SETUPS[name](api, seed, threads, root)``, where
``api`` is the imported ``altdet`` package and ``root`` the checkout.  It
draws every input from the seed with altdet's own SplitMix64 generator, so
the same seed gives the same inputs, and hands altdet nothing else.  The
timed loop runs whole rounds; round ``r`` uses input set ``r % POOL_ROUNDS``
and every input set is distinct, so no input repeats within a run on this
code (see ``POOL_ROUNDS``).

Every item is a call and a check.  A check verifies the exact result
independently where that is cheap: the right-hand sides are recomputed here
from the inputs with a separate Fraction determinant, the known constants
l(4) = 576, l(5) = 0 and census(5) = 5! are compared, and search witnesses
are re-verified.  Items call altdet through module attributes at call time,
so that wrappers installed by the tracer are the functions that run.

Item counts per round place latency_p50_ms inside one item class and keep
the tail sample (the 11th largest of a run) inside another, with room on
both sides; the class order by latency is given next to each mix.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import factorial
from typing import Callable

# Where runs write instance files, reports and spans, relative to the checkout.
OUT_DIR = "perfbench/out"

# Input sets drawn at set-up; round r uses set r % POOL_ROUNDS.  Sized above
# the most rounds a 25 s run completed on a 2-core machine at this code
# (spinor 49, engine 82, latin 9), so inputs repeat only once a workload
# runs faster than that.  The cli round repeats on purpose: repeated argvs
# must print byte-identical reports.
POOL_ROUNDS = {"spinor": 80, "engine": 96, "latin": 16, "cli": 1}


@dataclass
class Item:
    klass: str
    call: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Workload:
    threads: int
    round_sets: list  # list of list[Item], one per input set
    warmup: list  # list[Item], run once at set-up, untimed
    trace_round_sets: list | None = None  # in-process variant for traced runs (cli)
    argvs: list | None = None  # the CLI argvs of one round (cli)

    def round(self, r: int, traced_path: bool = False) -> list:
        sets = self.trace_round_sets if traced_path and self.trace_round_sets else self.round_sets
        return sets[r % len(sets)]


# -- independent exact helpers ---------------------------------------------


def frac_det(rows) -> Fraction:
    """Determinant by Fraction Gaussian elimination; independent of altdet.exact."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    value = Fraction(1)
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            value = -value
        value *= a[k][k]
        for r in range(k + 1, n):
            f = a[r][k] / a[k][k]
            if f:
                for c in range(k, n):
                    a[r][c] -= f * a[k][c]
    return value


def perm_sign(p) -> int:
    inversions = sum(p[a] > p[b] for a in range(len(p)) for b in range(a + 1, len(p)))
    return -1 if inversions % 2 else 1


def dense_invariant(sizes, coeffs) -> Fraction:
    """Identity-tuple invariant of a dense tensor form, by its definition.

    Permuting the columns of identity matrices leaves one nonzero
    coefficient per term: slot (i, j) reads row pi_i(j).  The flat index
    runs over slots block by block, last slot fastest.
    """
    total = 0
    for perms in product(*(list(permutations(range(n))) for n in sizes)):
        idx = 0
        sign = 1
        for n, p in zip(sizes, perms):
            sign *= perm_sign(p)
            for j in range(n):
                idx = idx * n + p[j]
        total += sign * coeffs[idx]
    return Fraction(total)


def _prod(values) -> Fraction:
    out = Fraction(1)
    for v in values:
        out *= v
    return out


def _spinor_rhs(inst) -> Fraction:
    dets = (p1.coeffs[0] * p2.coeffs[1] - p1.coeffs[1] * p2.coeffs[0] for p1, p2 in inst.bases)
    return factorial(inst.n) * _prod(dets)


def _perm_matrix_instance(api, rng, n):
    """n permutation matrices, each a Fisher-Yates shuffle drawn from rng."""
    mats = []
    for _ in range(n):
        p = list(range(n))
        for i in range(n - 1, 0, -1):
            j = rng.below(i + 1)
            p[i], p[j] = p[j], p[i]
        mats.append(api.Matrix.from_rows([[1 if p[r] == c else 0 for c in range(n)] for r in range(n)]))
    return api.ColorfulInstance.of(mats)


# -- spinor -----------------------------------------------------------------


def setup_spinor(api, seed: int, threads: int, root) -> Workload:
    """svrtan plus the exact polynomial kernels; perms and engine stay idle.

    Mix per round, by latency: 4 searches at n=6 (<1 ms), 10 verifications
    at n=4 (~6 ms), census(5) (~140 ms), 2 verifications at n=5 (~170 ms).
    p50 falls in the middle of the n=4 verifications; the tail sample among
    the n=5 verifications.
    """
    rng = api.SplitMix64(seed)

    def verify(inst):
        rhs = _spinor_rhs(inst)
        return Item(
            f"verify_svrtan.n{inst.n}",
            lambda: api.verify_svrtan(inst, threads=threads),
            lambda rep: rep.verdict and rep.lhs == rep.rhs == rhs,
        )

    def search(inst, incremental):
        return Item(
            "svrtan_search.n6." + ("incremental" if incremental else "plain"),
            lambda: api.svrtan_search(inst, incremental=incremental),
            lambda c: c is not None and api.choice_det(inst, c) != 0,
        )

    census = Item("nonzero_term_census.n5", lambda: api.nonzero_term_census(5), lambda k: k == 120)

    def one_round():
        items = [verify(api.random_spinor_instance(4, rng)) for _ in range(10)]
        items += [verify(api.random_spinor_instance(5, rng)) for _ in range(2)]
        for i in range(4):
            items.append(search(api.random_spinor_instance(6, rng), incremental=bool(i % 2)))
        items.append(census)
        return items

    sets = [one_round() for _ in range(POOL_ROUNDS["spinor"])]
    warm = api.SplitMix64(seed ^ 0x5EED)
    warmup = [
        verify(api.random_spinor_instance(4, warm)),
        search(api.random_spinor_instance(6, warm), False),
        search(api.random_spinor_instance(6, warm), True),
        Item("nonzero_term_census.n4", lambda: api.nonzero_term_census(4), lambda k: k == 24),
    ]
    return Workload(threads, sets, warmup)


# -- engine -----------------------------------------------------------------


def setup_engine(api, seed: int, threads: int, root) -> Workload:
    """perms enumeration, act and form evaluation; onn and svrtan routes idle.

    Mix per round, by latency: 3 colorful n=3 (~14 ms), 3 dense (3,3) and 3
    spinor-route n=4 (~16-20 ms), 2 dense (4,2) (~33 ms), 1 dense (3,3,2)
    (~170 ms).  p50 falls inside the 14-20 ms cluster; the tail sample among
    the (3,3,2) items.
    """
    rng = api.SplitMix64(seed)

    def dense(sizes):
        shape = api.Shape(sizes)
        f = api.random_dense_form(shape, rng)
        A = api.random_matrix_tuple(shape, rng)
        inv = dense_invariant(sizes, f.coeffs)
        dets = tuple(frac_det(m.entries) for m in A.matrices)

        def check(rep):
            return (rep.verdict and rep.lhs == rep.rhs == inv * _prod(dets)
                    and rep.invariant == inv and tuple(rep.determinants) == dets)

        name = "x".join(map(str, sizes))
        return Item(f"verify_identity.dense{name}",
                    lambda: api.verify_identity(f, A, threads=threads), check)

    def colorful():
        inst = api.random_colorful_instance(3, rng)
        A = inst.as_matrix_tuple()
        # l(3) = 0, so both sides vanish for every instance
        return Item(
            "verify_identity.colorful3",
            lambda: api.verify_identity(api.colorful_form(3), A, threads=threads),
            lambda rep: rep.verdict and rep.lhs == rep.rhs == 0 and rep.invariant == 0,
        )

    def spinor_route(n):
        inst = api.random_spinor_instance(n, rng)
        rhs = _spinor_rhs(inst)

        def call():
            form, A = api.as_engine_instance(inst)
            return api.verify_identity(form, A, threads=threads)

        return Item(f"engine_spinor.n{n}", call,
                    lambda rep: rep.verdict and rep.lhs == rep.rhs == rhs
                    and rep.invariant == factorial(n))

    def one_round():
        return ([dense((3, 3)) for _ in range(3)] + [dense((4, 2)) for _ in range(2)]
                + [dense((3, 3, 2))] + [colorful() for _ in range(3)]
                + [spinor_route(4) for _ in range(3)])

    sets = [one_round() for _ in range(POOL_ROUNDS["engine"])]
    warmup = [dense((2, 2)), colorful(), spinor_route(3)]
    return Workload(threads, sets, warmup)


# -- latin ------------------------------------------------------------------


def setup_latin(api, seed: int, threads: int, root) -> Workload:
    """The onn Latin DFS, transversal table and rota DFS over exact.det.

    Mix per round, by latency: 6 rota on random instances n=4..6 and 2 on
    permutation-matrix instances n=4 (<2 ms), 48 rota on permutation-matrix
    instances n=6 (3-60 ms, wide per instance, hence many), 2 verify_onn n=4
    (~0.65 s), alon_tarsi_count(5) (~1.5 s).  p50 falls near the middle of
    the n=6 rota items; the tail sample among the verify_onn items.  verify_onn recomputes l(4)
    each time, as callers that do not pass latin_count do.
    """
    rng = api.SplitMix64(seed)

    def onn(inst):
        rhs = 576 * _prod(frac_det(m.entries) for m in inst.matrices)
        return Item(
            "verify_onn.n4",
            lambda: api.verify_onn(inst, threads=threads),
            lambda rep: rep.verdict and rep.latin_count == 576 and rep.lhs == rep.rhs == rhs,
        )

    def rota(inst, kind):
        return Item(
            f"rota_search.{kind}.n{inst.n}",
            lambda: api.rota_search(inst),
            lambda sel: sel is not None and sel.is_valid_for(inst),
        )

    at5 = Item("alon_tarsi_count.n5", lambda: api.alon_tarsi_count(5, threads=threads),
               lambda k: k == 0)

    def one_round():
        items = [onn(api.random_colorful_instance(4, rng)) for _ in range(2)]
        for n in (4, 5, 6):
            items += [rota(api.random_colorful_instance(n, rng), "random") for _ in range(2)]
        items += [rota(_perm_matrix_instance(api, rng, 4), "perm") for _ in range(2)]
        items += [rota(_perm_matrix_instance(api, rng, 6), "perm") for _ in range(48)]
        items.append(at5)
        return items

    sets = [one_round() for _ in range(POOL_ROUNDS["latin"])]
    warm = api.SplitMix64(seed ^ 0x5EED)
    warm_onn = api.random_colorful_instance(3, warm)
    warmup = [
        Item("verify_onn.n3", lambda: api.verify_onn(warm_onn, threads=threads),
             lambda rep: rep.verdict and rep.latin_count == 0),
        Item("alon_tarsi_count.n4", lambda: api.alon_tarsi_count(4, threads=threads),
             lambda k: k == 576),
        rota(_perm_matrix_instance(api, warm, 6), "perm"),
    ]
    return Workload(threads, sets, warmup)


# -- cli --------------------------------------------------------------------


def _cli_check(expected: dict, argv: tuple):
    """Exit 0, a PASS verdict (text) or a parsing document with a true verdict
    (JSON), and stdout byte-identical to the first run of the same argv."""

    def check(outcome) -> bool:
        code, stdout = outcome
        if code != 0:
            return False
        if "json" in argv:
            try:
                if json.loads(stdout).get("verdict") is not True:
                    return False
            except ValueError:
                return False
        elif stdout.rstrip("\n").rsplit("\n", 1)[-1] != "verdict: PASS":
            return False
        return expected.setdefault(argv, stdout) == stdout

    return check


def cli_env(src_dir) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src_dir) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("ALTDET_THREADS", None)
    return env


def setup_cli(api, seed: int, threads: int, root) -> Workload:
    """One `python -m altdet.cli` subprocess per item, one at a time.

    Per round: the eight commands of acceptance criterion 9, then --input
    runs of verify-general, verify-onn, verify-svrtan and rota-search on
    files written here, each in text and JSON: 24 items of ~150-300 ms,
    whose cost is interpreter start, import, argparse, generation or
    parsing, digest and report.
    """
    rng = api.SplitMix64(seed)
    inst_mod = api.instances
    s = [rng.below(1 << 32) for _ in range(9)]
    files = {
        "general": api.random_matrix_tuple(api.Shape((3, 2)), api.SplitMix64(s[5])),
        "onn": api.random_colorful_instance(3, api.SplitMix64(s[6])),
        "rota": api.random_colorful_instance(4, api.SplitMix64(s[7])),
        "svrtan": api.random_spinor_instance(4, api.SplitMix64(s[8])),
    }
    scratch = root / OUT_DIR
    scratch.mkdir(parents=True, exist_ok=True)
    paths = {}
    for key, inst in files.items():
        paths[key] = scratch / f"cli-{key}.json"
        paths[key].write_text(inst_mod.canonical_json(inst_mod.instance_to_doc(inst)) + "\n",
                              encoding="utf-8")
    commands = [
        ["verify-general", "--shape", "2,2", "--seed", str(s[0])],
        ["invariant", "--family", "colorful", "--n", "3"],
        ["alon-tarsi", "--n", "3", "--cross-check"],
        ["verify-onn", "--n", "3", "--seed", str(s[1])],
        ["rota-search", "--n", "4", "--seed", str(s[2])],
        ["verify-svrtan", "--n", "4", "--seed", str(s[3])],
        ["svrtan-search", "--n", "5", "--seed", str(s[4])],
        ["census", "--n", "4"],
        ["verify-general", "--input", str(paths["general"]), "--seed", str(s[0])],
        ["verify-onn", "--input", str(paths["onn"])],
        ["verify-svrtan", "--input", str(paths["svrtan"])],
        ["rota-search", "--input", str(paths["rota"])],
    ]
    argvs = [tuple(c + ["--format", fmt, "--threads", str(threads)])
             for c in commands for fmt in ("text", "json")]
    env = cli_env(root / "src")
    expected: dict = {}
    cwd = str(root)

    def subprocess_item(argv):
        def call():
            proc = subprocess.run([sys.executable, "-m", "altdet.cli", *argv], env=env, cwd=cwd,
                                  capture_output=True, text=True, timeout=120)
            return proc.returncode, proc.stdout

        return Item(f"cli.{argv[0]}", call, _cli_check(expected, argv))

    in_process_expected: dict = {}

    def in_process_item(argv):
        cli = api.cli

        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(argv))
            return code, out.getvalue()

        return Item(f"cli.{argv[0]}", call, _cli_check(in_process_expected, argv))

    warmup = [subprocess_item(("census", "--n", "3", "--format", "text"))]
    return Workload(
        threads, [[subprocess_item(a) for a in argvs]], warmup,
        trace_round_sets=[[in_process_item(a) for a in argvs]],
        argvs=[list(a) for a in argvs],
    )


SETUPS = {"spinor": setup_spinor, "engine": setup_engine, "latin": setup_latin, "cli": setup_cli}

# Fixed per workload; capped at the usable cores when the benchmark starts.
THREADS = {"spinor": 1, "engine": 1, "latin": 2, "cli": 2}

# Modules each workload's set-up imports (and re-imports on each repetition).
IMPORTS = {
    "spinor": ("altdet",),
    "engine": ("altdet",),
    "latin": ("altdet",),
    "cli": ("altdet", "altdet.instances", "altdet.cli"),
}
