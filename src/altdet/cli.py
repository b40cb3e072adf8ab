"""Command-line surface: subcommands, reports, exit codes.

Every subcommand prints one report to standard output, and nothing else
there.  The report is a JSON document, printed as it is by ``--format
json``; the text layout prints the same fields, one line each, with the
verdict last.  Timing goes to standard error, so reports are
byte-identical for a fixed seed.
``--threads`` is accepted and validated, and every command runs serially.
Handlers read the parsed ``argparse.Namespace`` directly.
Exit codes: 0 when the checked identity holds or a search finds a
witness, 1 when a check fails or a search exhausts, 2 for bad inputs, 3
for exhausted budgets, 4 when an internal self-check fails.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from math import factorial

from .engine import (
    DEFAULT_TERM_BUDGET,
    MatrixTuple,
    invariant_at_identity,
    verify_identity,
)
from .errors import BudgetError, DimensionError, InputError, SelfCheckError
from .exact import format_rational
from .instances import (
    SplitMix64,
    doc_digest,
    instance_to_doc,
    load_instance,
    random_colorful_instance,
    random_dense_form,
    random_matrix_tuple,
    random_spinor_instance,
)
from .onn import (
    DEFAULT_NODE_BUDGET,
    LATIN_SQUARE_COUNTS,
    MAX_FULL_ORDER,
    ColorfulInstance,
    alon_tarsi_count,
    colorful_form,
    rota_search,
    verify_onn,
)
from .perms import Shape
from .svrtan import (
    SpinorInstance,
    charge_choices,
    choice_count,
    choice_det,
    nonzero_term_census,
    spinor_form,
    svrtan_search,
    verify_svrtan,
)

MAX_SEED = (1 << 64) - 1


def _need(args: argparse.Namespace, what: str):
    raise InputError(f"{args.command}: {what}")


def _load_typed(args: argparse.Namespace, expected: type, kind_name: str):
    inst = load_instance(args.input)
    # exact type: a colorful instance is a MatrixTuple but not a matrix-tuple file
    if type(inst) is not expected:
        raise InputError(f"{args.input}: expected a {kind_name} instance")
    return inst


def _instance_input(args: argparse.Namespace, expected: type, kind_name: str, draw, gate):
    """(instance, seed): read from --input, or drawn by ``draw(n, rng)`` once ``gate(n, budget, what)`` passes."""
    if args.input:
        return _load_typed(args, expected, kind_name), None
    if args.n is None:
        _need(args, "give --input or --n")
    if gate is not None:
        gate(args.n, args.term_budget, f"{args.command} --n {args.n} has too many terms")
    return draw(args.n, SplitMix64(args.seed)), args.seed


def _dense_form(args: argparse.Namespace, shape: Shape, rng: SplitMix64):
    shape.charge_coefficients(args.term_budget, "dense form has too many coefficients")
    return random_dense_form(shape, rng)


def _sum_report(
    args: argparse.Namespace,
    digest: str,
    lhs: Fraction,
    rhs: Fraction,
    notes: list[str],
    *,
    seed: int | None = None,
    term_count: int | None = None,
    witness: dict | None = None,
) -> tuple[dict, int]:
    """The report of a two-sided check and its exit code, 0 when the sides agree.

    The report is the JSON document ``--format json`` prints: its keys in
    print order, absent ones left out, and its values already formatted.
    """
    doc = {
        "command": args.command,
        "digest": digest,
        "seed": seed,
        "lhs": format_rational(lhs),
        "rhs": format_rational(rhs),
        "verdict": lhs == rhs,
        "term_count": term_count,
        "witness": witness,
        "notes": notes or None,
    }
    return {key: value for key, value in doc.items() if value is not None}, 0 if lhs == rhs else 1


def _search_report(
    args: argparse.Namespace,
    inst: ColorfulInstance | SpinorInstance,
    seed: int | None,
    witness: dict | None,
    guaranteed: bool,
    notes: list[str],
) -> tuple[dict, int]:
    """The report of a search: found (lhs 1) against guaranteed (rhs 1).

    It exits 0 when a witness was found and 1 when the search exhausted.
    """
    found = witness is not None
    if not found:
        bug = "exhausted despite a guarantee: this indicates a bug"
        notes = notes + [bug if guaranteed else "search exhausted"]
    digest = doc_digest(instance_to_doc(inst))
    lhs, rhs = Fraction(found), Fraction(found or guaranteed)
    doc, _ = _sum_report(args, digest, lhs, rhs, notes, seed=seed, witness=witness)
    return doc, 0 if found else 1


# the report fields that print as one labelled line each, in the document's order
_TEXT_LABELS = {"command": "command: ", "digest": "digest: ", "seed": "seed: ",
                "lhs": "lhs = ", "rhs": "rhs = ", "term_count": "terms: "}


def report_text(doc: dict) -> str:
    """A report document in the text layout: its fields in order, then the witness, notes and verdict."""
    lines = [_TEXT_LABELS[key] + str(value) for key, value in doc.items() if key in _TEXT_LABELS]
    witness = doc.get("witness")
    if witness is not None and witness["kind"] == "selection":
        lines += [f"sigma[{i}]: " + " ".join(map(str, row)) for i, row in enumerate(witness["maps"], 1)]
    elif witness is not None:
        lines += [f"choice bits: {witness['bits']}", "picks: " + " ".join(witness["picks"])]
    lines += [f"note: {note}" for note in doc.get("notes", [])]
    lines.append("verdict: " + ("PASS" if doc["verdict"] else "FAIL"))
    return "\n".join(lines)


def cmd_verify_general(args: argparse.Namespace) -> tuple[dict, int]:
    rng = SplitMix64(args.seed)
    if args.input:
        A = _load_typed(args, MatrixTuple, "matrix-tuple")
        f = _dense_form(args, A.shape, rng)
    elif args.shape is not None:
        # one stream seeds both: form coefficients first, then matrices
        f = _dense_form(args, args.shape, rng)
        A = random_matrix_tuple(args.shape, rng)
    else:
        _need(args, "give --input or --shape")
    rep = verify_identity(f, A, term_budget=args.term_budget)
    digest = doc_digest({"instance": instance_to_doc(A), "form": [format_rational(c) for c in f.coeffs]})
    notes = [f"invariant = {format_rational(rep.invariant)}"]
    return _sum_report(args, digest, rep.lhs, rep.rhs, notes, seed=args.seed, term_count=rep.term_count)


def cmd_invariant(args: argparse.Namespace) -> tuple[dict, int]:
    family, n = args.family, args.n
    if family == "dense":
        if args.shape is None:
            _need(args, "family dense needs --shape")
        form = _dense_form(args, args.shape, SplitMix64(args.seed))
        inputs = {"family": "dense", "shape": list(args.shape.sizes), "seed": args.seed}
    else:
        if n is None:
            _need(args, f"family {family} needs --n")
        if family == "colorful":
            form = colorful_form(n)
        else:
            form = spinor_form(n)
        inputs = {"family": family, "n": n}
    lhs = invariant_at_identity(form, term_budget=args.term_budget)
    if family == "dense":
        rhs, note = lhs, "dense forms have no independent route; value reported as both sides"
    elif family == "colorful":
        rhs = Fraction(alon_tarsi_count(n, term_budget=args.term_budget))
        note = "independent route: signed Latin-square enumeration"
    else:
        rhs, note = Fraction(factorial(n)), "independent route: n factorial"
    seed = args.seed if family == "dense" else None
    return _sum_report(args, doc_digest(inputs), lhs, rhs, [note], seed=seed, term_count=form.shape.term_count)


def cmd_alon_tarsi(args: argparse.Namespace) -> tuple[dict, int]:
    lhs = Fraction(alon_tarsi_count(args.n, term_budget=args.term_budget))
    if args.cross_check:
        rhs = invariant_at_identity(colorful_form(args.n), term_budget=args.term_budget)
        note = "cross-checked against the colorful-form invariant"
    else:
        rhs = lhs
        note = "single route (reduced-square count); pass --cross-check to compare"
    return _sum_report(args, doc_digest({"n": args.n}), lhs, rhs, [note])


def cmd_verify_onn(args: argparse.Namespace) -> tuple[dict, int]:
    inst, seed = _instance_input(args, ColorfulInstance, "colorful", random_colorful_instance,
                                 lambda n, budget, what: Shape((n,) * n).charge_terms(budget, what))
    rep = verify_onn(inst, term_budget=args.term_budget)
    notes = [f"signed Latin count l({inst.n}) = {rep.latin_count}"]
    if not inst.is_nonsingular:
        notes.append("input is singular: right-hand side vanishes")
    digest = doc_digest(instance_to_doc(inst))
    return _sum_report(args, digest, rep.lhs, rep.rhs, notes, seed=seed, term_count=rep.term_count)


def cmd_rota_search(args: argparse.Namespace) -> tuple[dict, int]:
    inst, seed = _instance_input(args, ColorfulInstance, "colorful", random_colorful_instance, None)
    sel = rota_search(inst, node_budget=args.node_budget)
    notes: list[str] = []
    guaranteed = False
    if not inst.is_nonsingular:
        notes.append("input is singular: a full selection is not guaranteed")
    elif inst.n <= MAX_FULL_ORDER:
        # the budget admits exactly the L(n) squares the count stands for
        count = alon_tarsi_count(inst.n, term_budget=LATIN_SQUARE_COUNTS[inst.n - 1])
        if count != 0:
            guaranteed = True
            notes.append(f"nonsingular input and l({inst.n}) = {count} != 0: success guaranteed")
        else:
            notes.append(f"l({inst.n}) = 0: success not guaranteed despite nonsingular input")
    else:
        notes.append(f"signed Latin count not computed for n = {inst.n}; no guarantee evaluated")
    witness = None
    if sel is not None:
        if not sel.is_valid_for(inst):
            raise SelfCheckError("search returned a selection with a zero transversal")
        maps = [[v + 1 for v in cols] for cols in sel.maps]
        witness = {"kind": "selection", "maps": maps}
    return _search_report(args, inst, seed, witness, guaranteed, notes)


def cmd_verify_svrtan(args: argparse.Namespace) -> tuple[dict, int]:
    inst, seed = _instance_input(args, SpinorInstance, "spinor", random_spinor_instance, charge_choices)
    rep = verify_svrtan(inst, term_budget=args.term_budget)
    notes = [] if inst.is_nonsingular else ["input has a singular edge basis: right-hand side vanishes"]
    digest = doc_digest(instance_to_doc(inst))
    return _sum_report(args, digest, rep.lhs, rep.rhs, notes, seed=seed, term_count=rep.term_count)


def cmd_svrtan_search(args: argparse.Namespace) -> tuple[dict, int]:
    inst, seed = _instance_input(args, SpinorInstance, "spinor", random_spinor_instance, charge_choices)
    c = svrtan_search(inst, term_budget=args.term_budget)
    guaranteed = inst.is_nonsingular
    if guaranteed:
        notes = ["all edge determinants nonzero: a nonzero assignment is guaranteed"]
    else:
        notes = ["input has a singular edge basis: no guarantee"]
    witness = None
    if c is not None:
        if choice_det(inst, c) == 0:
            raise SelfCheckError("search returned a choice with zero determinant")
        picks = ["p2" if c.bit(idx) else "p1" for idx in range(c.edge_count)]
        witness = {"kind": "choice", "bits": c.bits, "picks": picks}
    return _search_report(args, inst, seed, witness, guaranteed, notes)


def cmd_census(args: argparse.Namespace) -> tuple[dict, int]:
    count = nonzero_term_census(args.n, term_budget=args.term_budget)
    return _sum_report(
        args,
        doc_digest({"n": args.n}),
        Fraction(count),
        Fraction(factorial(args.n)),
        ["every surviving choice passed the transitive-tournament degree test"],
        term_count=choice_count(args.n),
    )


_HANDLERS = {
    "verify-general": cmd_verify_general,
    "invariant": cmd_invariant,
    "alon-tarsi": cmd_alon_tarsi,
    "verify-onn": cmd_verify_onn,
    "rota-search": cmd_rota_search,
    "verify-svrtan": cmd_verify_svrtan,
    "svrtan-search": cmd_svrtan_search,
    "census": cmd_census,
}


def _seed_arg(text: str) -> int:
    value = int(text)
    if not 0 <= value <= MAX_SEED:
        raise argparse.ArgumentTypeError(f"seed must fit in 64 bits, got {text}")
    return value


def _shape_arg(text: str) -> Shape:
    try:
        sizes = tuple(int(part) for part in text.split(","))
        return Shape(sizes)
    except (ValueError, DimensionError) as exc:
        raise argparse.ArgumentTypeError(f"bad shape {text!r}: {exc}")


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="altdet",
        description="Exact checks and searches for alternating determinant identities.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--threads", type=_positive, default=1,
                        help="accepted for compatibility; every command runs serially whatever "
                        "it says (default: 1)")
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="report layout on stdout")
    common.add_argument("--term-budget", type=_positive, default=DEFAULT_TERM_BUDGET,
                        help="hard cap on terms and dense coefficients; past it, exit 3 before any draw")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        return sub.add_parser(name, parents=[common], help=help_text)

    def add_instance(name, help_text, kind_name):
        p = add(name, help_text)
        p.add_argument("--input", help=f"{kind_name} JSON file, or - for stdin")
        p.add_argument("--n", type=_positive, help="generate a random nonsingular instance of this order")
        p.add_argument("--seed", type=_seed_arg, default=0, help="seed for the generated instance")
        return p

    p = add("verify-general", "check the general factorization on a matrix tuple")
    p.add_argument("--input", help="matrix-tuple JSON file, or - for stdin")
    p.add_argument("--shape", type=_shape_arg, help="generate a random tuple of this shape, e.g. 2,2")
    p.add_argument("--seed", type=_seed_arg, default=0, help="seed for the form (and tuple when generated)")

    p = add("invariant", "identity-matrix invariant of a built-in form family")
    p.add_argument("--family", choices=("dense", "colorful", "spinor"), required=True)
    p.add_argument("--n", type=_positive, help="order, for colorful and spinor")
    p.add_argument("--shape", type=_shape_arg, help="shape, for dense")
    p.add_argument("--seed", type=_seed_arg, default=0, help="seed, for dense")

    p = add("alon-tarsi", "signed Latin-square count l(n) from the reduced squares")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--cross-check", action="store_true",
                   help="also compute the colorful-form invariant and compare")

    add_instance("verify-onn", "check the colorful identity on an instance", "colorful")
    p = add_instance("rota-search", "search for disjoint nonzero transversals", "colorful")
    p.add_argument("--node-budget", type=_positive, default=DEFAULT_NODE_BUDGET,
                   help="cap on column picks tested")
    add_instance("verify-svrtan", "check the n! formula on a spinor instance", "spinor")
    add_instance("svrtan-search", "search for a nonzero spinor assignment", "spinor")

    p = add("census", "count surviving identity-spinor choices; must be n!")
    p.add_argument("--n", type=_positive, required=True)
    return parser


def run(args: argparse.Namespace, out=None, err=None) -> int:
    """Dispatch one parsed command line; returns the process exit code."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    started = time.perf_counter()
    try:
        doc, code = _HANDLERS[args.command](args)
    except (InputError, DimensionError) as exc:
        print(f"error: {exc}", file=err)
        return 2
    except BudgetError as exc:
        print(f"budget exhausted: {exc}", file=err)
        return 3
    except SelfCheckError as exc:
        print(f"internal check failed: {exc}", file=err)
        return 4
    elapsed = time.perf_counter() - started
    print(json.dumps(doc, indent=2) if args.format == "json" else report_text(doc), file=out)
    print(f"elapsed: {elapsed:.3f}s", file=err)
    return code


def main(argv=None) -> int:
    # exact values of any size parse and print in full during the run, and
    # the interpreter's integer-string limit is back as it was afterwards
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return run(build_parser().parse_args(argv))
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
