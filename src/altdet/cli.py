"""Command-line surface: subcommands, reports, exit codes.

Every subcommand prints one report to standard output, in a plain text
layout or as a single JSON document, and nothing else there.  Timing goes
to standard error, so reports are byte-identical for a fixed seed.
``--threads`` is accepted and validated, and every command runs serially;
``--incremental`` is accepted and ignored, as the search has one walk.
Exit codes: 0 when the checked identity holds or a search finds a
witness, 1 when a check fails or a search exhausts, 2 for bad inputs, 3
for exhausted budgets, 4 when an internal self-check fails.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
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
    as_engine_instance,
    choice_det,
    nonzero_term_census,
    svrtan_search,
    verify_svrtan,
)

MAX_SEED = (1 << 64) - 1


@dataclass(frozen=True)
class RunConfig:
    """Everything one invocation needs, resolved from flags."""

    command: str
    n: int | None = None
    shape: Shape | None = None
    input_path: str | None = None
    seed: int = 0
    term_budget: int = DEFAULT_TERM_BUDGET
    node_budget: int = DEFAULT_NODE_BUDGET
    format: str = "text"
    family: str | None = None
    cross_check: bool = False


@dataclass
class Report:
    """What a run found; `elapsed` is measured by the driver, stderr only."""

    command: str
    digest: str
    lhs: Fraction
    rhs: Fraction
    seed: int | None = None
    term_count: int | None = None
    witness: dict | None = None
    notes: tuple[str, ...] = ()
    elapsed: float | None = None

    @property
    def verdict(self) -> bool:
        return self.lhs == self.rhs

    def to_doc(self) -> dict:
        doc: dict = {"command": self.command, "digest": self.digest}
        if self.seed is not None:
            doc["seed"] = self.seed
        doc["lhs"] = format_rational(self.lhs)
        doc["rhs"] = format_rational(self.rhs)
        doc["verdict"] = self.verdict
        if self.term_count is not None:
            doc["term_count"] = self.term_count
        if self.witness is not None:
            doc["witness"] = self.witness
        if self.notes:
            doc["notes"] = list(self.notes)
        return doc

    def to_text(self) -> str:
        lines = [f"command: {self.command}", f"digest: {self.digest}"]
        if self.seed is not None:
            lines.append(f"seed: {self.seed}")
        lines.append(f"lhs = {format_rational(self.lhs)}")
        lines.append(f"rhs = {format_rational(self.rhs)}")
        if self.term_count is not None:
            lines.append(f"terms: {self.term_count}")
        if self.witness is not None:
            lines.extend(_witness_text(self.witness))
        for note in self.notes:
            lines.append(f"note: {note}")
        lines.append(f"verdict: {'PASS' if self.verdict else 'FAIL'}")
        return "\n".join(lines)


def _witness_text(witness: dict) -> list[str]:
    if witness.get("kind") == "selection":
        return [
            f"sigma[{i + 1}]: " + " ".join(str(v) for v in row)
            for i, row in enumerate(witness["maps"])
        ]
    if witness.get("kind") == "choice":
        picks = " ".join(witness["picks"])
        return [f"choice bits: {witness['bits']}", f"picks: {picks}"]
    return [f"witness: {json.dumps(witness)}"]


def _need(cfg: RunConfig, what: str):
    raise InputError(f"{cfg.command}: {what}")


def _load_typed(cfg: RunConfig, expected: type, kind_name: str):
    inst = load_instance(cfg.input_path)
    # exact type: a colorful instance is a MatrixTuple but not a matrix-tuple file
    if type(inst) is not expected:
        raise InputError(f"{cfg.input_path}: expected a {kind_name} instance")
    return inst


def _sum_report(
    cfg: RunConfig,
    digest: str,
    lhs: Fraction,
    rhs: Fraction,
    notes: list[str],
    *,
    seed: int | None = None,
    term_count: int | None = None,
) -> tuple[Report, int]:
    """The report of a two-sided check; it exits 0 when the sides agree."""
    report = Report(cfg.command, digest, lhs, rhs, seed=seed, term_count=term_count, notes=tuple(notes))
    return report, 0 if report.verdict else 1


def _search_report(
    cfg: RunConfig,
    inst: ColorfulInstance | SpinorInstance,
    seed: int | None,
    witness: dict | None,
    guaranteed: bool,
    notes: list[str],
) -> tuple[Report, int]:
    """The report of a search: found (lhs 1) against guaranteed (rhs 1).

    It exits 0 when a witness was found and 1 when the search exhausted.
    """
    found = witness is not None
    if not found:
        bug = "exhausted despite a guarantee: this indicates a bug"
        notes = notes + [bug if guaranteed else "search exhausted"]
    report = Report(
        cfg.command,
        doc_digest(instance_to_doc(inst)),
        lhs=Fraction(found),
        rhs=Fraction(found or guaranteed),
        seed=seed,
        witness=witness,
        notes=tuple(notes),
    )
    return report, 0 if found else 1


def cmd_verify_general(cfg: RunConfig) -> tuple[Report, int]:
    rng = SplitMix64(cfg.seed)
    if cfg.input_path:
        A = _load_typed(cfg, MatrixTuple, "matrix-tuple")
        f = random_dense_form(A.shape, rng)
    elif cfg.shape is not None:
        # one stream seeds both: form coefficients first, then matrices
        f = random_dense_form(cfg.shape, rng)
        A = random_matrix_tuple(cfg.shape, rng)
    else:
        _need(cfg, "give --input or --shape")
    rep = verify_identity(f, A, term_budget=cfg.term_budget)
    digest = doc_digest({"instance": instance_to_doc(A), "form": [format_rational(c) for c in f.coeffs]})
    notes = [f"invariant = {format_rational(rep.invariant)}"]
    return _sum_report(cfg, digest, rep.lhs, rep.rhs, notes, seed=cfg.seed, term_count=rep.term_count)


def cmd_invariant(cfg: RunConfig) -> tuple[Report, int]:
    seed: int | None = None
    if cfg.family == "dense":
        if cfg.shape is None:
            _need(cfg, "family dense needs --shape")
        f = random_dense_form(cfg.shape, SplitMix64(cfg.seed))
        seed = cfg.seed
        lhs = rhs = invariant_at_identity(f, term_budget=cfg.term_budget)
        note = "dense forms have no independent route; value reported as both sides"
        inputs = {"family": "dense", "shape": list(cfg.shape.sizes), "seed": cfg.seed}
        terms = cfg.shape.term_count
    elif cfg.family == "colorful":
        if cfg.n is None:
            _need(cfg, "family colorful needs --n")
        lhs = invariant_at_identity(colorful_form(cfg.n), term_budget=cfg.term_budget)
        rhs = Fraction(alon_tarsi_count(cfg.n, term_budget=cfg.term_budget))
        note = "independent route: signed Latin-square enumeration"
        inputs = {"family": "colorful", "n": cfg.n}
        terms = factorial(cfg.n) ** cfg.n
    elif cfg.family == "spinor":
        if cfg.n is None:
            _need(cfg, "family spinor needs --n")
        form, _ = as_engine_instance(SpinorInstance.identity(cfg.n))
        lhs = invariant_at_identity(form, term_budget=cfg.term_budget)
        rhs = Fraction(factorial(cfg.n))
        note = "independent route: n factorial"
        inputs = {"family": "spinor", "n": cfg.n}
        terms = 1 << (cfg.n * (cfg.n - 1) // 2)
    else:
        _need(cfg, "give --family dense, colorful or spinor")
    return _sum_report(cfg, doc_digest(inputs), lhs, rhs, [note], seed=seed, term_count=terms)


def cmd_alon_tarsi(cfg: RunConfig) -> tuple[Report, int]:
    if cfg.n is None:
        _need(cfg, "give --n")
    lhs = Fraction(alon_tarsi_count(cfg.n, term_budget=cfg.term_budget))
    if cfg.cross_check:
        rhs = invariant_at_identity(colorful_form(cfg.n), term_budget=cfg.term_budget)
        note = "cross-checked against the colorful-form invariant"
    else:
        rhs = lhs
        note = "single route (reduced-square count); pass --cross-check to compare"
    return _sum_report(cfg, doc_digest({"n": cfg.n}), lhs, rhs, [note])


def _colorful_input(cfg: RunConfig) -> tuple[ColorfulInstance, int | None]:
    if cfg.input_path:
        return _load_typed(cfg, ColorfulInstance, "colorful"), None
    if cfg.n is None:
        _need(cfg, "give --input or --n")
    return random_colorful_instance(cfg.n, SplitMix64(cfg.seed)), cfg.seed


def _spinor_input(cfg: RunConfig) -> tuple[SpinorInstance, int | None]:
    if cfg.input_path:
        return _load_typed(cfg, SpinorInstance, "spinor"), None
    if cfg.n is None:
        _need(cfg, "give --input or --n")
    return random_spinor_instance(cfg.n, SplitMix64(cfg.seed)), cfg.seed


def cmd_verify_onn(cfg: RunConfig) -> tuple[Report, int]:
    inst, seed = _colorful_input(cfg)
    rep = verify_onn(inst, term_budget=cfg.term_budget)
    notes = [f"signed Latin count l({inst.n}) = {rep.latin_count}"]
    if not inst.is_nonsingular:
        notes.append("input is singular: right-hand side vanishes")
    digest = doc_digest(instance_to_doc(inst))
    return _sum_report(cfg, digest, rep.lhs, rep.rhs, notes, seed=seed, term_count=rep.term_count)


def cmd_rota_search(cfg: RunConfig) -> tuple[Report, int]:
    inst, seed = _colorful_input(cfg)
    sel = rota_search(inst, node_budget=cfg.node_budget)
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
        maps = [[v + 1 for v in part.mapping] for part in sel.sigma.parts]
        witness = {"kind": "selection", "maps": maps}
    return _search_report(cfg, inst, seed, witness, guaranteed, notes)


def cmd_verify_svrtan(cfg: RunConfig) -> tuple[Report, int]:
    inst, seed = _spinor_input(cfg)
    rep = verify_svrtan(inst, term_budget=cfg.term_budget)
    notes = [] if inst.is_nonsingular else ["input has a singular edge basis: right-hand side vanishes"]
    digest = doc_digest(instance_to_doc(inst))
    return _sum_report(cfg, digest, rep.lhs, rep.rhs, notes, seed=seed, term_count=rep.term_count)


def cmd_svrtan_search(cfg: RunConfig) -> tuple[Report, int]:
    inst, seed = _spinor_input(cfg)
    c = svrtan_search(inst, term_budget=cfg.term_budget)
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
    return _search_report(cfg, inst, seed, witness, guaranteed, notes)


def cmd_census(cfg: RunConfig) -> tuple[Report, int]:
    if cfg.n is None:
        _need(cfg, "give --n")
    count = nonzero_term_census(cfg.n, term_budget=cfg.term_budget)
    return _sum_report(
        cfg,
        doc_digest({"n": cfg.n}),
        Fraction(count),
        Fraction(factorial(cfg.n)),
        ["every surviving choice passed the transitive-tournament degree test"],
        term_count=1 << (cfg.n * (cfg.n - 1) // 2),
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
                        help="hard cap on enumerated terms")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, **kw):
        return sub.add_parser(name, parents=[common], help=help_text, **kw)

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

    p = add("verify-onn", "check the colorful identity on an instance")
    p.add_argument("--input", help="colorful JSON file, or - for stdin")
    p.add_argument("--n", type=_positive, help="generate a random nonsingular instance")
    p.add_argument("--seed", type=_seed_arg, default=0)

    p = add("rota-search", "search for disjoint nonzero transversals")
    p.add_argument("--input", help="colorful JSON file, or - for stdin")
    p.add_argument("--n", type=_positive)
    p.add_argument("--seed", type=_seed_arg, default=0)
    p.add_argument("--node-budget", type=_positive, default=DEFAULT_NODE_BUDGET,
                   help="cap on column picks tested")

    p = add("verify-svrtan", "check the n! formula on a spinor instance")
    p.add_argument("--input", help="spinor JSON file, or - for stdin")
    p.add_argument("--n", type=_positive)
    p.add_argument("--seed", type=_seed_arg, default=0)

    p = add("svrtan-search", "search for a nonzero spinor assignment")
    p.add_argument("--input", help="spinor JSON file, or - for stdin")
    p.add_argument("--n", type=_positive)
    p.add_argument("--seed", type=_seed_arg, default=0)
    p.add_argument("--incremental", action="store_true",
                   help="accepted for compatibility; the search always tests point-value "
                   "determinants, refreshing two columns per bit flip")

    p = add("census", "count surviving identity-spinor choices; must be n!")
    p.add_argument("--n", type=_positive, required=True)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        n=getattr(args, "n", None),
        shape=getattr(args, "shape", None),
        input_path=getattr(args, "input", None),
        seed=getattr(args, "seed", 0),
        term_budget=args.term_budget,
        node_budget=getattr(args, "node_budget", DEFAULT_NODE_BUDGET),
        format=args.format,
        family=getattr(args, "family", None),
        cross_check=getattr(args, "cross_check", False),
    )


def run(cfg: RunConfig, out=None, err=None) -> int:
    """Dispatch one configured command; returns the process exit code."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    started = time.perf_counter()
    try:
        report, code = _HANDLERS[cfg.command](cfg)
    except (InputError, DimensionError) as exc:
        print(f"error: {exc}", file=err)
        return 2
    except BudgetError as exc:
        print(f"budget exhausted: {exc}", file=err)
        return 3
    except SelfCheckError as exc:
        print(f"internal check failed: {exc}", file=err)
        return 4
    report.elapsed = time.perf_counter() - started
    if cfg.format == "json":
        print(json.dumps(report.to_doc(), indent=2), file=out)
    else:
        print(report.to_text(), file=out)
    print(f"elapsed: {report.elapsed:.3f}s", file=err)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run(config_from_args(args))


if __name__ == "__main__":
    sys.exit(main())
