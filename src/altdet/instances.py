"""Seeded random instances and the JSON exchange format.

Randomness comes from splitmix64, a tiny 64-bit generator with a fixed
published constant set, so the same seed yields the same instance on every
platform and Python version.  Entries are drawn uniformly from [-9, 9] by
rejection (no modulo bias), and singular draws are redrawn whole, matrix
by matrix or edge by edge, in a documented order: matrices in index order
with entries row-major, spinor edges in lexicographic order with p1 before
p2 and the constant coefficient before the t coefficient.

Files carry one JSON object with a "kind" of "matrix-tuple", "colorful" or
"spinor"; all scalars are rational strings like "4" or "-3/7".  Vertices
and the tags in error messages are 1-based on the outside.
"""

from __future__ import annotations

import json
from fractions import Fraction
from hashlib import sha256
from typing import Any

from .engine import DenseTensorForm, MatrixTuple
from .errors import BudgetError, InputError, _shown
from .exact import Matrix, Polynomial, det, format_rational, parse_rational
from .onn import ColorfulInstance
from .perms import Shape
from .svrtan import SpinorInstance, edge_pairs

ENTRY_LO = -9
ENTRY_HI = 9
RESAMPLE_CAP = 1000

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64: one additive step and three xor-shift mixes per output."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform draw from [0, bound) by rejection."""
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % bound

    def int_between(self, lo: int, hi: int) -> int:
        return lo + self.below(hi - lo + 1)


def _entry(rng: SplitMix64) -> int:
    return rng.int_between(ENTRY_LO, ENTRY_HI)


def _nonsingular_matrix(rng: SplitMix64, n: int) -> Matrix:
    for _ in range(RESAMPLE_CAP):
        m = Matrix.from_rows([[_entry(rng) for _ in range(n)] for _ in range(n)])
        if det(m) != 0:
            return m
    raise BudgetError(f"no nonsingular {n}x{n} draw within {RESAMPLE_CAP} tries")


def random_matrix_tuple(shape: Shape, rng: SplitMix64) -> MatrixTuple:
    """Nonsingular integer matrices for each shape factor, each resampled independently."""
    return MatrixTuple(shape, tuple(_nonsingular_matrix(rng, n) for n in shape))


def random_colorful_instance(n: int, rng: SplitMix64) -> ColorfulInstance:
    """n nonsingular integer matrices of size n, each resampled independently."""
    return ColorfulInstance.of(_nonsingular_matrix(rng, n) for _ in range(n))


def random_spinor_instance(n: int, rng: SplitMix64) -> SpinorInstance:
    """A nonsingular integer spinor basis per edge, in lexicographic order."""
    bases = []
    for _ in edge_pairs(n):
        for _ in range(RESAMPLE_CAP):
            p1 = Polynomial((_entry(rng), _entry(rng)))
            p2 = Polynomial((_entry(rng), _entry(rng)))
            if p1.coeffs[0] * p2.coeffs[1] != p1.coeffs[1] * p2.coeffs[0]:
                bases.append((p1, p2))
                break
        else:
            raise BudgetError(f"no nonsingular edge basis within {RESAMPLE_CAP} tries")
    return SpinorInstance(n, tuple(bases))


def random_dense_form(shape: Shape, rng: SplitMix64) -> DenseTensorForm:
    """Integer tensor coefficients in flat index order, last slot fastest."""
    return DenseTensorForm(shape, [_entry(rng) for _ in range(shape.coefficient_count)], "seeded dense tensor")


def _matrix_doc(m: Matrix) -> list[list[str]]:
    return [[format_rational(x) for x in row] for row in m.entries]


def instance_to_doc(inst: MatrixTuple | SpinorInstance) -> dict:
    """The JSON document (as plain dicts and lists) for any instance kind."""
    # a ColorfulInstance is a MatrixTuple too, so it is tested first
    if isinstance(inst, ColorfulInstance):
        return {
            "kind": "colorful",
            "n": inst.n,
            "matrices": [_matrix_doc(m) for m in inst.matrices],
        }
    if isinstance(inst, MatrixTuple):
        return {
            "kind": "matrix-tuple",
            "shape": list(inst.shape.sizes),
            "matrices": [_matrix_doc(m) for m in inst.matrices],
        }
    if isinstance(inst, SpinorInstance):
        edges = []
        for (i, j), (p1, p2) in zip(edge_pairs(inst.n), inst.bases):
            edges.append(
                {
                    "i": i + 1,
                    "j": j + 1,
                    "p1": [format_rational(c) for c in p1.coeffs],
                    "p2": [format_rational(c) for c in p2.coeffs],
                }
            )
        return {"kind": "spinor", "n": inst.n, "edges": edges}
    raise TypeError(f"not an instance: {type(inst).__name__}")


def canonical_json(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def doc_digest(doc: Any) -> str:
    """Stable short fingerprint of a document's canonical serialization."""
    return sha256(canonical_json(doc).encode("utf-8")).hexdigest()[:16]


def _require_keys(doc: dict, keys: set[str], where: str):
    have = set(doc)
    missing = keys - have
    extra = have - keys
    if missing:
        raise InputError(f"{where}: missing keys {sorted(missing)}")
    if extra:
        raise InputError(f"{where}: unknown keys {sorted(extra)}")


def _rational_at(value, where: str) -> Fraction:
    if not isinstance(value, str):
        raise InputError(f"{where}: expected a rational string, got {type(value).__name__}")
    try:
        return parse_rational(value)
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from None


def _matrix_at(rows, where: str) -> Matrix:
    if not isinstance(rows, list) or not rows:
        raise InputError(f"{where}: expected a nonempty list of rows")
    parsed = []
    for r, row in enumerate(rows):
        if not isinstance(row, list) or not row:
            raise InputError(f"{where}[{r}]: expected a nonempty list of entries")
        parsed.append([_rational_at(x, f"{where}[{r}][{c}]") for c, x in enumerate(row)])
    widths = {len(row) for row in parsed}
    if len(widths) != 1:
        raise InputError(f"{where}: rows have mixed lengths {sorted(widths)}")
    return Matrix.from_rows(parsed)


def _count_at(value, where: str) -> int:
    if type(value) is int and value >= 1:
        return value
    # a long list or a deep nest printed whole fills megabytes of one error
    # line, so anything but a small int is named by its type
    got = value if type(value) is int and value > -10**18 else type(value).__name__
    raise InputError(f"{where}: expected a positive integer, got {got}")


def _poly2_at(value, where: str) -> Polynomial:
    if not isinstance(value, list) or len(value) != 2:
        raise InputError(f"{where}: expected [constant, t-coefficient]")
    return Polynomial((_rational_at(value[0], f"{where}[0]"), _rational_at(value[1], f"{where}[1]")))


def parse_instance_doc(doc) -> MatrixTuple | SpinorInstance:
    """Validate a parsed JSON document and build the instance it describes."""
    if not isinstance(doc, dict):
        raise InputError(f"top level: expected an object, got {type(doc).__name__}")
    kind = doc.get("kind")
    if kind in ("matrix-tuple", "colorful"):
        colorful = kind == "colorful"
        _require_keys(doc, {"kind", "n" if colorful else "shape", "matrices"}, "top level")
        if colorful:
            n = _count_at(doc["n"], "n")
            count, expected = n, f"{n} matrices"
        else:
            sizes = doc["shape"]
            if not isinstance(sizes, list) or not sizes:
                raise InputError("shape: expected a nonempty list of sizes")
            shape = Shape(tuple(_count_at(s, f"shape[{i}]") for i, s in enumerate(sizes)))
            count, expected = shape.k, f"{shape.k} matrices for this shape"
        mats = doc["matrices"]
        if not isinstance(mats, list) or len(mats) != count:
            raise InputError(f"matrices: expected {expected}")
        if colorful:
            shape = Shape((n,) * n)
        parsed = []
        for i, (rows, size) in enumerate(zip(mats, shape.sizes)):
            m = _matrix_at(rows, f"matrices[{i}]")
            if m.rows != size or m.cols != size:
                raise InputError(f"matrices[{i}]: expected {size}x{size}, got {m.rows}x{m.cols}")
            parsed.append(m)
        return (ColorfulInstance if colorful else MatrixTuple)(shape, tuple(parsed))
    if kind == "spinor":
        _require_keys(doc, {"kind", "n", "edges"}, "top level")
        n = _count_at(doc["n"], "n")
        edges = doc["edges"]
        expected = n * (n - 1) // 2
        if not isinstance(edges, list):
            raise InputError("edges: expected a list")
        if len(edges) != expected:
            raise InputError(f"edges: expected {expected} edges for n={n}, got {len(edges)}")
        found: dict[tuple[int, int], tuple[Polynomial, Polynomial]] = {}
        for e, entry in enumerate(edges):
            where = f"edges[{e}]"
            if not isinstance(entry, dict):
                raise InputError(f"{where}: expected an object")
            _require_keys(entry, {"i", "j", "p1", "p2"}, where)
            i = _count_at(entry["i"], f"{where}.i")
            j = _count_at(entry["j"], f"{where}.j")
            if not 1 <= i < j <= n:
                raise InputError(f"{where}: need 1 <= i < j <= {n}, got i={i}, j={j}")
            key = (i - 1, j - 1)
            if key in found:
                raise InputError(f"{where}: duplicate edge ({i}, {j})")
            found[key] = (_poly2_at(entry["p1"], f"{where}.p1"), _poly2_at(entry["p2"], f"{where}.p2"))
        return SpinorInstance(n, tuple(found[e] for e in edge_pairs(n)))
    raise InputError(f"kind: expected matrix-tuple, colorful or spinor, got {_shown(kind)}")


def load_instance(path: str) -> MatrixTuple | SpinorInstance:
    """Read and validate an instance file; "-" reads standard input."""
    import sys

    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply") from None
    return parse_instance_doc(doc)
