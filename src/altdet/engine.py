"""Multilinear forms on matrix tuples and their alternating column sums.

The central quantity is sum over sigma of sgn(sigma) * f(sigma^-1 . A),
where sigma runs over the product of the column-permutation groups of the
matrices.  Column j of matrix i in sigma^-1 . A is column sigma_i(j) of A.

Each sum is one depth-first fold over the column slots, run by
`perms.walk`: block by block, and within block i position by position, the
slot of position j takes each column index c of A_i not used yet, so that
sigma_i(j) = c.  A form supplies a `Fold` for the column lists of A, built
once per call: a start state, a step that puts column c of A_i at position
j, and a finish that gives a leaf's exact value.  Terms that share a
column prefix share the steps above it.  A step may answer "every
completion is zero", and the walk skips that subtree.  Every term is still
its own exact value, and no fold uses the factorization under test; the
size gate charges the whole product group before the walk, pruned or not.
No permuted matrix is built; signed values are summed as they come (plain
ints for integer inputs) and one Fraction is made per sum.

The fold is the one evaluation body of every sum.  A plain form wraps a
function of a `MatrixTuple`: its default fold collects each path's
mappings and evaluates the term whole, building the matrices.  The dense,
colorful and spinor forms fold their own partial values.

For every form f the sum factors as a scalar, depending on f and the shape
alone, times the product of the matrix determinants.  That scalar is
recovered by running the same sum with every matrix set to the identity,
once per form: the value is kept on the form, and later calls charge the
budget and return it.  `colorful_form` and `spinor_form` return one shared
form per order, so repeated checks of one family and order take one
identity sum in all.  `verify_identity` checks the factorization exactly
on given inputs.

The colorful and spinor instances are matrix tuples too, of shapes
(n,...,n) and (2,...,2), so their forms take them as they are.
`SumReport` holds both sides of the factorization; the colorful and spinor
checks fill the same report with their own invariants, l(n) and n!.  Every
sum runs serially in one thread; `verify_identity` accepts ``threads=`` and
ignores it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import prod
from operator import itemgetter
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from .errors import DimensionError
from .exact import Matrix, Scalar, det
from .perms import Shape, _extend, walk

DEFAULT_TERM_BUDGET = 10**8


@dataclass(frozen=True)
class MatrixTuple:
    """A tuple of square matrices, one per shape factor."""

    shape: Shape
    matrices: tuple[Matrix, ...]

    def __post_init__(self):
        if len(self.matrices) != self.shape.k:
            raise DimensionError(
                f"shape has {self.shape.k} factors but {len(self.matrices)} matrices given"
            )
        for size, m in zip(self.shape.sizes, self.matrices):
            if m.rows != size or m.cols != size:
                raise DimensionError(f"expected a {size}x{size} matrix, got {m.rows}x{m.cols}")

    @classmethod
    def of(cls, matrices: Iterable[Matrix]) -> "MatrixTuple":
        ms = tuple(matrices)
        return cls(Shape(tuple(m.rows for m in ms)), ms)

    @classmethod
    def identity(cls, shape: Shape) -> "MatrixTuple":
        # one immutable identity per size, however many factors share it
        eye = {s: Matrix.identity(s) for s in set(shape.sizes)}
        return cls(shape, tuple(map(eye.__getitem__, shape.sizes)))

    @cached_property
    def determinants(self) -> tuple[Fraction, ...]:
        return tuple(det(m) for m in self.matrices)

    def columns(self) -> list[list[tuple[Scalar, ...]]]:
        """Each matrix's list of columns, the input of every fold."""
        return [m.columns() for m in self.matrices]

    @property
    def is_nonsingular(self) -> bool:
        """True when every factor determinant is nonzero."""
        return all(d != 0 for d in self.determinants)


class Fold(NamedTuple):
    """A form's alternating sum over one tuple, as `perms.walk` runs it.

    ``step(state, i, j, c)`` puts column c of matrix i at position j of its
    block and gives the state below, or None when every completion is zero;
    ``finish`` gives a leaf's term times ``scale``.
    """

    start: Any
    step: Callable[[Any, int, int, int], Any]
    finish: Callable[[Any], Scalar]
    scale: int = 1


class MultilinearForm:
    """A scalar function of a matrix tuple, linear in each column slot.

    `fold` is the one evaluation body: given, for each matrix, its list of
    columns, it folds the terms of the alternating sum slot by slot.  The
    sum, the invariant and, by default, a call on a `MatrixTuple` (the one
    path that keeps every column in place) all run it.  A plain instance
    wraps ``evaluator``, a function of a `MatrixTuple`: its fold collects
    each path's mappings and `evaluate_columns` builds the matrices for
    every term.  Subclasses override `fold` instead and pass no evaluator.
    The colorful form also overrides the call: one tuple needs only its n
    transversal determinants, not the table its fold builds.
    """

    # the sum at the identity, kept by `invariant_at_identity` once computed
    _invariant: Fraction | None = None

    def __init__(
        self,
        shape: Shape,
        evaluator: Callable[[MatrixTuple], Scalar] | None,
        description: str = "",
    ):
        self.shape = shape
        self.evaluator = evaluator
        self.description = description

    def evaluate_columns(self, cols: Sequence[Sequence[tuple[Scalar, ...]]]) -> Scalar:
        """The evaluator's value at the tuple whose matrix i has the columns cols[i]."""
        return self.evaluator(
            MatrixTuple(self.shape, tuple(Matrix.from_columns(c) for c in cols))
        )

    def fold(self, cols: Sequence[Sequence[tuple[Scalar, ...]]]) -> Fold:
        """The fold of the sum over the tuple whose matrix i has the columns cols[i].

        Column j of matrix i in sigma^-1 . A is column sigma_i(j) of A, so
        a leaf's mappings pick the columns of its term.
        """
        evaluate = self.evaluate_columns
        return Fold((), _extend, lambda maps: evaluate([[c[s] for s in m] for c, m in zip(cols, maps)]))

    def _columns(self, A: MatrixTuple) -> list[list[tuple[Scalar, ...]]]:
        """Each matrix's list of columns, once A is checked to have the form's shape."""
        if self.shape != A.shape:
            raise DimensionError(f"form shape {self.shape.sizes} != tuple shape {A.shape.sizes}")
        return A.columns()

    def __call__(self, A: MatrixTuple) -> Fraction:
        """The value at A: the fold's one path with every sigma_i the identity."""
        state, step, finish, scale = self.fold(self._columns(A))
        for i, n in enumerate(self.shape):
            for j in range(n):
                state = step(state, i, j, j)
                if state is None:
                    return Fraction(0)
        return Fraction(finish(state), scale)

    def __repr__(self) -> str:
        return f"MultilinearForm({self.shape.sizes}, {self.description!r})"


class DenseTensorForm(MultilinearForm):
    """A form given by explicit coefficients, one covector index per column.

    Slots run block by block, columns within a block in order, so a shape
    (n_1,...,n_k) has n_1 + ... + n_k slots and the coefficient array holds
    prod n_i**n_i entries in row-major order, last slot fastest.  The slot
    for column j of matrix i with index r selects entry (r, j) of that
    matrix, and the value is the coefficient-weighted sum of all entry
    products.

    The fold contracts the first remaining slot at each step: entry r of
    the slot's column weights the r-th of n equal slices of the vector,
    which leaves the coefficients of the later slots.  Terms that share a
    column prefix share its partial contraction, a zero column cuts its
    subtree, and a leaf is the one entry left.  When every column is a
    unit vector, as at the identity, a term is a single coefficient, and
    the state is its flat index, one digit per slot.
    """

    def __init__(self, shape: Shape, coeffs: Sequence[Scalar], description: str = "dense tensor"):
        size = shape.coefficient_count
        if len(coeffs) != size:
            raise DimensionError(f"shape {shape.sizes} needs {size} coefficients, got {len(coeffs)}")
        self.coeffs = tuple(coeffs)
        super().__init__(shape, None, description)

    def fold(self, cols: Sequence[Sequence[tuple[Scalar, ...]]]) -> Fold:
        if all(col.count(1) == 1 and col.count(0) == len(col) - 1 for block in cols for col in block):
            sizes = self.shape.sizes
            digits = [[col.index(1) for col in block] for block in cols]
            return Fold(0, lambda index, i, j, c: index * sizes[i] + digits[i][c], self.coeffs.__getitem__)

        def step(vec: Sequence[Scalar], i: int, j: int, c: int):
            col = cols[i][c]
            width = len(vec) // len(col)
            out = None
            for r, x in enumerate(col):
                if x:
                    part = vec[r * width:(r + 1) * width]
                    if out is None:
                        out = part if x == 1 else [x * y for y in part]
                    else:
                        out = [a + x * y for a, y in zip(out, part)]
            return out

        return Fold(self.coeffs, step, itemgetter(0))


def _fold_sum(shape: Shape, fold: Fold) -> Fraction:
    """The signed sum of the fold's leaves over the product group, over its scale.

    Every form's sum and the spinor direct sum run here; callers charge the terms first.
    """
    finish = fold.finish
    total: Scalar = 0
    for parity, state in walk(shape, fold.start, fold.step):
        value = finish(state)
        if value:
            total += value if parity > 0 else -value
    return Fraction(total, fold.scale)


def alternating_sum(
    f: MultilinearForm,
    A: MatrixTuple,
    *,
    term_budget: int = DEFAULT_TERM_BUDGET,
) -> Fraction:
    """Exact value of the signed sum of f over all column permutations of A."""
    cols = f._columns(A)
    A.shape.charge_terms(term_budget, "alternating sum has too many terms")
    return _fold_sum(A.shape, f.fold(cols))


def invariant_at_identity(
    f: MultilinearForm, *, term_budget: int = DEFAULT_TERM_BUDGET
) -> Fraction:
    """The scalar the alternating sum contributes beyond the determinants.

    Evaluating the sum at the all-identity tuple isolates it, since every
    determinant is then 1.  The first call on f runs that sum and keeps the
    value on f; every call charges the budget first, so a kept value never
    passes a budget its shape exceeds.
    """
    f.shape.charge_terms(term_budget, "alternating sum has too many terms")
    if f._invariant is None:
        f._invariant = _fold_sum(f.shape, f.fold([Matrix.identity(n).columns() for n in f.shape]))
    return f._invariant


@dataclass(frozen=True)
class SumReport:
    """Both sides of alternating sum = invariant * product of determinants."""

    lhs: Fraction
    rhs: Fraction
    invariant: Scalar
    determinants: tuple[Fraction, ...]
    term_count: int

    @classmethod
    def of(
        cls, lhs: Fraction, invariant: Scalar, determinants: tuple[Fraction, ...], term_count: int
    ) -> "SumReport":
        """The report whose right side is the invariant times the determinants."""
        rhs = prod(determinants, start=Fraction(invariant))
        return cls(lhs, rhs, invariant, determinants, term_count)

    @property
    def verdict(self) -> bool:
        return self.lhs == self.rhs

    @property
    def latin_count(self) -> Scalar:
        """The invariant under its colorful name, the signed Latin count l(n)."""
        return self.invariant


def verify_identity(
    f: MultilinearForm,
    A: MatrixTuple,
    *,
    threads: int = 1,
    term_budget: int = DEFAULT_TERM_BUDGET,
) -> SumReport:
    """Check alternating sum = invariant * product of determinants, exactly.

    The sum over A runs on every call; the invariant is f's kept value
    after the first (see `invariant_at_identity`).
    """
    lhs = alternating_sum(f, A, term_budget=term_budget)
    inv = invariant_at_identity(f, term_budget=term_budget)
    return SumReport.of(lhs, inv, A.determinants, A.shape.term_count)
