"""Multilinear forms on matrix tuples and their alternating column sums.

The central quantity is sum over sigma of sgn(sigma) * f(sigma^-1 . A),
where sigma runs over the product of the column-permutation groups of the
matrices.  Column j of matrix i in sigma^-1 . A is column sigma_i(j) of A,
so each term is computed literally: the sum walks the (parity, mappings)
pairs of `perms.enumerate_product` and hands the form, by index, the columns
of A it reads, taken from column lists built once per call.  No permuted
matrix is built; signed values are summed as they come (plain ints for
integer inputs) and one Fraction is made per sum.

Forms read columns: `MultilinearForm.evaluate_columns` is the one
evaluation body of every form.  A plain form wraps a function of a
`MatrixTuple` and builds the matrices for each evaluation; the dense,
colorful and spinor forms read the column lists directly.

For every form f the sum factors as a scalar, depending on f and the shape
alone, times the product of the matrix determinants.  That scalar is
recovered by running the same sum with every matrix set to the identity,
and `verify_identity` checks the factorization exactly on given inputs.
At the identity a term is the form's value on permuted unit columns; a
dense form reads it as the one coefficient whose slot digits are the
mappings, with no contraction.

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
from typing import Callable, Iterable, Sequence

from .errors import DimensionError, charge
from .exact import Matrix, Scalar, det
from .perms import Shape, enumerate_product

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
        return cls(shape, tuple(Matrix.identity(s) for s in shape))

    @cached_property
    def determinants(self) -> tuple[Fraction, ...]:
        return tuple(det(m) for m in self.matrices)

    @property
    def is_nonsingular(self) -> bool:
        """True when every factor determinant is nonzero."""
        return all(d != 0 for d in self.determinants)


Mappings = tuple[tuple[int, ...], ...]
Term = Callable[[Mappings], Scalar]


class MultilinearForm:
    """A scalar function of a matrix tuple, linear in each column slot.

    `evaluate_columns` is the one evaluation body: it takes, for each
    matrix, its list of columns.  Calling the form on a `MatrixTuple`
    delegates to it, and so do the alternating sum and the invariant, which
    hand it the columns of each term by index.  A plain instance wraps
    ``evaluator``, a function of a `MatrixTuple`; its `evaluate_columns`
    builds the matrices for every evaluation.  Subclasses override
    `evaluate_columns` instead and pass no evaluator.
    """

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
        """The value at the tuple whose matrix i has the columns cols[i]."""
        return self.evaluator(
            MatrixTuple(self.shape, tuple(Matrix.from_columns(c) for c in cols))
        )

    def __call__(self, A: MatrixTuple) -> Scalar:
        return self.evaluate_columns([m.columns() for m in A.matrices])

    def column_term(self, A: MatrixTuple) -> Term:
        """The alternating-sum term: the mappings of sigma -> f(sigma^-1 . A).

        Column j of matrix i in sigma^-1 . A is column sigma_i(j) of A.
        """
        cols = [m.columns() for m in A.matrices]
        evaluate = self.evaluate_columns
        return lambda maps: evaluate([[c[s] for s in m] for c, m in zip(cols, maps)])

    def identity_term(self) -> Term:
        """The invariant's term: the mappings of sigma -> f(sigma^-1 . I)."""
        return self.column_term(MatrixTuple.identity(self.shape))

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

    Evaluation contracts one slot at a time, last slot first: entry r of
    the last slot's column weights the stride-n slice starting at r.  At a
    permuted identity tuple only one coefficient survives, the one whose
    slot digits are sigma_i(j), so `identity_term` is a single lookup.
    """

    def __init__(self, shape: Shape, coeffs: Sequence[Scalar], description: str = "dense tensor"):
        size = shape.coefficient_count
        if len(coeffs) != size:
            raise DimensionError(f"shape {shape.sizes} needs {size} coefficients, got {len(coeffs)}")
        self.coeffs = tuple(coeffs)
        super().__init__(shape, None, description)

    def evaluate_columns(self, cols: Sequence[Sequence[tuple[Scalar, ...]]]) -> Scalar:
        vec: Sequence[Scalar] = self.coeffs
        for block in reversed(cols):
            n = len(block)
            for col in reversed(block):
                out = None
                for r, c in enumerate(col):
                    if not c:
                        continue
                    if out is None:
                        out = [c * y for y in vec[r::n]]
                    else:
                        out = [x + c * y for x, y in zip(out, vec[r::n])]
                if out is None:
                    return 0
                vec = out
        return vec[0]

    def identity_term(self) -> Term:
        coeffs = self.coeffs
        sizes = self.shape.sizes

        def term(maps: Mappings) -> Scalar:
            index = 0
            for n, m in zip(sizes, maps):
                for s in m:
                    index = index * n + s
            return coeffs[index]

        return term


def _signed_sum(shape: Shape, term: Term) -> Fraction:
    """The signed sum of ``term`` over the product group; callers charge its terms at the gate first."""
    total: Scalar = 0
    for parity, maps in enumerate_product(shape):
        value = term(maps)
        if value:
            total += value if parity > 0 else -value
    return Fraction(total)


def alternating_sum(
    f: MultilinearForm,
    A: MatrixTuple,
    *,
    term_budget: int = DEFAULT_TERM_BUDGET,
) -> Fraction:
    """Exact value of the signed sum of f over all column permutations of A."""
    if f.shape != A.shape:
        raise DimensionError(f"form shape {f.shape.sizes} != tuple shape {A.shape.sizes}")
    charge(A.shape.term_count, term_budget, "alternating sum has too many terms")
    return _signed_sum(A.shape, f.column_term(A))


def invariant_at_identity(
    f: MultilinearForm, *, term_budget: int = DEFAULT_TERM_BUDGET
) -> Fraction:
    """The scalar the alternating sum contributes beyond the determinants.

    Evaluating the sum at the all-identity tuple isolates it, since every
    determinant is then 1.
    """
    charge(f.shape.term_count, term_budget, "alternating sum has too many terms")
    return _signed_sum(f.shape, f.identity_term())


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
    """Check alternating sum = invariant * product of determinants, exactly."""
    lhs = alternating_sum(f, A, term_budget=term_budget)
    inv = invariant_at_identity(f, term_budget=term_budget)
    return SumReport.of(lhs, inv, A.determinants, A.shape.term_count)
