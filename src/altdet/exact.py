"""Exact rational scalars, dense matrices and one-variable polynomials.

Scalars are plain ``int`` or ``fractions.Fraction`` values; both are exact
and mix freely in arithmetic.  Functions that return a scalar always return
a ``Fraction`` in canonical form (reduced, positive denominator).  The text
format for scalars is an optional sign, a decimal integer, and an optional
``/`` followed by a positive decimal denominator: ``"-3/7"``, ``"4"``.

Matrices are immutable and stored row-major as nested tuples.  Determinants
use fraction-free Bareiss elimination: each column is scaled by the least
common multiple of its denominators (the scale is tracked and divided out
at the end), after which the elimination runs entirely over integers.

Polynomials are dense coefficient tuples; index ``d`` holds the coefficient
of ``t**d``.  A polynomial lives in the space of polynomials of degree < m
exactly when its tuple has length m.  The zero polynomial is an all-zero
tuple; its degree is undefined and never queried.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence, Union

from .errors import DimensionError, InputError, _shown

Scalar = Union[int, Fraction]

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """Parse the exact text format ("-3/7", "4") into a canonical Fraction."""
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise InputError(f"bad rational literal {_shown(text)}: expected e.g. '4' or '-3/7'")
    num, _, den = text.partition("/")
    try:
        num, den = int(num), int(den or 1)
    except ValueError as exc:  # past the interpreter's limit on integer strings
        raise InputError(f"rational literal of {len(text)} characters: {exc}") from None
    if den == 0:
        raise InputError(f"bad rational literal {_shown(text)}: zero denominator")
    return Fraction(num, den)


# str() of an int below this is allowed under any integer-string limit (>= 640)
_STR_SAFE = 10**600


def _decimal(x: int) -> str:
    """Decimal text of an int of any size, converted in halves below the limit."""
    if x < 0:
        return "-" + _decimal(-x)
    if x < _STR_SAFE:
        return str(x)
    k = x.bit_length() * 3 // 20  # about half the digits: log10(2) / 2 ~ 3 / 20
    high, low = divmod(x, 10**k)
    return _decimal(high) + _decimal(low).zfill(k)


def format_rational(value: Scalar) -> str:
    """Canonical text for a scalar of any size; round-trips exactly through parse_rational."""
    value = Fraction(value)
    text = _decimal(value.numerator)
    return text if value.denominator == 1 else f"{text}/{_decimal(value.denominator)}"


@dataclass(frozen=True)
class Matrix:
    """Immutable matrix over the rationals, entries stored as rows of tuples."""

    entries: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self):
        if not self.entries or not self.entries[0]:
            raise DimensionError("matrix must have at least one row and one column")
        width = len(self.entries[0])
        if any(len(row) != width for row in self.entries):
            raise DimensionError("matrix rows must all have the same length")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[Scalar]]) -> "Matrix":
        return cls(tuple(tuple(row) for row in rows))

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[Scalar]]) -> "Matrix":
        return cls(tuple(zip(*columns)))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def column(self, j: int) -> tuple[Scalar, ...]:
        return tuple(row[j] for row in self.entries)

    def columns(self) -> list[tuple[Scalar, ...]]:
        cols = list(zip(*self.entries))
        return cols

    def __str__(self) -> str:
        return "\n".join(" ".join(format_rational(x) for x in row) for row in self.entries)


def _int_det(a: list[list[int]]) -> int:
    """Bareiss elimination on an integer matrix, destroying ``a``.

    A row whose entry in the pivot column is 0 is skipped while the pivot
    equals the previous one: its update (x*pivot - 0*y) // prev is then x,
    so every entry stays as it is.
    """
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        row_k = a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            factor = row_i[k]
            if not factor and pivot == prev:
                continue
            for j in range(k + 1, n):
                # exact integer division, guaranteed by the Bareiss identity
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[-1][-1]


def int_scaled(values: Sequence[Scalar]) -> tuple[list[int], int]:
    """The values times the lcm of their denominators, and that lcm."""
    dens = [x.denominator for x in values]
    scale = lcm(*dens)
    if scale == 1:
        return [x.numerator for x in values], 1
    return [x.numerator * (scale // d) for x, d in zip(values, dens)], scale


def det(m: Matrix) -> Fraction:
    """Exact determinant of a square matrix."""
    if not m.is_square:
        raise DimensionError(f"determinant needs a square matrix, got {m.rows}x{m.cols}")
    # eliminate on the scaled columns as rows: det(A^T) = det(A)
    grid = []
    scale = 1
    for col in m.columns():
        ints, s = int_scaled(col)
        grid.append(ints)
        scale *= s
    return Fraction(_int_det(grid), scale)


@dataclass(frozen=True)
class Polynomial:
    """Dense polynomial in one variable; coeffs[d] is the t**d coefficient."""

    coeffs: tuple[Scalar, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise DimensionError("polynomial needs a coefficient tuple of length >= 1")

    @classmethod
    def zero(cls, ambient: int) -> "Polynomial":
        return cls((0,) * ambient)

    @property
    def ambient(self) -> int:
        """Length of the coefficient tuple, the m of the space it lives in."""
        return len(self.coeffs)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    @property
    def degree(self) -> int:
        for d in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[d] != 0:
                return d
        raise ValueError("the zero polynomial has no degree")

    def __call__(self, t: Scalar) -> Scalar:
        value = 0
        for c in reversed(self.coeffs):
            value = value * t + c
        return value

    def __str__(self) -> str:
        terms = []
        for d, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if d == 0:
                terms.append(format_rational(c))
            else:
                base = "t" if d == 1 else f"t^{d}"
                terms.append(base if c == 1 else f"{format_rational(c)}*{base}")
        return " + ".join(terms) if terms else "0"


def poly_mul(a: Polynomial, b: Polynomial, ambient: int) -> Polynomial:
    """Exact product of two polynomials, embedded in the degree-< ambient space.

    The product must fit: deg(a) + deg(b) < ambient, unless either factor is
    zero, in which case the result is the zero polynomial of the ambient space.
    """
    if a.is_zero or b.is_zero:
        return Polynomial.zero(ambient)
    da, db = a.degree, b.degree
    if da + db >= ambient:
        raise DimensionError(
            f"product degree {da + db} does not fit in V_{ambient} (degree < {ambient})"
        )
    out = [0] * ambient
    for i in range(da + 1):
        ca = a.coeffs[i]
        if ca == 0:
            continue
        for j in range(db + 1):
            out[i + j] += ca * b.coeffs[j]
    return Polynomial(tuple(out))


def poly_det(ps: Sequence[Polynomial]) -> Fraction:
    """Determinant of the coefficient matrix of n polynomials in V_n.

    Column i is the coefficient vector of ps[i]; row d holds the t**d
    coefficients.  Nonzero exactly when the polynomials are linearly
    independent.
    """
    n = len(ps)
    if n == 0:
        raise DimensionError("poly_det needs at least one polynomial")
    for p in ps:
        if p.ambient != n:
            raise DimensionError(f"expected ambient {n}, got a polynomial with {p.ambient} coefficients")
    rows = tuple(tuple(p.coeffs[d] for p in ps) for d in range(n))
    return det(Matrix(rows))
