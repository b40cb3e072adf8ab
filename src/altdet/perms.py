"""Signed permutations, the enumeration of Sigma_n and its products, and the column action.

Permutations are stored as 0-based mapping tuples with the sign carried
alongside, so consumers never recount inversions.  Each Sigma_n is
enumerated once per size, in lexicographic order from the identity, into a
cached pool of ``(parity, mapping)`` pairs.  Every sum over the group is
exact, so no result depends on that order.

Products of symmetric groups enumerate in mixed-radix order over the
pools, rightmost factor fastest.  Hot loops read the pools directly, or
take the raw ``(parity, mappings)`` of each element from one private
walker; `enumerate_signed` and `enumerate_product` wrap the same pools in
validated `SignedPerm`s and `SignedPermTuple`s.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import permutations, product
from math import factorial
from typing import TYPE_CHECKING, Iterable, Iterator

from .errors import DimensionError
from .exact import Matrix

if TYPE_CHECKING:
    from .engine import MatrixTuple


def _sign(m: tuple[int, ...]) -> int:
    """(-1) to the number of inversions of the mapping."""
    n = len(m)
    inversions = sum(m[a] > m[b] for a in range(n) for b in range(a + 1, n))
    return -1 if inversions % 2 else 1


@dataclass(frozen=True)
class SignedPerm:
    """A permutation of {0..n-1} as a mapping tuple, with its sign attached."""

    mapping: tuple[int, ...]
    parity: int

    def __post_init__(self):
        n = len(self.mapping)
        if n == 0:
            raise DimensionError("permutations need at least one point")
        if sorted(self.mapping) != list(range(n)):
            raise DimensionError(f"not a permutation of 0..{n - 1}: {self.mapping!r}")
        if self.parity != _sign(self.mapping):
            raise DimensionError(f"parity {self.parity!r} disagrees with the mapping {self.mapping!r}")

    @classmethod
    def from_mapping(cls, mapping: Iterable[int]) -> "SignedPerm":
        """Build from a mapping alone, counting inversions for the sign."""
        m = tuple(mapping)
        return cls(m, _sign(m))

    @classmethod
    def identity(cls, n: int) -> "SignedPerm":
        return cls(tuple(range(n)), 1)

    @property
    def n(self) -> int:
        return len(self.mapping)

    def __call__(self, j: int) -> int:
        return self.mapping[j]

    @cached_property
    def inverse(self) -> "SignedPerm":
        out = [0] * len(self.mapping)
        for i, v in enumerate(self.mapping):
            out[v] = i
        return SignedPerm(tuple(out), self.parity)

    def __mul__(self, other: "SignedPerm") -> "SignedPerm":
        """Composition self o other, applying ``other`` first."""
        if other.n != self.n:
            raise DimensionError("cannot compose permutations of different sizes")
        return SignedPerm(
            tuple(self.mapping[v] for v in other.mapping), self.parity * other.parity
        )


@lru_cache(maxsize=None)
def _pool(n: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """All of Sigma_n as ``(parity, mapping)`` pairs, built once per size.

    n < 1 is rejected by SignedPerm, which sees the one empty mapping.
    """
    return tuple((SignedPerm.from_mapping(m).parity, m) for m in permutations(range(n)))


def enumerate_signed(n: int) -> Iterator[SignedPerm]:
    """Stream Sigma_n in lexicographic order, from the identity."""
    for parity, mapping in _pool(n):
        yield SignedPerm(mapping, parity)


@dataclass(frozen=True)
class Shape:
    """Sizes (n_1,...,n_k) of the square matrices a tuple is made of."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        if not self.sizes:
            raise DimensionError("a shape needs at least one factor")
        if any(s < 1 for s in self.sizes):
            raise DimensionError(f"shape sizes must be positive: {self.sizes!r}")

    @classmethod
    def of(cls, *sizes: int) -> "Shape":
        return cls(tuple(sizes))

    @property
    def k(self) -> int:
        return len(self.sizes)

    @property
    def term_count(self) -> int:
        """Size of the product group, the number of alternating-sum terms."""
        out = 1
        for s in self.sizes:
            out *= factorial(s)
        return out

    def __iter__(self) -> Iterator[int]:
        return iter(self.sizes)


@dataclass(frozen=True)
class SignedPermTuple:
    """One element of the product group, sign = product of factor signs."""

    parts: tuple[SignedPerm, ...]
    parity: int

    def __post_init__(self):
        if not self.parts:
            raise DimensionError("a permutation tuple needs at least one factor")
        prod = 1
        for p in self.parts:
            prod *= p.parity
        if self.parity != prod:
            raise DimensionError("tuple parity must be the product of part parities")

    @classmethod
    def of(cls, parts: Iterable[SignedPerm]) -> "SignedPermTuple":
        ps = tuple(parts)
        prod = 1
        for p in ps:
            prod *= p.parity
        return cls(ps, prod)

    @classmethod
    def identity(cls, shape: Shape) -> "SignedPermTuple":
        return cls.of(SignedPerm.identity(s) for s in shape)

    @cached_property
    def inverse(self) -> "SignedPermTuple":
        return SignedPermTuple(tuple(p.inverse for p in self.parts), self.parity)

    def __mul__(self, other: "SignedPermTuple") -> "SignedPermTuple":
        if len(self.parts) != len(other.parts):
            raise DimensionError("cannot compose tuples with different factor counts")
        return SignedPermTuple.of(a * b for a, b in zip(self.parts, other.parts))


def _walk_product(shape: Shape) -> Iterator[tuple[int, tuple[tuple[int, ...], ...]]]:
    """Raw ``(parity, mappings)`` of every element of the product group.

    The one mixed-radix walk of the product group over the per-factor
    pools, rightmost factor fastest.
    """
    for picks in product(*(_pool(s) for s in shape.sizes)):
        parity = 1
        for sign, _ in picks:
            parity *= sign
        yield parity, tuple(m for _, m in picks)


def enumerate_product(shape: Shape) -> Iterator[SignedPermTuple]:
    """Stream the product group in mixed-radix order, rightmost factor fastest."""
    factors = [list(enumerate_signed(s)) for s in shape.sizes]
    for parts in product(*factors):
        yield SignedPermTuple.of(parts)


def act(sigma: SignedPermTuple, A: "MatrixTuple") -> "MatrixTuple":
    """Column-permute each matrix: column j of the image is column rho^-1(j).

    A pure left action, so acting by a product equals acting twice.
    """
    mats = A.matrices
    if len(sigma.parts) != len(mats):
        raise DimensionError(
            f"permutation tuple has {len(sigma.parts)} factors, matrix tuple has {len(mats)}"
        )
    moved = []
    for rho, m in zip(sigma.parts, mats):
        if rho.n != m.cols:
            raise DimensionError(f"factor size {rho.n} does not match a {m.rows}x{m.cols} matrix")
        cols = m.columns()
        inv = rho.inverse.mapping
        moved.append(Matrix.from_columns([cols[inv[j]] for j in range(rho.n)]))
    return replace(A, matrices=tuple(moved))
