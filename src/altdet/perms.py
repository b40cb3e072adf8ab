"""Signed permutation streams in plain-changes order, and the column action.

Permutations are stored as 0-based mapping tuples with the sign carried
alongside, so consumers never recount inversions.  Enumeration follows the
plain-changes order (Steinhaus-Johnson-Trotter): successive permutations
differ by one adjacent transposition, so the sign alternates and equals
(-1)**rank.  Ranks live in the factorial number system: `unrank` and `rank`
convert between a rank and its permutation.

Products of symmetric groups enumerate in mixed-radix order over per-factor
ranks, rightmost factor fastest.  One private walker yields the raw
``(parity, mappings)`` of each element for hot loops; `enumerate_product`
wraps the same walk in validated `SignedPermTuple`s.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import product
from math import factorial
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .errors import DimensionError
from .exact import Matrix

if TYPE_CHECKING:
    from .engine import MatrixTuple


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
        if self.parity not in (-1, 1):
            raise DimensionError(f"parity must be +1 or -1, got {self.parity!r}")

    @classmethod
    def from_mapping(cls, mapping: Iterable[int]) -> "SignedPerm":
        """Build from a mapping alone, counting inversions for the sign."""
        m = tuple(mapping)
        n = len(m)
        inversions = sum(m[a] > m[b] for a in range(n) for b in range(a + 1, n))
        return cls(m, -1 if inversions % 2 else 1)

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


def unrank(n: int, r: int) -> SignedPerm:
    """The permutation at position ``r`` of the plain-changes order on n points."""
    if n < 1:
        raise DimensionError("permutations need at least one point")
    if not 0 <= r < factorial(n):
        raise DimensionError(f"rank {r} out of range for n={n}")
    return SignedPerm(tuple(_unrank_word(n, r)), -1 if r % 2 else 1)


def rank(mapping: Sequence[int]) -> int:
    """Position of a mapping in the plain-changes order; inverse of unrank."""
    word = list(mapping)
    n = len(word)
    ds = []
    for k in range(n, 1, -1):
        p = word.index(k - 1)
        word.pop(p)
        ds.append(p)
    r = 0
    for k, p in zip(range(2, n + 1), reversed(ds)):
        d = (k - 1 - p) if r % 2 == 0 else p
        r = r * k + d
    return r


def _unrank_word(n: int, r: int) -> list[int]:
    """Arrangement at rank r: insert each element at its factorial-digit slot.

    At level k the digit d = r mod k places element k-1; the direction of the
    sweep alternates with the parity of the remaining quotient, matching the
    adjacent-transposition order.
    """
    levels = []
    for k in range(n, 1, -1):
        r, d = divmod(r, k)
        levels.append((k, d, r))
    word = [0]
    for k, d, q in reversed(levels):
        pos = (k - 1 - d) if q % 2 == 0 else d
        word.insert(pos, k - 1)
    return word


def _step(word: list[int], dirs: list[int]) -> bool:
    """Advance one adjacent transposition; False when no element is mobile."""
    n = len(word)
    best = -1
    best_at = -1
    for i, v in enumerate(word):
        j = i + dirs[v]
        if 0 <= j < n and word[j] < v and v > best:
            best = v
            best_at = i
    if best < 0:
        return False
    j = best_at + dirs[best]
    word[best_at], word[j] = word[j], word[best_at]
    for v in range(best + 1, n):
        dirs[v] = -dirs[v]
    return True


def enumerate_signed(n: int) -> Iterator[SignedPerm]:
    """Stream Sigma_n in plain-changes order, from the identity."""
    if n < 1:
        raise DimensionError("permutations need at least one point")
    word = list(range(n))
    dirs = [-1] * n
    sign = 1
    while True:
        yield SignedPerm(tuple(word), sign)
        if not _step(word, dirs):
            return
        sign = -sign


@lru_cache(maxsize=None)
def _pool(n: int) -> tuple[SignedPerm, ...]:
    """All of Sigma_n in plain-changes order, materialized once per size."""
    return tuple(enumerate_signed(n))


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

    def __len__(self) -> int:
        return len(self.sizes)


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

    @property
    def shape(self) -> Shape:
        return Shape(tuple(p.n for p in self.parts))

    @cached_property
    def inverse(self) -> "SignedPermTuple":
        return SignedPermTuple(tuple(p.inverse for p in self.parts), self.parity)

    def __mul__(self, other: "SignedPermTuple") -> "SignedPermTuple":
        if len(self.parts) != len(other.parts):
            raise DimensionError("cannot compose tuples with different factor counts")
        return SignedPermTuple.of(a * b for a, b in zip(self.parts, other.parts))


def _walk_product(shape: Shape) -> Iterator[tuple[int, tuple[tuple[int, ...], ...]]]:
    """Raw ``(parity, mappings)`` of every element of the product group.

    The one mixed-radix walk of the product group: per-factor plain-changes
    ranks, rightmost factor fastest.
    """
    pools = [[(p.parity, p.mapping) for p in _pool(s)] for s in shape.sizes]
    for picks in product(*pools):
        parity = 1
        for sign, _ in picks:
            parity *= sign
        yield parity, tuple(m for _, m in picks)


def enumerate_product(shape: Shape) -> Iterator[SignedPermTuple]:
    """Stream the product group in mixed-radix order, rightmost factor fastest."""
    by_mapping = [{p.mapping: p for p in _pool(s)} for s in shape.sizes]
    for parity, maps in _walk_product(shape):
        yield SignedPermTuple(tuple(look[m] for look, m in zip(by_mapping, maps)), parity)


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
