"""Permutations as ``(parity, mapping)`` pairs, and the walk of a product group.

A permutation of {0..n-1} is a 0-based mapping tuple, and it travels with
its sign, +1 or -1, so consumers never recount inversions.  Each Sigma_n is
enumerated once per size, in lexicographic order from the identity, into a
cached pool of ``(parity, mapping)`` pairs.  Every sum over the group is
exact, so no result depends on that order.

`enumerate_product` walks a product of symmetric groups in mixed-radix
order over the pools, rightmost factor fastest, yielding the sign of each
element with its tuple of mappings.  It is the one walker of the product
group; the engine's alternating sums run on it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product
from math import factorial, prod
from typing import Iterator

from .errors import DimensionError


def _sign(m: tuple[int, ...]) -> int:
    """(-1) to the number of inversions of the mapping."""
    n = len(m)
    inversions = sum(m[a] > m[b] for a in range(n) for b in range(a + 1, n))
    return -1 if inversions % 2 else 1


@lru_cache(maxsize=None)
def _pool(n: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """All of Sigma_n as ``(parity, mapping)`` pairs, built once per size."""
    return tuple((_sign(m), m) for m in permutations(range(n)))


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
        """Size of the product group, the number of alternating-sum terms.

        Equal sizes are grouped into one power, so a shape of many equal
        factors costs one exponentiation, not a product of every factor.
        """
        return prod(factorial(s) ** k for s, k in Counter(self.sizes).items())

    @property
    def coefficient_count(self) -> int:
        """prod n_i**n_i, the coefficients of a dense form of this shape."""
        return prod(s ** (s * k) for s, k in Counter(self.sizes).items())

    def __iter__(self) -> Iterator[int]:
        return iter(self.sizes)


def enumerate_product(shape: Shape) -> Iterator[tuple[int, tuple[tuple[int, ...], ...]]]:
    """``(parity, mappings)`` of every element of the product group.

    Mixed-radix order over the per-factor pools, rightmost factor fastest;
    the parity is the product of the factor signs.
    """
    for picks in product(*(_pool(s) for s in shape.sizes)):
        parity = 1
        for sign, _ in picks:
            parity *= sign
        yield parity, tuple(m for _, m in picks)
