"""Permutations as ``(parity, mapping)`` pairs, and the walk of a product group.

A permutation of {0..n-1} is a 0-based mapping tuple, and it travels with
its sign, +1 or -1, so consumers never recount inversions.  Each Sigma_n is
enumerated once per size, in lexicographic order from the identity, into a
cached pool of ``(parity, mapping)`` pairs, and into a cached prefix tree.
Every sum over the group is exact, so no result depends on that order.

`walk` is the one walker of a product of symmetric groups: a depth-first
fold over column slots, block by block and, within a block, position by
position over the column indices not yet used, ascending.  A caller's step
carries a state down each path and may cut a subtree whose every
completion is zero; the parity is updated slot by slot.  The leaves come
in mixed-radix order over the lexicographic pools, rightmost factor
fastest.  `enumerate_product` is the walk whose state collects the
mappings, and the engine's alternating sums fold their forms on it.

`Shape` counts the terms of a product group and the coefficients of a
dense form, and charges either to a budget at the size gate, where a cheap
bound on the bit length refuses a count too large to build.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import permutations
from math import factorial, prod
from typing import Callable, Iterator, TypeVar

from .errors import DimensionError, charge

S = TypeVar("S")


def _sign(m: tuple[int, ...]) -> int:
    """(-1) to the number of inversions of the mapping."""
    n = len(m)
    inversions = sum(m[a] > m[b] for a in range(n) for b in range(a + 1, n))
    return -1 if inversions % 2 else 1


@lru_cache(maxsize=None)
def _pool(n: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """All of Sigma_n as ``(parity, mapping)`` pairs, built once per size."""
    return tuple((_sign(m), m) for m in permutations(range(n)))


def _floor_log2_factorial(n: int) -> int:
    """The sum of floor(log2 m) over m = 1..n, at most log2(n!), in O(log n) steps."""
    return sum(n + 1 - (1 << t) for t in range(1, n.bit_length()))


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

    @cached_property
    def _multiplicities(self) -> dict[int, int]:
        # equal sizes are grouped into one power, so a shape of many equal
        # factors costs one exponentiation, not a product of every factor
        return Counter(self.sizes)

    @property
    def term_count(self) -> int:
        """Size of the product group, the number of alternating-sum terms."""
        return prod(factorial(s) ** k for s, k in self._multiplicities.items())

    @property
    def coefficient_count(self) -> int:
        """prod n_i**n_i, the coefficients of a dense form of this shape."""
        return prod(s ** (s * k) for s, k in self._multiplicities.items())

    def charge_terms(self, budget: int, what: str) -> int:
        """`term_count` through the size gate, refused unbuilt when its bit-length bound is past the budget."""
        bits = 1 + sum(k * _floor_log2_factorial(s) for s, k in self._multiplicities.items())
        return charge(lambda: self.term_count, budget, what, bits=bits)

    def charge_coefficients(self, budget: int, what: str) -> int:
        """`coefficient_count` through the size gate, refused unbuilt when its bit-length bound is past the budget."""
        bits = 1 + sum(s * k * (s.bit_length() - 1) for s, k in self._multiplicities.items())
        return charge(lambda: self.coefficient_count, budget, what, bits=bits)

    def __iter__(self) -> Iterator[int]:
        return iter(self.sizes)


@lru_cache(maxsize=None)
def _trie(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """Sigma_n's prefix tree, depth first from the identity.

    Node (j, c, flip, past) puts column c at position j; ``flip`` is the
    parity of c's rank among the columns still free, the inversions it adds,
    and ``past`` indexes the first node after its subtree.
    """
    nodes = []

    def grow(free: tuple[int, ...], j: int):
        for rank, c in enumerate(free):
            at = len(nodes)
            nodes.append(None)
            grow(free[:rank] + free[rank + 1:], j + 1)
            nodes[at] = (j, c, rank & 1, len(nodes))

    grow(tuple(range(n)), 0)
    return tuple(nodes)


def walk(
    shape: Shape, start: S, step: Callable[[S, int, int, int], S | None]
) -> Iterator[tuple[int, S]]:
    """``(parity, state)`` at each leaf of the depth-first fold over column slots.

    The slot of position j in block i takes each column index c of block i
    not yet used, ascending, and ``step(state, i, j, c)`` gives the state
    below it, or None when every completion of the path is zero, which
    skips the subtree.  Unpruned leaves come in mixed-radix order over the
    lexicographic pools, rightmost factor fastest.  Each block walks its
    `_trie`; the walk keeps its own stack, so no shape is too deep for it.
    """
    sizes = shape.sizes
    last = len(sizes) - 1
    # one frame per open block: its trie cursor, and per position the state and parity above it
    frames = [[0, [start] + [None] * sizes[0], [1] * (sizes[0] + 1)]]
    while frames:
        i = len(frames) - 1
        frame = frames[i]
        t, states, parities = frame
        nodes = _trie(sizes[i])
        leaf = sizes[i] - 1
        while t < len(nodes):
            j, c, flip, past = nodes[t]
            below = step(states[j], i, j, c)
            if below is None:
                t = past
                continue
            t += 1
            parity = -parities[j] if flip else parities[j]
            if j < leaf:
                states[j + 1] = below
                parities[j + 1] = parity
            elif i == last:
                yield parity, below
            else:
                break
        else:
            frames.pop()
            continue
        # the block is full: open the next one below it
        frame[0] = t
        n = sizes[i + 1]
        frames.append([0, [below] + [None] * n, [parity] * (n + 1)])


def _extend(maps: tuple, i: int, j: int, c: int) -> tuple:
    """The mappings with column c at position j of block i; a block starts at j = 0."""
    return maps + ((c,),) if j == 0 else maps[:-1] + (maps[-1] + (c,),)


def enumerate_product(shape: Shape) -> Iterator[tuple[int, tuple[tuple[int, ...], ...]]]:
    """``(parity, mappings)`` of every element of the product group, from `walk`.

    Mixed-radix order over the per-factor pools, rightmost factor fastest;
    the parity is the product of the factor signs.
    """
    return walk(shape, (), _extend)
