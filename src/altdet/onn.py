"""Colorful determinant products, signed Latin-square counts, transversal search.

The colorful form of order n takes n matrices of size n and multiplies the
determinants assembled from the j-th column of each matrix, j = 1..n.  Its
identity-matrix invariant equals the signed Latin-square count l(n): the
number of even order-n squares minus the number of odd ones.  That gives
the specialized identity

    sum over sigma tuples of sgn(sigma) * prod_j det(j-th transversal)
        = l(n) * det(1A) * ... * det(nA),

which this module checks directly, and which powers the transversal search:
whenever l(n) != 0 and every matrix is nonsingular, some term on the left
is nonzero, so a full selection of disjoint nonzero transversals exists.

Two independent routes compute l(n): a cell-by-cell enumeration of Latin
squares with an incrementally maintained sign, and the engine's invariant
of the colorful form.  Tests require them to agree, which also pins the
sign convention for a square (product of the signs of all rows and all
columns read as permutations).  The enumeration is orbit-reduced: for odd
n >= 3, swapping two rows flips the sign of every column, so l(n) = 0; for
even n, permuting rows or symbols keeps the sign, so l(n) is n!(n-1)! times
the signed count of reduced squares (first row and first column the
identity), as in L(n) = n!(n-1)!R(n) of McKay & Wanless (Ann. Comb. 2005).

The direct check uses position symmetry: for pi in Sigma_n, the bijection
(sigma_1,...,sigma_n) -> (sigma_1 pi,...,sigma_n pi) only reorders the
transversals and multiplies the sign by sgn(pi)**n, so the left side is 0
for odd n >= 3 and otherwise n! times its part with sigma_1 the identity.
That part is a fold on `perms.walk` over sigma_2..sigma_(n-1), summed by
the engine's signed sum: its state is the n keys into an integer table of
transversal determinants, and each leaf sums the last permutation out in
one integer determinant.
The transversal search drops every partial selection whose picked columns
are already linearly dependent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import factorial, prod
from typing import Iterator

from .engine import DEFAULT_TERM_BUDGET, Fold, MatrixTuple, MultilinearForm, SumReport, _fold_sum
from .errors import BudgetError, DimensionError, InputError, charge
from .exact import Matrix, _int_det, det, int_scaled
from .perms import Shape, _extend, _sign, walk

DEFAULT_NODE_BUDGET = 10**7
MAX_FULL_ORDER = 7
# L(n), the number of order-n Latin squares, for n = 1..MAX_FULL_ORDER
LATIN_SQUARE_COUNTS = (1, 2, 12, 576, 161280, 812851200, 61479419904000)


@dataclass(frozen=True)
class LatinSquare:
    """An n x n grid whose rows and columns each permute {0..n-1}."""

    grid: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.grid)
        if n == 0 or any(len(row) != n for row in self.grid):
            raise DimensionError("a Latin square needs a nonempty square grid")
        marks = list(range(n))
        for row in self.grid:
            if sorted(row) != marks:
                raise InputError(f"row {row!r} is not a permutation of 0..{n - 1}")
        for j in range(n):
            if sorted(row[j] for row in self.grid) != marks:
                raise InputError(f"column {j} is not a permutation of 0..{n - 1}")

    @property
    def n(self) -> int:
        return len(self.grid)


def latin_sign(square: LatinSquare) -> int:
    """Product of the signs of all n rows and all n columns as permutations."""
    sign = 1
    for line in square.grid + tuple(zip(*square.grid)):
        sign *= _sign(line)
    return sign


def latin_squares(n: int) -> Iterator[LatinSquare]:
    """All order-n Latin squares, cells filled row-major with values ascending.

    A fold on `perms.walk` over Sigma_n^n, one block per row: the state is
    the rows so far, and a step that puts a value in a column where an
    earlier row already has it cuts the subtree.
    """
    if n < 1:
        raise DimensionError("Latin squares need order >= 1")

    def step(rows: tuple, i: int, j: int, c: int):
        if any(row[j] == c for row in rows[:i]):
            return None
        return _extend(rows, i, j, c)

    for _, rows in walk(Shape((n,) * n), (), step):
        yield LatinSquare(rows)


def _signed_completions(
    n: int, cols: list[int], start_row: int, sign: int, *, reduced: bool = False
) -> int:
    """Signed count of ways to finish rows start_row..n-1 given column masks.

    Placing value v at (r, c) adds one inversion to row r for each larger
    value already in the row, and to column c for each larger value already
    in the column; both live in the masks, so the sign update is two
    popcounts.  With ``reduced``, cell (r, 0) is pinned to r, as in a
    reduced square: every value above it in column 0 is smaller and its row
    is still empty, so it adds no inversion and each row starts at column 1.
    """
    if start_row == n:
        return sign
    full = (1 << n) - 1
    first = 1 if reduced else 0
    total = 0

    def fill(r: int, c: int, row_mask: int, sign: int):
        nonlocal total
        if c == n:
            if r + 1 == n:
                total += sign
            else:
                # a reduced row starts with value r + 1 already in its mask
                fill(r + 1, first, first << (r + 1), sign)
            return
        avail = full & ~row_mask & ~cols[c]
        while avail:
            bit = avail & -avail
            avail ^= bit
            v = bit.bit_length() - 1
            flips = (row_mask >> (v + 1)).bit_count() + (cols[c] >> (v + 1)).bit_count()
            cols[c] |= bit
            fill(r, c + 1, row_mask | bit, -sign if flips & 1 else sign)
            cols[c] ^= bit

    fill(start_row, first, first << start_row, sign)
    return total


def alon_tarsi_count(
    n: int, *, threads: int = 1, term_budget: int = DEFAULT_TERM_BUDGET
) -> int:
    """l(n): even minus odd order-n Latin squares, by orbit reduction.

    Odd n >= 3 gives 0: swapping two rows flips the sign of every column.
    For even n (and n = 1) every square shares its sign with the one reduced
    square in its orbit under row and symbol permutations, and each orbit
    has n!(n-1)! squares, so l(n) is n!(n-1)! times the signed count of
    reduced squares, taken by the masked DFS over rows 1..n-1 with column 0
    pinned.  The count stands for L(n) squares, the number of order-n Latin
    squares, charged to ``term_budget`` at the size gate before any work.
    ``threads`` is accepted and ignored: the count runs serially.
    """
    if n < 1:
        raise DimensionError("Latin squares need order >= 1")
    if n > MAX_FULL_ORDER:
        raise BudgetError(f"Latin square counts are capped at order {MAX_FULL_ORDER}, got {n}")
    charge(LATIN_SQUARE_COUNTS[n - 1], term_budget, "Latin square enumeration has too many terms")
    if n % 2 and n > 1:
        return 0
    # first row the identity: column c holds value c, and the row's sign is +1
    reduced = _signed_completions(n, [1 << c for c in range(n)], 1, 1, reduced=True)
    return factorial(n) * factorial(n - 1) * reduced


class ColorfulInstance(MatrixTuple):
    """n square matrices of size n, the inputs of the colorful identity."""

    def __post_init__(self):
        super().__post_init__()
        if any(size != self.n for size in self.shape.sizes):
            raise DimensionError(f"colorful instances need n matrices of size n, got {self.shape.sizes}")

    @property
    def n(self) -> int:
        return self.shape.k

    def as_matrix_tuple(self) -> MatrixTuple:
        return MatrixTuple(self.shape, self.matrices)


class _ColorfulForm(MultilinearForm):
    def __init__(self, n: int):
        self.n = n
        super().__init__(Shape.of(*([n] * n)), None, f"colorful order {n}")

    def fold(self, cols) -> Fold:
        n = self.n
        last = n - 1
        base = n + 1  # n = 1 still grows a key by one digit per matrix
        scaled = [[int_scaled(col) for col in block] for block in cols]
        # a term picks each column of each matrix once, so every term has the same scale
        scale = prod(s for block in scaled for _, s in block)
        # per key, the Bareiss rows of its picked columns, the determinant
        # once all n are picked, or None once they are dependent
        memo: dict[int, list | int | None] = {1: []}

        def step(keys: tuple[int, ...], i: int, j: int, c: int):
            parent = keys[0]
            key = parent * base + c
            if key not in memo:
                basis = memo[parent]
                reduced = _eliminate(scaled[i][c][0], basis)
                if reduced is None:
                    memo[key] = None
                elif i < last:
                    memo[key] = basis + [reduced]
                else:
                    # the last pivot is the determinant with the columns in pivot order
                    pivots = tuple(p for p, _ in basis) + (reduced[0],)
                    memo[key] = _sign(pivots) * reduced[1][reduced[0]]
            if memo[key] is None:
                return None
            # the key of position j leaves the front and comes back extended
            return keys[1:] + (key,)

        return Fold((1,) * n, step, lambda keys: prod(memo[k] for k in keys), scale)


def colorful_form(n: int) -> MultilinearForm:
    """The order-n form: product over j of det(column j of each matrix).

    Its fold keeps, for each position j, the key of the columns picked for
    transversal j so far: a leading 1, then one base-(n+1) digit per matrix.
    A memo on those keys, built for each sum, holds the fraction-free
    elimination of the picked columns, scaled once to integers, so a prefix
    whose columns are already dependent cuts its subtree; at the identity
    that is every prefix with a repeated column.  A full key holds its
    integer determinant, the last pivot signed by the pivot order.
    """
    if n < 1:
        raise DimensionError("colorful forms need n >= 1")
    return _ColorfulForm(n)


def _transversal_det_table(inst: ColorfulInstance) -> tuple[list[int], int]:
    """Determinant of every possible assembled transversal, scaled to integers.

    Index encodes the chosen column of each matrix in base n, matrix 1 most
    significant.  Size n**n; at n = 4 that is 256 determinants.  Matrix i is
    scaled once by the lcm s_i of its denominators, so every entry is an
    integer Bareiss determinant of integer columns, and the table's scale,
    returned with it, is s_1 * ... * s_n.
    """
    n = inst.n
    cols = []
    scale = 1
    for m in inst.matrices:
        ints, s = int_scaled([x for row in m.entries for x in row])
        cols.append([ints[c::n] for c in range(n)])
        scale *= s
    # picked columns as rows: det(A^T) = det(A)
    picks = product(range(n), repeat=n)
    return [_int_det([cols[i][c][:] for i, c in enumerate(p)]) for p in picks], scale


def _onn_partial(n: int, table: list[int], scale: int) -> Fraction:
    """Signed sum over the tuples whose first permutation is the identity.

    By position symmetry every other tuple repeats one of these terms, with
    the sign times sgn(pi)**n, so the whole sum is n! times this one for
    even n.  sigma_1 = id sets the per-position table keys k_j to j, the
    fold's start; a step puts sigma_i(j) = c, i = 2..n-1, and extends k_j
    by one Horner digit, k_j*n + c.  The finish sums the last permutation
    out whole: the sum over sigma_n of sgn(sigma_n) times the product over
    j of table[k_j*n + sigma_n(j)] is det(M) with M[j][c] = table[k_j*n + c],
    one integer Bareiss determinant per leaf, and each of the n table
    entries of a term carries ``scale``.  For n <= 2 nothing is left to
    walk: the finish of the start is the sum.
    """

    def finish(keys: tuple[int, ...]) -> int:
        return _int_det([table[k * n:k * n + n] for k in keys])

    def step(keys: tuple[int, ...], i: int, j: int, c: int) -> tuple[int, ...]:
        # the key of position j leaves the front and comes back extended
        return keys[1:] + (keys[0] * n + c,)

    start = tuple(range(n))
    if n <= 2:
        return Fraction(finish(start), scale**n)
    return _fold_sum(Shape((n,) * (n - 2)), Fold(start, step, finish, scale**n))


def verify_onn(
    inst: ColorfulInstance,
    *,
    threads: int = 1,
    term_budget: int = DEFAULT_TERM_BUDGET,
) -> SumReport:
    """Check the colorful identity on one instance, exactly.

    The left side sums (n!)**n signed products of transversal determinants,
    charged to ``term_budget`` at the size gate; by position symmetry it is
    0 for odd n >= 3 and otherwise n! times the part with sigma_1 the
    identity, (n!)**(n-2) integer determinants.  The right side is l(n)
    times the product of the matrix determinants.  ``threads`` is accepted
    and ignored: the check runs serially.
    """
    n = inst.n
    terms = Shape((n,) * n).charge_terms(term_budget, "colorful alternating sum has too many terms")
    if n % 2 and n > 1:
        lhs = Fraction(0)
    else:
        lhs = factorial(n) * _onn_partial(n, *_transversal_det_table(inst))
    return SumReport.of(lhs, alon_tarsi_count(n, term_budget=term_budget), inst.determinants, terms)


@dataclass(frozen=True)
class TransversalSelection:
    """A full selection: maps[i][j] names the column of matrix i used at position j."""

    maps: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.maps)

    def transversals(self, inst: ColorfulInstance) -> list[Matrix]:
        """The n assembled matrices; the j-th uses column maps[i][j] of matrix i."""
        if inst.n != self.n or any(len(m) != inst.n for m in self.maps):
            raise DimensionError("selection does not match the instance")
        return [
            Matrix.from_columns([m.column(cols[j]) for cols, m in zip(self.maps, inst.matrices)])
            for j in range(inst.n)
        ]

    def transversal_determinants(self, inst: ColorfulInstance) -> list[Fraction]:
        return [det(t) for t in self.transversals(inst)]

    def is_valid_for(self, inst: ColorfulInstance) -> bool:
        """True when the transversals are disjoint and every determinant is nonzero.

        Disjoint: each matrix gives each of its columns to exactly one position.
        """
        marks = list(range(self.n))
        if any(sorted(m) != marks for m in self.maps):
            return False
        return all(d != 0 for d in self.transversal_determinants(inst))


def _eliminate(col: list[int], basis: list[tuple[int, list[int]]]) -> tuple[int, list[int]] | None:
    """Reduce ``col`` against Bareiss rows; None when it lies in their span.

    ``basis`` holds (pivot index, row) pairs, each row already reduced by
    the rows before it.  Step t maps v to (p_t*v - v[pivot_t]*row_t) / p_(t-1),
    with p the row pivots and p_(-1) = 1; the division is exact because every
    entry is then a minor of the picked columns (Sylvester's identity).
    A step with v[pivot_t] = 0 and p_t = p_(t-1) is the identity map, so
    it builds no row.
    """
    v = col
    prev = 1
    for p, row in basis:
        pivot, f = row[p], v[p]
        if f or pivot != prev:
            v = [(x * pivot - f * y) // prev for x, y in zip(v, row)]
        prev = pivot
    for p, x in enumerate(v):
        if x:
            return p, v
    return None


def rota_search(
    inst: ColorfulInstance, *, node_budget: int = DEFAULT_NODE_BUDGET
) -> TransversalSelection | None:
    """First full selection of disjoint nonzero transversals, or None.

    Positions are handled in order; within a position, column indices are
    tried ascending for matrix 1, then matrix 2, and so on.  Each position
    keeps a fraction-free elimination of the columns picked so far, over
    columns scaled once by the lcm of their denominators.  A pick that
    reduces to zero is skipped, since no completion of the position can
    have a nonzero determinant; n picks that all survive assemble a
    nonsingular transversal.  The skipped subtrees hold only zero
    determinants, so the first selection is the one the plain
    determinant-per-combo search finds.  Each pick tested is one node
    against the budget.  None means the whole tree was exhausted, which the
    identity rules out for nonsingular instances with l(n) != 0.  The
    search keeps its own stack, one slot per (position, matrix) pair, so no
    order is too deep for it.
    """
    n = inst.n
    # a positive scale changes no column's span
    cols = [[int_scaled(col)[0] for col in m.columns()] for m in inst.matrices]
    used = [[False] * n for _ in range(n)]
    sel = [[0] * n for _ in range(n)]
    # slot d picks matrix d % n's column for position d // n; per slot, the
    # next column to try and the elimination of the position's earlier picks
    tries = [0] * (n * n)
    bases: list[list] = [[]] * (n * n)
    nodes = 0
    d = 0
    while d < n * n:
        j, i = divmod(d, n)
        for c in range(tries[d], n):
            if not used[i][c]:
                nodes += 1
                if nodes > node_budget:
                    raise BudgetError("transversal search hit the node cap", count=nodes, budget=node_budget)
                reduced = _eliminate(cols[i][c], bases[d])
                if reduced is not None:
                    break
        else:
            # the slot is spent: back up and free the pick above it
            tries[d] = 0
            d -= 1
            if d < 0:
                return None
            j, i = divmod(d, n)
            used[i][sel[i][j]] = False
            continue
        used[i][c] = True
        sel[i][j] = c
        tries[d] = c + 1
        d += 1
        if i + 1 < n:
            bases[d] = bases[d - 1] + [reduced]
    return TransversalSelection(tuple(map(tuple, sel)))
