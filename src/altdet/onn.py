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

Two independent routes compute l(n): a cell-by-cell enumeration of the
reduced squares (first row and first column the identity) with an
incrementally maintained sign, and the engine's invariant of the colorful
form.  Tests require them to agree, which also pins the sign convention for
a square (product of the signs of all rows and all columns read as
permutations).  Only reduced squares are enumerated: for odd n >= 3,
swapping two rows flips the sign of every column, so l(n) = 0; for even n,
permuting rows or symbols keeps the sign, so l(n) is n!(n-1)! times the
signed count of reduced squares, as in L(n) = n!(n-1)!R(n) of McKay &
Wanless (Ann. Comb. 2005).  The enumeration is a DFS on column bitmasks
rather than a fold on `perms.walk`: the walk would call its step for every
free column of a row and then cut the clashes, while the masks offer only
the values still free.

The direct check uses position symmetry: for pi in Sigma_n, the bijection
(sigma_1,...,sigma_n) -> (sigma_1 pi,...,sigma_n pi) only reorders the
transversals and multiplies the sign by sgn(pi)**n, so the left side is 0
for odd n >= 3 and otherwise n! times its part with sigma_1 the identity.
That part is a subset DP over positions: position j picks one free column
for each of sigma_2..sigma_n, so a state is the n - 1 masks of the columns
used so far, and a pick's sign is the parity of the used columns above it.
Each move multiplies by an entry of an integer table of transversal
determinants, itself a DP: every determinant grows from the minors of its
column prefix on each row subset, and transversals share their prefixes.
Both DPs run as move lists, cached per order, through one integer kernel:
3,584 and 2,000 moves at n = 4, where a fold on `perms.walk` would take
one integer determinant at each of its 576 leaves and one for each of
the 256 table entries.  The move lists grow fast with n: 1,603,815,552
position moves at n = 6, tens of GB, which the default term budget
refuses.  The engine's colorful form reads the same minors, layer by
layer, on its walk over the tuples: a prefix whose minors are all 0 has
dependent columns and cuts its subtree, and a leaf multiplies n entries
of the last layer.  A call of the form on one tuple needs only its n
transversals, so it takes their determinants and builds no table.
The transversal search drops every partial selection whose picked columns
are already linearly dependent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial, prod
from typing import Iterator

from .engine import DEFAULT_TERM_BUDGET, Fold, MatrixTuple, MultilinearForm, SumReport
from .errors import BudgetError, DimensionError, InputError, charge
from .exact import Matrix, det, int_scaled
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


def _reduced_latin_sum(n: int) -> int:
    """Signed count of the reduced order-n squares: first row and column the identity.

    A DFS over the cells of rows 1..n-1, row-major with values ascending,
    keeps one mask per column of the values placed so far.  Placing value v
    at (r, c) adds one inversion to row r for each larger value already in
    the row, and to column c for each larger value already in the column;
    both live in the masks, so the sign update is two popcounts.  Cell
    (r, 0) holds r: every value above it in column 0 is smaller and its row
    is still empty, so it adds no inversion and each row starts at column 1.
    The identity first row has sign +1.
    """
    full = (1 << n) - 1
    cols = [1 << c for c in range(n)]

    def fill(r: int, c: int, row_mask: int) -> int:
        if c == n:
            # row r + 1 starts with value r + 1 already in its mask
            return fill(r + 1, 1, 1 << (r + 1)) if r + 1 < n else 1
        total = 0
        avail = full & ~row_mask & ~cols[c]
        while avail:
            bit = avail & -avail
            avail ^= bit
            v = bit.bit_length() - 1
            flips = (row_mask >> (v + 1)).bit_count() + (cols[c] >> (v + 1)).bit_count()
            cols[c] |= bit
            sub = fill(r, c + 1, row_mask | bit)
            cols[c] ^= bit
            total += -sub if flips & 1 else sub
        return total

    return fill(1, 1, 2)


def alon_tarsi_count(
    n: int, *, threads: int = 1, term_budget: int = DEFAULT_TERM_BUDGET
) -> int:
    """l(n): even minus odd order-n Latin squares, by orbit reduction.

    Odd n >= 3 gives 0: swapping two rows flips the sign of every column.
    For even n (and n = 1) every square shares its sign with the one reduced
    square in its orbit under row and symbol permutations, and each orbit
    has n!(n-1)! squares, so l(n) is n!(n-1)! times the signed count of
    reduced squares, taken by `_reduced_latin_sum`.  The count stands for
    L(n) squares, the number of order-n Latin squares, charged to
    ``term_budget`` at the size gate before any work.
    ``threads`` is accepted and ignored: the count runs serially.
    """
    if n < 1:
        raise DimensionError("Latin squares need order >= 1")
    if n > MAX_FULL_ORDER:
        raise BudgetError(f"Latin square counts are capped at order {MAX_FULL_ORDER}, got {n}")
    charge(LATIN_SQUARE_COUNTS[n - 1], term_budget, "Latin square enumeration has too many terms")
    if n % 2 and n > 1:
        return 0
    return factorial(n) * factorial(n - 1) * _reduced_latin_sum(n)


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
        layers, scale = _prefix_minors(cols)
        # a prefix is dependent when every minor of its columns is 0
        live = [
            [any(layer[p * w : (p + 1) * w]) for p in range(n ** (k + 1))]
            for k, layer in enumerate(layers)
            for w in [len(layer) // n ** (k + 1)]
        ]
        table = layers[-1]

        def step(prefixes: tuple[int, ...], i: int, j: int, c: int):
            p = prefixes[0] * n + c
            if not live[i][p]:
                return None
            # the prefix of position j leaves the front and comes back extended
            return prefixes[1:] + (p,)

        # each of a leaf's n table entries carries the table's scale
        return Fold((0,) * n, step, lambda prefixes: prod(table[p] for p in prefixes), scale**n)

    def __call__(self, A: MatrixTuple) -> Fraction:
        """The value at A from its own n transversals, one determinant each."""
        cols = self._columns(A)
        return prod((det(Matrix.from_columns([block[j] for block in cols])) for j in range(self.n)),
                    start=Fraction(1))


def colorful_form(n: int) -> MultilinearForm:
    """The order-n form: product over j of det(column j of each matrix).

    Its fold keeps, for each position j, the index of the column prefix
    picked for transversal j so far, and reads the prefix minors that
    `_prefix_minors` builds once per sum, the table `verify_onn` uses.  A
    prefix whose minors are all 0 has dependent columns and cuts its
    subtree; at the identity that is every prefix with a repeated column,
    so the walk reaches the L(n) Latin squares.  A leaf's value is the
    product of its n transversal determinants, read from the last layer.
    A call on one tuple builds no table: it takes the n determinants of
    that tuple's own transversals.
    """
    if n < 1:
        raise DimensionError("colorful forms need n >= 1")
    return _ColorfulForm(n)


# one layer of a DP: its state count, then per move the source state, the
# target state and the weight index, a negative move's shifted past the weights
_Layer = tuple[int, tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def _layer(size: int, moves: list[tuple[int, int, int]]) -> _Layer:
    """The moves as three parallel tuples; equal indices share one int object."""
    shared: dict[int, int] = {}
    return (size, *(tuple(shared.setdefault(x, x) for x in column) for column in zip(*moves)))


def _apply_moves(layers: tuple[_Layer, ...], weights: list[int]) -> list[list[int]]:
    """The values of every layer's states, from one state of value 1.

    Each move adds vals[s] * weights[w] to out[t], or subtracts it when its
    weight index points past the weights, at their negations.
    """
    signed = weights + [-x for x in weights]
    values = [[1]]
    for size, sources, targets, picks in layers:
        vals, out = values[-1], [0] * size
        for s, t, w in zip(sources, targets, picks):
            out[t] += vals[s] * signed[w]
        values.append(out)
    return values[1:]


@lru_cache(maxsize=None)
def _minor_moves(n: int) -> tuple[_Layer, ...]:
    """The moves that build every transversal determinant from shared prefix minors.

    After k matrices a state is a prefix, column c_i of matrix i for
    i = 1..k, and a k-subset S of the rows; its value is the minor of the
    picked columns on the rows in S.  Column c of matrix k + 1, with
    entries x_r, extends it by Laplace expansion along the new column:
    minor(S + {r}) += (-1)**|S above r| * x_r * minor(S) for each row r not
    in S.  A state's index is its prefix in base n, matrix 1 most
    significant, times C(n, k), plus the rank of S; after all n matrices S
    is every row, so the index is the table's.  The weights are the
    entries of the n matrices, column by column, one matrix after another.
    """
    layers = []
    ranks = {0: 0}
    for k in range(n):
        grown: dict[int, int] = {}
        for rows in ranks:
            for r in range(n):
                if not rows >> r & 1:
                    grown.setdefault(rows | 1 << r, len(grown))
        moves = [
            (
                p * len(ranks) + rank,
                (p * n + c) * len(grown) + grown[rows | 1 << r],
                (k * n + c) * n + r + ((rows >> r).bit_count() & 1) * n**3,
            )
            for p in range(n**k)
            for c in range(n)
            for rows, rank in ranks.items()
            for r in range(n)
            if not rows >> r & 1
        ]
        layers.append(_layer(n ** (k + 1) * len(grown), moves))
        ranks = grown
    return tuple(layers)


@lru_cache(maxsize=None)
def _position_moves(n: int) -> tuple[_Layer, ...]:
    """The moves of the colorful sum with sigma_1 the identity, position by position.

    A state packs the columns that sigma_2..sigma_n have used at the
    positions so far, n bits per permutation, and each layer numbers its
    states in the order they are reached.  The move of position j picks a
    free column c_i for each sigma_i, multiplies by the table entry of
    (j, c_2, ..., c_n), and flips the sign by the inversions the picks add:
    per permutation, the used columns above c_i.
    """
    full = (1 << n) - 1
    layers = []
    states = {0: 0}
    for j in range(n):
        reached: dict[int, int] = {}
        moves = []
        for packed, s in states.items():
            used = [packed >> (i * n) & full for i in range(n - 1)]
            for cols in product(*([c for c in range(n) if not m >> c & 1] for m in used)):
                key, w, flips = packed, j, 0
                for i, (m, c) in enumerate(zip(used, cols)):
                    key |= 1 << (i * n + c)
                    w = w * n + c
                    flips += (m >> (c + 1)).bit_count()
                moves.append((s, reached.setdefault(key, len(reached)), w + (flips & 1) * n**n))
        layers.append(_layer(len(reached), moves))
        states = reached
    return tuple(layers)


def _prefix_minors(cols) -> tuple[list[list[int]], int]:
    """Every minor of every column prefix, scaled to integers, one layer per matrix.

    ``cols[i]`` lists the columns of matrix i.  Layer k holds, for each
    choice of one column from each of matrices 1..k+1, its minors on the
    (k+1)-subsets of rows, indexed as in `_minor_moves`; the last layer is
    the determinant of every assembled transversal, n**n of them, its index
    the chosen columns in base n, matrix 1 most significant.  Each matrix
    goes through `int_scaled` once: a matrix of plain ints is used as it
    is, scale 1, and any other is scaled by the lcm s_i of its
    denominators.  The scale returned, s_1 * ... * s_n, is that of the last
    layer.  The determinants share their prefix minors: 2,000 moves at
    n = 4, in integers.
    """
    weights = []
    scale = 1
    for block in cols:
        ints, s = int_scaled([x for col in block for x in col])
        weights += ints
        scale *= s
    return _apply_moves(_minor_moves(len(cols)), weights), scale


def _onn_partial(n: int, table: list[int], scale: int) -> Fraction:
    """Signed sum over the tuples whose first permutation is the identity.

    By position symmetry every other tuple repeats one of these terms, with
    the sign times sgn(pi)**n, so the whole sum is n! times this one for
    even n.  The moves of `_position_moves` sum the tuples out position by
    position, 3,584 moves at n = 4; each of the n table entries of a term
    carries ``scale``.
    """
    return Fraction(_apply_moves(_position_moves(n), table)[-1][0], scale**n)


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
    identity, summed position by position by `_onn_partial`.  The right
    side is l(n) times the product of the matrix determinants.
    ``threads`` is accepted and ignored: the check runs serially.
    """
    n = inst.n
    terms = Shape((n,) * n).charge_terms(term_budget, "colorful alternating sum has too many terms")
    if n % 2 and n > 1:
        lhs = Fraction(0)
    else:
        layers, scale = _prefix_minors([m.columns() for m in inst.matrices])
        lhs = factorial(n) * _onn_partial(n, layers[-1], scale)
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

    `rota_search` tests each pick with it.  ``basis`` holds (pivot index,
    row) pairs, each row already reduced by the rows before it.  Step t maps v to (p_t*v - v[pivot_t]*row_t) / p_(t-1),
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
    integer columns from one `int_scaled` call per matrix: plain ints as
    they are, anything else scaled by the lcm of the matrix's denominators.
    A pick that reduces to zero is skipped, since no completion of the
    position can have a nonzero determinant; n picks that all survive
    assemble a nonsingular transversal.  The skipped subtrees hold only
    zero determinants, so the first selection is the one the plain
    determinant-per-combo search finds.  Each pick tested is one node
    against the budget.  None means the whole tree was exhausted, which the
    identity rules out for nonsingular instances with l(n) != 0.  The
    search keeps its own stack, one slot per (position, matrix) pair, so no
    order is too deep for it.
    """
    n = inst.n
    # a positive scale changes no column's span; column c of a row-major
    # flat matrix is every n-th entry from c
    flat = [int_scaled([x for row in m.entries for x in row])[0] for m in inst.matrices]
    cols = [[ints[c::n] for c in range(n)] for ints in flat]
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
