"""Spinor bases on complete-graph edges and the n! alternating formula.

Every unordered edge {i,j} of the complete graph on n vertices carries an
ordered basis (p1, p2) of the degree-<=1 polynomials.  A choice c picks,
per edge, which basis element rides the oriented edge from i to j (i < j);
the other one always rides the reverse edge.  Vertex i then gets the
polynomial p_i = product of the spinors on its n-1 outgoing edges, and the
signed sum over all 2^C(n,2) choices of det(p_1,...,p_n) collapses:

    sum over c of sgn(c) * det(p^c_1,...,p^c_n)
        = n! * product over edges of det(p1, p2),

with sgn(c) = (-1)^{number of second-element picks}.  The all-first-element
choice is the base point; the formula is checked exactly, and the same sum
drives a search for a single nonzero assignment, which must exist whenever
every edge determinant is nonzero.

With every basis (1, t), a choice contributes iff the t-multiplicities of
the vertices are a permutation of 0..n-1, i.e. the induced orientation is
a transitive tournament; exactly n! choices survive, one per vertex order.

Every fast route evaluates instead, from one encoding, `_point_values`:
the sum, the census, the search and the engine's spinor form.  The values
of p_1..p_n at x = 0..n-1 are the Vandermonde matrix times the coefficient
matrix, so each determinant gains the factor prod over a < b of (b - a).
A basis element of plain ints is used as it is, and any other is scaled
by the lcm of its denominators, so every value is an integer and every
term is multiplied by the same product of scales, since each choice uses
both elements of every edge.

The sum never takes a per-choice determinant.  Expanding each point-value
determinant by Leibniz over the assignments pi of points to vertices and
swapping the two sums, an edge's bit touches only that edge's two factors,
so for a fixed pi the signed sum over choices is a product over edges:

    sum over pi of sgn(pi) * prod over i < j of F_ij(pi(i), pi(j)),
    F_ij(a, b) = v1(a) * v2(b) - v2(a) * v1(b),

with v1, v2 the scaled values of the edge's (p1, p2).  F comes from those
values, not as det(p1, p2) * (b - a): that factorization is what proves the
n! formula, and the check must not assume it.  The sum is a fold on
`perms.walk` over Sigma_n, summed by the engine's signed sum: a step gives
vertex j its point and multiplies in F_ij for every earlier vertex i, a
zero prefix cuts its subtree, and the total is divided once.  It takes at
most n! * C(n, 2) integer products, not 2^C(n,2) determinants; the budget
still counts the choices.

The census and the search need each term.  A vertex's value column
depends only on its n - 1 incident bits, so each call keeps a table of
columns per vertex, keyed by those bits, and tags each column with an
int that equal columns share; a choice with two equal vertex value
columns has determinant 0.  The search walks the choices in
reflected-binary order, a flip looks up the two columns it touches, and
every choice with n distinct tags takes one integer determinant.  The
census walks the vertices instead: vertex v picks the bits of its edges
to later vertices, and a tag repeating an earlier vertex's cuts the
subtree.  Whether n distinct columns are independent does not depend on
their order, so it takes one determinant per tag set; for identity
spinors every survivor has the same tag set, so it takes one in all.
choice_polys and choice_det are the literal route.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial, prod
from operator import itemgetter
from typing import Iterator

from .engine import DEFAULT_TERM_BUDGET, Fold, MatrixTuple, MultilinearForm, SumReport, _fold_sum
from .errors import DimensionError, SelfCheckError, charge
from .exact import Matrix, Polynomial, _int_det, int_scaled, poly_det, poly_mul
from .perms import Shape

ONE = Polynomial((1, 0))
T = Polynomial((0, 1))


@lru_cache(maxsize=None)
def edge_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """All edges {i,j}, i < j, in lexicographic order; bit b names edge b."""
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


def choice_count(n: int) -> int:
    """2^C(n,2), the base choices of order n, one bit per edge; 1 at n = 1."""
    return 1 << (n * (n - 1) // 2)


def charge_choices(n: int, budget: int, what: str = "choice space has too many terms") -> int:
    """`choice_count` through the size gate; a count past it is refused unbuilt by its bit length, C(n,2) + 1."""
    return charge(lambda: choice_count(n), budget, what, bits=n * (n - 1) // 2 + 1)


@dataclass(frozen=True)
class SpinorInstance:
    """An ordered basis of V_2 per edge, stored in lexicographic edge order."""

    n: int
    bases: tuple[tuple[Polynomial, Polynomial], ...]

    def __post_init__(self):
        if self.n < 1:
            raise DimensionError("spinor instances need n >= 1")
        expected = self.n * (self.n - 1) // 2
        if len(self.bases) != expected:
            raise DimensionError(f"order {self.n} needs {expected} edge bases, got {len(self.bases)}")
        for p1, p2 in self.bases:
            if p1.ambient != 2 or p2.ambient != 2:
                raise DimensionError("edge spinors must be degree-<=1 polynomials (ambient 2)")

    @classmethod
    def identity(cls, n: int) -> "SpinorInstance":
        """The all-(1, t) instance; every edge determinant is 1."""
        return cls(n, tuple((ONE, T) for _ in range(n * (n - 1) // 2)))

    @property
    def edge_count(self) -> int:
        return len(self.bases)

    @cached_property
    def edge_dets(self) -> tuple[Fraction, ...]:
        """Per edge, the determinant of the 2x2 coefficient matrix of its basis."""
        return tuple(
            Fraction(p1.coeffs[0] * p2.coeffs[1] - p1.coeffs[1] * p2.coeffs[0]) for p1, p2 in self.bases
        )

    @property
    def is_nonsingular(self) -> bool:
        return all(d != 0 for d in self.edge_dets)


@dataclass(frozen=True)
class Choice:
    """One bit per edge: 0 sends p1 along e_ij (i < j), 1 sends p2."""

    bits: int
    edge_count: int

    def __post_init__(self):
        if self.edge_count < 0:
            raise DimensionError("edge count must be >= 0")
        if not 0 <= self.bits < (1 << self.edge_count):
            raise DimensionError(f"bits {self.bits} out of range for {self.edge_count} edges")

    @property
    def sign(self) -> int:
        return -1 if self.bits.bit_count() % 2 else 1

    def bit(self, idx: int) -> int:
        return (self.bits >> idx) & 1


def choice_polys(inst: SpinorInstance, c: Choice) -> tuple[Polynomial, ...]:
    """The n vertex polynomials of a choice, each of degree < n, in one edge pass."""
    if c.edge_count != inst.edge_count:
        raise DimensionError(f"choice covers {c.edge_count} edges, instance has {inst.edge_count}")
    n = inst.n
    one = Polynomial((1,) + (0,) * (n - 1))
    acc = [one] * n
    for idx, (i, j) in enumerate(edge_pairs(n)):
        p1, p2 = inst.bases[idx]
        to_i, to_j = (p2, p1) if c.bit(idx) else (p1, p2)
        acc[i] = poly_mul(acc[i], to_i, n)
        acc[j] = poly_mul(acc[j], to_j, n)
    return tuple(acc)


def choice_det(inst: SpinorInstance, c: Choice) -> Fraction:
    """det of the coefficient matrix of the choice's vertex polynomials."""
    return poly_det(choice_polys(inst, c))


def _point_values(inst: SpinorInstance) -> tuple[list, int]:
    """Per edge, the values of its scaled (p1, p2) at x = 0..n-1.

    Also returns the divisor that turns point-value totals into coefficient
    ones: the product of all element scales times the Vandermonde determinant.
    """
    n = inst.n
    divisor = prod(factorial(k) for k in range(n))  # prod over a < b of (b - a)
    values = []
    for basis in inst.bases:
        pair = []
        for p in basis:
            (c0, c1), scale = int_scaled(p.coeffs)
            pair.append(tuple(c0 + c1 * x for x in range(n)))
            divisor *= scale
        values.append(pair)
    return values, divisor


def _assignment_sum(n: int, values, divisor: int) -> Fraction:
    """Sum over point assignments pi of sgn(pi) * prod over i < j of F_ij(pi(i), pi(j)), divided.

    F_ij(a, b) = v1(a) * v2(b) - v2(a) * v1(b) for the edge's value columns
    (v1, v2); this equals the signed sum of the point-value determinants
    over all choices, for any integer values.  The fold's state is the
    points placed so far and the product of their F factors; the total is
    divided by ``divisor``.
    """
    # cross[j][i][a][b] = F_ij(a, b); edges arrive with i ascending for each j
    cross = [[] for _ in range(n)]
    for (_, j), (v1, v2) in zip(edge_pairs(n), values):
        cross[j].append([[a1 * b2 - a2 * b1 for b1, b2 in zip(v1, v2)] for a1, a2 in zip(v1, v2)])

    def step(state: tuple[tuple[int, ...], int], _: int, j: int, b: int):
        points, prefix = state
        for table, a in zip(cross[j], points):
            prefix *= table[a][b]
            if not prefix:
                return None
        return points + (b,), prefix

    return _fold_sum(Shape((n,)), Fold(((), 1), step, itemgetter(1), divisor))


def _column_table(n: int, values):
    """The per-call lookup column(v, key) -> (v's value column, its tag).

    Bit k of ``key`` is the bit of v's k-th incident edge in lexicographic
    order: {k, v} for k < v and {v, k + 1} for k >= v.  Each column is built
    once per call, from the values its end gets on every incident edge, and
    tagged with an int that equal columns share.  Also returns ``ids``,
    which maps each column built so far to its tag, in tag order.
    """
    incident = [[] for _ in range(n)]  # (values if bit 0, values if bit 1)
    for (i, j), (v1, v2) in zip(edge_pairs(n), values):
        incident[i].append((v1, v2))
        incident[j].append((v2, v1))
    tables = [[None] * (1 << (n - 1)) for _ in range(n)]
    ids = {}  # column values -> tag

    def column(v: int, key: int) -> tuple[tuple[int, ...], int]:
        entry = tables[v][key]
        if entry is None:
            picked = []
            rest = key
            for pair in incident[v]:
                picked.append(pair[rest & 1])
                rest >>= 1
            # n = 1: no edges, one constant column
            col = tuple(map(prod, zip(*picked))) if picked else (1,)
            entry = tables[v][key] = (col, ids.setdefault(col, len(ids)))
        return entry

    return column, ids


def _point_dets(n: int, values) -> Iterator[tuple[int, int]]:
    """(bits, point-value determinant) for every choice, in reflected-binary order.

    Each step flips one edge and looks up the value columns of its two
    ends in `_column_table`.  A choice whose n tags are not all distinct
    has two equal columns, so its determinant is 0 without elimination;
    every other choice takes one `_int_det`.
    """
    column, _ = _column_table(n, values)
    # edge {i, j} is bit j - 1 of i's key and bit i of j's
    flips = [(i, 1 << (j - 1), j, 1 << i) for i, j in edge_pairs(n)]
    bits = 0
    keys = [0] * n
    cols, tags = map(list, zip(*(column(v, 0) for v in range(n))))
    for t in range(choice_count(n)):
        if t:
            idx = (t & -t).bit_length() - 1
            bits ^= 1 << idx
            i, at_i, j, at_j = flips[idx]
            keys[i] ^= at_i
            keys[j] ^= at_j
            cols[i], tags[i] = column(i, keys[i])
            cols[j], tags[j] = column(j, keys[j])
        if len(set(tags)) < n:
            yield bits, 0
        else:
            # columns passed as rows: the transpose has the same determinant
            yield bits, _int_det([list(col) for col in cols])


def _survivors(n: int, values) -> list[int]:
    """Bits of every choice with a nonzero point-value determinant, by a DFS over vertices.

    Vertex v picks the bits of its edges to later vertices; they are
    adjacent in the choice (from bit ``base``) and in v's column key (from
    bit v), and the bits of its edges to earlier vertices were picked by
    those.  ``pending`` packs the picked key bits of the vertices after v,
    ``n`` bits each, v + 1 lowest.  Every tag comes from `_column_table`,
    and a tag already in the ``used`` mask cuts the subtree.  The last
    vertex picks nothing, so it is looked up inline once vertex n - 2 has
    picked.  A leaf has n distinct columns, so whether its determinant is
    0 depends on its tag set alone, not on their order: one `_int_det` per
    tag set.
    """
    column, ids = _column_table(n, values)
    # per vertex and key, the bit of its column's tag
    tag_bits = [[1 << column(v, key)[1] for key in range(1 << (n - 1))] for v in range(n)]
    nonzero = {}  # tag set -> whether its columns are independent

    def independent(used: int) -> bool:
        if used not in nonzero:
            # columns passed as rows: the transpose has the same determinant
            rows = [list(col) for t, col in enumerate(ids) if used >> t & 1]
            nonzero[used] = _int_det(rows) != 0
        return nonzero[used]

    if n == 1:
        return [0] if independent(tag_bits[0][0]) else []
    field = (1 << n) - 1
    moves = []  # per vertex before the last: (choice bits, key bits, pending bits) per pick
    base = 0
    for v in range(n - 1):
        out = n - 1 - v
        moves.append([
            (o << base, o << v, sum((o >> k & 1) << (n * k + v) for k in range(out)))
            for o in range(1 << out)
        ])
        base += out
    last = tag_bits[-1]
    found = []

    def visit(v: int, bits: int, pending: int, used: int) -> None:
        own = tag_bits[v]
        key = pending & field
        pending >>= n
        inline = v + 2 == n
        for choice, out_key, lift in moves[v]:
            bit = own[key | out_key]
            if used & bit:
                continue
            if not inline:
                visit(v + 1, bits | choice, pending | lift, used | bit)
                continue
            end = last[(pending | lift) & field]
            if not (used | bit) & end and independent(used | bit | end):
                found.append(bits | choice)

    visit(0, 0, 0, 0)
    return found


def out_degrees(c: Choice, n: int) -> tuple[int, ...]:
    """Per-vertex count of second-basis-element ends, the orientation reading.

    On edge {i,j}, i < j, bit 0 hands the second element to j and bit 1
    hands it to i; with identity spinors the count is the degree of the
    vertex polynomial.
    """
    if c.edge_count != n * (n - 1) // 2:
        raise DimensionError(f"choice covers {c.edge_count} edges, order {n} has {n * (n - 1) // 2}")
    degs = [0] * n
    bits = c.bits
    for i, j in edge_pairs(n):
        if bits & 1:
            degs[i] += 1
        else:
            degs[j] += 1
        bits >>= 1
    return tuple(degs)


def verify_svrtan(
    inst: SpinorInstance,
    *,
    threads: int = 1,
    term_budget: int = DEFAULT_TERM_BUDGET,
) -> SumReport:
    """Check the n! formula on one instance, exactly.

    The report's invariant is n! and its determinants are the edge
    determinants.  The signed choice sum is taken over point assignments
    (see the module notes) and divided once; its 2^C(n,2) choices,
    `choice_count`, are charged to ``term_budget`` at the size gate.
    ``threads`` is accepted and ignored, as by every sum.
    """
    terms = charge_choices(inst.n, term_budget)
    lhs = _assignment_sum(inst.n, *_point_values(inst))
    return SumReport.of(lhs, factorial(inst.n), inst.edge_dets, terms)


def nonzero_term_census(n: int, *, term_budget: int = DEFAULT_TERM_BUDGET) -> int:
    """Number of surviving choices for identity spinors; always n!.

    The survivors come from the vertex DFS `_survivors`; the 2^C(n,2)
    choices are still charged to ``term_budget`` at the size gate.  Every
    survivor must read as a transitive tournament: its per-vertex degree
    counts are a permutation of 0..n-1.  A survivor failing that would
    falsify the tournament argument, so it raises.
    """
    charge_choices(n, term_budget)
    edges = n * (n - 1) // 2
    marks = list(range(n))
    values, _ = _point_values(SpinorInstance.identity(n))
    survivors = _survivors(n, values)
    for bits in survivors:
        if sorted(out_degrees(Choice(bits, edges), n)) != marks:
            raise SelfCheckError(f"nonzero term with non-transitive orientation: bits {bits:b}")
    return len(survivors)


def svrtan_search(
    inst: SpinorInstance,
    *,
    incremental: bool = False,
    term_budget: int = DEFAULT_TERM_BUDGET,
) -> Choice | None:
    """First choice, in reflected-binary order, with a nonzero determinant.

    None only comes back for singular instances; otherwise the formula
    guarantees a nonzero term.  The walk tests point-value determinants,
    which vanish exactly when the coefficient ones do, looking up just the
    two value columns an edge flip touches; tests check it against a
    literal choice_det loop.  ``incremental`` is accepted and ignored.
    """
    charge_choices(inst.n, term_budget)
    values, _ = _point_values(inst)
    for bits, d in _point_dets(inst.n, values):
        if d:
            return Choice(bits, inst.edge_count)
    return None


class _SpinorForm(MultilinearForm):
    def __init__(self, n: int):
        self.n = n
        super().__init__(Shape((2,) * (n * (n - 1) // 2)), None, f"spinor base-choice det, n={n}")

    def fold(self, cols) -> Fold:
        n = self.n
        ends = edge_pairs(n)
        bases = tuple((Polynomial(p1), Polynomial(p2)) for p1, p2 in cols)
        values, divisor = _point_values(SpinorInstance(n, bases))

        def step(acc: tuple[list[int], ...], e: int, p: int, c: int):
            col = values[e][c]
            # n >= 2 points: only the zero element has an all-zero column
            if not any(col):
                return None
            v = ends[e][p]
            return acc[:v] + ([x * y for x, y in zip(acc[v], col)],) + acc[v + 1:]

        # value columns as rows: the transpose has the same determinant
        return Fold(([1] * n,) * n, step, lambda acc: _int_det([col[:] for col in acc]), divisor)


def spinor_form(n: int) -> MultilinearForm:
    """The order-n form of shape (2,...,2), one factor per edge.

    It evaluates the base-choice determinant of whatever bases the edge
    matrices carry, columns p1 then p2.  Its fold reads the edges' scaled
    values from `_point_values`, once per sum.  The state is the n vertex
    value columns; a step multiplies the value column a block's position
    hands an end into that end's column, point by point, and a zero basis
    element cuts its subtree.  Each leaf takes one integer determinant of
    the value columns, and the divisor of `_point_values` is the scale.
    Its identity-matrix invariant is n!.
    """
    if n < 2:
        raise DimensionError("the engine recast needs n >= 2 (at least one edge)")
    return _SpinorForm(n)


def as_engine_instance(inst: SpinorInstance) -> tuple[MultilinearForm, MatrixTuple]:
    """Recast as `spinor_form` and a matrix tuple, one 2x2 matrix per edge.

    Each edge contributes its coefficient matrix, columns p1 then p2.
    Column swaps are exactly bit flips with matching signs, so the general
    alternating sum over this pair reproduces the choice sum term by term.
    """
    form = spinor_form(inst.n)
    matrices = tuple(
        Matrix.from_columns([p1.coeffs, p2.coeffs]) for p1, p2 in inst.bases
    )
    return form, MatrixTuple(form.shape, matrices)
