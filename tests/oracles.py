"""Slow reference implementations the fast code is checked against.

Everything here is written the most literal way possible and shares no code
with the package: cofactor expansion for determinants, pairwise inversion
counting for permutation sign, and itertools-driven brute enumeration.
"""

from fractions import Fraction
from itertools import permutations, product


def laplace_det(rows) -> Fraction:
    """Determinant by cofactor expansion along the first row."""
    n = len(rows)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * Fraction(rows[0][j]) * laplace_det(minor)
    return total


def inversion_sign(mapping) -> int:
    """Sign of a permutation by counting inversions one pair at a time."""
    inv = 0
    n = len(mapping)
    for a in range(n):
        for b in range(a + 1, n):
            if mapping[a] > mapping[b]:
                inv += 1
    return -1 if inv % 2 else 1


def invert(mapping):
    """Inverse of a permutation given as a mapping tuple."""
    out = [0] * len(mapping)
    for i, v in enumerate(mapping):
        out[v] = i
    return tuple(out)


def literal_act(mapping, m):
    """Permute the columns of a matrix: column j of the image is column mapping^-1(j).

    ``m`` is a package Matrix; the image is rebuilt from its rows through
    its own class.
    """
    inv = invert(mapping)
    return type(m).from_rows([[row[inv[j]] for j in range(len(mapping))] for row in m.entries])


def enumerate_choices(width):
    """Every width-bit word in reflected-binary order, built by reflection.

    The order for width k is the order for width k - 1 followed by the same
    words in reverse with bit k - 1 set, so neighbours differ in one bit.
    """
    words = [0]
    for bit in range(width):
        words += [w | 1 << bit for w in reversed(words)]
    return words


def all_mappings(n):
    """Every permutation of 0..n-1 as a tuple, in lexicographic order."""
    return list(permutations(range(n)))


def brute_latin_squares(n):
    """Every n x n Latin square on symbols 0..n-1, rows chosen by filtering."""
    squares = []

    def clashes(perm, rows):
        return any(perm[c] == prev[c] for prev in rows for c in range(n))

    def extend(rows):
        if len(rows) == n:
            squares.append(tuple(rows))
            return
        for perm in permutations(range(n)):
            if not clashes(perm, rows):
                extend(rows + [perm])

    extend([])
    return squares


def brute_alternating_sum(form, matrices, act):
    """Literal alternating sum over tuples of permutations.

    ``form`` maps a tuple of matrices to a scalar; ``act(mapping, m)``
    permutes the columns of one matrix.  Each tuple factor is inverted
    before acting, and signs come straight from inversion counting.
    """
    sizes = [m.cols for m in matrices]
    total = Fraction(0)

    def rec(i, acc_sign, acc_perms):
        nonlocal total
        if i == len(sizes):
            moved = tuple(act(invert(p), m) for p, m in zip(acc_perms, matrices))
            total += acc_sign * Fraction(form(moved))
            return
        for p in all_mappings(sizes[i]):
            rec(i + 1, acc_sign * inversion_sign(p), acc_perms + (p,))

    rec(0, 1, ())
    return total


def literal_dense_eval(coeffs, matrices):
    """Dense tensor form by full expansion, one entry product per coefficient.

    ``matrices`` are square grids given as row lists.  Slots run matrix by
    matrix, column by column; slot (i, j) with row index r reads entry
    (r, j) of matrix i, and coefficients are row-major over the slots' row
    indices, last slot fastest.
    """
    cols = [tuple(row[j] for row in rows) for rows in matrices for j in range(len(rows))]
    total = 0
    for coeff, picks in zip(coeffs, product(*cols)):
        if coeff:
            term = coeff
            for entry in picks:
                term = term * entry
            total = total + term
    return total


def first_row_latin_count(n, completions):
    """l(n) by the full first-row DFS: every first row, each finished in full.

    ``completions(n, cols, start_row, sign)`` returns the signed count of
    the ways to fill rows start_row..n-1 given per-column masks of the
    values placed so far.  First rows come in lexicographic order with
    their signs from inversion counting.
    """
    total = 0
    for first in all_mappings(n):
        total += completions(n, [1 << v for v in first], 1, inversion_sign(first))
    return total


def fraction_transversal_table(matrices):
    """Every assembled transversal determinant, one Fraction determinant each.

    ``matrices`` are n square grids of size n given as row lists.  Entry
    picks, read in base n with matrix 1 most significant, takes column
    picks[i] of matrix i as column i of the assembled matrix.
    """
    n = len(matrices)
    cols = [[[row[c] for row in m] for c in range(n)] for m in matrices]
    return [
        laplace_det([[cols[i][picks[i]][r] for i in range(n)] for r in range(n)])
        for picks in product(range(n), repeat=n)
    ]


def leaf_product_colorful_sum(matrices):
    """Left side of the colorful identity, one determinant product per leaf.

    ``matrices`` are n square grids of size n given as row lists.  Every
    tuple of n permutations is a leaf; transversal j takes column
    sigma_i(j) of matrix i, and the table of transversal determinants is
    keyed in base n with matrix 1 most significant, extended by one Horner
    step per level.
    """
    n = len(matrices)
    table = fraction_transversal_table(matrices)
    if all(d.denominator == 1 for d in table):
        table = [int(d) for d in table]
    signed = [(p, inversion_sign(p)) for p in all_mappings(n)]
    total = 0

    def descend(level, sign, keys):
        nonlocal total
        if level == n:
            term = sign
            for k in keys:
                if not table[k]:
                    return
                term *= table[k]
            total += term
            return
        for p, s in signed:
            descend(level + 1, sign * s, tuple(k * n + p[j] for j, k in enumerate(keys)))

    descend(0, 1, (0,) * n)
    return Fraction(total)


def combo_det_rota_search(matrices):
    """First selection by testing the determinant of every full combo, or None.

    Positions go in order; within one, column indices are tried ascending
    for matrix 1, then matrix 2, and so on, each column of a matrix used at
    most once.  Returns sel with sel[i][j] the column of matrix i used at
    position j.
    """
    n = len(matrices)
    cols = [[[row[c] for row in m] for c in range(n)] for m in matrices]
    used = [[False] * n for _ in range(n)]
    sel = [[0] * n for _ in range(n)]

    def position(j):
        return j == n or choose(j, 0, [])

    def choose(j, i, picked):
        if i == n:
            if laplace_det([[col[r] for col in picked] for r in range(n)]) == 0:
                return False
            return position(j + 1)
        for c in range(n):
            if not used[i][c]:
                used[i][c] = True
                sel[i][j] = c
                if choose(j, i + 1, picked + [cols[i][c]]):
                    return True
                used[i][c] = False
        return False

    return [tuple(row) for row in sel] if position(0) else None
