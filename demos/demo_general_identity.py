"""
Alternating sums over a product of symmetric groups
===================================================

Walks the main factorization on a small two-matrix tuple: the signed sum
of form values over jointly permuted columns splits into a scalar that
depends only on the form, times the product of the determinants.
"""

from fractions import Fraction

from altdet import (
    SplitMix64,
    alternating_sum,
    det,
    invariant_at_identity,
    random_dense_form,
    random_matrix_tuple,
    verify_identity,
)
from altdet.perms import Shape, enumerate_product

shape = Shape.of(2, 2)
rng = SplitMix64(2024)

# a dense multilinear form needs one coefficient per way of picking a row
# index for each column of each matrix: 2^2 * 2^2 = 16 here
f = random_dense_form(shape, rng)
print("form coefficients:", f.coeffs)

A = random_matrix_tuple(shape, rng)
for i, m in enumerate(A.matrices):
    print(f"matrix {i}:")
    print(m)
    print("  det =", det(m))

# the group is tiny at this shape: 2! * 2! = 4 signed column permutations
print("\nsigned permutation tuples:")
for parity, mappings in enumerate_product(shape):
    parts = " x ".join(str(m) for m in mappings)
    print(f"  sign {parity:+d}  {parts}")

lhs = alternating_sum(f, A)
inv = invariant_at_identity(f)
rhs = inv * A.determinants[0] * A.determinants[1]
print("\nalternating sum :", lhs)
print("invariant       :", inv)
print("det product     :", A.determinants[0] * A.determinants[1])
print("factored side   :", rhs)

report = verify_identity(f, A)
print("verdict         :", "holds" if report.verdict else "fails")

# the invariant really is intrinsic to the form: any nonsingular tuple
# gives the same ratio
for seed in (7, 8, 9):
    B = random_matrix_tuple(shape, SplitMix64(seed))
    ratio = alternating_sum(f, B) / (B.determinants[0] * B.determinants[1])
    print(f"seed {seed}: sum / det product = {ratio}")
assert ratio == Fraction(inv)
