"""
Signed Latin squares two ways
=============================

Counts Latin squares of small order with their signs, then reproduces the
even-minus-odd total from a completely different direction: the engine
invariant of the column-determinant product form.
"""

from collections import Counter

from altdet import alon_tarsi_count, colorful_form, invariant_at_identity, latin_sign, latin_squares

# order 3: twelve squares, half even and half odd, so the signed count dies
print("all Latin squares of order 3:")
tally = Counter()
for square in latin_squares(3):
    sign = latin_sign(square)
    tally[sign] += 1
    rows = "  ".join(str(list(r)) for r in square.grid)
    print(f"  sign {sign:+d}   {rows}")
print(f"even {tally[1]}, odd {tally[-1]}, signed count {tally[1] - tally[-1]}")

print()
for n in (1, 2, 3, 4):
    print(f"l({n}) = {alon_tarsi_count(n)}")

# independent route: sum sgn(sigma) * f(sigma . identity) for the form
# that multiplies the n column determinants; the answer must match
n = 3
by_engine = invariant_at_identity(colorful_form(n))
print(f"\nengine invariant at n={n}:", by_engine)
assert by_engine == alon_tarsi_count(n)

# odd orders vanish in pairs: swapping two rows flips the sign of every column
print("l(5) =", alon_tarsi_count(5), "(odd order, forced to zero)")
