"""
Edge bases on the complete graph and the n! formula
===================================================

Every edge of K_n carries a basis of the two-dimensional space of linear
polynomials.  Each way of routing one basis element along each edge gives
a vertex polynomial per vertex and one n x n coefficient determinant; the
signed total over all 2^(n choose 2) routings collapses to n! times the
product of the edge determinants.
"""

from math import factorial

from altdet import (
    Choice,
    SpinorInstance,
    SplitMix64,
    as_engine_instance,
    choice_det,
    choice_polys,
    nonzero_term_census,
    random_spinor_instance,
    svrtan_search,
    verify_identity,
    verify_svrtan,
)

n = 3
inst = SpinorInstance.identity(n)  # every edge carries the basis (1, t)
routings = [Choice(bits, inst.edge_count) for bits in range(1 << inst.edge_count)]

# with identity bases the three routings that survive are exactly the
# transitive tournaments: out-degrees 0, 1, 2 in some order
print("all routings at n=3 with the (1, t) bases:")
for c in routings:
    polys = choice_polys(inst, c)
    shown = ", ".join(str(p) for p in polys)
    print(f"  bits {c.bits:03b}  sign {c.sign:+d}  vertex polys [{shown}]  det {choice_det(inst, c)}")

total = sum(c.sign * choice_det(inst, c) for c in routings)
print("signed total:", total, "=", f"{n}!")
assert total == factorial(n)

print("\nsurvivor counts:")
for m in (2, 3, 4, 5):
    print(f"  n={m}: {nonzero_term_census(m)} of {2 ** (m * (m - 1) // 2)} routings, n! = {factorial(m)}")

# random rational bases: the formula stays exact
rnd = random_spinor_instance(4, SplitMix64(99))
rep = verify_svrtan(rnd)
print("\nrandom instance at n=4:")
print("  lhs =", rep.lhs)
print("  rhs =", rep.rhs)
print("  verdict:", rep.verdict)

# a nonzero routing always exists when every edge determinant is nonzero,
# and the search finds one quickly
c = svrtan_search(rnd)
print("  nonzero routing:", format(c.bits, "06b"), "det =", choice_det(rnd, c))

# the same computation also runs through the generic engine: the instance is
# already its tuple of 2x2 edge matrices, a column swap standing in for a bit flip
form, A = as_engine_instance(rnd)
engine = verify_identity(form, A)
print("  engine route lhs =", engine.lhs, "match:", engine.lhs == rep.lhs)
