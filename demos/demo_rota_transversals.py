"""
Disjoint nonzero transversals from n matrices
=============================================

Takes n nonsingular n x n matrices, checks the signed-sum identity whose
right side carries the signed Latin-square count, then actually finds n
disjoint column selections that all assemble to nonsingular matrices.
"""

from altdet import SplitMix64, det, random_colorful_instance, rota_search, verify_onn

n = 4
inst = random_colorful_instance(n, SplitMix64(31))
print(f"{n} random integer matrices, all nonsingular:")
for i, m in enumerate(inst.matrices):
    print(f"  det(matrix {i}) = {det(m)}")

report = verify_onn(inst)
print("\nsigned sum over permutation tuples :", report.lhs)
print(f"l({n}) times the det product        :", report.rhs)
print("identity holds                     :", report.verdict)
print("terms in the sum                   :", report.term_count)

# since l(4) = 576 is nonzero, a full family of disjoint transversals must
# exist; the backtracking search recovers one explicitly
sel = rota_search(inst)
assert sel is not None
print("\nselection found; transversal j takes column maps[i][j] from matrix i")
for i, cols in enumerate(sel.maps):
    print(f"  maps[{i}] = {cols}")

for j, t in enumerate(sel.transversals(inst)):
    print(f"transversal {j}: det = {det(t)}")

# each matrix contributes each of its columns exactly once across the family
for cols in sel.maps:
    assert sorted(cols) == list(range(n))
print("\nevery column of every matrix used exactly once")
