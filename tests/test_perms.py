"""Signed permutations, the Sigma_n pool, product enumeration and the column action."""

from itertools import islice
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from altdet.engine import MatrixTuple
from altdet.errors import DimensionError
from altdet.exact import Matrix, det
from altdet.perms import (
    Shape,
    SignedPerm,
    SignedPermTuple,
    act,
    enumerate_product,
    enumerate_signed,
)

from oracles import all_mappings, inversion_sign, invert


class TestSignedPerm:
    def test_identity(self):
        e = SignedPerm.identity(4)
        assert e.mapping == (0, 1, 2, 3) and e.parity == 1

    def test_from_mapping_signs(self):
        assert SignedPerm.from_mapping((1, 0)).parity == -1
        assert SignedPerm.from_mapping((1, 2, 0)).parity == 1

    def test_rejects_non_bijections(self):
        with pytest.raises(DimensionError):
            SignedPerm((0, 0), 1)
        with pytest.raises(DimensionError):
            SignedPerm((0, 2), 1)
        with pytest.raises(DimensionError):
            SignedPerm((), 1)
        with pytest.raises(DimensionError):
            SignedPerm((0, 1), 2)

    def test_rejects_a_parity_the_mapping_disagrees_with(self):
        with pytest.raises(DimensionError):
            SignedPerm((1, 0), 1)
        with pytest.raises(DimensionError):
            SignedPerm((1, 2, 0), -1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_wrong_parity_is_rejected(self, n):
        for mapping in all_mappings(n):
            with pytest.raises(DimensionError):
                SignedPerm(mapping, -inversion_sign(mapping))

    def test_inverse(self):
        p = SignedPerm.from_mapping((2, 0, 1))
        assert p.inverse.mapping == (1, 2, 0)
        assert p.inverse.parity == p.parity
        assert (p * p.inverse).mapping == (0, 1, 2)

    def test_compose_applies_right_first(self):
        a = SignedPerm.from_mapping((1, 0, 2))
        b = SignedPerm.from_mapping((0, 2, 1))
        # (a*b)(1) = a(b(1)) = a(2) = 2
        assert (a * b)(1) == 2

    @given(st.integers(2, 6), st.data())
    def test_parity_homomorphism(self, n, data):
        pool = all_mappings(n)
        ma = data.draw(st.sampled_from(pool))
        mb = data.draw(st.sampled_from(pool))
        a, b = SignedPerm.from_mapping(ma), SignedPerm.from_mapping(mb)
        assert (a * b).parity == a.parity * b.parity
        assert (a * b).parity == inversion_sign((a * b).mapping)


class TestEnumeration:
    def test_n1(self):
        perms = list(enumerate_signed(1))
        assert len(perms) == 1 and perms[0].parity == 1

    def test_n0_rejected(self):
        with pytest.raises(DimensionError):
            list(enumerate_signed(0))

    def test_n3_parities_cancel(self):
        perms = list(enumerate_signed(3))
        assert len(perms) == 6
        assert sum(p.parity for p in perms) == 0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_parities_match_inversion_oracle(self, n):
        for p in enumerate_signed(n):
            assert p.parity == inversion_sign(p.mapping)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_all_distinct(self, n):
        seen = {p.mapping for p in enumerate_signed(n)}
        assert len(seen) == factorial(n)


class TestProduct:
    def test_trivial_shape(self):
        tuples = list(enumerate_product(Shape.of(1, 1, 1)))
        assert len(tuples) == 1 and tuples[0].parity == 1

    def test_two_by_two_parity_order(self):
        parities = [t.parity for t in enumerate_product(Shape.of(2, 2))]
        assert parities == [1, -1, -1, 1]

    def test_rightmost_factor_fastest(self):
        tuples = list(enumerate_product(Shape.of(2, 2)))
        first_parts = [t.parts[0].mapping for t in tuples]
        assert first_parts == [(0, 1), (0, 1), (1, 0), (1, 0)]

    def test_shape_2_3(self):
        tuples = list(enumerate_product(Shape.of(2, 3)))
        assert len(tuples) == 12
        assert sorted(t.parity for t in tuples) == [-1] * 6 + [1] * 6
        seen = {tuple(p.mapping for p in t.parts) for t in tuples}
        assert len(seen) == 12

    def test_tuple_parity_is_product(self):
        for t in islice(enumerate_product(Shape.of(3, 3)), 36):
            assert t.parity == t.parts[0].parity * t.parts[1].parity

    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            Shape.of()
        with pytest.raises(DimensionError):
            Shape.of(2, 0)

    def test_term_count(self):
        assert Shape.of(3, 2).term_count == 12
        assert Shape.of(4, 4, 4, 4).term_count == 24**4


def _tuple_of(rows_list):
    return MatrixTuple.of(Matrix.from_rows(rows) for rows in rows_list)


class TestAct:
    def test_identity_action(self):
        A = _tuple_of([[[1, 2], [3, 4]], [[5, 6], [7, 8]]])
        e = SignedPermTuple.identity(A.shape)
        assert act(e, A) == A

    def test_single_transposition_swaps_one_matrix(self):
        A = _tuple_of([[[1, 2], [3, 4]], [[5, 6], [7, 8]]])
        swap = SignedPerm.from_mapping((1, 0))
        keep = SignedPerm.identity(2)
        moved = act(SignedPermTuple.of([swap, keep]), A)
        assert moved.matrices[0].entries == ((2, 1), (4, 3))
        assert moved.matrices[1] == A.matrices[1]

    def test_column_placement_convention(self):
        # rho sends 0->1->2->0; column j of the image is column rho^-1(j)
        A = _tuple_of([[[1, 2, 3], [4, 5, 6], [7, 8, 9]]])
        rho = SignedPerm.from_mapping((1, 2, 0))
        moved = act(SignedPermTuple.of([rho]), A)
        assert moved.matrices[0].column(1) == A.matrices[0].column(0)
        assert moved.matrices[0].entries == ((3, 1, 2), (6, 4, 5), (9, 7, 8))

    def test_left_action_law_shape_3_2(self):
        A = _tuple_of([[[1, 2, 0], [0, 3, 1], [2, 1, 1]], [[1, 2], [3, 5]]])
        shape = A.shape
        for s in enumerate_product(shape):
            for t in enumerate_product(shape):
                assert act(s, act(t, A)) == act(s * t, A)

    def test_determinant_picks_up_the_sign(self):
        A = _tuple_of([[[1, 2, 0], [0, 3, 1], [2, 1, 1]], [[1, 2], [3, 5]]])
        for t in enumerate_product(A.shape):
            moved = act(t, A)
            for part, m0, m1 in zip(t.parts, A.matrices, moved.matrices):
                assert det(m1) == part.parity * det(m0)

    def test_shape_mismatch(self):
        A = _tuple_of([[[1, 2], [3, 4]]])
        with pytest.raises(DimensionError):
            act(SignedPermTuple.of([SignedPerm.identity(3)]), A)
        with pytest.raises(DimensionError):
            act(SignedPermTuple.identity(Shape.of(2, 2)), A)

    def test_matches_literal_inverse_formula(self):
        A = _tuple_of([[[1, 2, 3], [4, 5, 6], [7, 8, 10]]])
        for t in enumerate_product(A.shape):
            rho = t.parts[0]
            moved = act(t, A)
            literal = invert(rho.mapping)
            for i in range(3):
                for j in range(3):
                    assert moved.matrices[0].entries[i][j] == A.matrices[0].entries[i][literal[j]]
