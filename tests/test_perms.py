"""The product-group walker and shapes."""

from itertools import product
from math import factorial

import pytest

from altdet.errors import BudgetError, DimensionError
from altdet.perms import Shape, _floor_log2_factorial, enumerate_product

from oracles import all_mappings, inversion_sign


SIZES = pytest.mark.parametrize("sizes", [(1, 1, 1), (2, 2), (2, 3), (3, 3)], ids=str)


class TestProduct:
    @SIZES
    def test_order_matches_literal_product(self, sizes):
        # lexicographic within each factor, rightmost factor fastest
        expected = list(product(*(all_mappings(s) for s in sizes)))
        assert [maps for _, maps in enumerate_product(Shape(sizes))] == expected

    @SIZES
    def test_parity_is_product_of_inversion_signs(self, sizes):
        for parity, maps in enumerate_product(Shape(sizes)):
            expected = 1
            for m in maps:
                expected *= inversion_sign(m)
            assert parity == expected

    @SIZES
    def test_all_distinct(self, sizes):
        elements = [maps for _, maps in enumerate_product(Shape(sizes))]
        assert len(set(elements)) == len(elements) == Shape(sizes).term_count

    @pytest.mark.parametrize("n", range(1, 8))
    def test_one_factor_is_sigma_n(self, n):
        walked = list(enumerate_product(Shape.of(n)))
        assert [maps for _, maps in walked] == [(m,) for m in all_mappings(n)]
        assert sum(parity for parity, _ in walked) == (1 if n == 1 else 0)

    def test_two_by_two_parity_order(self):
        parities = [parity for parity, _ in enumerate_product(Shape.of(2, 2))]
        assert parities == [1, -1, -1, 1]

    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            Shape.of()
        with pytest.raises(DimensionError):
            Shape.of(2, 0)

    def test_term_count(self):
        assert Shape.of(3, 2).term_count == 12
        assert Shape.of(4, 4, 4, 4).term_count == 24**4
        assert Shape.of(3, 1, 3, 2, 3).term_count == 6**3 * 2

    def test_term_count_of_many_equal_factors(self):
        # the spinor shape at n = 300: 44850 factors of size 2
        assert Shape((2,) * 44850).term_count == 1 << 44850
        assert Shape((3,) * 1000 + (5,)).term_count == factorial(3) ** 1000 * 120

    @pytest.mark.parametrize("n", range(1, 300, 7))
    def test_factorial_bound_is_below_by_under_a_bit_per_factor(self, n):
        bound = _floor_log2_factorial(n)
        assert 2**bound <= factorial(n) < 2 ** (bound + n)

    @pytest.mark.parametrize("sizes", [(1,), (2, 2), (3, 3), (4, 2), (5, 2, 1), (12,), (7, 7, 7)], ids=str)
    def test_gate_is_exact_at_the_budget(self, sizes):
        shape = Shape(sizes)
        for count, gate in ((shape.term_count, shape.charge_terms), (shape.coefficient_count, shape.charge_coefficients)):
            assert gate(count, "x") == count
            with pytest.raises(BudgetError) as refused:
                gate(count - 1, "x")
            # a count of at most 64 bits is built and printed by its value or bit length
            assert "at least" not in str(refused.value) or count.bit_length() > 64

    def test_bound_refuses_without_building(self, monkeypatch):
        monkeypatch.setattr("altdet.perms.factorial", lambda n: pytest.fail("count built past its bound"))
        with pytest.raises(BudgetError) as refused:
            Shape((3000,) * 3000).charge_terms(10**8, "x")
        assert str(refused.value) == "x (at least a 86751001-bit number > budget 100000000)"
        with pytest.raises(BudgetError) as refused:
            Shape.of(10**6).charge_coefficients(10**8, "x")
        assert str(refused.value) == "x (at least a 19000001-bit number > budget 100000000)"
