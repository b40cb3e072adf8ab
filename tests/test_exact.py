"""Scalar parsing, matrices, determinants and polynomial arithmetic."""

import sys
from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from altdet import (
    DimensionError,
    InputError,
    Matrix,
    Polynomial,
    det,
    format_rational,
    parse_rational,
    poly_det,
    poly_mul,
)
from altdet.exact import _int_det, int_scaled

from oracles import laplace_det, lcm_scaled

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)


class _Tagged(int):
    """An int subclass, which int_scaled and format_rational treat as a rational."""


class TestRationalText:
    def test_integers(self):
        assert parse_rational("4") == 4
        assert parse_rational("-17") == -17
        assert parse_rational("+3") == 3
        assert parse_rational("0") == 0

    def test_fractions(self):
        assert parse_rational("-3/7") == Fraction(-3, 7)
        assert parse_rational("6/4") == Fraction(3, 2)

    def test_rejects_junk(self):
        for bad in ["", "1.5", "3 / 7", "a", "1/-2", "--3", "1/0", None, 7]:
            with pytest.raises(InputError):
                parse_rational(bad)

    @pytest.mark.parametrize("bad", ["\u0663", "\uff13/\uff14", "4\n"], ids=["arabic-indic", "fullwidth", "newline"])
    def test_rejects_beyond_ascii_digits(self, bad):
        # only [0-9] digits, and the whole string must match
        with pytest.raises(InputError):
            parse_rational(bad)

    def test_literal_past_the_integer_string_limit(self):
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this Python has no limit on integer strings")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            for text in ["7" * 4301, "1/" + "3" * 4301]:
                with pytest.raises(InputError):
                    parse_rational(text)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_format_past_the_integer_string_limit(self):
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this Python has no limit on integer strings")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)  # the lowest limit the interpreter allows
        try:
            big = format_rational(10**5000)
            ratio = format_rational(Fraction(-(3**9000), 7**5000))
        finally:
            sys.set_int_max_str_digits(limit)
        assert big == "1" + "0" * 5000
        assert parse_rational(ratio) == Fraction(-(3**9000), 7**5000)
        assert ratio.startswith("-") and ratio.count("/") == 1

    def test_format_is_canonical(self):
        assert format_rational(Fraction(6, 4)) == "3/2"
        assert format_rational(Fraction(-6, 4)) == "-3/2"
        assert format_rational(5) == "5"
        assert format_rational(Fraction(-4, 2)) == "-2"

    def test_int_is_formatted_without_a_fraction(self, monkeypatch):
        made = []

        class Spy(Fraction):
            def __new__(cls, *args):
                made.append(args)
                return Fraction(*args)

        values = [0, -7, 10**700, -(10**5000) + 3]
        expected = [format_rational(Fraction(v)) for v in values]
        monkeypatch.setattr("altdet.exact.Fraction", Spy)
        assert [format_rational(v) for v in values] == expected
        assert made == []
        # the spy sees the rational route: bools and int subclasses still take it
        assert [format_rational(True), format_rational(_Tagged(-4))] == ["1", "-4"]
        assert len(made) == 2

    @given(rationals)
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q


class TestMatrix:
    def test_shape_and_access(self):
        m = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert (m.rows, m.cols) == (2, 3)
        assert m.column(1) == (2, 5)
        assert m.columns() == [(1, 4), (2, 5), (3, 6)]
        assert not m.is_square

    def test_from_columns_transposes(self):
        m = Matrix.from_columns([(1, 4), (2, 5), (3, 6)])
        assert m.entries == ((1, 2, 3), (4, 5, 6))

    def test_identity(self):
        assert Matrix.identity(3).entries == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_ragged_rejected(self):
        with pytest.raises(DimensionError, match="same length"):
            Matrix.from_rows([[1, 2], [3]])
        with pytest.raises(DimensionError, match="same length"):
            Matrix(((1, 2), ()))
        # an empty first row is no column, whatever follows it
        for entries in ((), ((),), ((), (1,))):
            with pytest.raises(DimensionError, match="at least one row and one column"):
                Matrix(entries)

    def test_hashable(self):
        a = Matrix.identity(2)
        b = Matrix.from_rows([[1, 0], [0, 1]])
        assert hash(a) == hash(b) and a == b


class TestDet:
    def test_small_cases(self):
        assert det(Matrix.from_rows([[7]])) == 7
        assert det(Matrix.from_rows([[1, 2], [3, 4]])) == -2
        assert det(Matrix.identity(5)) == 1

    def test_singular(self):
        assert det(Matrix.from_rows([[1, 2], [2, 4]])) == 0
        assert det(Matrix.from_rows([[0, 0], [1, 1]])) == 0

    def test_rational_entries(self):
        m = Matrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]])
        assert det(m) == Fraction(1, 2) * Fraction(1, 7) - Fraction(1, 3) * Fraction(1, 5)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            det(Matrix.from_rows([[1, 2, 3], [4, 5, 6]]))

    def test_column_swap_flips_sign(self):
        m = Matrix.from_rows([[1, 2, 3], [0, 1, 4], [5, 6, 0]])
        swapped = Matrix.from_columns([m.column(1), m.column(0), m.column(2)])
        assert det(swapped) == -det(m)

    @given(
        st.integers(min_value=1, max_value=5).flatmap(
            lambda n: st.lists(
                st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n
            )
        )
    )
    def test_matches_laplace(self, rows):
        assert det(Matrix.from_rows(rows)) == laplace_det(rows)

    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-50, 50), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
    )
    def test_int_fast_path_matches_laplace(self, rows):
        assert _int_det([row[:] for row in rows]) == laplace_det(rows)

    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda n: st.one_of(
                *(
                    st.lists(st.lists(st.sampled_from(entries), min_size=n, max_size=n), min_size=n, max_size=n)
                    for entries in ((-1, 0, 1), (0, 1, 2))
                ),
                st.permutations(range(n)).map(lambda p: [[int(p[r] == c) for c in range(n)] for r in range(n)]),
            )
        )
    )
    def test_int_det_on_small_entries_matches_laplace(self, rows):
        # zero factors under an unchanged pivot skip their row; these inputs hit that often
        assert _int_det([row[:] for row in rows]) == laplace_det(rows)

    def test_zero_factor_under_a_new_pivot_is_still_scaled(self):
        # at k = 1 the pivot is 2 and the previous one 1; row 2 has a 0 in
        # column 1 but still needs its scaling by 2, or the result reads 2
        rows = [[1, 0, 0], [0, 2, 0], [0, 0, 2]]
        assert laplace_det(rows) == 4
        assert _int_det([row[:] for row in rows]) == 4

    def test_sign_alphabet_sweep_at_order_3(self):
        # all 19,683 3 x 3 matrices over {-1, 0, 1}; skipping every zero
        # factor, whatever the pivot, fails 4,800 of them
        for e in product((-1, 0, 1), repeat=9):
            rows = [list(e[0:3]), list(e[3:6]), list(e[6:9])]
            assert _int_det([row[:] for row in rows]) == laplace_det(rows)

    @given(st.lists(st.one_of(rationals, st.integers(-9, 9)), min_size=1, max_size=6))
    def test_int_scaled_is_exact_and_least(self, values):
        ints, scale = int_scaled(values)
        assert [Fraction(x, scale) for x in ints] == [Fraction(v) for v in values]
        assert all(type(x) is int for x in ints)
        assert scale == lcm(*(Fraction(v).denominator for v in values))

    @pytest.mark.parametrize("values", [
        [3, -7, 0, 9],
        (10**5000, -(10**5000) + 1, 2),
        [True, False, 1],
        [Fraction(4, 1), Fraction(-2, 1), 5],
        [_Tagged(6), -1],
        [2, Fraction(1, 3), True, -4, Fraction(5, 6)],
        [],
    ], ids=["ints", "huge ints", "bools", "integral fractions", "int subclass", "mixed", "empty"])
    def test_int_scaled_matches_the_lcm_route(self, values):
        ints, scale = int_scaled(values)
        assert (ints, scale) == lcm_scaled(values)
        assert all(type(x) is int for x in ints)
        # a fresh list: _int_det eliminates in place
        assert type(ints) is list and ints is not values

    def test_pivot_search_hits_zero_column(self):
        m = Matrix.from_rows([[0, 1, 2], [0, 3, 4], [0, 5, 6]])
        assert det(m) == 0


class TestPolynomial:
    def test_zero_and_degree(self):
        z = Polynomial.zero(3)
        assert z.is_zero and z.ambient == 3
        with pytest.raises(ValueError):
            z.degree
        assert Polynomial((0, 5, 0)).degree == 1

    def test_evaluate(self):
        p = Polynomial((1, -2, 3))
        assert p(0) == 1
        assert p(2) == 1 - 4 + 12
        assert p(Fraction(1, 2)) == 1 - 1 + Fraction(3, 4)

    def test_mul(self):
        a = Polynomial((1, 1))
        b = Polynomial((1, -1))
        assert poly_mul(a, b, 3).coeffs == (1, 0, -1)

    def test_mul_overflow(self):
        a = Polynomial((0, 1))
        with pytest.raises(DimensionError):
            poly_mul(a, a, 2)

    def test_mul_zero_short_circuits(self):
        a = Polynomial((0, 0, 1))
        z = Polynomial.zero(3)
        # degree would overflow if multiplied literally, but zero absorbs
        assert poly_mul(a, z, 3).is_zero

    @given(
        st.lists(st.integers(-9, 9), min_size=1, max_size=4),
        st.lists(st.integers(-9, 9), min_size=1, max_size=4),
        st.integers(-3, 3),
    )
    def test_mul_agrees_with_evaluation(self, ac, bc, t):
        a = Polynomial(tuple(ac))
        b = Polynomial(tuple(bc))
        prod = poly_mul(a, b, len(ac) + len(bc))
        assert prod(t) == a(t) * b(t)

    def test_str(self):
        assert str(Polynomial((1, 0, -2))) == "1 + -2*t^2"
        assert str(Polynomial.zero(2)) == "0"
        assert str(Polynomial((0, 1))) == "t"


class TestPolyDet:
    def test_monomial_basis(self):
        ps = [Polynomial(tuple(1 if d == i else 0 for d in range(3))) for i in range(3)]
        assert poly_det(ps) == 1

    def test_dependent_is_zero(self):
        p = Polynomial((1, 2))
        q = Polynomial((2, 4))
        assert poly_det([p, q]) == 0

    def test_two_by_two(self):
        p = Polynomial((1, 1))
        q = Polynomial((1, -1))
        # | 1  1 ; 1 -1 | = -2
        assert poly_det([p, q]) == -2

    def test_ambient_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            poly_det([Polynomial((1, 2, 3)), Polynomial((1, 2, 3))])
