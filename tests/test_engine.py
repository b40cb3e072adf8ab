"""Alternating sums, the identity-matrix invariant, and the factorization check."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altdet.engine import (
    DenseTensorForm,
    Fold,
    MatrixTuple,
    MultilinearForm,
    _fold_sum,
    alternating_sum,
    invariant_at_identity,
    verify_identity,
)
from altdet.errors import BudgetError, DimensionError, charge
from altdet.exact import Matrix
from altdet.instances import SplitMix64, random_colorful_instance, random_spinor_instance
from altdet.onn import colorful_form
from altdet.perms import Shape, enumerate_product
from altdet.svrtan import spinor_form

from oracles import brute_alternating_sum, literal_act, literal_dense_eval


def random_tuple(shape, rng, lo=-5, hi=5):
    return MatrixTuple(
        shape,
        tuple(
            Matrix.from_rows([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])
            for n in shape
        ),
    )


def random_nonsingular_tuple(shape, rng, lo=-5, hi=5):
    while True:
        A = random_tuple(shape, rng, lo, hi)
        if A.is_nonsingular:
            return A


def random_dense_form(shape, rng, lo=-4, hi=4):
    size = 1
    for n in shape:
        size *= n**n
    return DenseTensorForm(shape, [rng.randint(lo, hi) for _ in range(size)])


def literal_value(coeffs, mats):
    return literal_dense_eval(coeffs, [m.entries for m in mats])


def _shapes(limit):
    """Shapes with k <= 3 factors of size <= 3 whose cost stays under limit."""
    out = []
    for k in (1, 2, 3):
        for sizes in product((1, 2, 3), repeat=k):
            if limit(prod(n**n for n in sizes), prod(factorial(n) for n in sizes)):
                out.append(Shape(sizes))
    return out


# single evaluations: up to (3,3,2), 2916 coefficients
EVAL_SHAPES = _shapes(lambda coeffs, terms: coeffs <= 2916)
# literal alternating sums: one full expansion per term
SUM_SHAPES = _shapes(lambda coeffs, terms: coeffs * terms <= 30000)


def seeded_dense_case(shape, seed, rational, zero_column):
    """A dense form and a tuple; Fractions with mixed denominators if rational."""
    rng = random.Random(seed)

    def entry():
        if rational and rng.random() < 0.5:
            return Fraction(rng.randint(-5, 5), rng.choice((2, 3, 4, 6)))
        return rng.randint(-4, 4)

    size = prod(n**n for n in shape)
    grids = [[[entry() for _ in range(n)] for _ in range(n)] for n in shape]
    if zero_column:
        grid = rng.choice(grids)
        j = rng.randrange(len(grid))
        for row in grid:
            row[j] = 0
    A = MatrixTuple(shape, tuple(Matrix.from_rows(g) for g in grids))
    return DenseTensorForm(shape, [entry() for _ in range(size)]), A


class TestMatrixTuple:
    def test_of_derives_shape(self):
        A = MatrixTuple.of([Matrix.identity(3), Matrix.identity(2)])
        assert A.shape == Shape.of(3, 2)

    def test_identity(self):
        A = MatrixTuple.identity(Shape.of(2, 3))
        assert A.determinants == (1, 1)
        assert A.is_nonsingular

    def test_size_validation(self):
        with pytest.raises(DimensionError):
            MatrixTuple(Shape.of(2, 2), (Matrix.identity(2),))
        with pytest.raises(DimensionError):
            MatrixTuple(Shape.of(3), (Matrix.identity(2),))

    def test_singular_detection(self):
        A = MatrixTuple.of([Matrix.identity(2), Matrix.from_rows([[1, 1], [1, 1]])])
        assert not A.is_nonsingular
        assert A.determinants == (1, 0)


class TestDenseTensorForm:
    def test_two_slot_hand_expansion(self):
        # shape (2): slots are the two columns; coeff index (r0, r1), r1 fastest
        f = DenseTensorForm(Shape.of(2), [1, 2, 3, 4])
        A = MatrixTuple.of([Matrix.from_rows([[5, 6], [7, 8]])])
        expected = 1 * 5 * 6 + 2 * 5 * 8 + 3 * 7 * 6 + 4 * 7 * 8
        assert f(A) == expected

    def test_coefficient_count_validated(self):
        with pytest.raises(DimensionError):
            DenseTensorForm(Shape.of(2, 2), [1] * 15)

    def test_multilinear_in_each_column(self):
        rng = random.Random(11)
        shape = Shape.of(2, 2)
        f = random_dense_form(shape, rng)
        A = random_tuple(shape, rng)
        lam = Fraction(3, 2)
        base = f(A)
        for i, n in enumerate(shape):
            for j in range(n):
                cols = [list(m.columns()) for m in A.matrices]
                cols[i][j] = tuple(lam * x for x in cols[i][j])
                scaled = MatrixTuple(shape, tuple(Matrix.from_columns(c) for c in cols))
                # scaling column j of matrix i scales f by the same factor
                assert f(scaled) == lam * base

    def test_additive_in_a_column(self):
        rng = random.Random(12)
        shape = Shape.of(2, 2)
        f = random_dense_form(shape, rng)
        A = random_tuple(shape, rng)
        B_cols = [list(m.columns()) for m in A.matrices]
        v = (rng.randint(-5, 5), rng.randint(-5, 5))
        summed = [list(m.columns()) for m in A.matrices]
        B_cols[0][1] = v
        summed[0][1] = tuple(a + b for a, b in zip(summed[0][1], v))
        B = MatrixTuple(shape, tuple(Matrix.from_columns(c) for c in B_cols))
        S = MatrixTuple(shape, tuple(Matrix.from_columns(c) for c in summed))
        assert f(S) == f(A) + f(B)


class TestAlternatingSum:
    def test_one_term_shape(self):
        # single 1x1 block: the sum is the single evaluation u(a)
        f = DenseTensorForm(Shape.of(1), [Fraction(2, 3)])
        A = MatrixTuple.of([Matrix.from_rows([[6]])])
        assert alternating_sum(f, A) == 4

    def test_matches_literal_inverse_sum_shape_2_2(self):
        rng = random.Random(21)
        shape = Shape.of(2, 2)
        for _ in range(10):
            f = random_dense_form(shape, rng)
            A = random_tuple(shape, rng)
            expected = brute_alternating_sum(
                lambda mats: f(MatrixTuple.of(mats)), A.matrices, literal_act
            )
            assert alternating_sum(f, A) == expected

    def test_matches_literal_inverse_sum_shape_3(self):
        rng = random.Random(22)
        shape = Shape.of(3)
        f = random_dense_form(shape, rng)
        A = random_tuple(shape, rng)
        expected = brute_alternating_sum(
            lambda mats: f(MatrixTuple.of(mats)), A.matrices, literal_act
        )
        assert alternating_sum(f, A) == expected

    def test_skew_symmetry(self):
        rng = random.Random(23)
        shape = Shape.of(2, 2)
        f = random_dense_form(shape, rng)
        A = random_tuple(shape, rng)
        base = alternating_sum(f, A)
        for parity, maps in enumerate_product(shape):
            moved = MatrixTuple(shape, tuple(literal_act(m, M) for m, M in zip(maps, A.matrices)))
            assert alternating_sum(f, moved) == parity * base

    def test_equal_columns_annihilate(self):
        rng = random.Random(24)
        shape = Shape.of(2, 2)
        f = random_dense_form(shape, rng)
        A = MatrixTuple.of(
            [Matrix.from_rows([[3, 3], [7, 7]]), Matrix.from_rows([[1, 2], [3, 4]])]
        )
        assert alternating_sum(f, A) == 0

    @pytest.mark.parametrize("form, shape", [
        (DenseTensorForm(Shape.of(2), [1, 0, 0, 1]), Shape.of(3)),
        (DenseTensorForm(Shape.of(2, 2), [1] * 16), Shape.of(3)),
        (colorful_form(2), Shape.of(3, 3)),
    ], ids=["dense-2-on-3", "dense-2,2-on-3", "colorful-2-on-3,3"])
    def test_shape_mismatch(self, form, shape):
        with pytest.raises(DimensionError):
            alternating_sum(form, MatrixTuple.identity(shape))
        with pytest.raises(DimensionError):
            form(MatrixTuple.identity(shape))

    def test_term_budget(self):
        f = DenseTensorForm(Shape.of(3), [0] * 27)
        with pytest.raises(BudgetError):
            alternating_sum(f, MatrixTuple.identity(Shape.of(3)), term_budget=5)


class TestInvariant:
    def test_product_of_first_entries(self):
        # f = product of the (1,1) entries on shape (1,1): invariant is 1
        f = MultilinearForm(
            Shape.of(1, 1),
            lambda A: A.matrices[0].entries[0][0] * A.matrices[1].entries[0][0],
            "entry product",
        )
        assert invariant_at_identity(f) == 1

    def test_linear_in_the_form(self):
        rng = random.Random(31)
        shape = Shape.of(2, 2)
        f = random_dense_form(shape, rng)
        g = random_dense_form(shape, rng)
        combo = DenseTensorForm(
            shape, [3 * a + Fraction(1, 2) * b for a, b in zip(f.coeffs, g.coeffs)]
        )
        assert invariant_at_identity(combo) == 3 * invariant_at_identity(f) + Fraction(
            1, 2
        ) * invariant_at_identity(g)


    @pytest.mark.parametrize("sizes", [(2, 3), (3, 1, 2)], ids=str)
    def test_terms_come_from_the_one_walker(self, sizes):
        seen = []

        class Recorder(MultilinearForm):
            def evaluate_columns(self, cols):
                # at the identity, column s of a block is the unit vector e_s
                seen.append(tuple(tuple(col.index(1) for col in block) for block in cols))
                return 0

        shape = Shape(sizes)
        assert invariant_at_identity(Recorder(shape, None)) == 0
        assert seen == [maps for _, maps in enumerate_product(shape)]

    def test_budget_refusal_prints_huge_counts_by_bit_length(self):
        assert "(999999999999999999 > budget 5)" in str(BudgetError("x", count=10**18 - 1, budget=5))
        assert "(a 60-bit number > budget 5)" in str(BudgetError("x", count=10**18, budget=5))
        # the gate passes a count equal to the budget and refuses one past it
        assert charge(5, 5, "x") == 5
        with pytest.raises(BudgetError) as refused:
            charge(6, 5, "x")
        assert str(refused.value) == "x (6 > budget 5)"
        # a bound past 64 bits and the budget's refuses a count unbuilt; below it the count is built
        with pytest.raises(BudgetError) as refused:
            charge(lambda: pytest.fail("count built past its bound"), 10**8, "x", bits=65)
        assert str(refused.value) == "x (at least a 65-bit number > budget 100000000)"
        assert charge(lambda: 2**63, 2**64, "x", bits=64) == 2**63
        with pytest.raises(BudgetError) as refused:
            charge(lambda: 2**64, 5, "x", bits=64)
        assert str(refused.value) == "x (a 65-bit number > budget 5)"

    def test_budget_is_checked_before_the_term_is_built(self):
        class Unbuildable(MultilinearForm):
            def fold(self, cols):
                raise AssertionError("fold built past the budget")

        f = Unbuildable(Shape.of(3, 3), None, "refused before any term")
        A = MatrixTuple.identity(f.shape)
        with pytest.raises(BudgetError):
            invariant_at_identity(f, term_budget=35)
        with pytest.raises(BudgetError):
            alternating_sum(f, A, term_budget=35)


SHARED_FORMS = [(colorful_form, random_colorful_instance, 3), (spinor_form, random_spinor_instance, 4)]


class TestInvariantKeptOnForm:
    """The identity sum runs once per form; the constructors share one form per order."""

    @pytest.fixture(autouse=True)
    def fresh_constructors(self):
        colorful_form.cache_clear()
        spinor_form.cache_clear()

    @pytest.mark.parametrize("make, draw, n", SHARED_FORMS, ids=["colorful-3", "spinor-4"])
    def test_two_checks_take_one_identity_sum(self, make, draw, n, monkeypatch):
        sums = []

        def spy(shape, fold):
            sums.append(shape)
            return _fold_sum(shape, fold)

        monkeypatch.setattr("altdet.engine._fold_sum", spy)
        reports = [verify_identity(make(n), draw(n, SplitMix64(seed))) for seed in (1, 2)]
        # one sum per tuple and one at the identity, not one at the identity per check
        assert len(sums) == 3
        assert all(r.verdict for r in reports)
        assert reports[0].invariant == reports[1].invariant == invariant_at_identity(make(n))
        assert reports[0].determinants != reports[1].determinants

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_one_form_per_order(self, n):
        assert colorful_form(n) is colorful_form(n)
        assert spinor_form(n + 1) is spinor_form(n + 1)
        assert colorful_form(n) is not colorful_form(n + 1)

    @pytest.mark.parametrize("make, draw, n", SHARED_FORMS, ids=["colorful-3", "spinor-4"])
    def test_kept_invariant_still_charges_the_budget(self, make, draw, n):
        f = make(n)
        with pytest.raises(BudgetError) as before:
            invariant_at_identity(f, term_budget=35)
        assert verify_identity(f, draw(n, SplitMix64(3))).verdict
        with pytest.raises(BudgetError) as after:
            invariant_at_identity(f, term_budget=35)
        assert str(after.value) == str(before.value)
        with pytest.raises(BudgetError):
            verify_identity(f, draw(n, SplitMix64(3)), term_budget=35)

    @pytest.mark.parametrize("sizes", [(2, 2), (3, 2)], ids=str)
    def test_dense_and_plain_forms_keep_the_same_invariant(self, sizes):
        shape = Shape(sizes)
        dense = random_dense_form(shape, random.Random(sum(sizes)))
        plain = MultilinearForm(shape, lambda B: literal_value(dense.coeffs, B.matrices), "plain")
        expected = brute_alternating_sum(
            lambda mats: literal_value(dense.coeffs, mats), MatrixTuple.identity(shape).matrices, literal_act
        )
        first = [invariant_at_identity(dense), invariant_at_identity(plain)]
        second = [invariant_at_identity(dense), invariant_at_identity(plain)]
        assert first == second == [expected, expected]


class TestVerifyIdentity:
    def test_random_forms_shape_2_2(self):
        rng = random.Random(41)
        shape = Shape.of(2, 2)
        for _ in range(5):
            f = random_dense_form(shape, rng)
            A = random_nonsingular_tuple(shape, rng)
            report = verify_identity(f, A)
            assert report.verdict
            assert report.lhs == report.invariant * A.determinants[0] * A.determinants[1]

    def test_random_forms_shape_2_2_2(self):
        rng = random.Random(42)
        shape = Shape.of(2, 2, 2)
        f = random_dense_form(shape, rng)
        A = random_tuple(shape, rng)
        assert verify_identity(f, A).verdict

    def test_singular_input_forces_zero_lhs(self):
        rng = random.Random(43)
        shape = Shape.of(2, 2)
        f = random_dense_form(shape, rng)
        A = MatrixTuple.of(
            [Matrix.from_rows([[1, 2], [2, 4]]), Matrix.from_rows([[1, 0], [0, 1]])]
        )
        report = verify_identity(f, A)
        assert report.rhs == 0
        assert report.verdict and report.lhs == 0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32))
    def test_identity_holds_on_random_inputs(self, seed):
        rng = random.Random(seed)
        shape = rng.choice([Shape.of(2), Shape.of(2, 2), Shape.of(3)])
        f = random_dense_form(shape, rng)
        A = random_tuple(shape, rng, -3, 3)
        assert verify_identity(f, A).verdict


class TestFastRoutesMatchLiteral:
    """Column-index routes against full expansion and the literal inverse sum."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(EVAL_SHAPES), st.integers(0, 2**32), st.booleans(), st.booleans())
    def test_contraction_matches_expansion(self, shape, seed, rational, zero_column):
        f, A = seeded_dense_case(shape, seed, rational, zero_column)
        value = f(A)
        assert value == literal_value(f.coeffs, A.matrices)
        if zero_column:
            assert value == 0

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(SUM_SHAPES), st.integers(0, 2**32), st.booleans(), st.booleans())
    def test_alternating_sum_matches_brute(self, shape, seed, rational, zero_column):
        f, A = seeded_dense_case(shape, seed, rational, zero_column)
        expected = brute_alternating_sum(
            lambda mats: literal_value(f.coeffs, mats), A.matrices, literal_act
        )
        assert alternating_sum(f, A) == expected

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(EVAL_SHAPES), st.integers(0, 2**32), st.booleans())
    def test_direct_invariant_matches_generic_sum(self, shape, seed, rational):
        f, _ = seeded_dense_case(shape, seed, rational, False)
        generic = MultilinearForm(shape, f, "dense form through the fallback")
        assert invariant_at_identity(f) == invariant_at_identity(generic)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(SUM_SHAPES), st.integers(0, 2**32), st.booleans(), st.booleans())
    def test_closure_form_through_fallback(self, shape, seed, rational, zero_column):
        f, A = seeded_dense_case(shape, seed, rational, zero_column)
        closure = MultilinearForm(
            shape, lambda B: literal_value(f.coeffs, B.matrices), "closure"
        )
        assert closure(A) == f(A)
        assert alternating_sum(closure, A) == alternating_sum(f, A)
        assert invariant_at_identity(closure) == invariant_at_identity(f)


class DiagonalForm(MultilinearForm):
    """The product over slots (i, j) of entry (j, j) of matrix i.

    Its alternating sum is the product of the determinants.  The evaluator
    is the full expansion; the fold multiplies one entry per step, stops at
    the first zero, and records every leaf it reaches.
    """

    def __init__(self, shape):
        super().__init__(
            shape,
            lambda B: prod(m.entries[j][j] for m in B.matrices for j in range(m.rows)),
            "diagonal product",
        )
        self.leaves = []

    def fold(self, cols):
        def step(value, i, j, c):
            x = cols[i][c][j]
            return value * x if x else None

        return Fold(1, step, lambda value: self.leaves.append(value) or value)


class TestFoldMatchesExpansion:
    """Folds that cut zero subtrees against their own full expansion and the literal sum."""

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(SUM_SHAPES), st.integers(0, 2**32), st.booleans())
    def test_pruning_form_matches_full_expansion(self, shape, seed, rational):
        rng = random.Random(seed)

        def entry():
            if rng.random() < 0.4:
                return 0
            if rational and rng.random() < 0.5:
                return Fraction(rng.randint(-5, 5), rng.choice((2, 3, 4)))
            return rng.randint(-4, 4)

        A = MatrixTuple(shape, tuple(Matrix.from_rows([[entry() for _ in range(n)] for _ in range(n)]) for n in shape))
        f = DiagonalForm(shape)
        expanded = MultilinearForm(shape, f.evaluator, "full expansion")
        total = alternating_sum(f, A)
        reached = len(f.leaves)
        assert total == alternating_sum(expanded, A) == prod(A.determinants)
        assert total == brute_alternating_sum(lambda mats: f.evaluator(MatrixTuple.of(mats)), A.matrices, literal_act)
        assert f(A) == f.evaluator(A)
        # a zero entry (j, c) cuts every term with sigma_i(j) = c
        if any(0 in row for m in A.matrices for row in m.entries):
            assert reached < shape.term_count

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(SUM_SHAPES), st.integers(0, 2**32), st.booleans())
    def test_unit_column_tuples_match_brute(self, shape, seed, rational):
        # every column a unit vector, repeats allowed: the dense fold reads one coefficient per term
        f, _ = seeded_dense_case(shape, seed, rational, False)
        rng = random.Random(seed)
        A = MatrixTuple(shape, tuple(
            Matrix.from_columns([[int(r == pick) for r in range(n)] for pick in (rng.randrange(n) for _ in range(n))])
            for n in shape
        ))
        expected = brute_alternating_sum(lambda mats: literal_value(f.coeffs, mats), A.matrices, literal_act)
        assert alternating_sum(f, A) == expected
        identity = MatrixTuple.identity(shape).matrices
        assert invariant_at_identity(f) == brute_alternating_sum(
            lambda mats: literal_value(f.coeffs, mats), identity, literal_act
        )


class TestPartition:
    """No sum is partitioned: every command runs serially whatever --threads says."""

    def test_serial_run_imports_no_pool(self):
        code = (
            "import sys; from altdet.cli import main; "
            "main(['verify-onn', '--n', '2', '--threads', '4']); "
            "main(['verify-general', '--shape', '2,2', '--threads', '1']); "
            "main(['verify-general', '--shape', '2,2', '--threads', '2']); "
            "main(['verify-svrtan', '--n', '3', '--threads', '2']); "
            "main(['invariant', '--family', 'colorful', '--n', '2', '--threads', '2']); "
            "sys.exit('concurrent.futures' in sys.modules)"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
