"""Latin-square signs, the colorful identity, and the transversal search."""

import random
from fractions import Fraction
from itertools import chain, permutations, product
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altdet.engine import MatrixTuple, alternating_sum, invariant_at_identity, verify_identity
from altdet.errors import BudgetError, DimensionError, InputError
from altdet.exact import Matrix, _int_det, det
from altdet.instances import SplitMix64, random_colorful_instance
from altdet.onn import (
    LATIN_SQUARE_COUNTS,
    ColorfulInstance,
    LatinSquare,
    TransversalSelection,
    _eliminate,
    _minor_moves,
    _onn_partial,
    _position_moves,
    _prefix_minors,
    alon_tarsi_count,
    colorful_form,
    latin_sign,
    latin_squares,
    rota_search,
    verify_onn,
)
from altdet.perms import enumerate_product, walk

from oracles import (
    brute_alternating_sum,
    brute_latin_squares,
    combo_det_rota_search,
    first_identity_colorful_sum,
    first_row_latin_count,
    fraction_transversal_table,
    inversion_sign,
    invert,
    laplace_det,
    literal_act,
    leaf_product_colorful_sum,
)


def random_colorful(n, rng, lo=-5, hi=5, nonsingular=False):
    def one():
        return Matrix.from_rows([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])

    mats = []
    while len(mats) < n:
        m = one()
        if nonsingular and det(m) == 0:
            continue
        mats.append(m)
    return ColorfulInstance.of(mats)


class TestLatinSquare:
    def test_valid(self):
        sq = LatinSquare(((0, 1), (1, 0)))
        assert sq.n == 2

    def test_rejects_bad_rows_and_columns(self):
        with pytest.raises(InputError):
            LatinSquare(((0, 0), (1, 1)))
        with pytest.raises(InputError):
            LatinSquare(((0, 1), (0, 1)))
        with pytest.raises(DimensionError):
            LatinSquare(((0, 1),))

    def test_sign_order_1_and_2(self):
        assert latin_sign(LatinSquare(((0,),))) == 1
        both = [latin_sign(sq) for sq in latin_squares(2)]
        assert both == [1, 1]

    def test_sign_matches_row_column_oracle(self):
        for sq in latin_squares(3):
            expected = 1
            for row in sq.grid:
                expected *= inversion_sign(row)
            for col in zip(*sq.grid):
                expected *= inversion_sign(col)
            assert latin_sign(sq) == expected

    def test_sign_transpose_invariant(self):
        for sq in latin_squares(4):
            assert latin_sign(sq) == latin_sign(LatinSquare(tuple(zip(*sq.grid))))

    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 12), (4, 576)])
    def test_enumeration_is_complete(self, n, count):
        ours = {sq.grid for sq in latin_squares(n)}
        assert len(ours) == count
        assert ours == set(brute_latin_squares(n))
        # row-major with values ascending, the brute force's order
        assert [sq.grid for sq in latin_squares(n)] == brute_latin_squares(n)

    def test_order_3_signs_split_evenly(self):
        signs = [latin_sign(sq) for sq in latin_squares(3)]
        assert signs.count(1) == 6 and signs.count(-1) == 6


class TestAlonTarsi:
    @pytest.mark.parametrize("n,value", [(1, 1), (2, 2), (3, 0)])
    def test_small_values(self, n, value):
        assert alon_tarsi_count(n) == value

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_square_by_square_sum(self, n):
        expected = sum(latin_sign(LatinSquare(sq)) for sq in brute_latin_squares(n))
        assert alon_tarsi_count(n) == expected

    def test_threaded_agrees(self):
        assert alon_tarsi_count(4, threads=3) == alon_tarsi_count(4)
        assert alon_tarsi_count(5, threads=8) == alon_tarsi_count(5)

    def test_odd_orders_vanish(self):
        assert alon_tarsi_count(3) == 0
        assert alon_tarsi_count(5) == 0

    def test_order_cap(self):
        with pytest.raises(BudgetError):
            alon_tarsi_count(8)
        with pytest.raises(DimensionError):
            alon_tarsi_count(0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_square_counts_match_enumeration(self, n):
        assert LATIN_SQUARE_COUNTS[n - 1] == len(brute_latin_squares(n))

    def test_term_budget(self):
        # L(6) = 812851200 squares exceed the default budget: raises before the DFS
        with pytest.raises(BudgetError, match="812851200"):
            alon_tarsi_count(6)
        with pytest.raises(BudgetError):
            alon_tarsi_count(4, term_budget=575)
        assert alon_tarsi_count(4, term_budget=576) == 576


class TestColorfulForm:
    def test_order_1(self):
        f = colorful_form(1)
        A = ColorfulInstance.of([Matrix.from_rows([[7]])]).as_matrix_tuple()
        assert f(A) == 7

    def test_identity_matrices_vanish(self):
        f = colorful_form(2)
        A = ColorfulInstance.of([Matrix.identity(2), Matrix.identity(2)]).as_matrix_tuple()
        # both position-1 columns are e1: repeated columns kill the det
        assert f(A) == 0

    def test_hand_value(self):
        f = colorful_form(2)
        A = ColorfulInstance.of(
            [Matrix.identity(2), Matrix.from_rows([[0, 1], [1, 0]])]
        ).as_matrix_tuple()
        # position 1: det(e1, e2) = 1; position 2: det(e2, e1) = -1
        assert f(A) == -1

    @settings(max_examples=12, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 2**32), st.booleans())
    def test_evaluation_matches_materialized_terms(self, n, seed, rational):
        rng = random.Random(seed)

        def entry():
            if rational and rng.random() < 0.5:
                return Fraction(rng.randint(-5, 5), rng.choice((2, 3, 4)))
            return rng.randint(-2, 2)

        A = ColorfulInstance.of(
            [Matrix.from_rows([[entry() for _ in range(n)] for _ in range(n)]) for _ in range(n)]
        ).as_matrix_tuple()
        f = colorful_form(n)
        for _, maps in enumerate_product(A.shape):
            moved = [literal_act(invert(m), M) for m, M in zip(maps, A.matrices)]
            expected = prod(
                laplace_det([[m.entries[r][j] for m in moved] for r in range(n)]) for j in range(n)
            )
            B = MatrixTuple(A.shape, tuple(moved))
            assert f(B) == expected
            # the fold's one path that keeps every column in place gives the same
            state, step, finish, scale = f.fold(f._columns(B))
            for i in range(n):
                for j in range(n):
                    state = state if state is None else step(state, i, j, j)
            assert (0 if state is None else Fraction(finish(state), scale)) == expected

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_invariant_is_latin_count(self, n):
        assert invariant_at_identity(colorful_form(n)) == alon_tarsi_count(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_identity_walk_reaches_only_latin_squares(self, n):
        # a prefix with a repeated column is cut, so no value test can see the
        # cut: without it the walk at n = 4 reaches all 331,776 leaves
        f = colorful_form(n)
        fold = f.fold([Matrix.identity(n).columns()] * n)
        assert sum(1 for _ in walk(f.shape, fold.start, fold.step)) == LATIN_SQUARE_COUNTS[n - 1]

    def test_fold_takes_no_elimination_or_integer_determinant(self, monkeypatch):
        colorful_form.cache_clear()  # so the identity sum below runs under the spies
        A = random_colorful_instance(3, SplitMix64(4)).as_matrix_tuple()
        expected = alternating_sum(colorful_form(3), A)
        calls = []

        def spy(name, kernel):
            def call(*args):
                calls.append(name)
                return kernel(*args)

            return call

        monkeypatch.setattr("altdet.onn._eliminate", spy("_eliminate", _eliminate))
        monkeypatch.setattr("altdet.exact._int_det", spy("_int_det", _int_det))
        monkeypatch.setattr("altdet.onn._int_det", spy("_int_det", _int_det), raising=False)
        f = colorful_form(3)
        assert alternating_sum(f, A) == expected
        assert invariant_at_identity(f) == 0
        # every value is read from the prefix minors of `_prefix_minors`
        assert calls == []

    @pytest.mark.parametrize("n", [1, 2, 4, 5])
    def test_single_call_takes_at_most_n_determinants(self, n, monkeypatch):
        A = random_colorful_instance(n, SplitMix64(40 + n)).as_matrix_tuple()
        expected = prod(laplace_det([[m.entries[r][j] for m in A.matrices] for r in range(n)])
                        for j in range(n))
        calls = []

        def spy(a):
            calls.append(len(a))
            return _int_det(a)

        monkeypatch.setattr("altdet.exact._int_det", spy)
        monkeypatch.setattr("altdet.onn._apply_moves", None)  # no table is built
        assert colorful_form(n)(A) == expected
        assert calls == [n] * n


class TestVerifyOnn:
    def test_identity_pair(self):
        inst = ColorfulInstance.of([Matrix.identity(2), Matrix.identity(2)])
        report = verify_onn(inst)
        assert report.lhs == 2 and report.rhs == 2 and report.verdict
        assert report.latin_count == 2 and report.term_count == 4

    def test_random_n2(self):
        rng = random.Random(61)
        for _ in range(20):
            assert verify_onn(random_colorful(2, rng)).verdict

    def test_null_case_n3(self):
        rng = random.Random(62)
        for _ in range(5):
            report = verify_onn(random_colorful(3, rng))
            assert report.verdict and report.lhs == 0 and report.latin_count == 0

    def test_singular_input(self):
        inst = ColorfulInstance.of(
            [Matrix.from_rows([[1, 2], [2, 4]]), Matrix.identity(2)]
        )
        report = verify_onn(inst)
        assert report.rhs == 0 and report.lhs == 0 and report.verdict

    def test_rational_entries(self):
        half = Fraction(1, 2)
        inst = ColorfulInstance.of(
            [
                Matrix.from_rows([[half, 1], [0, 1]]),
                Matrix.from_rows([[1, Fraction(1, 3)], [2, 1]]),
            ]
        )
        assert verify_onn(inst).verdict

    def test_matches_engine_route(self):
        rng = random.Random(63)
        for n in (2, 3):
            inst = random_colorful(n, rng, -3, 3)
            direct = verify_onn(inst)
            engine = verify_identity(colorful_form(n), inst.as_matrix_tuple())
            assert direct.lhs == engine.lhs
            assert direct.rhs == engine.rhs
            assert engine.invariant == direct.latin_count

    def test_engine_fold_at_order_4_on_shared_columns(self):
        # each matrix takes 4 of the same 5 columns, so transversals that take
        # one column twice give many dependent prefixes and the fold's cuts
        # decide the value; at order 3 or on random entries a prefix read in
        # the wrong digit order still passes.  Halves and thirds give each
        # matrix its own scale.
        rng = random.Random(67)
        for _ in range(6):
            pool = [[Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(4)] for _ in range(5)]
            picks = [rng.sample(pool, 4) for _ in range(4)]
            inst = ColorfulInstance.of(Matrix.from_columns(cols) for cols in picks)
            assert alternating_sum(colorful_form(4), inst) == verify_onn(inst).lhs

    def test_threads_agree(self):
        rng = random.Random(64)
        inst = random_colorful(3, rng)
        assert verify_onn(inst, threads=8).lhs == verify_onn(inst).lhs

    def test_budget(self):
        rng = random.Random(65)
        with pytest.raises(BudgetError):
            verify_onn(random_colorful(3, rng), term_budget=100)

    def test_determinants_are_computed_once(self):
        inst = random_colorful(3, random.Random(66))
        assert inst.determinants is inst.determinants

    def test_order_4_takes_no_integer_determinant(self, monkeypatch):
        inst = random_colorful_instance(4, SplitMix64(2))
        assert len(inst.determinants) == 4  # the right side's, taken before the spy
        calls = []

        def spy(a):
            calls.append(len(a))
            return _int_det(a)

        monkeypatch.setattr("altdet.exact._int_det", spy)
        monkeypatch.setattr("altdet.onn._int_det", spy, raising=False)
        assert verify_onn(inst).verdict
        # the table grows shared prefix minors and the sum runs position moves
        assert calls == []

    @pytest.mark.parametrize("n", [3, 4])
    def test_position_moves_match_the_literal_partial_sum(self, n):
        # above n = 2: there the sigma_2 = id path takes the first move of
        # both positions, so flipping the sign of each first move cancels
        rng = random.Random(70 + n)
        tables = [[1] * n**n] + [[rng.randint(-3, 3) for _ in range(n**n)] for _ in range(3)]
        for table in tables:
            expected = first_identity_colorful_sum(table, n)
            assert _onn_partial(n, table, 1) == expected
            assert _onn_partial(n, table, 2) == Fraction(expected, 2**n)

    def test_move_counts(self):
        def count(layers):
            return sum(len(sources) for _, sources, _, _ in layers)

        # sum over j of C(4, j)**3 * (4 - j)**3, and of 4**(k + 1) * C(4, k) * (4 - k)
        assert count(_position_moves(4)) == 3584
        assert count(_minor_moves(4)) == 2000


class TestRotaSearch:
    def test_order_1(self):
        sel = rota_search(ColorfulInstance.of([Matrix.from_rows([[5]])]))
        assert sel is not None and sel.maps == ((0,),)

    def test_order_1_singular(self):
        assert rota_search(ColorfulInstance.of([Matrix.from_rows([[0]])])) is None

    def test_identity_pair_hand_case(self):
        inst = ColorfulInstance.of([Matrix.identity(2), Matrix.identity(2)])
        sel = rota_search(inst)
        assert sel is not None
        assert sel.is_valid_for(inst)
        # both transversals pick distinct unit vectors
        for d in sel.transversal_determinants(inst):
            assert d != 0

    def test_selection_uses_each_column_once(self):
        rng = random.Random(71)
        inst = random_colorful(4, rng, nonsingular=True)
        sel = rota_search(inst)
        assert sel is not None
        for cols in sel.maps:
            assert sorted(cols) == [0, 1, 2, 3]

    def test_selection_reuse_and_size_mismatch(self):
        inst = ColorfulInstance.of([Matrix.identity(2), Matrix.from_rows([[1, 1], [1, -1]])])
        # column 0 of matrix 1 at both positions: both determinants are
        # nonzero, but the transversals are not disjoint
        shared = TransversalSelection(((0, 1), (0, 0)))
        assert shared.transversal_determinants(inst) == [1, -1]
        assert not shared.is_valid_for(inst)
        assert TransversalSelection(((0, 1), (1, 0))).is_valid_for(inst)
        with pytest.raises(DimensionError):
            TransversalSelection(((0,),)).transversals(inst)

    @pytest.mark.parametrize("n", [2, 4])
    def test_nonsingular_instances_always_succeed(self, n):
        rng = random.Random(72 + n)
        for _ in range(10):
            inst = random_colorful(n, rng, nonsingular=True)
            sel = rota_search(inst)
            assert sel is not None and sel.is_valid_for(inst)

    def test_order_31_needs_no_deep_recursion(self):
        # 31 * 31 nested picks, past the default limit of 1000 Python frames
        inst = random_colorful_instance(31, SplitMix64(1))
        sel = rota_search(inst)
        assert sel is not None and sel.is_valid_for(inst)

    def test_node_budget(self):
        rng = random.Random(73)
        inst = random_colorful(4, rng, nonsingular=True)
        with pytest.raises(BudgetError):
            rota_search(inst, node_budget=1)

    def test_exhausted_on_hopeless_input(self):
        zero = Matrix.from_rows([[0, 0], [0, 0]])
        inst = ColorfulInstance.of([zero, zero])
        assert rota_search(inst) is None


class TestCrossOracle:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_latin_count_equals_form_invariant(self, n):
        assert alon_tarsi_count(n) == invariant_at_identity(colorful_form(n))


LATIN_COUNTS = {1: 1, 2: 2, 3: 0, 4: 576}


def drawn_colorful(n, rng, rational=False, zero_column=False, repeated_column=False):
    """n random n x n matrices as row lists.

    Optionally mixed-denominator Fraction entries, and one matrix made
    singular by zeroing a column or by copying one column onto another.
    """

    def entry():
        if rational and rng.random() < 0.5:
            return Fraction(rng.randint(-5, 5), rng.choice((2, 3, 4, 6)))
        return rng.randint(-3, 3)

    mats = [[[entry() for _ in range(n)] for _ in range(n)] for _ in range(n)]
    rows = mats[rng.randrange(n)]
    a = rng.randrange(n)
    b = (a + 1 + rng.randrange(n - 1)) % n if n > 1 else a
    for row in rows:
        if zero_column:
            row[a] = 0
        elif repeated_column:
            row[b] = row[a]
    return mats


def permutation_matrices(n, rng):
    mats = []
    for _ in range(n):
        p = list(range(n))
        rng.shuffle(p)
        mats.append([[1 if p[r] == c else 0 for c in range(n)] for r in range(n)])
    return mats


def zero_one_matrices(n, rng):
    """n nonsingular n x n 0/1 matrices, each redrawn until its det is nonzero."""
    mats = []
    while len(mats) < n:
        rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        if laplace_det(rows):
            mats.append(rows)
    return mats


class TestFastRoutesMatchLiteral:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_orbit_count_equals_first_row_dfs(self, n):
        assert alon_tarsi_count(n) == first_row_latin_count(n)

    def test_pinned_values(self):
        assert alon_tarsi_count(6, term_budget=LATIN_SQUARE_COUNTS[5]) == 199065600
        assert alon_tarsi_count(7, term_budget=LATIN_SQUARE_COUNTS[6]) == 0

    @settings(max_examples=16, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 2**32), st.booleans(), st.booleans(), st.integers(1, 4))
    def test_verify_onn_matches_leaf_products(self, n, seed, rational, zero_column, threads):
        # the literal route multiplies Fractions at each of the 24**4 leaves
        # of n = 4 (about 5 s), so rational n = 4 has its own single case
        mats = drawn_colorful(n, random.Random(seed), rational and n < 4, zero_column)
        self.check_onn(mats, threads)

    def test_verify_onn_rational_order_4(self):
        self.check_onn(drawn_colorful(4, random.Random(404), rational=True), threads=2)

    # rational n = 4 is the fixed case above: its literal sum takes about 5 s
    @pytest.mark.parametrize(
        "n,kind",
        [(n, kind) for n in (1, 2, 3) for kind in ("integer", "rational", "permutation", "zero column")]
        + [(4, "integer"), (4, "permutation"), (4, "zero column")],
    )
    def test_verify_onn_lhs_at_each_order(self, n, kind):
        rng = random.Random(410 + n)
        if kind == "permutation":
            mats = permutation_matrices(n, rng)
        elif kind == "zero column":
            mats = drawn_colorful(n, rng, zero_column=True)
        else:
            mats = drawn_colorful(n, rng, rational=kind == "rational")
            while not all(laplace_det(rows) for rows in mats):
                mats = drawn_colorful(n, rng, rational=kind == "rational")
        self.check_onn(mats, threads=1)

    def test_odd_order_cancels_on_nonsingular_rational_input(self):
        # the literal sum reaches 0 by cancelling nonzero terms, not by a shortcut
        rng = random.Random(303)
        mats = drawn_colorful(3, rng, rational=True)
        while not all(laplace_det(rows) for rows in mats) or combo_det_rota_search(mats) is None:
            mats = drawn_colorful(3, rng, rational=True)
        assert leaf_product_colorful_sum(mats) == 0
        self.check_onn(mats, threads=1)

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(2, 3),
        st.integers(0, 2**32),
        st.sampled_from(("integer", "rational", "zero column", "repeated column", "permutation")),
    )
    def test_colorful_fold_matches_leaf_products_and_brute_sum(self, n, seed, kind):
        rng = random.Random(seed)
        if kind == "permutation":
            mats = permutation_matrices(n, rng)
        else:
            mats = drawn_colorful(n, rng, kind == "rational", kind == "zero column", kind == "repeated column")
        A = ColorfulInstance.of(Matrix.from_rows(rows) for rows in mats).as_matrix_tuple()

        def transversal_product(moved):
            return prod(laplace_det([[m.entries[r][j] for m in moved] for r in range(n)]) for j in range(n))

        expected = leaf_product_colorful_sum(mats)
        assert brute_alternating_sum(transversal_product, A.matrices, literal_act) == expected
        assert alternating_sum(colorful_form(n), A) == expected

    def test_sign_alphabet_sweep_at_order_2(self):
        # every pair of 2 x 2 matrices with entries in {-1, 0, 1}: 6,561 instances,
        # through the direct sum and through the engine's fold on the same table
        f = colorful_form(2)
        for e in product((-1, 0, 1), repeat=8):
            mats = [[list(e[0:2]), list(e[2:4])], [list(e[4:6]), list(e[6:8])]]
            inst = ColorfulInstance.of(Matrix.from_rows(rows) for rows in mats)
            layers, scale = _prefix_minors([m.columns() for m in inst.matrices])
            assert [Fraction(t, scale) for t in layers[-1]] == fraction_transversal_table(mats)
            expected = leaf_product_colorful_sum(mats)
            assert verify_onn(inst).lhs == expected
            assert alternating_sum(f, inst) == expected

    @settings(max_examples=24, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 2**32), st.booleans(), st.booleans())
    def test_integer_table_matches_fraction_dets(self, n, seed, rational, zero_column):
        mats = drawn_colorful(n, random.Random(seed), rational, zero_column)
        layers, scale = _prefix_minors([Matrix.from_rows(rows).columns() for rows in mats])
        assert all(type(t) is int for layer in layers for t in layer)
        assert [Fraction(t, scale) for t in layers[-1]] == fraction_transversal_table(mats)

    @staticmethod
    def check_onn(mats, threads):
        report = verify_onn(ColorfulInstance.of(Matrix.from_rows(rows) for rows in mats), threads=threads)
        assert report.lhs == leaf_product_colorful_sum(mats)
        assert report.rhs == LATIN_COUNTS[len(mats)] * prod(laplace_det(rows) for rows in mats)

    def test_elimination_sweep_at_order_3(self):
        # every basis of up to three columns over {0, 1, 2}: a reduced column is
        # None exactly when the columns are dependent, and the last pivot, signed
        # by the pivot order, is the determinant.  Pivots of 2 meet zero factors.
        cols = [list(c) for c in product((0, 1, 2), repeat=3)]
        for a in cols:
            ra = _eliminate(a, [])
            assert (ra is None) == (a == [0, 0, 0])
            if ra is None:
                continue
            for b in cols:
                rb = _eliminate(b, [ra])
                independent = any(a[r] * b[s] != a[s] * b[r] for r in range(3) for s in range(3))
                assert (rb is None) != independent
                if rb is None:
                    continue
                for c in cols:
                    rc = _eliminate(c, [ra, rb])
                    d = laplace_det([[a[r], b[r], c[r]] for r in range(3)])
                    got = 0 if rc is None else inversion_sign((ra[0], rb[0], rc[0])) * rc[1][rc[0]]
                    assert got == d

    def test_small_alphabet_sweep_of_the_search(self):
        # all 216 triples of 3 x 3 permutation matrices, then all 256 pairs of 0/1 2 x 2 matrices
        perm3 = [[[int(p[r] == c) for c in range(3)] for r in range(3)] for p in permutations(range(3))]
        zero_one = [[list(e[0:2]), list(e[2:4])] for e in product((0, 1), repeat=4)]
        for mats in chain(product(perm3, repeat=3), product(zero_one, repeat=2)):
            sel = rota_search(ColorfulInstance.of(Matrix.from_rows(rows) for rows in mats))
            assert (None if sel is None else list(sel.maps)) == combo_det_rota_search(mats)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(("random", "repeated column", "zero column", "permutation", "zero-one")),
        st.integers(1, 6),
        st.integers(0, 2**32),
    )
    def test_rota_matches_combo_det_search(self, kind, n, seed):
        rng = random.Random(seed)
        if kind == "permutation":
            mats = permutation_matrices(n, rng)
        elif kind == "zero-one":
            # elimination pivots reach 2 and up, so zero factors meet changed pivots
            mats = zero_one_matrices(n, rng)
        elif kind == "zero column":
            # every selection fails, so both searches walk the whole tree: keep it small
            mats = drawn_colorful(min(n, 3), rng, rational=True, zero_column=True)
        else:
            mats = drawn_colorful(n, rng, rational=True, repeated_column=kind == "repeated column")
        sel = rota_search(ColorfulInstance.of(Matrix.from_rows(rows) for rows in mats))
        found = None if sel is None else list(sel.maps)
        assert found == combo_det_rota_search(mats)
