"""Spinor choices, the n! formula, the census, and the assignment search."""

import random
from fractions import Fraction
from functools import cache
from itertools import product
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altdet.engine import (
    DEFAULT_TERM_BUDGET,
    MatrixTuple,
    alternating_sum,
    invariant_at_identity,
    verify_identity,
)
from altdet.errors import BudgetError, DimensionError
from altdet.exact import Polynomial, _int_det, poly_det, poly_mul
from altdet.perms import Shape, enumerate_product
from altdet.svrtan import (
    _assignment_sum,
    _point_dets,
    _point_values,
    _survivors,
    Choice,
    SpinorInstance,
    as_engine_instance,
    choice_det,
    choice_polys,
    edge_pairs,
    nonzero_term_census,
    out_degrees,
    spinor_form,
    svrtan_search,
    verify_svrtan,
)
from oracles import enumerate_choices, invert, laplace_det, literal_act


def poly(c0, c1):
    return Polynomial((c0, c1))


def random_spinor(n, rng, lo=-9, hi=9, nonsingular=True):
    bases = []
    while len(bases) < n * (n - 1) // 2:
        p1 = poly(rng.randint(lo, hi), rng.randint(lo, hi))
        p2 = poly(rng.randint(lo, hi), rng.randint(lo, hi))
        if nonsingular and p1.coeffs[0] * p2.coeffs[1] == p1.coeffs[1] * p2.coeffs[0]:
            continue
        bases.append((p1, p2))
    return SpinorInstance(n, tuple(bases))


def rational_spinor(n, rng):
    """Fraction coefficients with denominators that differ within and across edges."""

    def coeff():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12))

    return SpinorInstance(
        n, tuple((poly(coeff(), coeff()), poly(coeff(), coeff())) for _ in range(n * (n - 1) // 2))
    )


def singular_spinor(n, rng):
    """Random bases whose first edge carries two proportional elements."""
    inst = random_spinor(n, rng)
    p1, _ = inst.bases[0]
    flat = (p1, Polynomial(tuple(-2 * c for c in p1.coeffs)))
    return SpinorInstance(n, (flat,) + inst.bases[1:])


def choices(edge_count):
    """Every choice in the literal reflected-binary order."""
    return [Choice(bits, edge_count) for bits in enumerate_choices(edge_count)]


def literal_first_nonzero(inst):
    """First choice, in reflected-binary order, with a nonzero coefficient determinant."""
    for c in choices(inst.edge_count):
        if choice_det(inst, c) != 0:
            return c
    return None


def literal_sum(inst):
    """Signed choice sum by the polynomial route."""
    total = Fraction(0)
    for c in choices(inst.edge_count):
        total += c.sign * choice_det(inst, c)
    return total


def signed_walk(n, values):
    """Signed total of the walker's point-value determinants."""
    return sum(-d if bits.bit_count() % 2 else d for bits, d in _point_dets(n, values))


def walker_sum(inst):
    """The same sum by the point-value walker, divided once."""
    values, divisor = _point_values(inst)
    return Fraction(signed_walk(inst.n, values), divisor)


def literal_point_dets(n, values):
    """(bits, det) per choice in reflected-binary order, every column built anew."""
    out = []
    for bits in enumerate_choices(n * (n - 1) // 2):
        cols = [[1] * n for _ in range(n)]
        for idx, (i, j) in enumerate(edge_pairs(n)):
            v1, v2 = values[idx]
            to_i, to_j = (v2, v1) if bits >> idx & 1 else (v1, v2)
            for x in range(n):
                cols[i][x] *= to_i[x]
                cols[j][x] *= to_j[x]
        out.append((bits, laplace_det(cols)))
    return out


@cache
def zero_one_sweep():
    """Every order-3 instance with basis coefficients in {0, 1}, and its literal point dets.

    Each of the three edges carries two polynomials of two coefficients;
    singular and zero bases are included.
    """
    out = []
    for c in product((0, 1), repeat=12):
        inst = SpinorInstance(3, tuple((poly(*c[k:k + 2]), poly(*c[k + 2:k + 4])) for k in range(0, 12, 4)))
        values, _ = _point_values(inst)
        out.append((inst, values, literal_point_dets(3, values)))
    return out


@st.composite
def value_tables(draw, max_n):
    """Any integer values per edge end and point; they need not come from degree-<=1 polynomials."""
    n = draw(st.integers(1, max_n))
    column = st.lists(st.integers(-30, 30), min_size=n, max_size=n)
    edges = n * (n - 1) // 2
    return n, draw(st.lists(st.tuples(column, column), min_size=edges, max_size=edges))


class TestEdgeOrder:
    def test_pairs_are_lexicographic(self):
        assert edge_pairs(4) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


class TestSpinorInstance:
    def test_identity(self):
        inst = SpinorInstance.identity(3)
        assert inst.edge_count == 3
        assert inst.edge_dets == (1, 1, 1)
        assert inst.is_nonsingular

    def test_edge_dets(self):
        inst = SpinorInstance(3, ((poly(1, 2), poly(3, 4)), (poly(1, 0), poly(0, 1)), (poly(2, 0), poly(5, 7))))
        assert inst.edge_dets == (1 * 4 - 2 * 3, 1, 2 * 7)

    def test_validation(self):
        with pytest.raises(DimensionError):
            SpinorInstance(3, (((poly(1, 0), poly(0, 1)),) * 2))
        with pytest.raises(DimensionError):
            SpinorInstance(2, ((Polynomial((1, 0, 0)), poly(0, 1)),))
        with pytest.raises(DimensionError):
            SpinorInstance(3, ((poly(1, 0), poly(0, 1)),))

    def test_singular_edge_detected(self):
        inst = SpinorInstance(2, ((poly(1, 2), poly(2, 4)),))
        assert not inst.is_nonsingular


class TestChoice:
    def test_all_p1_is_even(self):
        assert Choice(0, 6).sign == 1

    def test_sign_is_popcount_parity(self):
        for c in choices(4):
            assert c.sign == (-1) ** bin(c.bits).count("1")

    def test_bit(self):
        c = Choice(0b010, 3)
        assert (c.bit(0), c.bit(1), c.bit(2)) == (0, 1, 0) and c.sign == -1

    def test_bits_range_validated(self):
        with pytest.raises(DimensionError):
            Choice(4, 2)

    def test_gray_order_flips_one_bit(self):
        seen = choices(5)
        assert len(seen) == 32 and len({c.bits for c in seen}) == 32
        for a, b in zip(seen, seen[1:]):
            assert bin(a.bits ^ b.bits).count("1") == 1


class TestChoicePolys:
    def test_n2_both_choices(self):
        inst = SpinorInstance.identity(2)
        p = choice_polys(inst, Choice(0, 1))
        assert [q.coeffs for q in p] == [(1, 0), (0, 1)]
        assert choice_det(inst, Choice(0, 1)) == 1
        q = choice_polys(inst, Choice(1, 1))
        assert [x.coeffs for x in q] == [(0, 1), (1, 0)]
        assert choice_det(inst, Choice(1, 1)) == -1

    def test_n3_base_choice_is_staircase(self):
        inst = SpinorInstance.identity(3)
        p = choice_polys(inst, Choice(0, 3))
        assert [q.coeffs for q in p] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_n3_cyclic_orientation_vanishes(self):
        inst = SpinorInstance.identity(3)
        # t to 2 on {0,1}, t to 0 on {0,2}... a 3-cycle needs degrees (1,1,1)
        for c in choices(3):
            if sorted(out_degrees(c, 3)) == [1, 1, 1]:
                assert choice_det(inst, c) == 0

    def test_bit_flip_changes_two_polys(self):
        rng = random.Random(81)
        inst = random_spinor(4, rng)
        c = Choice(0b0110, 6)
        base = choice_polys(inst, c)
        for idx, (i, j) in enumerate(edge_pairs(4)):
            flip = Choice(c.bits ^ 1 << idx, 6)
            flipped = choice_polys(inst, flip)
            changed = [v for v in range(4) if flipped[v] != base[v]]
            assert set(changed) <= {i, j}
            assert flip.sign == -c.sign

    def test_choice_size_mismatch(self):
        with pytest.raises(DimensionError):
            choice_polys(SpinorInstance.identity(3), Choice(0, 2))


class TestPointWalk:
    """The point-value walker and verify_svrtan's regrouped sum against the literal route."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_integer_instances(self, n):
        rng = random.Random(200 + n)
        for _ in range(4 if n < 5 else 2):
            inst = random_spinor(n, rng, nonsingular=False)
            assert walker_sum(inst) == verify_svrtan(inst).lhs == literal_sum(inst)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rational_instances(self, n):
        rng = random.Random(210 + n)
        for _ in range(4):
            inst = rational_spinor(n, rng)
            assert walker_sum(inst) == verify_svrtan(inst).lhs == literal_sum(inst)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_singular_edge(self, n):
        inst = singular_spinor(n, random.Random(220 + n))
        assert not inst.is_nonsingular
        assert walker_sum(inst) == verify_svrtan(inst).lhs == literal_sum(inst) == 0

    def test_each_term_is_scaled_choice_det(self):
        inst = rational_spinor(4, random.Random(230))
        values, divisor = _point_values(inst)
        walked = list(_point_dets(4, values))
        assert [bits for bits, _ in walked] == enumerate_choices(6)
        for bits, d in walked:
            assert Fraction(d, divisor) == choice_det(inst, Choice(bits, 6))

    @pytest.mark.parametrize("threads", [1, 2, 3, 4])
    def test_threads(self, threads):
        rng = random.Random(240)
        for inst in (random_spinor(4, rng), rational_spinor(4, rng)):
            assert verify_svrtan(inst, threads=threads).lhs == literal_sum(inst)


class TestColumnTable:
    """The walker's per-vertex column table against columns built per choice."""

    @settings(max_examples=40, deadline=None)
    @given(value_tables(4))
    def test_matches_literal_columns(self, table):
        n, values = table
        assert list(_point_dets(n, values)) == literal_point_dets(n, values)

    def test_identity_census_walk(self):
        values, _ = _point_values(SpinorInstance.identity(4))
        assert list(_point_dets(4, values)) == literal_point_dets(4, values)

    def test_zero_one_sweep(self):
        assert len(zero_one_sweep()) == 4096
        for _, values, literal in zero_one_sweep():
            assert list(_point_dets(3, values)) == literal


class TestVertexWalk:
    """The census walker's survivors against the nonzero determinants of the reflected-binary walk."""

    @staticmethod
    def nonzero_bits(n, values):
        return sorted(bits for bits, d in _point_dets(n, values) if d)

    def test_zero_one_sweep(self):
        for _, values, literal in zero_one_sweep():
            assert sorted(_survivors(3, values)) == sorted(bits for bits, d in literal if d)

    @settings(max_examples=40, deadline=None)
    @given(value_tables(5))
    def test_arbitrary_values(self, table):
        n, values = table
        assert sorted(_survivors(n, values)) == self.nonzero_bits(n, values)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_identity(self, n):
        values, _ = _point_values(SpinorInstance.identity(n))
        survivors = _survivors(n, values)
        assert len(survivors) == len(set(survivors)) == factorial(n)
        assert sorted(survivors) == self.nonzero_bits(n, values)


class TestRegroupedSum:
    """The sum over point assignments against the walker, and at orders the walker cannot reach."""

    @settings(max_examples=40, deadline=None)
    @given(value_tables(5))
    def test_matches_walker_on_arbitrary_values(self, table):
        n, values = table
        assert _assignment_sum(n, values, 1) == signed_walk(n, values)

    def test_zero_one_sweep(self):
        for _, values, literal in zero_one_sweep():
            assert _assignment_sum(3, values, 1) == sum(-d if bits.bit_count() % 2 else d for bits, d in literal)

    @pytest.mark.parametrize(
        "n,budget", [(6, DEFAULT_TERM_BUDGET), (7, DEFAULT_TERM_BUDGET), (8, 2**28)]
    )
    def test_large_orders(self, n, budget):
        rng = random.Random(280 + n)
        for inst in (random_spinor(n, rng), rational_spinor(n, rng)):
            report = verify_svrtan(inst, term_budget=budget)
            assert report.lhs == report.rhs == factorial(n) * prod(inst.edge_dets)

    def test_order_8_needs_an_explicit_budget(self):
        with pytest.raises(BudgetError):
            verify_svrtan(SpinorInstance.identity(8))


class TestVerifySvrtan:
    def test_n1(self):
        report = verify_svrtan(SpinorInstance.identity(1))
        assert report.lhs == 1 and report.rhs == 1 and report.verdict

    def test_identity_lhs_is_factorial(self):
        for n in range(2, 6):
            report = verify_svrtan(SpinorInstance.identity(n))
            assert report.lhs == factorial(n)
            assert report.verdict

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_instances(self, n):
        rng = random.Random(90 + n)
        for _ in range(10):
            report = verify_svrtan(random_spinor(n, rng))
            assert report.verdict and report.invariant == factorial(n)
            expected = Fraction(factorial(n))
            for d in report.determinants:
                expected *= d
            assert report.rhs == expected

    def test_rational_spinors(self):
        inst = SpinorInstance(2, ((poly(Fraction(1, 2), 1), poly(1, Fraction(2, 3))),))
        assert verify_svrtan(inst).verdict

    def test_threads_agree(self):
        rng = random.Random(95)
        inst = random_spinor(4, rng)
        assert verify_svrtan(inst, threads=8).lhs == verify_svrtan(inst).lhs

    def test_budget(self):
        with pytest.raises(BudgetError):
            verify_svrtan(SpinorInstance.identity(4), term_budget=32)

    def test_refusal_is_short_at_any_size(self):
        # 2**16110 choices: past the default limit on integer-string digits
        with pytest.raises(BudgetError) as refused:
            verify_svrtan(SpinorInstance.identity(180))
        assert len(str(refused.value)) < 200 and "16111-bit" in str(refused.value)

    def test_scaling_one_edge_scales_both_sides_quadratically(self):
        rng = random.Random(96)
        inst = random_spinor(3, rng)
        lam = 3
        scaled_bases = list(inst.bases)
        p1, p2 = scaled_bases[1]
        scaled_bases[1] = (
            Polynomial(tuple(lam * c for c in p1.coeffs)),
            Polynomial(tuple(lam * c for c in p2.coeffs)),
        )
        scaled = SpinorInstance(3, tuple(scaled_bases))
        base, after = verify_svrtan(inst), verify_svrtan(scaled)
        assert after.lhs == lam**2 * base.lhs
        assert after.rhs == lam**2 * base.rhs


class TestCensus:
    @pytest.mark.parametrize("n,expected", [(2, 2), (3, 6), (4, 24)])
    def test_counts(self, n, expected):
        assert nonzero_term_census(n) == expected

    @pytest.mark.parametrize("n", range(1, 8))
    def test_eliminates_only_the_survivors(self, n, monkeypatch):
        # every survivor has the tag set {x^0, ..., x^(n-1)}: one elimination in all
        calls = []

        def spy(a):
            calls.append(a)
            return _int_det(a)

        monkeypatch.setattr("altdet.svrtan._int_det", spy)
        assert nonzero_term_census(n) == factorial(n)
        assert len(calls) == 1

    def test_survivors_are_transitive(self):
        inst = SpinorInstance.identity(4)
        for c in choices(6):
            if choice_det(inst, c) != 0:
                assert sorted(out_degrees(c, 4)) == [0, 1, 2, 3]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_out_degrees_match_a_literal_count(self, n):
        edges = n * (n - 1) // 2
        for c in choices(edges):
            digits = format(c.bits, f"0{edges}b")[::-1]
            # bit 0 on {i, j} hands the second element to j, bit 1 hands it to i
            ends = [i if digit == "1" else j for digit, (i, j) in zip(digits, edge_pairs(n))]
            assert out_degrees(c, n) == tuple(ends.count(v) for v in range(n))

    def test_budget(self):
        with pytest.raises(BudgetError):
            nonzero_term_census(5, term_budget=100)

    @pytest.mark.parametrize("n", [200, 3000])
    def test_refused_before_the_instance_is_built(self, n, monkeypatch):
        def unbuildable(n):
            raise AssertionError("instance built past the budget")

        monkeypatch.setattr(SpinorInstance, "identity", staticmethod(unbuildable))
        with pytest.raises(BudgetError) as refused:
            nonzero_term_census(n)
        assert len(str(refused.value)) < 200


class TestSearch:
    def test_n2_succeeds_quickly(self):
        c = svrtan_search(SpinorInstance.identity(2))
        assert c is not None and c.bits == 0

    def test_singular_n2_exhausts(self):
        inst = SpinorInstance(2, ((poly(1, 2), poly(2, 4)),))
        assert svrtan_search(inst) is None
        assert svrtan_search(inst, incremental=True) is None

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_nonsingular_always_succeeds(self, n):
        rng = random.Random(100 + n)
        for _ in range(5):
            inst = random_spinor(n, rng)
            c = svrtan_search(inst)
            assert c is not None
            assert choice_det(inst, c) != 0

    def test_agrees_with_literal_first_nonzero(self):
        rng = random.Random(106)
        for n in (3, 4, 5):
            for _ in range(10):
                for inst in (
                    random_spinor(n, rng, nonsingular=False),
                    rational_spinor(n, rng),
                    singular_spinor(n, rng),
                ):
                    assert svrtan_search(inst) == literal_first_nonzero(inst)

    def test_zero_one_sweep(self):
        for inst, _, literal in zero_one_sweep():
            first = next((Choice(bits, 3) for bits, d in literal if d), None)
            assert svrtan_search(inst) == first

    def test_walks_without_choice_det(self, monkeypatch):
        rng = random.Random(107)
        insts = [random_spinor(n, rng) for n in (2, 3, 4, 5)]
        insts += [rational_spinor(4, rng), singular_spinor(4, rng)]
        expected = [literal_first_nonzero(inst) for inst in insts]

        def refuse(*_):
            raise AssertionError("the search must not take per-choice coefficient determinants")

        monkeypatch.setattr("altdet.svrtan.choice_det", refuse)
        for inst, c in zip(insts, expected):
            assert svrtan_search(inst) == c
            assert svrtan_search(inst, incremental=True) == c

    def test_budget(self):
        with pytest.raises(BudgetError):
            svrtan_search(SpinorInstance.identity(5), term_budget=8)


class TestEngineRecast:
    def test_n1_rejected(self):
        with pytest.raises(DimensionError):
            as_engine_instance(SpinorInstance.identity(1))
        with pytest.raises(DimensionError):
            spinor_form(1)

    def test_recast_uses_the_order_n_form(self):
        form, A = as_engine_instance(SpinorInstance.identity(4))
        assert form.shape == spinor_form(4).shape == A.shape == Shape((2,) * 6)

    def test_invariant_refused_at_any_size(self):
        # 2**15051 terms: refused from the shape alone, with a short message
        with pytest.raises(BudgetError) as refused:
            invariant_at_identity(spinor_form(174))
        assert len(str(refused.value)) < 200

    def test_n2_shapes(self):
        form, A = as_engine_instance(SpinorInstance.identity(2))
        assert tuple(form.shape) == (2,)
        assert A.matrices[0].entries == ((1, 0), (0, 1))

    def test_base_evaluation_matches_choice_det(self):
        rng = random.Random(111)
        inst = random_spinor(3, rng)
        form, A = as_engine_instance(inst)
        assert form(A) == choice_det(inst, Choice(0, 3))

    @settings(max_examples=10, deadline=None)
    @given(st.integers(2, 4), st.integers(0, 2**32), st.booleans())
    def test_evaluation_matches_materialized_terms(self, n, seed, rational):
        rng = random.Random(seed)
        inst = rational_spinor(n, rng) if rational else random_spinor(n, rng)
        form, A = as_engine_instance(inst)
        for _, maps in enumerate_product(A.shape):
            moved = [literal_act(invert(m), M) for m, M in zip(maps, A.matrices)]
            acc = [Polynomial((1,) + (0,) * (n - 1))] * n
            for (i, j), m in zip(edge_pairs(n), moved):
                acc[i] = poly_mul(acc[i], Polynomial(m.column(0)), n)
                acc[j] = poly_mul(acc[j], Polynomial(m.column(1)), n)
            assert form(MatrixTuple(A.shape, tuple(moved))) == poly_det(acc)

    @settings(max_examples=12, deadline=None)
    @given(st.integers(2, 4), st.integers(0, 2**32), st.sampled_from(("integer", "rational", "singular", "zero")))
    def test_fold_matches_literal_choice_sum(self, n, seed, kind):
        # rational elements are scaled one by one, and each scale reaches the end it rides to
        rng = random.Random(seed)
        inst = rational_spinor(n, rng) if kind == "rational" else random_spinor(n, rng)
        if kind == "singular":
            inst = singular_spinor(n, rng)
        elif kind == "zero":
            p1, _ = inst.bases[-1]
            inst = SpinorInstance(n, inst.bases[:-1] + ((p1, poly(0, 0)),))
        literal = sum(c.sign * choice_det(inst, c) for c in choices(inst.edge_count))
        form, A = as_engine_instance(inst)
        assert alternating_sum(form, A) == literal
        assert verify_identity(form, A).lhs == literal == verify_svrtan(inst).lhs

    def test_fold_reads_the_point_values(self, monkeypatch):
        calls = []

        def spy(inst):
            calls.append(inst.n)
            return _point_values(inst)

        monkeypatch.setattr("altdet.svrtan._point_values", spy)
        inst = random_spinor(4, random.Random(113))
        assert alternating_sum(*as_engine_instance(inst)) == verify_svrtan(inst).lhs
        # once for the engine's fold, once for the direct sum
        assert calls == [4, 4]

    def test_invariant_is_factorial(self):
        for n in (2, 3):
            form, _ = as_engine_instance(SpinorInstance.identity(n))
            assert invariant_at_identity(form) == factorial(n)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_dual_route_reports_match(self, n):
        rng = random.Random(115 + n)
        inst = random_spinor(n, rng)
        direct = verify_svrtan(inst)
        form, A = as_engine_instance(inst)
        via_engine = verify_identity(form, A)
        assert direct.lhs == via_engine.lhs
        assert direct.rhs == via_engine.rhs
        assert direct.verdict and via_engine.verdict
