"""Seeded generation and the JSON instance format."""

import json
from fractions import Fraction

import pytest

from altdet.engine import MatrixTuple
from altdet.errors import InputError
from altdet.exact import Matrix
from altdet.instances import (
    ENTRY_HI,
    ENTRY_LO,
    SplitMix64,
    canonical_json,
    doc_digest,
    instance_to_doc,
    load_instance,
    parse_instance_doc,
    random_colorful_instance,
    random_dense_form,
    random_matrix_tuple,
    random_spinor_instance,
)
from altdet.onn import ColorfulInstance
from altdet.perms import Shape
from altdet.svrtan import SpinorInstance


class TestSplitMix64:
    def test_reference_vectors_seed_zero(self):
        # published outputs for the all-zero seed
        g = SplitMix64(0)
        assert [g.next_u64() for _ in range(4)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
            0xF88BB8A8724C81EC,
        ]

    def test_reference_vectors_seed_1234567(self):
        g = SplitMix64(1234567)
        assert [g.next_u64() for _ in range(3)] == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
        ]

    def test_same_seed_same_stream(self):
        a = SplitMix64(99)
        b = SplitMix64(99)
        assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]

    def test_distinct_seeds_diverge(self):
        assert SplitMix64(1).next_u64() != SplitMix64(2).next_u64()

    def test_below_range(self):
        g = SplitMix64(5)
        draws = [g.below(7) for _ in range(500)]
        assert all(0 <= d < 7 for d in draws)
        assert set(draws) == set(range(7))

    def test_below_one_is_zero(self):
        g = SplitMix64(3)
        assert all(g.below(1) == 0 for _ in range(10))

    def test_int_between_covers_endpoints(self):
        g = SplitMix64(8)
        draws = {g.int_between(-2, 2) for _ in range(400)}
        assert draws == {-2, -1, 0, 1, 2}


class TestGenerators:
    def test_matrix_tuple_shape_and_entry_range(self):
        A = random_matrix_tuple(Shape.of(3, 2), SplitMix64(4))
        assert A.shape == Shape.of(3, 2)
        for m in A.matrices:
            for row in m.entries:
                assert all(ENTRY_LO <= v <= ENTRY_HI for v in row)

    def test_matrix_tuple_nonsingular_by_default(self):
        for seed in range(30):
            A = random_matrix_tuple(Shape.of(3, 3), SplitMix64(seed))
            assert A.is_nonsingular

    def test_colorful_instance(self):
        inst = random_colorful_instance(3, SplitMix64(6))
        assert inst.n == 3
        assert len(inst.matrices) == 3
        assert inst.is_nonsingular

    @pytest.mark.parametrize("draw", [
        lambda rng: random_matrix_tuple(Shape.of(3, 2, 4), rng),
        lambda rng: random_colorful_instance(4, rng),
    ])
    def test_drawn_determinants_take_no_further_det(self, draw, monkeypatch):
        # the acceptance test's determinants fill the tuple's, so reading them takes none
        calls = []
        monkeypatch.setattr("altdet.engine.det", lambda m: calls.append(m))
        inst = draw(SplitMix64(12))
        dets = inst.determinants
        assert calls == []
        monkeypatch.undo()
        fresh = type(inst)(inst.shape, inst.matrices)
        assert fresh == inst and type(fresh) is type(inst)
        assert dets == fresh.determinants and all(type(d) is Fraction for d in dets)

    def test_spinor_instance_edges_nonsingular(self):
        inst = random_spinor_instance(4, SplitMix64(10))
        assert inst.n == 4
        assert len(inst.bases) == 6
        assert all(d != 0 for d in inst.edge_dets)

    def test_dense_form_coefficient_count(self):
        f = random_dense_form(Shape.of(2, 2), SplitMix64(1))
        assert len(f.coeffs) == Shape.of(2, 2).coefficient_count == 2**2 * 2**2
        assert Shape.of(3, 1, 3, 2).coefficient_count == 3**3 * 1 * 3**3 * 2**2

    def test_generation_is_reproducible(self):
        a = random_spinor_instance(3, SplitMix64(77))
        b = random_spinor_instance(3, SplitMix64(77))
        assert a == b


class TestJsonRoundTrip:
    def test_matrix_tuple(self):
        A = random_matrix_tuple(Shape.of(2, 3), SplitMix64(9))
        doc = instance_to_doc(A)
        assert doc["kind"] == "matrix-tuple"
        back = parse_instance_doc(json.loads(canonical_json(doc)))
        assert isinstance(back, MatrixTuple)
        assert back == A

    def test_colorful(self):
        inst = random_colorful_instance(2, SplitMix64(9))
        back = parse_instance_doc(json.loads(canonical_json(instance_to_doc(inst))))
        assert isinstance(back, ColorfulInstance)
        assert back == inst

    def test_spinor(self):
        inst = random_spinor_instance(3, SplitMix64(9))
        doc = instance_to_doc(inst)
        assert doc["edges"][0]["i"] == 1  # vertices are 1-based on disk
        back = parse_instance_doc(json.loads(canonical_json(doc)))
        assert isinstance(back, SpinorInstance)
        assert back == inst

    def test_rationals_survive(self):
        m = Matrix.from_rows([[Fraction(1, 3), Fraction(-2)], [Fraction(0), Fraction(7, 2)]])
        inst = ColorfulInstance.of([m, m])
        back = parse_instance_doc(instance_to_doc(inst))
        assert back == inst

    def test_canonical_json_is_key_sorted(self):
        text = canonical_json({"b": 1, "a": 2})
        assert text == '{"a":2,"b":1}'

    def test_digest_is_stable_and_short(self):
        doc = instance_to_doc(random_colorful_instance(2, SplitMix64(1)))
        d = doc_digest(doc)
        assert d == doc_digest(dict(reversed(list(doc.items()))))
        assert len(d) == 16
        int(d, 16)


def _edge(i, j):
    return {"i": i, "j": j, "p1": ["1", "0"], "p2": ["0", "1"]}


class TestParsing:
    def doc(self, **over):
        base = {
            "kind": "matrix-tuple",
            "shape": [2],
            "matrices": [[["1", "0"], ["0", "1"]]],
        }
        base.update(over)
        return base

    def test_minimal_doc(self):
        A = parse_instance_doc(self.doc())
        assert A.shape == Shape.of(2)

    def test_unknown_key_rejected(self):
        with pytest.raises(InputError, match="unknown"):
            parse_instance_doc(self.doc(extra=1))

    def test_missing_key_rejected(self):
        doc = self.doc()
        del doc["shape"]
        with pytest.raises(InputError, match="missing"):
            parse_instance_doc(doc)

    def test_unknown_kind(self):
        with pytest.raises(InputError, match="kind"):
            parse_instance_doc(self.doc(kind="mystery"))

    def test_bad_rational_text(self):
        with pytest.raises(InputError):
            parse_instance_doc(self.doc(matrices=[[["1", "x"], ["0", "1"]]]))

    def test_zero_denominator(self):
        with pytest.raises(InputError):
            parse_instance_doc(self.doc(matrices=[[["1/0", "0"], ["0", "1"]]]))

    def test_wrong_matrix_size(self):
        with pytest.raises(InputError):
            parse_instance_doc(self.doc(matrices=[[["1", "0", "0"], ["0", "1", "0"]]]))

    def test_wrong_matrix_count(self):
        with pytest.raises(InputError):
            parse_instance_doc(self.doc(matrices=[]))

    def test_colorful_count_must_match_n(self):
        ident = [["1", "0"], ["0", "1"]]
        with pytest.raises(InputError):
            parse_instance_doc({"kind": "colorful", "n": 2, "matrices": [ident]})

    def test_bool_is_not_a_count(self):
        ident = [["1", "0"], ["0", "1"]]
        with pytest.raises(InputError):
            parse_instance_doc({"kind": "colorful", "n": True, "matrices": [ident]})

    def spinor_doc(self):
        return {
            "kind": "spinor",
            "n": 2,
            "edges": [{"i": 1, "j": 2, "p1": ["1", "0"], "p2": ["0", "1"]}],
        }

    def test_spinor_doc_parses(self):
        inst = parse_instance_doc(self.spinor_doc())
        assert inst == SpinorInstance.identity(2)

    def test_spinor_missing_edge(self):
        doc = self.spinor_doc()
        doc["n"] = 3
        with pytest.raises(InputError):
            parse_instance_doc(doc)

    def test_spinor_backwards_edge(self):
        doc = self.spinor_doc()
        doc["edges"][0]["i"], doc["edges"][0]["j"] = 2, 1
        with pytest.raises(InputError):
            parse_instance_doc(doc)

    def test_spinor_vertex_out_of_range(self):
        doc = self.spinor_doc()
        doc["edges"][0]["j"] = 5
        with pytest.raises(InputError):
            parse_instance_doc(doc)

    def test_non_dict_rejected(self):
        with pytest.raises(InputError):
            parse_instance_doc([1, 2, 3])

    @pytest.mark.parametrize("doc,message", [
        ({"kind": "matrix-tuple", "shape": [1], "matrices": [[[1]]]},
         "matrices[0][0][0]: expected a rational string, got int"),
        ({"kind": "matrix-tuple", "shape": [1], "matrices": [[]]},
         "matrices[0]: expected a nonempty list of rows"),
        ({"kind": "matrix-tuple", "shape": [2], "matrices": [[[], ["0", "1"]]]},
         "matrices[0][0]: expected a nonempty list of entries"),
        ({"kind": "matrix-tuple", "shape": [2], "matrices": [[["1", "0"], ["1"]]]},
         "matrices[0]: rows have mixed lengths [1, 2]"),
        ({"kind": "spinor", "n": 2, "edges": [{"i": 1, "j": 2, "p1": ["1"], "p2": ["0", "1"]}]},
         "edges[0].p1: expected [constant, t-coefficient]"),
        ({"kind": "matrix-tuple", "shape": [], "matrices": []},
         "shape: expected a nonempty list of sizes"),
        ({"kind": "spinor", "n": 2, "edges": {}},
         "edges: expected a list"),
        ({"kind": "spinor", "n": 2, "edges": [[1, 2]]},
         "edges[0]: expected an object"),
        ({"kind": "spinor", "n": 3, "edges": [_edge(1, 2), _edge(1, 2), _edge(1, 3)]},
         "edges[1]: duplicate edge (1, 2)"),
        ({"kind": "spinor", "n": 2, "edges": [_edge(1, 2), _edge(1, 2)]},
         "edges: expected 1 edges for n=2, got 2"),
        ({"kind": "colorful", "n": [0] * 200_000, "matrices": []},
         "n: expected a positive integer, got list"),
        ({"kind": "matrix-tuple", "shape": [2, -3], "matrices": []},
         "shape[1]: expected a positive integer, got -3"),
    ], ids=["rational-not-string", "matrix-empty", "row-empty", "rows-mixed", "poly-one-item",
            "shape-empty", "edges-not-list", "edge-not-object", "edge-duplicate", "edge-count",
            "count-long-list", "count-negative"])
    def test_rejection_names_its_location(self, doc, message):
        with pytest.raises(InputError) as info:
            parse_instance_doc(doc)
        assert str(info.value) == message


class TestLoadInstance:
    def test_happy_path(self, tmp_path):
        inst = random_colorful_instance(2, SplitMix64(0))
        path = tmp_path / "inst.json"
        path.write_text(canonical_json(instance_to_doc(inst)))
        assert load_instance(str(path)) == inst

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="nope.json"):
            load_instance(str(tmp_path / "nope.json"))

    def test_broken_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"kind": ')
        with pytest.raises(InputError, match=r"broken\.json:1:"):
            load_instance(str(path))

    def test_stdin_dash(self, monkeypatch):
        import io

        inst = random_spinor_instance(2, SplitMix64(12))
        text = canonical_json(instance_to_doc(inst))
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert load_instance("-") == inst
