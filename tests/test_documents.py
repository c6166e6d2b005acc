import json

import numpy as np
import pytest

from heatpar.documents import (
    ambient_path_coordinates,
    canonical_document,
    halfline_coordinates,
    load_document,
    parse_document,
)
from heatpar.errors import ParseError
from heatpar.graph import ambient_is_unit_complete

PLAIN = json.dumps(
    {"vertices": ["a", "b", "c"], "edges": [["a", "b", 1.0], ["b", "c", 2.0]]}
)

EMBEDDED = json.dumps(
    {
        "vertices": ["1", "2", "3"],
        "ambient": {
            "vertices": [],
            "edges": [["1", "2", 1.0], ["1", "3", 1.0], ["2", "3", 1.0]],
            "removed": [["1", "2"]],
            "frontier": [],
        },
    }
)


class TestParsing:
    def test_plain_graph(self):
        doc = parse_document(PLAIN)
        assert doc.names == ("a", "b", "c")
        assert doc.embedding is None
        assert doc.graph.weights[0, 1] == 1.0
        assert doc.graph.weights[1, 2] == 2.0
        assert doc.graph.weights[0, 2] == 0.0

    def test_embedding(self):
        doc = parse_document(EMBEDDED)
        assert doc.embedding is not None
        assert doc.graph.weights[0, 1] == 0.0  # removed
        assert doc.graph.weights[0, 2] == 1.0
        assert doc.embedding.removed_edges == frozenset([frozenset((0, 1))])

    def test_json_error_carries_location(self):
        with pytest.raises(ParseError, match=r"line 1, column"):
            parse_document("{broken")

    @pytest.mark.parametrize(
        "mutation,expect",
        [
            ({"vertices": []}, "nonempty"),
            ({"vertices": ["a", "a"], "edges": []}, "duplicate"),
            ({"vertices": ["a"], "edges": [["a", "a", 1.0]]}, "self-loop"),
            ({"vertices": ["a", "b"], "edges": [["a", "b", -1.0]]}, "positive"),
            (
                {"vertices": ["a", "b"], "edges": [["a", "b", 1.0], ["b", "a", 1.0]]},
                "twice",
            ),
            ({"vertices": ["a", "b"], "edges": [["a", "z", 1.0]]}, "unknown vertex"),
            ({"vertices": ["a"], "edges": [], "bogus": 1}, "unknown document keys"),
        ],
    )
    def test_validation_errors(self, mutation, expect):
        with pytest.raises(ParseError, match=expect):
            parse_document(json.dumps(mutation))

    def test_edges_with_ambient_rejected(self):
        data = json.loads(EMBEDDED)
        data["edges"] = [["1", "3", 1.0]]
        with pytest.raises(ParseError, match="derived"):
            parse_document(json.dumps(data))

    def test_positions_must_cover(self):
        data = json.loads(PLAIN)
        data["positions"] = {"a": 0.2}
        with pytest.raises(ParseError, match="cover"):
            parse_document(json.dumps(data))

    def test_positions_order_and_range(self):
        data = json.loads(PLAIN)
        data["positions"] = {"a": 0.8, "b": 0.5, "c": 0.2}
        with pytest.raises(ParseError, match="increasing"):
            parse_document(json.dumps(data))
        data["positions"] = {"a": 0.2, "b": 0.5, "c": 1.4}
        with pytest.raises(ParseError, match="inside"):
            parse_document(json.dumps(data))

    @pytest.mark.parametrize("block", ["edges", "ambient.edges"])
    @pytest.mark.parametrize("weight", [True, "1.0", None])
    def test_edge_weight_must_be_a_number(self, block, weight):
        # a JSON boolean is a Python int, but not a weight
        edges = [["a", "b", weight]]
        data = {"vertices": ["a", "b"], "edges": edges}
        if block == "ambient.edges":
            data = {"vertices": ["a", "b"], "ambient": {"edges": edges}}
        with pytest.raises(ParseError, match=rf"{block}\[0\]: weight"):
            parse_document(json.dumps(data))

    @pytest.mark.parametrize("position", [True, False, "0.5"])
    def test_position_must_be_a_number(self, position):
        data = json.loads(PLAIN)
        data["positions"] = {"a": 0.2, "b": position, "c": 0.8}
        with pytest.raises(ParseError, match=r"positions\['b'\]"):
            parse_document(json.dumps(data))

    @pytest.mark.parametrize("key", ["length"])
    @pytest.mark.parametrize("value", [True, "1.0", float("nan"), float("inf"), 10**400])
    def test_interval_reals_must_be_finite_numbers(self, key, value):
        data = json.loads(PLAIN)
        data["interval"] = {key: value}
        with pytest.raises(ParseError, match=f"interval '{key}' must be a finite number"):
            parse_document(json.dumps(data))

    @pytest.mark.parametrize("key", ["quad_points", "modes", "delta_fraction"])
    @pytest.mark.parametrize("value", [True, 520.9, 520.0, "520", 1600])
    def test_quad_points_is_an_unknown_key(self, key, value):
        # the overlaps are exact, so no quadrature resolution is read, and
        # the mode count and the collar follow from the interval's geometry
        data = json.loads(PLAIN)
        data["interval"] = {"length": 1.0, key: value}
        with pytest.raises(ParseError, match=rf"unknown interval keys: \['{key}'\]"):
            parse_document(json.dumps(data))

    def test_good_interval_settings(self):
        data = json.loads(PLAIN)
        data["interval"] = {"length": 2}
        assert parse_document(json.dumps(data)).interval == data["interval"]

    def test_good_positions(self):
        data = json.loads(PLAIN)
        data["positions"] = {"a": 0.2, "b": 0.5, "c": 0.8}
        data["interval"] = {"length": 1.0}
        doc = parse_document(json.dumps(data))
        assert doc.position_list() == [0.2, 0.5, 0.8]


class TestCheckedInCases:
    @pytest.mark.parametrize(
        "name",
        ["k2", "single_vertex", "k5_minus_edge", "halfline_w40", "path3_interval"],
    )
    def test_cases_parse(self, name):
        doc = load_document(f"cases/{name}.json")
        assert doc.graph.n >= 1

    def test_k5_structure(self):
        doc = load_document("cases/k5_minus_edge.json")
        assert ambient_is_unit_complete(doc.embedding)
        assert doc.graph.weights[0, 1] == 0.0

    def test_halfline_structure(self):
        doc = load_document("cases/halfline_w40.json")
        coords = halfline_coordinates(doc)
        assert coords is not None
        assert coords.tolist() == list(range(41))
        amb_coords = ambient_path_coordinates(doc.embedding)
        assert amb_coords is not None


class TestCanonicalExport:
    def test_plain_round_trip(self):
        doc = parse_document(PLAIN)
        out = canonical_document(doc)
        doc2 = parse_document(json.dumps(out))
        assert np.array_equal(doc2.graph.weights, doc.graph.weights)

    def test_embedding_carries_derived_sets(self):
        doc = parse_document(EMBEDDED)
        out = canonical_document(doc)
        assert out["derived"]["boundary"] == ["1", "2"]
        assert out["derived"]["interior"] == ["3"]
        assert out["ambient"]["removed"] == [["1", "2"]]

    def test_deterministic(self):
        doc = parse_document(EMBEDDED)
        a = json.dumps(canonical_document(doc), sort_keys=True)
        b = json.dumps(canonical_document(parse_document(EMBEDDED)), sort_keys=True)
        assert a == b


class TestStructureDetection:
    def test_path_coordinates_both_orientations(self):
        doc = load_document("cases/halfline_w40.json")
        coords = ambient_path_coordinates(doc.embedding)
        # a simple chain: consecutive coordinates differ by one
        order = np.argsort(coords)
        assert np.all(np.diff(coords[order]) == 1)

    def test_not_a_path(self):
        doc = load_document("cases/k5_minus_edge.json")
        assert ambient_path_coordinates(doc.embedding) is None
        assert halfline_coordinates(doc) is None
