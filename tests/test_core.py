"""Tests for instances, matchings, and serialization."""

from fractions import Fraction as F

import pytest

from bpmatching.core import (
    Instance,
    Matching,
    MissingEdgeError,
    ParameterError,
    all_perfect_matchings,
    format_rational,
    matching_weight,
    parse_rational,
    relabel,
)


def test_parse_rational():
    assert parse_rational("3/5") == F(3, 5)
    assert parse_rational("-7") == F(-7)
    assert parse_rational(" 1/2 ") == F(1, 2)
    with pytest.raises(ParameterError):
        parse_rational("abc")
    with pytest.raises(ParameterError):
        parse_rational("1/0")


def test_format_rational():
    assert format_rational(F(3, 5)) == "3/5"
    assert format_rational(F(4)) == "4"
    assert format_rational(F(-6, 4)) == "-3/2"


def test_matching_rejects_duplicate_endpoints():
    with pytest.raises(ParameterError):
        Matching.of([(0, 1), (0, 2)])
    with pytest.raises(ParameterError):
        Matching.of([(1, 0), (2, 0)])


def test_matching_basics():
    m = Matching.of([(1, 2), (0, 0)])
    assert len(m) == 2
    assert m.sorted_pairs() == [(0, 0), (1, 2)]
    assert m.is_perfect(2)
    assert not m.is_perfect(3)
    assert m.partner_of_left() == {0: 0, 1: 2}
    assert m.partner_of_right() == {0: 0, 2: 1}


def test_instance_validation():
    with pytest.raises(ParameterError):
        Instance([])
    with pytest.raises(ParameterError):
        Instance([[F(1)], [F(2)]])


def test_instance_weight_access():
    inst = Instance([[F(1), None], [F(3, 2), F(4)]])
    assert inst.weight(1, 0) == F(3, 2)
    assert not inst.has_edge(0, 1)
    assert inst.has_edge(0, 0)
    assert not inst.is_dense
    with pytest.raises(MissingEdgeError):
        inst.weight(0, 1)
    with pytest.raises(ParameterError):
        inst.weight(2, 0)


def test_scale_and_scaled_weights():
    inst = Instance([[F(1, 2), F(1, 3)], [None, F(5)]])
    assert inst.scale == 6
    assert inst.scaled_weights() == [[3, 2], [None, 30]]


def test_node_neighbors():
    inst = Instance([[F(1), None], [F(2), F(3)]])
    # Left node 0 connects only to right node 0 (graph id 2).
    assert inst.node_neighbors(0) == [(2, F(1))]
    assert inst.node_neighbors(1) == [(2, F(2)), (3, F(3))]
    # Right node 0 (id 2) connects back to both left nodes.
    assert inst.node_neighbors(2) == [(0, F(1)), (1, F(2))]
    assert inst.node_neighbors(3) == [(1, F(3))]


def test_json_roundtrip_and_hash():
    inst = Instance(
        [[F(1, 2), None], [F(-3), F(7, 4)]], meta={"family": "adhoc"}
    )
    text = inst.to_json()
    back = Instance.from_json(text)
    assert back.n == inst.n
    assert back.weights == inst.weights
    assert back.meta == inst.meta
    assert back.content_hash() == inst.content_hash()
    # Hash is stable across object identities.
    again = Instance([[F(1, 2), None], [F(-3), F(7, 4)]], meta={"family": "adhoc"})
    assert again.content_hash() == inst.content_hash()


BAD_DOCUMENTS = [
    '{"n": 1, "scale": 0, "weights": [[1]], "meta": null}',
    '{"n": 2, "scale": 1, "weights": [[1]], "meta": null}',
    "[1, 2]",  # not an object
    '{"scale": 1, "weights": [[1]]}',  # missing n
    '{"n": 1, "weights": [[1]]}',  # missing scale
    '{"n": 1, "scale": 1}',  # missing weights
    '{"n": 1, "scale": 1, "weights": [[1.7]]}',  # float cell
    '{"n": 1, "scale": 1, "weights": [[true]]}',  # bool cell
    '{"n": 1, "scale": 1, "weights": [["3"]]}',  # string cell
    '{"n": 2, "scale": 1, "weights": [[1, 2], [3]]}',  # ragged rows
    '{"n": 2, "scale": 1, "weights": [[1, 2], 3]}',  # row is not a list
    '{"n": "1", "scale": 1, "weights": [[1]]}',  # string n
    '{"n": 1, "scale": 1.0, "weights": [[1]]}',  # float scale
    '{"n": 1, "scale": 1, "weights": [[1]]',  # not JSON
]


def test_from_json_rejects_bad_documents():
    for text in BAD_DOCUMENTS:
        with pytest.raises(ParameterError):
            Instance.from_json(text)


def test_matching_weight():
    inst = Instance([[F(1), F(2)], [F(3), F(4)]])
    assert matching_weight(inst, Matching.of([(0, 1), (1, 0)])) == F(5)
    assert matching_weight(inst, Matching.of([(0, 0)])) == F(1)


def test_relabel_preserves_weights():
    inst = Instance([[F(1), F(2)], [F(3), None]])
    out = relabel(inst, [1, 0], [0, 1])
    assert out.weights[1][0] == F(1)
    assert out.weights[1][1] == F(2)
    assert out.weights[0][0] == F(3)
    assert out.weights[0][1] is None


def test_all_perfect_matchings_count():
    ms = list(all_perfect_matchings(3))
    assert len(ms) == 6
    assert all(m.is_perfect(3) for m in ms)
    assert len({m.pairs for m in ms}) == 6
