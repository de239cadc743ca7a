"""Tests for instances, matchings, and serialization."""

import json
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpmatching.core import (
    Instance,
    Matching,
    MissingEdgeError,
    ParameterError,
    bare_view,
    format_rational,
    matching_weight,
    parse_rational,
    relabel,
)
from bpmatching.engine import init_messages, step
from reference import node_neighbors, weight_tables


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
    inst.weights[1][0] = F(100)  # a new matrix: the instance keeps its weight
    assert inst.weight(1, 0) == F(3, 2)
    assert any(None in row for row in inst.scaled_weights())
    with pytest.raises(MissingEdgeError):
        inst.weight(0, 1)
    with pytest.raises(ParameterError):
        inst.weight(2, 0)


def test_scale_and_scaled_weights():
    inst = Instance([[F(1, 2), F(1, 3)], [None, F(5)]])
    assert inst.scale == 6
    assert inst.scaled_weights() == [[3, 2], [None, 30]]
    # int, float, Fraction and None cells in one matrix: lcm(1, 4, 6, 2) = 12.
    mixed = Instance([[3, 0.25, None], [F(1, 6), -2, 0.5], [None, F(5, 4), 1]])
    assert mixed.scale == 12
    assert mixed.scaled_weights() == [[36, 3, None], [2, -24, 6], [None, 15, 12]]
    assert mixed.weights[0][1] == F(1, 4)


def test_bare_view_drops_only_the_fillers():
    from bpmatching import generators

    params = generators.CycleParams(3, F(8), F(3, 5))
    embedded, bare = generators.gen_cycle(params, embed=True), generators.gen_cycle(params)
    view = bare_view(embedded)
    assert (view.scale, view.scaled_weights()) == (bare.scale, bare.scaled_weights())
    # -2*W drops, a lighter weight stays; no filler, or no positive weight: None.
    assert bare_view(Instance([[F(1, 2), -1], [F(-3, 2), F(1, 2)]])).weights == \
        [[F(1, 2), None], [F(-3, 2), F(1, 2)]]
    assert bare_view(bare) is None
    assert bare_view(Instance([[0, 0], [0, -1]])) is None


@settings(max_examples=150, deadline=None)
@given(weight_tables())
def test_flat_layout_of_the_adjacency(rows):
    # One message vector over the edge entries: node u's row is
    # x[start[u]:start[u + 1]], aligned with nbrs[u], and u's message to
    # nbrs[u][s] lands at dst[start[u] + s], its entry in that node's row.
    inst = Instance(rows)
    adj, n = inst.adjacency(), inst.n
    start = adj.start
    assert start[0] == 0 and len(start) == 2 * n + 1
    for u, (nb, w) in enumerate(zip(adj.nbrs, adj.w)):
        a, e = start[u], start[u + 1]
        assert adj.src[a:e] == nb and adj.flat_w[a:e] == w
        for s, v in enumerate(nb):
            i = adj.dst[a + s]
            assert start[v] <= i < start[v + 1] and adj.nbrs[v][i - start[v]] == u
            assert adj.src[i] == u and adj.flat_w[i] == w[s] and adj.dst[i] == a + s
    # At t=1 every message is its edge's weight; t=2 has signed values.
    state = step(step(init_messages(inst)))
    assert step(init_messages(inst)).x == adj.flat_w and len(state.x) == start[-1]
    assert state.rows == [state.x[a:e] for a, e in zip(start, start[1:])]
    assert state.to_left == state.rows[:n] and state.to_right == state.rows[n:]
    # The derived layout follows a replaced field (test_trees' counting proxy
    # is what still replaces one): a stale flat_w would keep the old weights.
    zero = replace(adj, w=[[0] * len(w) for w in adj.w])
    assert adj.flat_w is inst.adjacency().flat_w  # cached on the instance's view
    assert zero.flat_w == [0] * start[-1]
    assert (zero.start, zero.src, zero.dst) == (start, adj.src, adj.dst)


def test_node_neighbors():
    inst = Instance([[F(1), None], [F(2), F(3)]])
    # Left node 0 connects only to right node 0 (graph id 2).
    assert node_neighbors(inst, 0) == [(2, F(1))]
    assert node_neighbors(inst, 1) == [(2, F(2)), (3, F(3))]
    # Right node 0 (id 2) connects back to both left nodes.
    assert node_neighbors(inst, 2) == [(0, F(1)), (1, F(2))]
    assert node_neighbors(inst, 3) == [(1, F(3))]


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
    '{"n": 1, "scale": 1, "weights": [[1]], "meta": [1, 2]}',  # list meta
    '{"n": 1, "scale": 1, "weights": [[1]], "meta": "cycle"}',  # string meta
]


def test_from_json_rejects_bad_documents():
    for text in BAD_DOCUMENTS:
        with pytest.raises(ParameterError):
            Instance.from_json(text)


JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=4))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 4).flatmap(lambda n: st.lists(st.lists(
        st.one_of(st.none(), st.builds(F, st.integers(-30, 30), st.integers(1, 12))),
        min_size=n, max_size=n), min_size=n, max_size=n)),
    st.one_of(st.none(), st.dictionaries(st.text(max_size=4), st.one_of(
        JSON_VALUES, st.lists(JSON_VALUES, max_size=3)), max_size=3)),
    st.integers(2, 9),
)
def test_json_roundtrip_is_exact_and_hash_stable(rows, meta, k):
    inst = Instance(rows, meta=meta)
    text = inst.to_json()
    back = Instance.from_json(text)
    assert back.weights == inst.weights
    assert back.meta == inst.meta
    assert back.to_json() == text
    assert back.content_hash() == inst.content_hash()
    # The same weights over a k times larger scale load to the same bytes.
    doc = json.loads(text)
    doc["scale"] *= k
    doc["weights"] = [[None if w is None else k * w for w in row] for row in doc["weights"]]
    assert Instance.from_json(json.dumps(doc)).content_hash() == inst.content_hash()


def test_matching_weight():
    inst = Instance([[F(1), F(2)], [F(3), F(4)]])
    assert matching_weight(inst, Matching.of([(0, 1), (1, 0)])) == F(5)
    assert matching_weight(inst, Matching.of([(0, 0)])) == F(1)
    sparse = Instance([[F(1, 2), None], [F(-3), F(7, 4)]])
    assert matching_weight(sparse, Matching.of([(0, 0), (1, 1)])) == F(9, 4)
    assert matching_weight(sparse, Matching.of([])) == 0
    with pytest.raises(MissingEdgeError):
        matching_weight(sparse, Matching.of([(0, 1), (1, 0)]))
    with pytest.raises(ParameterError):
        matching_weight(sparse, Matching.of([(0, 2)]))


def test_relabel_preserves_weights():
    inst = Instance([[F(1), F(2)], [F(3), None]])
    out = relabel(inst, [1, 0], [0, 1])
    assert out.weights[1][0] == F(1)
    assert out.weights[1][1] == F(2)
    assert out.weights[0][0] == F(3)
    assert out.weights[0][1] is None
