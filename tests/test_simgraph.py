"""Tests for TF-IDF vectors and the similarity graph."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import attnorigin as ao
from attnorigin.textunits import TextualUnit
from conftest import unit_grids


def unit(idx, tokens):
    return TextualUnit(doc_index=0, unit_index=idx, tokens=tokens, original_text=" ".join(tokens))


def pad(idx):
    return TextualUnit(doc_index=-1, unit_index=idx, tokens=[], original_text="")


# ---------------------------------------------------------------------------
# tfidf_vectors
# ---------------------------------------------------------------------------

def test_tfidf_single_unit_hand_values():
    # N = 1, df = 1 for both terms: idf = ln(2/2) + 1 = 1, weight = tf
    vec = ao.tfidf_vectors([unit(0, ["a", "a", "b"])])[0]
    assert vec == {"a": 2.0, "b": 1.0}


def test_tfidf_pad_unit_empty_vector():
    vecs = ao.tfidf_vectors([unit(0, ["a"]), pad(1)])
    assert vecs[1] == {}


def test_tfidf_absent_term_absent_from_vector():
    vecs = ao.tfidf_vectors([unit(0, ["a"]), unit(1, ["b"])])
    assert "b" not in vecs[0] and "a" not in vecs[1]


def test_tfidf_rare_terms_weigh_more():
    vecs = ao.tfidf_vectors([unit(0, ["shared", "rare"]), unit(1, ["shared", "other"])])
    assert vecs[0]["rare"] > vecs[0]["shared"]


def test_tfidf_weights_positive():
    vecs = ao.tfidf_vectors([unit(i, ["common", f"t{i}"]) for i in range(5)])
    for vec in vecs:
        assert all(w > 0 for w in vec.values())


# ---------------------------------------------------------------------------
# cosine_similarity
# ---------------------------------------------------------------------------

def test_cosine_identical_is_exactly_one():
    v = {"a": 1.7, "b": 0.3, "c": 2.9}
    assert ao.cosine_similarity(v, dict(v)) == 1.0


def test_cosine_disjoint_is_zero():
    assert ao.cosine_similarity({"a": 1.0}, {"b": 1.0}) == 0.0


def test_cosine_empty_is_zero():
    assert ao.cosine_similarity({}, {"a": 1.0}) == 0.0
    assert ao.cosine_similarity({}, {}) == 0.0


def test_cosine_hand_value():
    got = ao.cosine_similarity({"a": 1.0}, {"a": 1.0, "b": 1.0})
    assert abs(got - 1.0 / math.sqrt(2.0)) < 1e-15


def test_cosine_scale_invariance():
    rng = np.random.default_rng(7)
    for _ in range(20):
        u = {f"t{i}": float(rng.integers(1, 9)) for i in range(rng.integers(1, 6))}
        v = {f"t{i}": float(rng.integers(1, 9)) for i in range(rng.integers(1, 6))}
        scaled = {k: 3.0 * w for k, w in u.items()}
        assert abs(ao.cosine_similarity(u, v) - ao.cosine_similarity(scaled, v)) < 1e-12


def test_graph_scale_invariance_on_token_counts():
    # Repeating every unit's tokens k times scales tf uniformly; cosines persist.
    base = [["a", "b"], ["b", "c", "c"]]
    inp1 = [unit(i, toks) for i, toks in enumerate(base)]
    inp3 = [unit(i, toks * 3) for i, toks in enumerate(base)]
    g1 = ao.build_graph(inp1)
    g3 = ao.build_graph(inp3)
    assert np.allclose(g1.weights, g3.weights, atol=1e-12)


# ---------------------------------------------------------------------------
# build_graph
# ---------------------------------------------------------------------------

def test_graph_identical_units_full_edge():
    g = ao.build_graph([unit(0, ["x", "y"]), unit(1, ["x", "y"])])
    assert g.weights[0, 1] == 1.0
    assert g.weights[0, 0] == 1.0 and g.weights[1, 1] == 1.0


def test_graph_threshold_drops_weak_edges():
    units = [unit(0, ["a"]), unit(1, ["a", "b"])]
    expected = ao.cosine_similarity(*ao.tfidf_vectors(units))
    assert 0.0 < expected < 0.9
    g0 = ao.build_graph(units, threshold=0.0)
    assert g0.weights[0, 1] == expected
    g9 = ao.build_graph(units, threshold=0.9)
    assert g9.weights[0, 1] == 0.0


def test_graph_all_pad_is_zero_matrix():
    g = ao.build_graph([pad(0), pad(1), pad(2)])
    assert not g.weights.any()


def test_graph_pad_rows_zeroed(two_doc_input):
    inp, g = two_doc_input
    for i in np.flatnonzero(inp.unit_pad):
        assert not g.weights[i].any()
        assert not g.weights[:, i].any()


def test_graph_unit_pad_is_zero_diagonal(two_doc_input):
    inp, g = two_doc_input
    assert np.array_equal(g.unit_pad, inp.unit_pad) and g.unit_pad is g.unit_pad


def test_graph_symmetric_bitwise(two_doc_input):
    _, g = two_doc_input
    assert np.array_equal(g.weights, g.weights.T)


def test_graph_entries_in_unit_interval():
    rng = np.random.default_rng(13)
    for _ in range(10):
        units = [
            unit(i, [f"t{rng.integers(0, 6)}" for _ in range(rng.integers(1, 6))])
            for i in range(5)
        ]
        g = ao.build_graph(units)
        assert np.all(g.weights >= 0.0) and np.all(g.weights <= 1.0)


# The matrix product sums each dot product in another order than the
# pairwise loop; 1e-15 is about 5 ulp of 1.0 in float64.
ORACLE_TOLERANCE = 1e-15


def oracle_graph(units, threshold):
    """The pairwise ``cosine_similarity`` loop over every unordered pair."""
    vectors = ao.tfidf_vectors(units)
    L = len(vectors)
    weights = np.zeros((L, L))
    for i in range(L):
        weights[i, i] = 1.0 if vectors[i] else 0.0
        for j in range(i + 1, L):
            weights[i, j] = weights[j, i] = ao.cosine_similarity(vectors[i], vectors[j])
    return weights


@settings(max_examples=300)
@given(data=st.data())
def test_graph_matches_the_pairwise_oracle(data):
    distinct = data.draw(st.lists(st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=6),
                                  min_size=1, max_size=5))
    # None is a pad unit; repeated indices repeat a unit
    picks = data.draw(st.lists(st.none() | st.integers(0, len(distinct) - 1), max_size=12))
    threshold = data.draw(st.sampled_from([0.0, 0.3, 0.5]) | st.floats(0.0, 1.0, exclude_max=True))
    units = [pad(i) if k is None else unit(i, distinct[k]) for i, k in enumerate(picks)]
    got = ao.build_graph(units, threshold=threshold).weights
    cos = oracle_graph(units, 0.0)
    expected = np.where(cos < threshold, 0.0, cos)
    # an oracle cosine within the tolerance of the threshold may land on either side
    near = np.abs(cos - threshold) <= ORACLE_TOLERANCE
    assert np.all((np.abs(got - expected) <= ORACLE_TOLERANCE)
                  | (near & ((got == 0.0) | (np.abs(got - cos) <= ORACLE_TOLERANCE))))
    assert np.array_equal(got, got.T)
    bags = [None if k is None else sorted(distinct[k]) for k in picks]
    for i, j in zip(*np.triu_indices(len(units), 1)):
        if bags[i] is not None and bags[i] == bags[j]:  # identical units
            assert got[i, j] == 1.0


def dense_graph(units, threshold):
    """The graph of the dense (L, terms) matrix of ``tfidf_vectors``, columns
    numbered by first appearance, through the same matrix steps as
    ``build_graph``."""
    vectors = ao.tfidf_vectors(units)
    columns = {}
    for vec in vectors:
        for term in vec:
            columns.setdefault(term, len(columns))
    terms = np.zeros((len(vectors), len(columns)))
    for i, vec in enumerate(vectors):
        for term, weight in vec.items():
            terms[i, columns[term]] = weight
    dot = terms @ terms.T
    norms = np.diagonal(dot)
    cos = np.divide(dot, np.sqrt(np.outer(norms, norms)), out=np.zeros(dot.shape),
                    where=dot != 0.0)
    np.clip(cos, 0.0, 1.0, out=cos)
    cos[cos < threshold] = 0.0
    weights = np.triu(cos, 1)
    weights += weights.T
    np.fill_diagonal(weights, [1.0 if vec else 0.0 for vec in vectors])
    return weights


@settings(max_examples=300)
@given(inp=unit_grids(), threshold=st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.99))
def test_graph_bytes_match_the_dense_tfidf_matrix(inp, threshold):
    got = ao.build_graph(inp, threshold=threshold).weights
    assert got.tobytes() == dense_graph(inp.units, threshold).tobytes()


def test_graph_rejects_bad_threshold():
    with pytest.raises(ValueError):
        ao.build_graph([unit(0, ["a"])], threshold=1.0)
    with pytest.raises(ValueError):
        ao.build_graph([unit(0, ["a"])], threshold=-0.1)


# ---------------------------------------------------------------------------
# graph file
# ---------------------------------------------------------------------------

def test_graph_file_round_trip(tmp_path, two_doc_input):
    _, g = two_doc_input
    path = tmp_path / "g.json"
    ao.write_graph(g, path)
    back = ao.read_graph(path)
    assert back.size == g.size
    assert np.allclose(back.weights, g.weights, atol=1e-8)
    # serialized literals carry at most 9 significant digits
    obj = json.loads(path.read_text())
    for row in obj["weights"]:
        for value in row:
            assert float(f"{value:.9g}") == value


def test_graph_file_rejects_missing_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"weights": [[1.0]]}')
    with pytest.raises(ValueError, match="size"):
        ao.read_graph(path)


@pytest.mark.parametrize("obj, needle", [
    ({"size": 1.0, "weights": [[1.0]]}, "graph size must be an integer, not 1.0"),
    ({"size": True, "weights": [[1.0]]}, "graph size must be an integer, not True"),
    ({"size": 1, "weights": [[True]]}, "weights must hold only JSON numbers, not True"),
    ({"size": 1, "weights": [["1"]]}, "weights must hold only JSON numbers, not '1'"),
    ({"size": 1, "weights": [[None]]}, "weights must hold only JSON numbers, not None"),
    ({"size": 1, "weights": [[{}]]}, "weights must hold only JSON numbers, not {}"),
], ids=["float-size", "bool-size", "bool-weight", "string-weight", "null-weight", "object-weight"])
def test_graph_file_rejects_values_that_are_not_json_numbers(tmp_path, obj, needle):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ValueError) as info:
        ao.read_graph(path)
    assert str(info.value) == f"{path}: malformed graph file: {needle}"


def old_graph_bytes(weights):
    """The graph file as encoding every rounded float with ``json`` wrote it."""
    rows = [[float(f"{v:.9g}") for v in row] for row in weights]
    return (json.dumps({"size": len(weights), "weights": rows}) + "\n").encode()


EDGE_VALUES = [0.0, 1.0, 1e-4, 9.9999999996e-05, 0.99999999996, 5e-324, 1e-310,
               2.2250738585072014e-308, 0.1, 1.0 / 3.0]


@settings(max_examples=200)
@given(data=st.data())
def test_graph_file_bytes_match_the_json_encoder(tmp_path_factory, data):
    L = data.draw(st.integers(1, 7))
    values = st.sampled_from(EDGE_VALUES + [-0.0]) | st.floats(0.0, 1.0)
    weights = np.eye(L)
    for i, j in zip(*np.triu_indices(L, 1)):
        weights[i, j] = weights[j, i] = data.draw(values)
    if data.draw(st.booleans()):  # the last unit is a pad
        weights[-1] = weights[:, -1] = 0.0
    path = tmp_path_factory.mktemp("graph") / "g.json"
    ao.write_graph(ao.SimilarityGraph(size=L, weights=weights), path)
    assert path.read_bytes() == old_graph_bytes(weights)


def test_graph_file_keeps_edge_value_bytes(tmp_path):
    L = len(EDGE_VALUES) + 1
    weights = np.eye(L)
    weights[0, 1:] = weights[1:, 0] = EDGE_VALUES
    path = tmp_path / "g.json"
    ao.write_graph(ao.SimilarityGraph(size=L, weights=weights), path)
    assert path.read_bytes() == old_graph_bytes(weights)
    text = path.read_text()
    assert "[1.0, 0.0, 1.0, 0.0001, 0.0001, 1.0, 5e-324, 1e-310, 2.22507386e-308, 0.1, " \
           "0.333333333]" in text


def test_graph_file_writes_negative_zero_as_the_json_encoder_does(tmp_path):
    weights = np.eye(3)
    weights[0, 1] = weights[1, 0] = -0.0
    weights[1, 2] = weights[2, 1] = 0.5
    path = tmp_path / "g.json"
    ao.write_graph(ao.SimilarityGraph(size=3, weights=weights), path)
    assert path.read_bytes() == old_graph_bytes(weights)
    assert path.read_text() == ('{"size": 3, "weights": '
                                '[[1.0, -0.0, 0.0], [-0.0, 1.0, 0.5], [0.0, 0.5, 1.0]]}\n')


def test_graph_rejects_weights_of_another_shape():
    with pytest.raises(ValueError) as exc:
        ao.SimilarityGraph(size=3, weights=np.eye(2))
    assert str(exc.value) == "graph weights shape (2, 2) != (3, 3)"
