"""Per-request semantic features, similarity graph, component counting."""

import math
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from apiminer import features
from apiminer.features import (
    FEATURE_NAMES,
    connected_components,
    extract_features,
    row_input,
    scale_features,
)
from apiminer.normalize import normalize
from apiminer.records import HttpRecord


def features_for(url, method="GET", content_type=None, body_size=0,
                 body_field_count=None, body_nesting_depth=None):
    """The request's feature vector, read by column name."""
    record = HttpRecord(
        id=0, method=method, url=url, content_type=content_type,
        body_size=body_size, body_field_count=body_field_count,
        body_nesting_depth=body_nesting_depth,
    )
    return dict(zip(FEATURE_NAMES, extract_features(row_input(normalize(record))), strict=True))


class TestExtractFeatures:
    def test_one_value_per_feature_name(self):
        for url in ("/", "/api/v1/items/42?page=2", "/x?a=1&a=2&b"):
            nr = normalize(HttpRecord(id=0, method="POST", url=url, body_size=7))
            assert len(extract_features(row_input(nr))) == len(FEATURE_NAMES)

    def test_plain_get(self):
        x = features_for("/api/v1/items/42")
        assert x["query_param_count"] == 0.0
        assert x["common_key_count"] == 0.0
        assert x["has_query"] == 0.0
        assert x["method_write"] == 0.0  # read verb

    def test_query_counts(self):
        x = features_for("/api/items?page=2&limit=10")
        assert x["query_param_count"] == 2.0
        assert x["common_key_count"] == 2.0
        assert x["has_query"] == 1.0

    def test_duplicate_keys_counted_once(self):
        x = features_for("/api/items?id=1&id=2")
        assert x["query_param_count"] == 1.0

    def test_body_metrics(self):
        x = features_for(
            "/api/items", method="POST", content_type="application/json",
            body_size=100, body_field_count=4, body_nesting_depth=2,
        )
        assert x["body_size_log"] == pytest.approx(math.log1p(100))
        assert x["body_field_count"] == 4.0 and x["body_nesting_depth"] == 2.0
        assert x["method_write"] == 1.0  # write verb
        assert x["has_structured_payload"] == 1.0

    def test_empty_body(self):
        x = features_for("/api/items")
        assert x["body_size_log"] == 0.0 and x["body_field_count"] == 0.0


class TestScaleFeatures:
    def test_minmax_to_unit_interval(self):
        m = np.array([[0.0, 10.0], [5.0, 20.0], [10.0, 30.0]])
        scaled = scale_features(m)
        assert np.allclose(scaled[:, 0], [0.0, 0.5, 1.0])
        assert np.allclose(scaled[:, 1], [0.0, 0.5, 1.0])

    def test_constant_column_becomes_zero(self):
        m = np.array([[3.0, 1.0], [3.0, 2.0]])
        scaled = scale_features(m)
        assert np.all(scaled[:, 0] == 0.0)


def reference_graph(features, theta):
    """Independent oracle: the dense boolean adjacency of the thresholded
    similarity graph, from every pair's similarity in one n x n product.

    Rows i and j are joined when s = (1 + cos(x_i, x_j)) / 2 >= theta, in
    either order, since the two products can round apart.  A zero row joins
    nothing, and no row joins itself.
    """
    norms = np.linalg.norm(features, axis=1)
    safe = norms.copy()
    safe[safe == 0] = 1.0
    unit = features / safe[:, None]
    joined = (1.0 + unit @ unit.T) / 2.0 >= theta
    joined |= joined.T
    nonzero = norms > 0
    joined &= nonzero[:, None] & nonzero[None, :]
    np.fill_diagonal(joined, False)
    return joined


def bfs_components(A):
    """Independent oracle: breadth-first component labelling."""
    n = A.shape[0]
    labels = [-1] * n
    next_label = 0
    for start in range(n):
        if labels[start] != -1:
            continue
        queue = [start]
        labels[start] = next_label
        while queue:
            u = queue.pop()
            for v in range(n):
                if A[u, v] > 0 and labels[v] == -1:
                    labels[v] = next_label
                    queue.append(v)
        next_label += 1
    return labels


def components(rows, theta):
    return connected_components(np.array(rows, dtype=float), theta).tolist()


class TestEdges:
    def test_identical_vectors_joined(self):
        assert components([[1.0, 1.0], [1.0, 1.0]], 0.9) == [0, 0]

    def test_orthogonal_vectors_half_similarity(self):
        X = [[1.0, 0.0], [0.0, 1.0]]
        assert components(X, 0.4) == [0, 0]
        # s = 0.5 exactly: at the threshold, an edge
        assert components(X, 0.5) == [0, 0]
        assert components(X, 0.6) == [0, 1]

    @pytest.mark.parametrize("theta", [0.1, 0.5, 0.9])
    def test_zero_vector_isolated(self, theta):
        # at theta <= 0.5 a zero row's unit vector would score 0.5 against
        # any row; two zero rows are not joined either
        assert components([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]], theta) == [0, 1, 2]

    def test_matches_brute_force_similarity(self):
        rng = np.random.default_rng(3)
        for theta in (0.9, 0.95, 0.99):
            X = np.abs(rng.standard_normal((12, 5)))
            A = np.zeros((12, 12), dtype=bool)
            for i in range(12):
                for j in range(12):
                    cos = float(X[i] @ X[j] / (np.linalg.norm(X[i]) * np.linalg.norm(X[j])))
                    A[i, j] = i != j and (1 + cos) / 2 >= theta
            assert connected_components(X, theta).tolist() == bfs_components(A)

    @pytest.mark.parametrize("theta", [-0.5, 0.0, 1.0, 1.5, float("nan")])
    def test_theta_bounds(self, theta):
        with pytest.raises(ValueError):
            connected_components(np.ones((2, 2)), theta)


@st.composite
def scaled_rows(draw):
    """Scaled rows with ties: raw values rounded to 0-2 decimals, rows
    repeated from a small pool, and the zero row among them."""
    width = draw(st.integers(1, 6))
    decimals = draw(st.integers(0, 2))
    value = st.floats(0, 10).map(lambda v: round(v, decimals))
    pool = draw(st.lists(st.lists(value, min_size=width, max_size=width), min_size=1, max_size=12))
    pool.append([0.0] * width)
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=40))
    return scale_features(np.array([pool[i] for i in picks]))


@settings(max_examples=500, deadline=None)
@given(
    rows=scaled_rows(),
    theta=st.sampled_from([0.5, 0.85]) | st.floats(0.01, 0.5) | st.floats(0.5, 0.99),
    small_blocks=st.booleans(),
)
def test_components_are_those_of_the_dense_graph(rows, theta, small_blocks):
    # small blocks split every frontier step into products of a row or two
    with mock.patch.multiple(features, BLOCK_ROWS=2, BLOCK_CELLS=3) if small_blocks else nullcontext():
        labels = connected_components(rows, theta)
    assert labels.tolist() == bfs_components(reference_graph(rows, theta))


def unique_numbered_components(rows, theta):
    """Independent oracle: each row named by the smallest row it reaches in
    the dense graph (from the transitive closure of its adjacency), the names
    numbered by ``np.unique(..., return_inverse=True)``."""
    n = len(rows)
    reach = reference_graph(rows, theta) | np.eye(n, dtype=bool)
    while True:
        wider = (reach.astype(int) @ reach.astype(int)) > 0
        if np.array_equal(wider, reach):
            break
        reach = wider
    first = reach.argmax(axis=1) if n else np.arange(0)
    return np.unique(first, return_inverse=True)[1]


@st.composite
def rows_with_ties(draw):
    """0-40 rows in [0, 1], repeated from a small pool that holds the zero row."""
    width = draw(st.integers(1, 4))
    value = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0, 1)
    pool = draw(st.lists(st.lists(value, min_size=width, max_size=width), min_size=1, max_size=6))
    pool.append([0.0] * width)
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=40))
    return np.array([pool[i] for i in picks], dtype=float).reshape(len(picks), width)


@settings(max_examples=300, deadline=None)
@given(
    rows=rows_with_ties(),
    # near 1 only so far that the rounding of a unit row's product with
    # itself cannot decide an edge
    theta=st.floats(0, 0.01, exclude_min=True) | st.floats(0.99, 1 - 1e-9) | st.floats(0.01, 0.99),
    small_blocks=st.booleans(),
)
def test_components_are_unique_numbers_of_first_rows(rows, theta, small_blocks):
    with mock.patch.multiple(features, BLOCK_ROWS=2, BLOCK_CELLS=3) if small_blocks else nullcontext():
        labels = connected_components(rows, theta)
    expected = unique_numbered_components(rows, theta)
    assert labels.dtype == expected.dtype
    assert labels.tolist() == expected.tolist()


class TestComponents:
    def test_against_bfs_oracle(self):
        # both number components in order of their first row
        rng = np.random.default_rng(11)
        for n in (1, 2, 12, 40, 120):
            for theta in (0.3, 0.85, 0.95, 0.999):
                X = scale_features(rng.random((n, 4)) * (rng.random((n, 4)) < 0.6))
                A = reference_graph(X, theta)
                assert connected_components(X, theta).tolist() == bfs_components(A)

    def test_numbered_by_first_node(self):
        # a path 4-1-3 and a pair 0-2: component 0 holds row 0
        X = np.array([[1.0, 0.0], [0.02, 1.0], [1.0, 0.01], [0.04, 1.0], [0.0, 1.0]])
        assert sorted(zip(*np.nonzero(np.triu(reference_graph(X, 0.9998))))) == [(0, 2), (1, 3), (1, 4)]
        assert components(X, 0.9998) == [0, 1, 0, 1, 1]

    @pytest.mark.parametrize("block_rows, block_cells", [(512, 2**20), (1, 1)])
    def test_long_path_is_one_component(self, block_rows, block_cells):
        # points 1.8 degrees apart on a quarter circle, taken in a shuffled
        # order: each joins only its neighbours, one frontier step per edge
        n = 50
        angle = np.linspace(0.0, np.pi / 2, n)
        X = np.empty((n, 2))
        X[np.random.default_rng(2).permutation(n)] = np.column_stack((np.cos(angle), np.sin(angle)))
        A = reference_graph(X, 0.9995)
        assert A.sum() == 2 * (n - 1)
        with mock.patch.multiple(features, BLOCK_ROWS=block_rows, BLOCK_CELLS=block_cells):
            assert connected_components(X, 0.9995).tolist() == [0] * n


class TestDistinctRowGraph:
    """A graph over distinct rows stands for the graph over all their copies."""

    X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 0.9], [0.0, 0.0], [1.0, 1.0]])
    distinct = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.9]])

    def test_zero_row_copies_are_components(self):
        # the zero row is one component, however many copies it has, plus one
        # component of the rest; on all six rows each zero-row copy is its own
        assert components(self.distinct, 0.85) == [0, 1, 1]
        assert components(self.X, 0.85) == [0, 1, 2, 1, 3, 1]
