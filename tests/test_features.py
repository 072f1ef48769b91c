"""Per-request semantic features, similarity graph, component counting."""

import math

import numpy as np
import pytest

from apiminer.features import (
    FEATURE_NAMES,
    build_graph,
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


class TestBuildGraph:
    def test_identical_vectors_joined(self):
        X = np.array([[1.0, 1.0], [1.0, 1.0]])
        g = build_graph(X, 0.9)
        assert g.dtype == bool
        assert g[0, 1]

    def test_orthogonal_vectors_half_similarity(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert build_graph(X, 0.4)[0, 1]
        # s = 0.5 exactly: at the threshold, an edge
        assert build_graph(X, 0.5)[0, 1]
        assert not build_graph(X, 0.6)[0, 1]

    def test_zero_vector_isolated(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
        g = build_graph(X, 0.1)
        assert not g[0].any() and not g[:, 0].any()
        # two zero rows are not joined either
        assert not g[0, 2]

    def test_matches_brute_force_similarity(self):
        rng = np.random.default_rng(3)
        X = np.abs(rng.standard_normal((4, 5)))
        theta = 0.9
        g = build_graph(X, theta)
        assert g.dtype == bool
        for i in range(4):
            for j in range(4):
                if i == j:
                    assert not g[i, j]
                    continue
                cos = float(X[i] @ X[j] / (np.linalg.norm(X[i]) * np.linalg.norm(X[j])))
                assert g[i, j] == ((1 + cos) / 2 >= theta)

    def test_theta_bounds(self):
        with pytest.raises(ValueError):
            build_graph(np.ones((2, 2)), 0.0)


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


class TestComponents:
    def test_against_bfs_oracle(self):
        # both number components in order of their first node
        rng = np.random.default_rng(11)
        for n in (1, 2, 12, 40):
            for p in (0.0, 0.05, 0.15, 0.5):
                A = np.triu(rng.random((n, n)) < p, 1)
                A = A | A.T
                assert connected_components(A).tolist() == bfs_components(A)

    def test_numbered_by_first_node(self):
        # a path 4-1-3 and a pair 0-2: component 0 holds node 0
        A = np.zeros((5, 5), dtype=bool)
        for i, j in [(4, 1), (1, 3), (0, 2)]:
            A[i, j] = A[j, i] = True
        assert connected_components(A).tolist() == [0, 1, 0, 1, 1]

    def test_long_path_is_one_component(self):
        # one frontier step per edge of the path
        n = 50
        A = np.zeros((n, n), dtype=bool)
        order = np.random.default_rng(2).permutation(n)
        A[order[:-1], order[1:]] = A[order[1:], order[:-1]] = True
        assert connected_components(A).tolist() == [0] * n


class TestDistinctRowGraph:
    """A graph over distinct rows stands for the graph over all their copies."""

    X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 0.9], [0.0, 0.0], [1.0, 1.0]])
    distinct = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.9]])

    def test_zero_row_copies_are_components(self):
        # the zero row is one component, however many copies it has, plus one
        # component of the rest; on all six rows each zero-row copy is its own
        def count(A):
            return int(connected_components(A).max()) + 1

        assert count(build_graph(self.distinct, 0.85)) == 2
        assert count(build_graph(self.X, 0.85)) == 4
