"""Second-stage refinement: connected components, reabsorption, the k-means ablation."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from apiminer import refine
from apiminer.features import (
    connected_components,
    extract_features,
    row_input,
    scale_features,
)
from apiminer.normalize import normalize
from apiminer.records import HttpRecord, IngestError
from apiminer.refine import (
    GRAPH_REFINED,
    KMEANS_ABLATION,
    MAX_K,
    MIN_CLUSTER_FRACTION,
    PASSTHROUGH,
    RefinerConfig,
    discover,
    farthest_point_seeds,
    kmeans_assign,
    prepare_traffic,
    refine_group,
    _cluster,
    _feature_rows,
    _reabsorb_small,
)
from apiminer.records import Dataset
from apiminer.templates import TemplateGroup, PathTemplate, mine
from test_features import bfs_components, reference_graph


def distinct(X):
    """The distinct rows of X in sorted order, the row of each request, and
    the count of requests on each row."""
    rows, node_of = np.unique(X, axis=0, return_inverse=True)
    node_of = node_of.reshape(-1)
    return rows, node_of, np.bincount(node_of)


def feature_matrix(members):
    """Each member's raw feature row, one per request."""
    return np.array([extract_features(row_input(nr)) for nr in members])


def feature_rows(members):
    """``_feature_rows`` of the members' distinct row inputs, as
    ``refine_group`` numbers them."""
    inputs = {}
    input_of = [inputs.setdefault(row_input(nr), len(inputs)) for nr in members]
    return _feature_rows(inputs, input_of)


class TestSeedingAndKMeans:
    def test_farthest_point_starts_at_smallest_row(self):
        # distinct rows in sorted order, as refine_group hands them over;
        # [0, 5] is farthest from [0, 1]
        rows = np.array([[0.0, 1.0], [0.0, 5.0], [1.0, 0.0]])
        assert farthest_point_seeds(rows, 2).tolist() == [[0.0, 1.0], [0.0, 5.0]]

    def test_farthest_point_spreads(self):
        rows = np.array([[0.0], [0.1], [10.0]])
        assert farthest_point_seeds(rows, 2).tolist() == [[0.0], [10.0]]

    def test_farthest_point_tie_takes_smaller_row(self):
        rows = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        assert farthest_point_seeds(rows, 3).tolist() == [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]

    def test_kmeans_separates_blobs(self):
        rng = np.random.default_rng(4)
        X = np.vstack([rng.normal(0, 0.05, (10, 2)), rng.normal(5, 0.05, (10, 2))])
        rows, node_of, counts = distinct(X)
        labels = kmeans_assign(rows, counts, 2)[node_of]
        assert len(set(labels[:10].tolist())) == 1
        assert len(set(labels[10:].tolist())) == 1
        assert labels[0] != labels[10]

    def test_counts_weigh_the_centroids(self):
        # seeds 0 and 10, first labels [0, 0, 1, 1]; weighted, the centroids
        # move to 3.6 and 9.6 and draw 6 over, unweighted to 2 and 8
        rows = np.array([[0.0], [4.0], [6.0], [10.0]])
        assert kmeans_assign(rows, np.array([1, 9, 1, 9]), 2).tolist() == [0, 0, 0, 1]
        assert kmeans_assign(rows, np.array([1, 1, 1, 1]), 2).tolist() == [0, 0, 1, 1]


def reference_kmeans(X, k):
    """Lloyd on every request: farthest-first seeds over np.unique's sorted
    distinct rows of X, then centroids as means over the requests."""
    rows = np.unique(X, axis=0)
    chosen = [0]
    while len(chosen) < k:
        dist = np.min([np.linalg.norm(rows - rows[c], axis=1) for c in chosen], axis=0)
        chosen.append(int(np.argmax(dist)))
    centroids = rows[chosen]
    labels = np.zeros(len(X), dtype=int)
    for it in range(refine.KMEANS_MAX_ITERS):
        new_labels = np.argmin(((X[:, None, :] - centroids[None]) ** 2).sum(axis=2), axis=1)
        if it > 0 and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            if (labels == c).any():
                centroids[c] = X[labels == c].mean(axis=0)
    return labels


@settings(max_examples=200, deadline=None)
@given(
    rows=hnp.arrays(float, st.tuples(st.integers(1, 12), st.integers(1, 3)),
                    elements=st.integers(0, 3).map(float)),
    data=st.data(),
)
def test_weighted_lloyd_is_lloyd_on_every_request(rows, data):
    # any permutation of X, with any row repeated: the labels of the distinct
    # rows, weighted by their counts, are those of Lloyd over every request
    k = data.draw(st.integers(1, len(np.unique(rows, axis=0))))
    copies = data.draw(st.lists(st.integers(1, 3), min_size=len(rows), max_size=len(rows)))
    order = data.draw(st.permutations(np.repeat(np.arange(len(rows)), copies).tolist()))
    X = rows[order]
    distinct_rows, node_of, counts = distinct(X)
    labels = kmeans_assign(distinct_rows, counts, k)[node_of]
    assert np.array_equal(labels, reference_kmeans(X, k))


def same_partition(a, b):
    """Equal label arrays up to a renaming of the labels."""
    pairs = set(zip(a.tolist(), b.tolist()))
    return len(pairs) == len(set(a.tolist())) == len(set(b.tolist()))


class TestWeightedRows:
    """Distinct rows give the partition of the graph over every request."""

    def test_clustering_matches_expanded_rows(self):
        # the graph path of refine_group on distinct rows against the
        # components of the graph over every request (no zero rows here,
        # whose copies would each be a component of their own there)
        rng = np.random.default_rng(26)
        for _ in range(20):
            u = int(rng.integers(2, 6))
            base = rng.random((u, 4)) + 0.1 * (rng.random((u, 4)) < 0.5)
            X = base[rng.permutation(np.repeat(np.arange(u), rng.integers(2, 20, u)))]
            rows, node_of, _ = distinct(X)
            full = np.array(bfs_components(reference_graph(X, 0.85)))
            labels = connected_components(rows, 0.85)[node_of]
            assert labels.max() == full.max()
            assert same_partition(labels, full)

    def test_feature_rows_in_sorted_order(self):
        # first occurrence would give (400, 6, 3), (0, 0, 0), (30, 1, 1)
        bodies = [(400, 6, 3), (0, None, None), (400, 6, 3), (30, 1, 1), (0, None, None)]
        group = group_from_urls([f"/api/v1/things/{i}" for i in range(5)], bodies=bodies)
        rows, node_of = feature_rows(group.members)
        assert rows[:, 3].tolist() == [0.0, np.log1p(30), np.log1p(400)]
        assert rows.tolist() == sorted(rows.tolist())
        assert node_of.tolist() == [2, 0, 2, 1, 0]


@settings(max_examples=60, deadline=None)
@given(picks=st.lists(st.integers(0, 4), min_size=1, max_size=60), seed=st.integers(0, 2**16))
def test_distinct_rows_match_unique_on_scaled_rows(picks, seed):
    # feature rows of a mined group, deduplicated and scaled, against
    # np.unique over the scaled n-row matrix
    rng = np.random.default_rng(seed)
    bodies = [(int(b), int(f), int(d)) for b, f, d in rng.integers(0, 3, (5, 3))]
    urls = [f"/api/v1/things/{i}{PROFILES[p][0]}" for i, p in enumerate(picks)]
    group = group_from_urls(urls, bodies=[bodies[p] for p in picks])
    distinct_raw, node_of = feature_rows(group.members)
    X = scale_features(feature_matrix(group.members))
    expected, expected_node_of, _ = distinct(X)
    # scaling the distinct raw rows gives the distinct scaled rows, in order
    assert np.array_equal(scale_features(distinct_raw), expected)
    assert np.array_equal(scale_features(distinct_raw)[node_of], X)
    assert node_of.tolist() == expected_node_of.tolist()


# inputs that differ yet may give one row: a None and a 0 count, repeated
# query keys, two read verbs, content types that differ only in case
ROW_INPUTS = st.tuples(
    st.sampled_from(["GET", "HEAD", "POST", "DELETE"]),
    st.sampled_from(["", "?a=1", "?a=1&a=2", "?a=1&page=2", "?page=2&a=1&a=3"]),
    st.sampled_from(["application/json", "Application/JSON", "text/plain", None]),
    st.sampled_from([0, 1, 100]),
    st.sampled_from([None, 0, 2]),
    st.sampled_from([None, 0, 1]),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(ROW_INPUTS, min_size=1, max_size=40))
def test_feature_rows_are_the_distinct_rows_of_every_request(inputs):
    members = [
        normalize(HttpRecord(
            id=i, method=method, url=f"/api/v1/things{query}", content_type=content_type,
            body_size=size, body_field_count=fields, body_nesting_depth=depth,
        ))
        for i, (method, query, content_type, size, fields, depth) in enumerate(inputs)
    ]
    distinct_raw, node_of = feature_rows(members)
    expected_raw, expected_node_of, _ = distinct(feature_matrix(members))
    assert np.array_equal(distinct_raw, expected_raw)
    assert distinct_raw.dtype == expected_raw.dtype
    assert node_of.tolist() == expected_node_of.tolist()


def test_refine_extracts_one_row_per_distinct_input(monkeypatch):
    bodies = [(10, 1, 1), (10, 1, 1), (20, 2, 1), (10, 1, 1), (20, 2, 1), (30, 3, 2)]
    group = group_from_urls([f"/api/v1/things/{i}" for i in range(6)], bodies=bodies)
    calls = []

    def counting(key):
        calls.append(key)
        return extract_features(key)

    monkeypatch.setattr(refine, "extract_features", counting)
    refine_group(group)
    assert len({row_input(nr) for nr in group.members}) == 3
    # each distinct input once, in order of first occurrence
    assert calls == [row_input(group.members[i]) for i in (0, 2, 5)]


def group_from_urls(urls, method="GET", bodies=None):
    requests = []
    for i, u in enumerate(urls):
        body = bodies[i] if bodies else (0, None, None)
        requests.append(normalize(HttpRecord(
            id=i, method=method, url=u, content_type="application/json",
            body_size=body[0], body_field_count=body[1], body_nesting_depth=body[2],
        )))
    (group,) = mine(requests)
    return group


class TestRefineGroup:
    def test_small_group_passthrough(self):
        group = group_from_urls(["/api/a", "/api/a"])
        clusters = refine_group(group)
        assert len(clusters) == 1
        assert clusters[0].provenance == PASSTHROUGH
        assert clusters[0].member_ids == [0, 1]

    def test_two_blob_group_splits_exactly(self):
        n = 15
        urls = [f"/api/v1/things/{i}?page=1&limit=5" for i in range(n)]
        urls += [f"/api/v1/things/{i + n}" for i in range(n)]
        bodies = [(0, None, None)] * n + [(400, 6, 3)] * n
        group = group_from_urls(urls, method="POST", bodies=bodies)
        clusters = refine_group(group)
        assert len(clusters) == 2
        assert sorted(clusters[0].member_ids) == list(range(n))
        assert sorted(clusters[1].member_ids) == list(range(n, 2 * n))
        assert all(c.provenance == GRAPH_REFINED for c in clusters)

    SMALL_GROUP = (
        [
            "/api/v1/things/1?page=1&limit=2&sort=x",
            "/api/v1/things/2",
            "/api/v1/things/3?q=a",
            "/api/v1/things/4?id=9&filter=b",
            "/api/v1/things/5?offset=2",
        ],
        [(0, None, None), (900, 12, 4), (0, None, None), (30, 1, 1), (0, None, None)],
    )

    def test_small_group_takes_graph_path(self):
        # five requests of different shapes, below any group-size gate
        urls, bodies = self.SMALL_GROUP
        group = group_from_urls(urls, method="POST", bodies=bodies)
        clusters = refine_group(group)
        assert [c.member_ids for c in clusters] == [[0, 1, 2, 3, 4]]
        assert clusters[0].provenance == GRAPH_REFINED

    def test_single_component_draws_no_random_numbers(self, monkeypatch):
        # body size up, field count down: five distinct rows linked in a chain
        urls = [f"/api/v1/things/{i}" for i in range(5)]
        bodies = [(100, 5, 2), (150, 4, 2), (200, 3, 2), (250, 2, 2), (300, 1, 2)]
        group = group_from_urls(urls, method="POST", bodies=bodies)
        X = scale_features(feature_matrix(group.members))
        assert len(np.unique(X, axis=0)) == 5
        assert connected_components(X, RefinerConfig().theta).max() == 0

        def unreachable(*args):
            raise AssertionError("the graph path ran k-means")

        monkeypatch.setattr("apiminer.refine.kmeans_assign", unreachable)
        clusters = refine_group(group)
        assert [c.member_ids for c in clusters] == [[0, 1, 2, 3, 4]]

    @pytest.mark.parametrize("force_kmeans, provenance", [
        (False, GRAPH_REFINED), (True, KMEANS_ABLATION),
    ])
    def test_one_row_group_builds_no_graph(self, monkeypatch, force_kmeans, provenance):
        # different ids, one feature row: the group's answer is one cluster
        urls = [f"/api/v1/things/{i}?page={i}" for i in range(6)]
        group = group_from_urls(urls, method="PUT", bodies=[(80, 3, 1)] * 6)
        assert len(np.unique(feature_matrix(group.members), axis=0)) == 1

        def unreachable(*args):
            raise AssertionError("a one-row group was scaled or graphed")

        monkeypatch.setattr("apiminer.refine.scale_features", unreachable)
        monkeypatch.setattr("apiminer.refine.connected_components", unreachable)
        clusters = refine_group(group, RefinerConfig(force_kmeans=force_kmeans))
        assert [(c.member_ids, c.provenance) for c in clusters] == [(list(range(6)), provenance)]

    @pytest.mark.parametrize("n", [3, 7])
    @pytest.mark.parametrize("force_kmeans, provenance", [
        (False, GRAPH_REFINED), (True, KMEANS_ABLATION),
    ])
    def test_one_row_input_group_makes_no_feature_row(self, monkeypatch, n, force_kmeans, provenance):
        # ids and query values differ, every field a row reads is the same
        urls = [f"/api/v1/things/{i}?page={i}" for i in range(n)]
        group = group_from_urls(urls, method="PUT", bodies=[(80, 3, 1)] * n)
        assert len({row_input(nr) for nr in group.members}) == 1

        def unreachable(*args):
            raise AssertionError("a group of one row input made feature rows")

        for name in ("extract_features", "scale_features"):
            monkeypatch.setattr(f"apiminer.refine.{name}", unreachable)
        clusters = refine_group(group, RefinerConfig(force_kmeans=force_kmeans))
        # the dominant-row exit's cluster
        assert clusters == [_cluster(group, group.members, provenance)]
        assert clusters[0].member_ids == list(range(n))

    @pytest.mark.parametrize("force_kmeans", [False, True])
    def test_dominant_row_group_builds_no_graph(self, monkeypatch, force_kmeans):
        # twenty requests, three off the common row: fewer than min_size = 4,
        # so no cluster without the common row survives reabsorption
        urls = [f"/api/v1/things/{i}" for i in range(20)]
        bodies = [(80, 3, 1)] * 17 + [(900, 12, 4)] * 2 + [(0, None, None)]
        group = group_from_urls(urls, method="PUT", bodies=bodies)
        assert len(np.unique(feature_matrix(group.members), axis=0)) == 3

        def unreachable(*args):
            raise AssertionError("a group with a dominant row was refined")

        for name in ("scale_features", "connected_components", "kmeans_assign"):
            monkeypatch.setattr(f"apiminer.refine.{name}", unreachable)
        clusters = refine_group(group, RefinerConfig(force_kmeans=force_kmeans))
        assert [c.member_ids for c in clusters] == [list(range(20))]

    def test_force_kmeans_bypasses_graph_training(self):
        n = 15
        urls = [f"/api/v1/things/{i}?page=1" for i in range(n)]
        urls += [f"/api/v1/things/{i + n}" for i in range(n)]
        bodies = [(0, None, None)] * n + [(400, 6, 3)] * n
        group = group_from_urls(urls, method="POST", bodies=bodies)
        clusters = refine_group(group, RefinerConfig(force_kmeans=True))
        assert all(c.provenance == KMEANS_ABLATION for c in clusters)

    def test_clusters_partition_group(self):
        n = 15
        urls = [f"/api/v1/things/{i}?page=1" for i in range(n)]
        urls += [f"/api/v1/things/{i + n}" for i in range(n)]
        bodies = [(0, None, None)] * n + [(400, 6, 3)] * n
        group = group_from_urls(urls, method="POST", bodies=bodies)
        clusters = refine_group(group)
        all_ids = sorted(i for c in clusters for i in c.member_ids)
        assert all_ids == sorted(group.member_ids)

    def test_determinism(self):
        n = 15
        urls = [f"/api/v1/things/{i}?page=1" for i in range(n)]
        urls += [f"/api/v1/things/{i + n}" for i in range(n)]
        bodies = [(0, None, None)] * n + [(400, 6, 3)] * n
        group = group_from_urls(urls, method="POST", bodies=bodies)
        a = refine_group(group)
        b = refine_group(group)
        assert [(c.member_ids, c.provenance) for c in a] == [
            (c.member_ids, c.provenance) for c in b
        ]


PROFILES = [
    ("?page=1&limit=5", (0, None, None)),
    ("", (400, 6, 3)),
    ("?q=a", (30, 1, 1)),
    ("", (0, None, None)),
    ("?id=9&filter=b&sort=x", (900, 12, 4)),
]


@settings(max_examples=40, deadline=None)
@given(
    picks=st.lists(st.integers(0, len(PROFILES) - 1), min_size=3, max_size=60),
    theta=st.sampled_from([0.6, 0.85, 0.95]),
)
# a trained group whose zero rows outnumber its clusters: on n rows, the
# eigensolver's rounding noise split such copies across coincident centroids
@example(picks=[int(c) for c in "201123312111310211413114213121133120311413023242"], theta=0.85)
def test_identical_feature_rows_share_a_cluster(picks, theta):
    urls = [f"/api/v1/things/{i}{PROFILES[p][0]}" for i, p in enumerate(picks)]
    bodies = [PROFILES[p][1] for p in picks]
    group = group_from_urls(urls, method="POST", bodies=bodies)
    clusters = refine_group(group, RefinerConfig(theta=theta))
    cluster_of = {i: c for c, cl in enumerate(clusters) for i in cl.member_ids}
    X = scale_features(feature_matrix(group.members))
    for a, i in enumerate(group.member_ids):
        for b, j in enumerate(group.member_ids):
            if np.array_equal(X[a], X[b]):
                assert cluster_of[i] == cluster_of[j]


def min_cluster_size(n):
    return max(2, int(np.ceil(MIN_CLUSTER_FRACTION * n)))


@st.composite
def dominated_rows(draw):
    """``node_of`` with row 0 the most common and fewer than
    ``min_cluster_size(n)`` requests on every other row together."""
    others = draw(st.lists(st.integers(1, 5), max_size=6))
    rest = sum(others)
    top = max(3 - rest, 4 * rest + 1) + draw(st.integers(0, 30))
    node_of = np.repeat(np.arange(1 + len(others)), [top, *others])
    return draw(st.permutations(node_of.tolist()))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), node_of=dominated_rows())
def test_reabsorption_of_a_dominated_group_leaves_one_cluster(data, node_of):
    # the lemma refine_group answers such groups by: any label per row, any
    # rows, one label after reabsorption
    counts = np.bincount(node_of)
    n = len(node_of)
    assert n - counts.max() < min_cluster_size(n)
    row_label = data.draw(hnp.arrays(int, len(counts), elements=st.integers(0, 7)))
    rows = data.draw(hnp.arrays(float, (len(counts), 3), elements=st.floats(-1e6, 1e6)))
    labels = _reabsorb_small(row_label, rows, counts, min_cluster_size(n))
    assert len(set(labels.tolist())) == 1


def reabsorb_on_rows(labels, X, min_size):
    """``_reabsorb_small`` on the distinct rows of X, given labels constant
    on the copies of a row, with its labels read back per request."""
    rows, node_of, counts = distinct(X)
    row_label = np.zeros(len(rows), dtype=int)
    row_label[node_of] = labels
    return _reabsorb_small(row_label, rows, counts, min_size)[node_of]


@pytest.mark.parametrize("a_first", [True, False])
def test_reabsorption_does_not_follow_label_numbers(a_first):
    # P and Q are big; A (8 rows at 4.5) is nearer P, B (3 rows at 5.5)
    # nearer Q.  B merges first, as the smaller, whichever label comes first:
    # A first would draw P's centroid to 1.29 and then B into P (31/20)
    X = np.array([[0.0]] * 20 + [[10.0]] * 20 + [[4.5]] * 8 + [[5.5]] * 3)
    a, b = (2, 3) if a_first else (3, 2)
    labels = np.array([0] * 20 + [1] * 20 + [a] * 8 + [b] * 3)
    merged = reabsorb_on_rows(labels, X, 11)
    # A joins P (label 0) and B joins Q (label 1)
    assert np.bincount(merged).tolist() == [28, 23]
    assert np.array_equal(merged, reference_reabsorb(labels, X, 11))


def reference_reabsorb(labels, X, min_size):
    """Merge the smallest small cluster into the nearest big one until none
    is small or none is big, with every cluster's centroid computed; ties go
    to the cluster whose sorted rows come first."""
    labels = labels.copy()
    while True:
        ids, counts = np.unique(labels, return_counts=True)
        small = [c for c, cnt in zip(ids, counts) if cnt < min_size]
        big = [c for c, cnt in zip(ids, counts) if cnt >= min_size]
        if not small or not big:
            return labels
        rows = {c: sorted(X[labels == c].tolist()) for c in ids}
        size = dict(zip(ids, counts))
        first = sorted(small, key=lambda c: (size[c], rows[c]))[0]
        centroids = {c: X[labels == c].mean(axis=0) for c in ids}
        d = {c: np.linalg.norm(centroids[first] - centroids[c]) for c in big}
        labels[labels == first] = sorted(big, key=lambda c: (d[c], rows[c]))[0]


def reference_refine(group, config):
    """refine_group with no shortcut: scaling over every request, the graph,
    components by breadth-first search or Lloyd over every request for any
    k, and reabsorption over every request on every group of three or more."""
    members = group.members
    n = len(members)
    if n < 3:
        return [_cluster(group, members, PASSTHROUGH)]
    X = scale_features(feature_matrix(members))
    rows, node_of, _ = distinct(X)
    graph = reference_graph(rows, config.theta)
    if config.force_kmeans:
        k = min(len(set(bfs_components(graph))), MAX_K)
        labels, provenance = reference_kmeans(X, k), KMEANS_ABLATION
    else:
        labels, provenance = np.array(bfs_components(graph))[node_of], GRAPH_REFINED
    labels = reference_reabsorb(labels, X, min_cluster_size(n))
    clusters = [
        _cluster(group, [members[i] for i in np.nonzero(labels == c)[0]], provenance)
        for c in np.unique(labels)
    ]
    return sorted(clusters, key=lambda cl: min(cl.member_ids))


# profile picks: a run of one profile, which may dominate, among others
PICKS = st.builds(
    lambda top, copies, others: [top] * copies + others,
    st.integers(0, len(PROFILES) - 1),
    st.integers(0, 40),
    st.lists(st.integers(0, len(PROFILES) - 1), max_size=25),
).filter(lambda picks: len(picks) >= 1).flatmap(st.permutations)


@settings(max_examples=80, deadline=None)
@given(
    picks=PICKS,
    theta=st.sampled_from([0.6, 0.85, 0.95]),
    force_kmeans=st.booleans(),
)
def test_refine_group_matches_full_path(picks, theta, force_kmeans):
    urls = [f"/api/v1/things/{i}{PROFILES[p][0]}" for i, p in enumerate(picks)]
    group = group_from_urls(urls, method="POST", bodies=[PROFILES[p][1] for p in picks])
    config = RefinerConfig(theta=theta, force_kmeans=force_kmeans)
    assert refine_group(group, config) == reference_refine(group, config)


@settings(max_examples=80, deadline=None)
@given(picks=PICKS, theta=st.sampled_from([0.6, 0.85, 0.95]), data=st.data())
def test_refine_group_ignores_member_order(picks, theta, data):
    # the same clusters, to the last field, under any order of the members
    urls = [f"/api/v1/things/{i}{PROFILES[p][0]}" for i, p in enumerate(picks)]
    group = group_from_urls(urls, method="POST", bodies=[PROFILES[p][1] for p in picks])
    shuffled = TemplateGroup(group.template, data.draw(st.permutations(group.members)))
    for force_kmeans in (False, True):
        config = RefinerConfig(theta=theta, force_kmeans=force_kmeans)
        assert refine_group(shuffled, config) == refine_group(group, config)


def kmeans_ks(group, theta):
    """The k ``refine_group`` hands ``kmeans_assign`` under force_kmeans."""
    ks = []

    def recording(rows, counts, k):
        ks.append(k)
        return kmeans_assign(rows, counts, k)

    with mock.patch.object(refine, "kmeans_assign", recording):
        refine_group(group, RefinerConfig(theta=theta, force_kmeans=True))
    return ks


def test_kmeans_k_capped_at_max_k():
    # twelve bodies of different shapes, two requests each: at theta 0.9999
    # few distinct rows are joined, so the graph has more than MAX_K components
    bodies = [(2**i, i % 5, i % 3) for i in range(12)] * 2
    group = group_from_urls([f"/api/v1/things/{i}" for i in range(24)], bodies=bodies)
    X = scale_features(feature_matrix(group.members))
    assert len(set(bfs_components(reference_graph(np.unique(X, axis=0), 0.9999)))) > MAX_K
    assert kmeans_ks(group, 0.9999) == [MAX_K]


@st.composite
def kmeans_picks(draw):
    """Profile picks that reach k-means: a most common profile and at least
    two requests of other profiles, with the most common one holding at most
    four times as many as all others together, so that no row holds
    n - min_cluster_size(n) + 1 or more of the n requests."""
    top = draw(st.integers(0, len(PROFILES) - 1))
    others = draw(st.lists(
        st.sampled_from([p for p in range(len(PROFILES)) if p != top]), min_size=2, max_size=25
    ))
    most = max(map(others.count, others))
    copies = draw(st.integers(most, min(40, 4 * len(others))))
    return draw(st.permutations([top] * copies + others))


@settings(max_examples=60, deadline=None)
@given(picks=kmeans_picks(), theta=st.sampled_from([0.6, 0.85, 0.95, 0.9999]))
def test_kmeans_k_over_distinct_rows_is_k_over_every_request(picks, theta):
    urls = [f"/api/v1/things/{i}{PROFILES[p][0]}" for i, p in enumerate(picks)]
    group = group_from_urls(urls, method="POST", bodies=[PROFILES[p][1] for p in picks])
    n = len(picks)
    assert max(map(picks.count, picks)) <= n - min_cluster_size(n)
    ks = kmeans_ks(group, theta)
    X = scale_features(feature_matrix(group.members))
    zero = np.linalg.norm(X, axis=1) == 0
    # the components of the graph over every request, where each copy of the
    # zero row is one, with those copies counted once, as one distinct row
    components = len(set(bfs_components(reference_graph(X[~zero], theta)))) + zero.any()
    assert ks == [min(components, MAX_K)]


class TestDiscover:
    def test_two_endpoint_fixture(self):
        records = []
        for i in range(5):
            records.append(HttpRecord(id=i, method="POST", url="/api/v1/users/login",
                                      content_type="application/json", body_size=40,
                                      body_field_count=2, body_nesting_depth=1))
        for i in range(5, 10):
            records.append(HttpRecord(id=i, method="GET", url="/api/v1/user/me",
                                      content_type="application/json"))
        clusters = discover(prepare_traffic(Dataset(records=records)))
        assert len(clusters) == 2
        assert {(c.template.method, c.template.render()) for c in clusters} == {
            ("POST", "/api/v1/users/login"),
            ("GET", "/api/v1/user/me"),
        }

    def test_empty_dataset(self):
        assert discover(prepare_traffic(Dataset())) == []

    def test_count_no_float_holds_is_rejected(self):
        # each count becomes a float feature, and no float holds 10**400
        with pytest.raises(IngestError, match="record 0: body_field_count must be a 64-bit integer"):
            discover(prepare_traffic(Dataset(records=[
                HttpRecord(id=i, method="GET", url=f"/api/v1/items/{i}",
                           content_type="application/json", body_size=10,
                           body_field_count=10**400, body_nesting_depth=1)
                for i in range(4)
            ])))

    def test_disable_template_mining_single_degenerate_group(self):
        records = [
            HttpRecord(id=0, method="GET", url="/api/v1/a", content_type="application/json"),
            HttpRecord(id=1, method="POST", url="/api/v1/b/c", content_type="application/json"),
        ]
        clusters = discover(prepare_traffic(Dataset(records=records)), disable_template_mining=True)
        all_ids = sorted(i for c in clusters for i in c.member_ids)
        assert all_ids == [0, 1]

    def test_disable_noise_filter_keeps_everything(self):
        records = [
            HttpRecord(id=0, method="GET", url="/api/v1/a", content_type="application/json"),
            HttpRecord(id=1, method="GET", url="/static/app.js", content_type="application/javascript"),
        ]
        with_filter = discover(prepare_traffic(Dataset(records=records)))
        without = discover(prepare_traffic(Dataset(records=records), disable_noise_filter=True))
        assert sorted(i for c in with_filter for i in c.member_ids) == [0]
        assert sorted(i for c in without for i in c.member_ids) == [0, 1]

    def test_sorted_output(self):
        records = [
            HttpRecord(id=0, method="POST", url="/api/b", content_type="application/json"),
            HttpRecord(id=1, method="GET", url="/api/a", content_type="application/json"),
            HttpRecord(id=2, method="GET", url="/api/c", content_type="application/json"),
        ]
        clusters = discover(prepare_traffic(Dataset(records=records)))
        keys = [(c.template.method, c.template.render()) for c in clusters]
        assert keys == sorted(keys)


class TestNeutralQueryKeys:
    """A key with one value across the capture, at three or more (method,
    depth, first two segments) sites, is dropped from the query keys."""

    @staticmethod
    def keys(urls, disable_noise_filter=False):
        records = [
            HttpRecord(id=i, method="GET", url=url, content_type="application/json")
            for i, url in enumerate(urls)
        ]
        traffic = prepare_traffic(Dataset(records), disable_noise_filter=disable_noise_filter)
        return [nr.raw_query_keys for nr in traffic.normalized]

    # three sites: two first-two-segment prefixes at depth 4, and depth 5
    SITES = ("/api/v1/users/1", "/api/v2/orders/2", "/api/v1/users/3/cart")

    @pytest.mark.parametrize("disable_noise_filter", [False, True])
    def test_constant_key_at_three_sites_is_dropped(self, disable_noise_filter):
        urls = [f"{path}?tmp=0&page={i}" for i, path in enumerate(self.SITES)]
        assert self.keys(urls, disable_noise_filter) == [("page",)] * 3
        # a request whose only key is neutral ends with no query keys at all
        assert self.keys([f"{path}?tmp=0" for path in self.SITES]) == [()] * 3

    def test_constant_key_at_one_site_stays(self):
        # format=json on one endpoint, however many requests carry it
        urls = [f"/api/v1/reports/{i}?format=json" for i in range(10)]
        assert self.keys(urls) == [("format",)] * 10

    def test_constant_key_at_two_sites_stays(self):
        urls = [f"{path}?tmp=0" for path in self.SITES[:2]] * 3
        assert self.keys(urls) == [("tmp",)] * 6

    def test_key_with_two_values_stays(self):
        urls = [f"{path}?tmp=0" for path in self.SITES] + ["/api/v1/users/4?tmp=1"]
        assert self.keys(urls) == [("tmp",)] * 4
        # a bare key and the key with an empty value are two values
        urls = [f"{path}?tmp" for path in self.SITES] + ["/api/v1/users/4?tmp="]
        assert self.keys(urls) == [("tmp",)] * 4

    def test_keys_of_dropped_records_are_not_counted(self):
        # the third site is a static file the filter drops
        urls = [f"{path}?tmp=0" for path in self.SITES[:2]] + ["/assets/app.js?tmp=0"]
        assert self.keys(urls) == [("tmp",)] * 2
