"""Second-stage refinement: spectral embedding, k-means, the k-means ablation."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from apiminer.features import SimilarityGraph, build_graph, extract_features, scale_features, select_k
from apiminer.normalize import normalize
from apiminer.records import HttpRecord, IngestError
from apiminer.refine import (
    EMBEDDING_DIM,
    GRAPH_REFINED,
    KMEANS_ABLATION,
    MIN_CLUSTER_FRACTION,
    PASSTHROUGH,
    RefinerConfig,
    discover,
    farthest_point_indices,
    kmeans_assign,
    prepare_traffic,
    refine_group,
    spectral_init,
    _cluster,
    _distinct_rows,
    _group_rng,
    _reabsorb_small,
)
from apiminer.records import Dataset
from apiminer.templates import TemplateGroup, PathTemplate, mine


class TestSeedingAndKMeans:
    def test_farthest_point_deterministic(self):
        X = np.random.default_rng(2).standard_normal((10, 3))
        a = farthest_point_indices(X, 4, np.random.default_rng(5))
        b = farthest_point_indices(X, 4, np.random.default_rng(5))
        assert a == b

    def test_farthest_point_spreads(self):
        X = np.array([[0.0], [0.1], [10.0]])
        chosen = farthest_point_indices(X, 2, np.random.default_rng(0))
        assert 2 in chosen  # the far point is always picked second

    def test_kmeans_separates_blobs(self):
        rng = np.random.default_rng(4)
        X = np.vstack([rng.normal(0, 0.05, (10, 2)), rng.normal(5, 0.05, (10, 2))])
        labels = kmeans_assign(X, 2, np.random.default_rng(0))
        assert len(set(labels[:10].tolist())) == 1
        assert len(set(labels[10:].tolist())) == 1
        assert labels[0] != labels[10]


class TestTraining:
    def two_clique_graph(self, n_per=8):
        X = np.array([[1.0, 0.0]] * n_per + [[0.0, 1.0]] * n_per)
        return build_graph(X, 0.85, np.arange(len(X))), n_per

    def test_hard_assignment_recovers_cliques(self):
        graph, n_per = self.two_clique_graph()
        rng = np.random.default_rng(0)
        hard = kmeans_assign(spectral_init(graph, 8, rng), 2, rng)
        assert len(set(hard[:n_per].tolist())) == 1
        assert len(set(hard[n_per:].tolist())) == 1
        assert hard[0] != hard[-1]

    def test_spectral_init_shape_and_determinism(self):
        graph, _ = self.two_clique_graph()
        Z1 = spectral_init(graph, 4, np.random.default_rng(0))
        Z2 = spectral_init(graph, 4, np.random.default_rng(0))
        assert Z1.shape == (16, 4)
        assert np.array_equal(Z1, Z2)

    def test_spectral_init_isolated_graph_falls_back(self):
        graph = SimilarityGraph(A=np.zeros((5, 5)), node_of=np.arange(5), self_sim=np.zeros(5))
        Z = spectral_init(graph, 3, np.random.default_rng(0))
        assert Z.shape == (5, 3)
        assert np.all(np.isfinite(Z))


def random_weighted(rng, u=None):
    """Random distinct-row problem: A (general diagonal), self_sim, counts, node_of."""
    u = u or int(rng.integers(2, 7))
    A = rng.random((u, u))
    A = (A + A.T) / 2
    s = rng.random(u)
    counts = rng.integers(1, 5, u).astype(float)
    node_of = np.repeat(np.arange(u), counts.astype(int))
    return A, s, counts, node_of


def expand(A, s, node_of):
    """The n-request adjacency: copies of a row are linked by s, A's diagonal is the self-pair."""
    full = A[np.ix_(node_of, node_of)]
    same = node_of[:, None] == node_of[None, :]
    full[same] = np.broadcast_to(s[node_of][:, None], full.shape)[same]
    np.fill_diagonal(full, np.diagonal(A)[node_of])
    return full


def dense_spectral(A, dim):
    """Reference n-row spectral init (every degree positive)."""
    d = 1 / np.sqrt(A.sum(axis=1))
    eigvals, eigvecs = np.linalg.eigh(d[:, None] * A * d[None, :])
    order = np.argsort(eigvals)[::-1][:dim]
    return eigvecs[:, order] * np.sqrt(np.clip(eigvals[order], 0, None)) * np.sqrt(len(A))


def same_partition(a, b):
    """Equal label arrays up to a renaming of the labels."""
    pairs = set(zip(a.tolist(), b.tolist()))
    return len(pairs) == len(set(a.tolist())) == len(set(b.tolist()))


class TestWeightedRows:
    """Distinct rows with multiplicities give the expanded n-row computation."""

    def test_spectral_init_matches_expanded(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            u = int(rng.integers(2, 7))
            A, _, m, node_of = random_weighted(rng, u)
            np.fill_diagonal(A, 0.0)
            s = (rng.random(u) < 0.8).astype(float)
            graph = SimilarityGraph(A=A, node_of=node_of, self_sim=s)
            Z = spectral_init(graph, 8, np.random.default_rng(0))[node_of]
            Z_full = dense_spectral(expand(A, s, node_of), 8)
            assert Z.shape == Z_full.shape
            for j in range(Z.shape[1]):
                # columns agree up to sign; the expanded init's zero-weight
                # columns are zero here too
                a, b = Z[:, j], Z_full[:, j]
                sign = 1.0 if a @ b >= 0 else -1.0
                assert np.allclose(a, sign * b, atol=1e-6)

    def test_clustering_matches_expanded_rows(self):
        # the graph path of refine_group on distinct rows against k-means on
        # the spectral embedding of the expanded n-request graph
        rng = np.random.default_rng(26)
        for trial in range(20):
            u = int(rng.integers(2, 6))
            base = rng.random((u, 4)) + 0.1 * (rng.random((u, 4)) < 0.5)
            X = base[rng.permutation(np.repeat(np.arange(u), rng.integers(2, 20, u)))]
            distinct, node_of = _distinct_rows([tuple(row) for row in X])
            graph = build_graph(distinct, 0.85, node_of)
            full = build_graph(X, 0.85, np.arange(len(X)))
            assert select_k(graph) == select_k(full)
            k = select_k(graph)
            rows_rng, full_rng = np.random.default_rng(trial), np.random.default_rng(trial)
            Z = spectral_init(graph, 8, rows_rng)[node_of]
            Z_full = spectral_init(full, 8, full_rng)
            # embeddings agree up to an orthogonal map, so compare Gram matrices
            assert np.allclose(Z @ Z.T, Z_full @ Z_full.T, atol=1e-8)
            labels = kmeans_assign(Z, k, rows_rng)
            assert same_partition(labels, kmeans_assign(Z_full, k, full_rng))

    def test_distinct_rows_in_first_occurrence_order(self):
        rows = [(2.0, 0.0), (1.0, 0.0), (2.0, 0.0), (0.0, 0.0), (1.0, 0.0)]
        distinct, node_of = _distinct_rows(rows)
        assert distinct.tolist() == [[2.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
        assert node_of.tolist() == [0, 1, 0, 2, 1]


def unique_scaled_rows(X):
    """Reference: distinct rows of the scaled matrix X by np.unique, in order
    of first occurrence, and the row of each request."""
    _, first, inverse = np.unique(X, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return X[first[order]], rank[inverse.reshape(-1)]


@settings(max_examples=60, deadline=None)
@given(picks=st.lists(st.integers(0, 4), min_size=1, max_size=60), seed=st.integers(0, 2**16))
def test_distinct_rows_match_unique_on_scaled_rows(picks, seed):
    # feature rows of a mined group, deduplicated as tuples and scaled,
    # against np.unique over the scaled n-row matrix
    rng = np.random.default_rng(seed)
    bodies = [(int(b), int(f), int(d)) for b, f, d in rng.integers(0, 3, (5, 3))]
    urls = [f"/api/v1/things/{i}{PROFILES[p][0]}" for i, p in enumerate(picks)]
    group = group_from_urls(urls, bodies=[bodies[p] for p in picks])
    rows = [extract_features(nr) for nr in group.members]
    distinct_raw, node_of = _distinct_rows(rows)
    X = scale_features(np.array(rows))
    expected, expected_node_of = unique_scaled_rows(X)
    # scaling the distinct raw rows gives the distinct scaled rows
    assert np.array_equal(scale_features(distinct_raw), expected)
    assert np.array_equal(scale_features(distinct_raw)[node_of], X)
    assert node_of.tolist() == expected_node_of.tolist()


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

    def test_single_component_needs_no_eigensolve(self, monkeypatch):
        # body size up, field count down: five distinct rows linked in a chain
        urls = [f"/api/v1/things/{i}" for i in range(5)]
        bodies = [(100, 5, 2), (150, 4, 2), (200, 3, 2), (250, 2, 2), (300, 1, 2)]
        group = group_from_urls(urls, method="POST", bodies=bodies)
        X = scale_features(np.array([extract_features(nr) for nr in group.members]))
        assert len(np.unique(X, axis=0)) == 5
        assert select_k(build_graph(X, RefinerConfig().theta, np.arange(5))) == 1

        def unreachable(*args):
            raise AssertionError("a connected graph was embedded")

        monkeypatch.setattr("apiminer.refine.spectral_init", unreachable)
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
        assert len({extract_features(nr) for nr in group.members}) == 1

        def unreachable(*args):
            raise AssertionError("a one-row group was scaled or graphed")

        monkeypatch.setattr("apiminer.refine.scale_features", unreachable)
        monkeypatch.setattr("apiminer.refine.build_graph", unreachable)
        clusters = refine_group(group, RefinerConfig(force_kmeans=force_kmeans))
        assert [(c.member_ids, c.provenance) for c in clusters] == [(list(range(6)), provenance)]

    @pytest.mark.parametrize("force_kmeans", [False, True])
    def test_dominant_row_group_builds_no_graph(self, monkeypatch, force_kmeans):
        # twenty requests, three off the common row: fewer than min_size = 4,
        # so no cluster without the common row survives reabsorption
        urls = [f"/api/v1/things/{i}" for i in range(20)]
        bodies = [(80, 3, 1)] * 17 + [(900, 12, 4)] * 2 + [(0, None, None)]
        group = group_from_urls(urls, method="PUT", bodies=bodies)
        assert len({extract_features(nr) for nr in group.members}) == 3

        def unreachable(*args):
            raise AssertionError("a group with a dominant row was refined")

        for name in ("scale_features", "build_graph", "spectral_init", "kmeans_assign"):
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
    X = scale_features(np.vstack([extract_features(nr) for nr in group.members]))
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
    # the lemma refine_group answers such groups by: labels constant on the
    # copies of a row, any X, one label after reabsorption
    node_of = np.array(node_of)
    n = len(node_of)
    assert n - np.bincount(node_of).max() < min_cluster_size(n)
    row_label = data.draw(hnp.arrays(int, int(node_of.max()) + 1, elements=st.integers(0, 7)))
    X = data.draw(hnp.arrays(float, (n, 3), elements=st.floats(-1e6, 1e6)))
    labels = _reabsorb_small(row_label[node_of], X, min_cluster_size(n))
    assert len(set(labels.tolist())) == 1


def reference_reabsorb(labels, X, min_size):
    """Merge the first small cluster into the nearest big one until none is
    small or none is big, with every cluster's centroid computed."""
    labels = labels.copy()
    while True:
        ids, counts = np.unique(labels, return_counts=True)
        small = [c for c, cnt in zip(ids, counts) if cnt < min_size]
        big = [c for c, cnt in zip(ids, counts) if cnt >= min_size]
        if not small or not big:
            return labels
        centroids = {c: X[labels == c].mean(axis=0) for c in ids}
        d = {c: np.linalg.norm(centroids[small[0]] - centroids[c]) for c in big}
        labels[labels == small[0]] = min(sorted(d), key=lambda c: d[c])


def reference_refine(group, config):
    """refine_group with no shortcut: scaling over every request, the graph,
    k-means for any k and reabsorption on every group of three or more."""
    members = group.members
    n = len(members)
    if n < 3:
        return [_cluster(group, members, PASSTHROUGH)]
    X = scale_features(np.array([extract_features(nr) for nr in members]))
    distinct, node_of = unique_scaled_rows(X)
    graph = build_graph(distinct, config.theta, node_of)
    k = select_k(graph)
    rng = _group_rng(config.global_seed, group.template)
    if config.force_kmeans:
        labels, provenance = kmeans_assign(X, k, rng), KMEANS_ABLATION
    else:
        Z = spectral_init(graph, EMBEDDING_DIM, rng)[node_of]
        labels, provenance = kmeans_assign(Z, k, rng), GRAPH_REFINED
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
    seed=st.integers(0, 3),
)
def test_refine_group_matches_full_path(picks, theta, force_kmeans, seed):
    urls = [f"/api/v1/things/{i}{PROFILES[p][0]}" for i, p in enumerate(picks)]
    group = group_from_urls(urls, method="POST", bodies=[PROFILES[p][1] for p in picks])
    config = RefinerConfig(theta=theta, force_kmeans=force_kmeans, global_seed=seed)
    assert refine_group(group, config) == reference_refine(group, config)


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
