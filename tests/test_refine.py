"""Second-stage refinement: losses, gradients, training, fallbacks."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from apiminer.features import SimilarityGraph, build_graph, extract_features, scale_features, select_k
from apiminer.normalize import normalize
from apiminer.records import HttpRecord
from apiminer.refine import (
    GRAPH_REFINED,
    KMEANS_FALLBACK,
    PASSTHROUGH,
    RefinerConfig,
    clustering_regularizer,
    consistency_loss,
    discover,
    farthest_point_indices,
    kmeans_assign,
    refine_group,
    sharpen_target,
    spectral_init,
    train_embeddings,
    _distinct_rows,
    _soft_assign,
)
from apiminer.records import Dataset
from apiminer.templates import TemplateGroup, PathTemplate, mine


def finite_diff(f, X, eps=1e-5):
    grad = np.zeros_like(X)
    for idx in np.ndindex(*X.shape):
        Xp = X.copy(); Xp[idx] += eps
        Xm = X.copy(); Xm[idx] -= eps
        grad[idx] = (f(Xp) - f(Xm)) / (2 * eps)
    return grad


class TestConsistencyLoss:
    def test_zero_embedding_closed_form(self):
        n = 4
        A = np.full((n, n), 0.5)
        np.fill_diagonal(A, 0.0)
        Z = np.zeros((n, 2))
        loss, _ = consistency_loss(A, Z)
        # every off-diagonal residual is 0; diagonal residual sigma(0)=0.5 each
        assert loss == pytest.approx(n * 0.25)

    def test_perfect_fit(self):
        Z = np.array([[3.0, 0.0], [3.0, 0.0]])
        A = 1 / (1 + np.exp(-(Z @ Z.T)))
        loss, grad = consistency_loss(A, Z)
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(grad, 0.0, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n, d = int(rng.integers(3, 9)), int(rng.integers(1, 4))
            A = rng.random((n, n)); A = (A + A.T) / 2; np.fill_diagonal(A, 0)
            Z = rng.standard_normal((n, d))
            _, grad = consistency_loss(A, Z)
            num = finite_diff(lambda Zc: consistency_loss(A, Zc)[0], Z)
            assert np.max(np.abs(grad - num)) <= 1e-4 * max(1.0, np.max(np.abs(num)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            consistency_loss(np.zeros((3, 3)), np.zeros((4, 2)))


def kl_oracle(Z, C, P):
    """Independent recomputation of the regularizer value."""
    n, k = Z.shape[0], C.shape[0]
    Q = np.zeros((n, k))
    for i in range(n):
        for c in range(k):
            Q[i, c] = 1.0 / (1.0 + np.sum((Z[i] - C[c]) ** 2))
        Q[i] /= Q[i].sum()
    total = 0.0
    for i in range(n):
        for c in range(k):
            total += P[i, c] * (np.log(P[i, c] + 1e-12) - np.log(Q[i, c] + 1e-12))
    return total


class TestClusteringRegularizer:
    def test_single_centroid_is_zero(self):
        Z = np.random.default_rng(0).standard_normal((5, 2))
        C = Z.mean(axis=0, keepdims=True)
        Q, _ = _soft_assign(Z, C)
        P = sharpen_target(Q)
        loss, _, _ = clustering_regularizer(Z, C, P)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_value_matches_oracle(self):
        rng = np.random.default_rng(7)
        Z = rng.standard_normal((6, 2))
        C = rng.standard_normal((2, 2))
        Q, _ = _soft_assign(Z, C)
        P = sharpen_target(Q)
        loss, _, _ = clustering_regularizer(Z, C, P)
        assert loss == pytest.approx(kl_oracle(Z, C, P), rel=1e-9)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n, d, k = int(rng.integers(3, 11)), int(rng.integers(1, 4)), 2
            Z = rng.standard_normal((n, d))
            C = rng.standard_normal((k, d))
            Q, _ = _soft_assign(Z, C)
            P = sharpen_target(Q)
            _, gz, gm = clustering_regularizer(Z, C, P)
            num_z = finite_diff(lambda Zc: clustering_regularizer(Zc, C, P)[0], Z)
            num_m = finite_diff(lambda Cc: clustering_regularizer(Z, Cc, P)[0], C)
            scale = max(1.0, np.max(np.abs(num_z)), np.max(np.abs(num_m)))
            assert np.max(np.abs(gz - num_z)) <= 1e-4 * scale
            assert np.max(np.abs(gm - num_m)) <= 1e-4 * scale

    def test_soft_assign_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        Q, _ = _soft_assign(rng.standard_normal((8, 3)), rng.standard_normal((3, 3)))
        assert np.allclose(Q.sum(axis=1), 1.0, atol=1e-9)

    def test_no_centroids_rejected(self):
        with pytest.raises(ValueError):
            clustering_regularizer(np.zeros((2, 2)), np.zeros((0, 2)), np.zeros((2, 0)))


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
        return build_graph(X, 0.85), n_per

    def test_loss_non_increasing(self):
        graph, _ = self.two_clique_graph()
        res = train_embeddings(graph, 2, RefinerConfig(), np.random.default_rng(0))
        diffs = np.diff(res.losses)
        assert np.all(diffs <= 1e-6)

    def test_rows_stochastic(self):
        graph, _ = self.two_clique_graph()
        res = train_embeddings(graph, 2, RefinerConfig(), np.random.default_rng(0))
        assert np.allclose(res.soft_assign.sum(axis=1), 1.0, atol=1e-9)

    def test_hard_assignment_recovers_cliques(self):
        graph, n_per = self.two_clique_graph()
        res = train_embeddings(graph, 2, RefinerConfig(), np.random.default_rng(0))
        hard = np.argmax(res.soft_assign, axis=1)
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
        graph = SimilarityGraph(n=5, A=np.zeros((5, 5)), edge_threshold=0.85)
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


def dense_consistency(A, Z):
    """Reference n-row loss and gradient, on every request."""
    S = 1 / (1 + np.exp(-(Z @ Z.T)))
    diff = S - A
    return np.sum(diff * diff), 4.0 * (diff * S * (1 - S)) @ Z


def dense_regularizer(Z, C, P):
    """Reference n-row KL value and gradients, on every request."""
    Q, T = _soft_assign(Z, C)
    coeff = (T * (P - Q))[:, :, None]
    delta = Z[:, None, :] - C[None, :, :]
    return kl_oracle(Z, C, P), 2.0 * np.sum(coeff * delta, axis=1), -2.0 * np.sum(coeff * delta, axis=0)


def dense_target(Q):
    weight = Q**2 / Q.sum(axis=0, keepdims=True)
    return weight / weight.sum(axis=1, keepdims=True)


def dense_spectral(A, dim):
    """Reference n-row spectral init (every degree positive)."""
    d = 1 / np.sqrt(A.sum(axis=1))
    eigvals, eigvecs = np.linalg.eigh(d[:, None] * A * d[None, :])
    order = np.argsort(eigvals)[::-1][:dim]
    return eigvecs[:, order] * np.sqrt(np.clip(eigvals[order], 0, None)) * np.sqrt(len(A))


def assert_rel(a, b, rel=1e-9):
    assert np.max(np.abs(np.asarray(a) - np.asarray(b))) <= rel * max(1.0, np.max(np.abs(b)))


class TestWeightedRows:
    """Distinct rows with multiplicities give the expanded n-row computation."""

    def test_consistency_loss_matches_expanded(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            A, s, m, node_of = random_weighted(rng)
            Z = rng.standard_normal((len(m), int(rng.integers(1, 4))))
            loss, grad = consistency_loss(A, Z, m, s)
            full_loss, full_grad = dense_consistency(expand(A, s, node_of), Z[node_of])
            assert loss == pytest.approx(full_loss, rel=1e-9)
            assert_rel(grad[node_of], full_grad)

    def test_regularizer_and_target_match_expanded(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            _, _, m, node_of = random_weighted(rng)
            d, k = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            Z = rng.standard_normal((len(m), d))
            C = rng.standard_normal((k, d))
            Q, _ = _soft_assign(Z, C)
            P = sharpen_target(Q, m)
            assert_rel(P[node_of], dense_target(Q[node_of]))
            loss, gz, gm = clustering_regularizer(Z, C, P, m)
            full_loss, full_gz, full_gm = dense_regularizer(Z[node_of], C, P[node_of])
            assert loss == pytest.approx(full_loss, rel=1e-9)
            assert_rel(gz[node_of], full_gz)
            assert_rel(gm, full_gm)

    def test_consistency_gradient_finite_differences(self):
        # the gradient is one request's; the shared row moves all m_a of them
        rng = np.random.default_rng(23)
        for _ in range(10):
            A, s, m, _ = random_weighted(rng)
            Z = rng.standard_normal((len(m), int(rng.integers(1, 4))))
            _, grad = consistency_loss(A, Z, m, s)
            num = finite_diff(lambda Zc: consistency_loss(A, Zc, m, s)[0], Z)
            assert np.max(np.abs(m[:, None] * grad - num)) <= 1e-4 * max(1.0, np.max(np.abs(num)))

    def test_regularizer_gradients_finite_differences(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            _, _, m, _ = random_weighted(rng)
            d = int(rng.integers(1, 4))
            Z = rng.standard_normal((len(m), d))
            C = rng.standard_normal((2, d))
            P = sharpen_target(_soft_assign(Z, C)[0], m)
            _, gz, gm = clustering_regularizer(Z, C, P, m)
            num_z = finite_diff(lambda Zc: clustering_regularizer(Zc, C, P, m)[0], Z)
            num_m = finite_diff(lambda Cc: clustering_regularizer(Z, Cc, P, m)[0], C)
            scale = max(1.0, np.max(np.abs(num_z)), np.max(np.abs(num_m)))
            assert np.max(np.abs(m[:, None] * gz - num_z)) <= 1e-4 * scale
            assert np.max(np.abs(gm - num_m)) <= 1e-4 * scale

    def test_spectral_init_matches_expanded(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            u = int(rng.integers(2, 7))
            A, _, m, node_of = random_weighted(rng, u)
            np.fill_diagonal(A, 0.0)
            s = (rng.random(u) < 0.8).astype(float)
            graph = SimilarityGraph(n=len(node_of), A=A, edge_threshold=0.85,
                                    node_of=node_of, self_sim=s)
            Z = spectral_init(graph, 8, np.random.default_rng(0))[node_of]
            Z_full = dense_spectral(expand(A, s, node_of), 8)
            assert Z.shape == Z_full.shape
            for j in range(Z.shape[1]):
                # columns agree up to sign; the expanded init's zero-weight
                # columns are zero here too
                a, b = Z[:, j], Z_full[:, j]
                sign = 1.0 if a @ b >= 0 else -1.0
                assert np.allclose(a, sign * b, atol=1e-6)

    def test_training_matches_expanded_rows(self):
        rng = np.random.default_rng(26)
        for trial in range(5):
            u = int(rng.integers(2, 6))
            base = rng.random((u, 4)) + 0.1 * (rng.random((u, 4)) < 0.5)
            X = base[rng.permutation(np.repeat(np.arange(u), rng.integers(2, 20, u)))]
            distinct, node_of = _distinct_rows(X)
            graph = build_graph(distinct, 0.85, node_of)
            full = build_graph(X, 0.85)
            assert select_k(graph) == select_k(full)
            assert graph.mean_degree() == pytest.approx((full.A > 0).sum(axis=1).mean())
            k = select_k(graph)
            res = train_embeddings(graph, k, RefinerConfig(), np.random.default_rng(trial))
            ref = train_embeddings(full, k, RefinerConfig(), np.random.default_rng(trial))
            assert len(res.losses) == len(ref.losses)
            assert res.losses[-1] == pytest.approx(ref.losses[-1], rel=1e-9)
            # embeddings agree up to an orthogonal map, so compare Gram matrices
            Z = res.Z[node_of]
            assert np.allclose(Z @ Z.T, ref.Z @ ref.Z.T, atol=1e-8)
            hard = np.argmax(res.soft_assign, axis=1)[node_of]
            assert np.array_equal(hard, np.argmax(ref.soft_assign, axis=1))

    def test_distinct_rows_in_first_occurrence_order(self):
        X = np.array([[2.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        distinct, node_of = _distinct_rows(X)
        assert distinct.tolist() == [[2.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
        assert node_of.tolist() == [0, 1, 0, 2, 1]

    def test_first_pick_drawn_over_requests(self):
        X = np.array([[0.0], [1.0], [5.0]])
        node_of = np.array([0, 0, 0, 1, 2, 2])
        for seed in range(10):
            draw = int(np.random.default_rng(seed).integers(len(node_of)))
            chosen = farthest_point_indices(X, 2, np.random.default_rng(seed), node_of)
            assert chosen[0] == node_of[draw]


def group_from_urls(urls, method="GET", bodies=None):
    records = {}
    for i, u in enumerate(urls):
        body = bodies[i] if bodies else (0, None, None)
        records[i] = HttpRecord(
            id=i, method=method, url=u, content_type="application/json",
            body_size=body[0], body_field_count=body[1], body_nesting_depth=body[2],
        )
    requests = {i: normalize(r) for i, r in records.items()}
    groups = mine(list(requests.values()))
    assert len(groups) == 1
    return groups[0], requests, records


class TestRefineGroup:
    def test_small_group_passthrough(self):
        group, requests, records = group_from_urls(["/api/a", "/api/a"])
        clusters = refine_group(group, requests, records)
        assert len(clusters) == 1
        assert clusters[0].provenance == PASSTHROUGH
        assert clusters[0].member_ids == [0, 1]

    def test_two_blob_group_splits_exactly(self):
        n = 15
        urls = [f"/api/v1/things/{i}?page=1&limit=5" for i in range(n)]
        urls += [f"/api/v1/things/{i + n}" for i in range(n)]
        bodies = [(0, None, None)] * n + [(400, 6, 3)] * n
        group, requests, records = group_from_urls(urls, method="POST", bodies=bodies)
        clusters = refine_group(group, requests, records)
        assert len(clusters) == 2
        assert sorted(clusters[0].member_ids) == list(range(n))
        assert sorted(clusters[1].member_ids) == list(range(n, 2 * n))
        assert all(c.provenance == GRAPH_REFINED for c in clusters)

    def test_sparse_graph_uses_kmeans_fallback(self):
        # five requests, no two alike enough for edges at high theta
        urls = [
            "/api/v1/things/1?page=1&limit=2&sort=x",
            "/api/v1/things/2",
            "/api/v1/things/3?q=a",
            "/api/v1/things/4?id=9&filter=b",
            "/api/v1/things/5?offset=2",
        ]
        bodies = [(0, None, None), (900, 12, 4), (0, None, None), (30, 1, 1), (0, None, None)]
        group, requests, records = group_from_urls(urls, method="POST", bodies=bodies)
        clusters = refine_group(group, requests, records, RefinerConfig(min_group_size=10))
        assert all(c.provenance == KMEANS_FALLBACK for c in clusters)

    def test_force_kmeans_bypasses_graph_training(self):
        n = 15
        urls = [f"/api/v1/things/{i}?page=1" for i in range(n)]
        urls += [f"/api/v1/things/{i + n}" for i in range(n)]
        bodies = [(0, None, None)] * n + [(400, 6, 3)] * n
        group, requests, records = group_from_urls(urls, method="POST", bodies=bodies)
        clusters = refine_group(
            group, requests, records, RefinerConfig(force_kmeans=True)
        )
        assert all(c.provenance == KMEANS_FALLBACK for c in clusters)

    def test_clusters_partition_group(self):
        n = 15
        urls = [f"/api/v1/things/{i}?page=1" for i in range(n)]
        urls += [f"/api/v1/things/{i + n}" for i in range(n)]
        bodies = [(0, None, None)] * n + [(400, 6, 3)] * n
        group, requests, records = group_from_urls(urls, method="POST", bodies=bodies)
        clusters = refine_group(group, requests, records)
        all_ids = sorted(i for c in clusters for i in c.member_ids)
        assert all_ids == sorted(group.member_ids)

    def test_determinism(self):
        n = 15
        urls = [f"/api/v1/things/{i}?page=1" for i in range(n)]
        urls += [f"/api/v1/things/{i + n}" for i in range(n)]
        bodies = [(0, None, None)] * n + [(400, 6, 3)] * n
        group, requests, records = group_from_urls(urls, method="POST", bodies=bodies)
        a = refine_group(group, requests, records)
        b = refine_group(group, requests, records)
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
    group, requests, records = group_from_urls(urls, method="POST", bodies=bodies)
    clusters = refine_group(group, requests, records, RefinerConfig(theta=theta))
    cluster_of = {i: c for c, cl in enumerate(clusters) for i in cl.member_ids}
    X = scale_features(np.vstack([extract_features(requests[i], records[i]) for i in group.member_ids]))
    for a, i in enumerate(group.member_ids):
        for b, j in enumerate(group.member_ids):
            if np.array_equal(X[a], X[b]):
                assert cluster_of[i] == cluster_of[j]


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
        clusters = discover(Dataset(records=records))
        assert len(clusters) == 2
        assert {(c.method, c.template.render()) for c in clusters} == {
            ("POST", "/api/v1/users/login"),
            ("GET", "/api/v1/user/me"),
        }

    def test_empty_dataset(self):
        assert discover(Dataset()) == []

    def test_disable_template_mining_single_degenerate_group(self):
        records = [
            HttpRecord(id=0, method="GET", url="/api/v1/a", content_type="application/json"),
            HttpRecord(id=1, method="POST", url="/api/v1/b/c", content_type="application/json"),
        ]
        clusters = discover(Dataset(records=records), disable_template_mining=True)
        all_ids = sorted(i for c in clusters for i in c.member_ids)
        assert all_ids == [0, 1]

    def test_disable_noise_filter_keeps_everything(self):
        records = [
            HttpRecord(id=0, method="GET", url="/api/v1/a", content_type="application/json"),
            HttpRecord(id=1, method="GET", url="/static/app.js", content_type="application/javascript"),
        ]
        with_filter = discover(Dataset(records=records))
        without = discover(Dataset(records=records), disable_noise_filter=True)
        assert sorted(i for c in with_filter for i in c.member_ids) == [0]
        assert sorted(i for c in without for i in c.member_ids) == [0, 1]

    def test_sorted_output(self):
        records = [
            HttpRecord(id=0, method="POST", url="/api/b", content_type="application/json"),
            HttpRecord(id=1, method="GET", url="/api/a", content_type="application/json"),
            HttpRecord(id=2, method="GET", url="/api/c", content_type="application/json"),
        ]
        clusters = discover(Dataset(records=records))
        keys = [(c.method, c.template.render()) for c in clusters]
        assert keys == sorted(keys)
