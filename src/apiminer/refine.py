"""Stage-2 refinement: split template groups into behavioral endpoint clusters.

Large groups with a dense similarity graph are refined by training request
embeddings against the graph (adjacency-reconstruction loss plus a KL
self-training regularizer); sparse or small groups fall back to K-means.
Graph training runs on a group's distinct feature rows, each weighted by the
number of requests that share it, so identical requests are never split.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .records import Dataset, HttpRecord
from .normalize import NormalizedRequest, normalize, canonical_path
from .denoise import FilterConfig, filter_traffic
from .templates import MinerConfig, PathTemplate, TemplateGroup, mine
from .features import (
    SimilarityGraph,
    build_graph,
    connected_components,
    extract_features,
    scale_features,
    select_k,
)

PASSTHROUGH = "Passthrough"
GRAPH_REFINED = "GraphRefined"
KMEANS_FALLBACK = "KMeansFallback"


@dataclass
class RefinerConfig:
    embedding_dim: int = 8
    lam: float = 0.1
    theta: float = 0.85
    learning_rate: float = 0.05
    max_iters: int = 300
    convergence_tol: float = 1e-5
    target_update_interval: int = 20
    min_group_size: int = 10
    min_mean_degree: float = 2.0
    # clusters smaller than this fraction of a refined group are reabsorbed
    # into the nearest surviving cluster (guards against splinter clusters
    # created by a handful of lexically perturbed requests)
    min_cluster_fraction: float = 0.2
    kmeans_iters: int = 50
    force_kmeans: bool = False
    global_seed: int = 0


@dataclass
class EndpointCluster:
    template: PathTemplate
    method: str
    member_ids: list[int] = field(default_factory=list)
    representative_paths: list[str] = field(default_factory=list)
    provenance: str = PASSTHROUGH


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60, 60)))


def _unit_counts(counts: np.ndarray | None, rows: int) -> np.ndarray:
    return np.ones(rows) if counts is None else counts


def consistency_loss(
    A: np.ndarray,
    Z: np.ndarray,
    counts: np.ndarray | None = None,
    self_sim: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Squared Frobenius distance between A and sigma(Z Z^T), with gradient.

    Row ``a`` of Z stands for ``counts[a]`` requests (default 1), any two of
    which are linked by ``self_sim[a]`` (default 0); A's diagonal is each
    request's pair with itself.  The loss is that of the expanded n-request
    problem: with T = A whose diagonal is replaced by self_sim,
    sum_ab m_a m_b (S-T)_ab^2 - sum_a m_a (S-T)_aa^2 + sum_a m_a (S-A)_aa^2.

    The gradient is that of one request of each row (the gradient with
    respect to the shared row is ``counts[a]`` times it).  In the expanded
    problem the residual matrix R = (sigma(ZZ^T) - A) * sigma'(ZZ^T) is
    symmetric, so a request's gradient is 4 R Z (the factor 2 from the square
    times 2 from the symmetric pairing of Z in the Gram matrix).
    """
    if A.shape[0] != A.shape[1] or A.shape[0] != Z.shape[0]:
        raise ValueError("A must be n x n and Z must be n x d")
    m = _unit_counts(counts, A.shape[0])
    S = _sigmoid(Z @ Z.T)
    diff = S - A
    own = np.diagonal(diff).copy()
    s_diag = np.diagonal(S)
    copies = s_diag - (0.0 if self_sim is None else self_sim)
    np.fill_diagonal(diff, copies)
    loss = float(m @ (diff * diff) @ m - m @ (copies * copies) + m @ (own * own))
    R = diff * S * (1.0 - S)
    slope = s_diag * (1.0 - s_diag)
    grad = 4.0 * (R @ (m[:, None] * Z) + ((own - copies) * slope)[:, None] * Z)
    return loss, grad


def _soft_assign(Z: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Student-t (one dof) soft assignment Q and the raw kernel T."""
    d2 = np.sum((Z[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
    T = 1.0 / (1.0 + d2)
    Q = T / T.sum(axis=1, keepdims=True)
    return Q, T


def sharpen_target(Q: np.ndarray, counts: np.ndarray | None = None) -> np.ndarray:
    """Self-training target P = Q^2 / f, row-normalized.

    f is the cluster frequency over the requests: row ``a`` of Q stands for
    ``counts[a]`` of them (default 1).
    """
    weight = Q**2 / (_unit_counts(counts, Q.shape[0]) @ Q)
    return weight / weight.sum(axis=1, keepdims=True)


def clustering_regularizer(
    Z: np.ndarray,
    centroids: np.ndarray,
    P: np.ndarray,
    counts: np.ndarray | None = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """KL(P || Q) of the Student-t soft assignment, with gradients.

    P is held constant; gradients are with respect to Z and the centroids.
    Row ``a`` stands for ``counts[a]`` requests (default 1): the loss and the
    centroid gradient sum over requests, and the Z gradient is that of one
    request of each row.
    """
    if centroids.shape[0] < 1:
        raise ValueError("need at least one centroid")
    m = _unit_counts(counts, Z.shape[0])
    Q, T = _soft_assign(Z, centroids)
    eps = 1e-12
    loss = float(m @ np.sum(P * (np.log(P + eps) - np.log(Q + eps)), axis=1))
    coeff = T * (P - Q)  # n x k
    delta = Z[:, None, :] - centroids[None, :, :]  # n x k x d
    grad_z = 2.0 * np.sum(coeff[:, :, None] * delta, axis=1)
    grad_mu = -2.0 * np.sum((m[:, None] * coeff)[:, :, None] * delta, axis=0)
    return loss, grad_z, grad_mu


def farthest_point_indices(
    X: np.ndarray, k: int, rng: np.random.Generator, node_of: np.ndarray | None = None
) -> list[int]:
    """Deterministic farthest-point seeding; first pick comes from the rng.

    With ``node_of`` the rows of X are distinct rows ordered by first
    occurrence, and the first pick is drawn over the requests they stand for.
    """
    first = int(rng.integers(X.shape[0] if node_of is None else len(node_of)))
    if node_of is not None:
        first = int(node_of[first])
    chosen = [first]
    dist = np.linalg.norm(X - X[first], axis=1)
    while len(chosen) < k:
        nxt = int(np.argmax(dist))
        chosen.append(nxt)
        dist = np.minimum(dist, np.linalg.norm(X - X[nxt], axis=1))
    return chosen


def kmeans_assign(
    X: np.ndarray, k: int, rng: np.random.Generator, max_iters: int = 50
) -> np.ndarray:
    """Plain Lloyd iterations with farthest-point seeding."""
    centroids = X[farthest_point_indices(X, k, rng)].copy()
    labels = np.zeros(X.shape[0], dtype=int)
    for it in range(max_iters):
        d2 = np.sum((X[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(d2, axis=1)
        if it > 0 and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            mask = labels == c
            if mask.any():
                centroids[c] = X[mask].mean(axis=0)
    return labels


def spectral_init(graph: SimilarityGraph, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Top-d eigenvectors of the symmetrically normalized adjacency.

    The eigenvectors are those of the expanded n-request graph that take one
    value on all copies of a row, computed from a matrix over the distinct
    rows: D^-1/2 (sqrt(m) A sqrt(m) + diag((m-1) s)) D^-1/2, with degree
    D = A m + (m-1) s.  Scaling each row by 1/sqrt(m) gives the value on one
    copy.  The expanded graph's other eigenvectors differ between copies of
    a row and have eigenvalues <= 0, which get weight 0 below, so they are
    the zero columns that pad Z to d columns.

    Degenerate eigensolves (isolated graph, numerical failure) fall back to
    unit-variance random coordinates from the supplied rng.
    """
    n = graph.n
    rows = graph.A.shape[0]
    dim = min(dim, n)
    m = graph.counts
    root = np.sqrt(m)
    copies = (m - 1) * graph.self_sim
    degree = graph.A @ m + copies
    if not np.any(degree > 0):
        return rng.standard_normal((rows, dim))
    d_inv_sqrt = np.zeros(rows)
    d_inv_sqrt[degree > 0] = 1.0 / np.sqrt(degree[degree > 0])
    weighted = root[:, None] * graph.A * root[None, :] + np.diag(copies)
    norm_adj = d_inv_sqrt[:, None] * weighted * d_inv_sqrt[None, :]
    try:
        eigvals, eigvecs = np.linalg.eigh(norm_adj)
    except np.linalg.LinAlgError:
        return rng.standard_normal((rows, dim))
    # eigenvectors are unit-norm over n entries; weight each coordinate by the
    # (non-negative part of the) eigenvalue it belongs to, then rescale so rows
    # sit at O(1) magnitude — the scale the losses and centroid seeding expect.
    # Negative-eigenvalue directions carry no cluster structure and would
    # otherwise contribute spiky coordinates that hijack farthest-point seeding.
    order = np.argsort(eigvals)[::-1][:dim]
    weights = np.sqrt(np.clip(eigvals[order], 0.0, None))
    Z = eigvecs[:, order] / root[:, None] * weights[None, :] * np.sqrt(n)
    if not np.all(np.isfinite(Z)):
        return rng.standard_normal((rows, dim))
    if Z.shape[1] < dim:
        Z = np.hstack([Z, np.zeros((rows, dim - Z.shape[1]))])
    return Z


@dataclass
class TrainResult:
    Z: np.ndarray
    centroids: np.ndarray
    soft_assign: np.ndarray
    losses: list[float]


def train_embeddings(
    graph: SimilarityGraph, k: int, config: RefinerConfig, rng: np.random.Generator
) -> TrainResult:
    """Minimize L_cons + lambda * KL(P || Q) by backtracking gradient descent.

    One embedding row per graph node stands for all the requests of that
    node: the losses count each request, and every request of a node takes
    the same step, so the result is that of training the n-request graph.
    The self-training target P is refreshed every ``target_update_interval``
    iterations; a refresh is kept only if it does not increase the recorded
    loss, which keeps the loss sequence non-increasing.
    """
    m = graph.counts
    Z = spectral_init(graph, config.embedding_dim, rng)
    centroids = Z[farthest_point_indices(Z, k, rng, graph.node_of)].copy()
    Q, _ = _soft_assign(Z, centroids)
    P = sharpen_target(Q, m)
    lr = config.learning_rate
    lam = config.lam

    def total(Zc, Cc, Pc):
        lc, gz = consistency_loss(graph.A, Zc, m, graph.self_sim)
        lk, gzk, gmk = clustering_regularizer(Zc, Cc, Pc, m)
        return lc + lam * lk, gz + lam * gzk, lam * gmk

    loss, grad_z, grad_mu = total(Z, centroids, P)
    losses = [loss]
    for iteration in range(config.max_iters):
        if iteration > 0 and iteration % config.target_update_interval == 0:
            # refresh step: re-center each centroid on its soft-assignment
            # weighted mean (keeps centroids inside the moving embedding
            # cloud), then re-sharpen the target; kept only when the total
            # loss does not increase so the recorded sequence stays monotone
            Q, _ = _soft_assign(Z, centroids)
            mass = m[:, None] * Q
            weights = mass / np.maximum(mass.sum(axis=0, keepdims=True), 1e-12)
            cand_C = weights.T @ Z
            cand_Q, _ = _soft_assign(Z, cand_C)
            candidate = sharpen_target(cand_Q, m)
            cand_loss, cand_gz, cand_gmu = total(Z, cand_C, candidate)
            if cand_loss <= loss + 1e-9:
                centroids = cand_C
                P, loss, grad_z, grad_mu = candidate, cand_loss, cand_gz, cand_gmu
            else:
                candidate = sharpen_target(Q, m)
                cand_loss, cand_gz, cand_gmu = total(Z, centroids, candidate)
                if cand_loss <= loss + 1e-9:
                    P, loss, grad_z, grad_mu = candidate, cand_loss, cand_gz, cand_gmu
        stepped = False
        for _ in range(30):
            Z_new = Z - lr * grad_z
            C_new = centroids - lr * grad_mu
            new_loss, new_gz, new_gmu = total(Z_new, C_new, P)
            if new_loss <= loss + 1e-9:
                Z, centroids = Z_new, C_new
                loss, grad_z, grad_mu = new_loss, new_gz, new_gmu
                stepped = True
                lr = min(lr * 1.1, config.learning_rate)
                break
            lr *= 0.5
        losses.append(loss)
        if not stepped:
            break
        if len(losses) > 10:
            prev = losses[-11]
            if prev > 0 and (prev - loss) / prev < config.convergence_tol:
                break
    Q, _ = _soft_assign(Z, centroids)
    return TrainResult(Z=Z, centroids=centroids, soft_assign=Q, losses=losses)


def _group_rng(global_seed: int, template: PathTemplate) -> np.random.Generator:
    key = f"{global_seed}:{template.method}:{template.render()}".encode()
    digest = hashlib.sha256(key).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def _reabsorb_small(labels: np.ndarray, X: np.ndarray, min_size: int) -> np.ndarray:
    """Merge clusters below min_size into the nearest surviving centroid."""
    labels = labels.copy()
    while True:
        ids, counts = np.unique(labels, return_counts=True)
        small = [c for c, cnt in zip(ids, counts) if cnt < min_size]
        big = [c for c, cnt in zip(ids, counts) if cnt >= min_size]
        if not small or not big:
            return labels
        centroids = {c: X[labels == c].mean(axis=0) for c in ids}
        target_c = small[0]
        d = {c: np.linalg.norm(centroids[target_c] - centroids[c]) for c in big}
        dest = min(sorted(d), key=lambda c: d[c])
        labels[labels == target_c] = dest


def _distinct_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of X in order of first occurrence, and the row of each request."""
    _, first, inverse = np.unique(X, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return X[first[order]], rank[inverse.reshape(-1)]


def refine_group(
    group: TemplateGroup,
    requests: dict[int, NormalizedRequest],
    records: dict[int, HttpRecord],
    config: RefinerConfig | None = None,
) -> list[EndpointCluster]:
    """Split one template group into endpoint clusters per the two-stage scheme."""
    config = config or RefinerConfig()
    members = [requests[i] for i in group.member_ids]
    n = len(members)
    if n == 0:
        return []
    if n < 3:
        return [_cluster(group, group.member_ids, members, PASSTHROUGH)]

    raw = np.vstack([extract_features(nr, records[nr.record_id]) for nr in members])
    X = scale_features(raw)
    distinct, node_of = _distinct_rows(X)
    graph = build_graph(distinct, config.theta, node_of)
    k = select_k(graph)

    applicable = (
        not config.force_kmeans
        and n >= config.min_group_size
        and graph.mean_degree() >= config.min_mean_degree
    )
    rng = _group_rng(config.global_seed, group.template)
    if applicable:
        result = train_embeddings(graph, k, config, rng)
        labels = np.argmax(result.soft_assign, axis=1)[node_of]
        provenance = GRAPH_REFINED
    else:
        labels = kmeans_assign(X, k, rng, config.kmeans_iters)
        provenance = KMEANS_FALLBACK

    min_size = max(2, int(np.ceil(config.min_cluster_fraction * n)))
    labels = _reabsorb_small(labels, X, min_size)

    clusters = []
    for c in np.unique(labels):
        ids = [members[i].record_id for i in np.nonzero(labels == c)[0]]
        sub = [requests[i] for i in ids]
        clusters.append(_cluster(group, ids, sub, provenance))
    clusters.sort(key=lambda cl: min(cl.member_ids))
    return clusters


def _cluster(
    group: TemplateGroup,
    ids: list[int],
    members: list[NormalizedRequest],
    provenance: str,
) -> EndpointCluster:
    seen: list[str] = []
    for nr in sorted(members, key=lambda m: m.record_id):
        path = canonical_path(nr)
        if path not in seen:
            seen.append(path)
        if len(seen) == 3:
            break
    return EndpointCluster(
        template=group.template,
        method=group.template.method,
        member_ids=sorted(ids),
        representative_paths=seen,
        provenance=provenance,
    )


@dataclass
class Traffic:
    """A dataset as discovery sees it once filtered and normalized."""

    records: dict[int, HttpRecord]
    # the kept records, in input order
    normalized: list[NormalizedRequest]
    # (record id, reason) for each record the filter dropped
    dropped: list[tuple[int, str]]


def prepare_traffic(
    dataset: Dataset,
    filter_config: FilterConfig | None = None,
    disable_noise_filter: bool = False,
) -> Traffic:
    """The first two stages of discover: filter the traffic, normalize what it keeps."""
    records = {r.id: r for r in dataset.records}
    if disable_noise_filter:
        kept_ids, dropped = list(records), []
    else:
        outcome = filter_traffic(dataset, filter_config)
        kept_ids, dropped = outcome.kept, outcome.dropped
    return Traffic(records, [normalize(records[i]) for i in kept_ids], dropped)


def discover(
    dataset: Dataset | Traffic,
    filter_config: FilterConfig | None = None,
    miner_config: MinerConfig | None = None,
    refiner_config: RefinerConfig | None = None,
    disable_noise_filter: bool = False,
    disable_template_mining: bool = False,
) -> list[EndpointCluster]:
    """Full pipeline: filter, normalize, mine templates, refine each group.

    Given the Traffic that ``prepare_traffic`` made of a dataset, discovery
    starts from it, and the filter settings are not used.
    """
    refiner_config = refiner_config or RefinerConfig()
    traffic = (
        dataset
        if isinstance(dataset, Traffic)
        else prepare_traffic(dataset, filter_config, disable_noise_filter)
    )
    normalized = traffic.normalized
    requests = {nr.record_id: nr for nr in normalized}
    if not normalized:
        return []

    if disable_template_mining:
        degenerate = TemplateGroup(
            template=PathTemplate(method="*", pattern=()),
            member_ids=[nr.record_id for nr in normalized],
            distinct_paths=len({canonical_path(nr) for nr in normalized}),
        )
        groups = [degenerate]
    else:
        groups = mine(normalized, miner_config)

    clusters: list[EndpointCluster] = []
    for group in groups:
        clusters.extend(refine_group(group, requests, traffic.records, refiner_config))
    clusters.sort(
        key=lambda cl: (cl.method, cl.template.render(), min(cl.member_ids))
    )
    return clusters
