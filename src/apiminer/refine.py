"""Stage-2 refinement: split template groups into behavioral endpoint clusters.

Each group of three or more requests is refined by spectral clustering:
seeded k-means on the top eigenvectors of its similarity graph's normalized
adjacency (Ng, Jordan & Weiss, NIPS 2001), with the connected components
giving the cluster count, then clusters under ``MIN_CLUSTER_FRACTION`` of
the group are merged into the nearest big one.  The graph and its
eigenvectors are computed over a group's distinct feature rows, each
weighted by the number of requests that share it; the requests of one row
share one embedding, so identical requests are never split.
``RefinerConfig.force_kmeans`` runs k-means on the scaled features instead,
the paper's ablation of the graph.

Two answers are known before the work that would give them.  A group whose
requests off its most common feature row are too few to form a cluster of
their own is one cluster, with no scaling and no graph, under either path.
A group whose graph is one component is one cluster, with no eigensolve and
no k-means.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .records import Dataset
from .normalize import NormalizedRequest, normalize, canonical_path
from .denoise import DEFAULT_TAU, filter_traffic
from .templates import PathTemplate, TemplateGroup, mine
from .features import (
    SimilarityGraph,
    build_graph,
    extract_features,
    scale_features,
    select_k,
)

PASSTHROUGH = "Passthrough"
GRAPH_REFINED = "GraphRefined"
# marks clusters made under force_kmeans; the string is kept for clusters.json
KMEANS_ABLATION = "KMeansFallback"

EMBEDDING_DIM = 8
# clusters smaller than this fraction of a refined group are reabsorbed into
# the nearest surviving cluster (guards against splinter clusters created by a
# handful of lexically perturbed requests)
MIN_CLUSTER_FRACTION = 0.2


@dataclass
class RefinerConfig:
    theta: float = 0.85
    # k-means on the scaled features in place of the graph (ablation)
    force_kmeans: bool = False
    global_seed: int = 0


@dataclass
class EndpointCluster:
    template: PathTemplate
    member_ids: list[int] = field(default_factory=list)
    representative_paths: list[str] = field(default_factory=list)
    provenance: str = PASSTHROUGH


def farthest_point_indices(X: np.ndarray, k: int, rng: np.random.Generator) -> list[int]:
    """Deterministic farthest-point seeding; first pick comes from the rng."""
    chosen = [int(rng.integers(X.shape[0]))]
    dist = np.linalg.norm(X - X[chosen[0]], axis=1)
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
    # sit at O(1) magnitude.  Negative-eigenvalue directions carry no cluster
    # structure and would otherwise contribute spiky coordinates that hijack
    # farthest-point seeding.
    order = np.argsort(eigvals)[::-1][:dim]
    weights = np.sqrt(np.clip(eigvals[order], 0.0, None))
    Z = eigvecs[:, order] / root[:, None] * weights[None, :] * np.sqrt(n)
    if not np.all(np.isfinite(Z)):
        return rng.standard_normal((rows, dim))
    if Z.shape[1] < dim:
        Z = np.hstack([Z, np.zeros((rows, dim - Z.shape[1]))])
    return Z


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
        target_c = small[0]
        target = X[labels == target_c].mean(axis=0)
        d = {c: np.linalg.norm(target - X[labels == c].mean(axis=0)) for c in big}
        dest = min(sorted(d), key=lambda c: d[c])
        labels[labels == target_c] = dest


def _distinct_rows(rows: list[tuple[float, ...]]) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows in order of first occurrence, as one array, and the row
    of each request."""
    node: dict[tuple[float, ...], int] = {}
    node_of = [node.setdefault(row, len(node)) for row in rows]
    return np.array(list(node)), np.array(node_of)


def refine_group(group: TemplateGroup, config: RefinerConfig | None = None) -> list[EndpointCluster]:
    """Split one template group into endpoint clusters per the two-stage scheme."""
    config = config or RefinerConfig()
    members = group.members
    n = len(members)
    if n == 0:
        return []
    if n < 3:
        return [_cluster(group, members, PASSTHROUGH)]

    distinct_raw, node_of = _distinct_rows([extract_features(nr) for nr in members])
    provenance = KMEANS_ABLATION if config.force_kmeans else GRAPH_REFINED
    min_size = max(2, int(np.ceil(MIN_CLUSTER_FRACTION * n)))
    if n - np.bincount(node_of).max() < min_size:
        # the copies of a row share a k-means label, so the cluster holding
        # the most common row has at least n - min_size + 1 >= min_size
        # members (n >= 3) and every other cluster fewer than min_size: with
        # one big cluster, reabsorption merges the rest into it
        return [_cluster(group, members, provenance)]
    # min and max over the distinct rows are those over every request, so
    # each request's scaled row is its distinct row scaled
    distinct = scale_features(distinct_raw)
    graph = build_graph(distinct, config.theta, node_of)
    k = select_k(graph)
    if k == 1:
        # one component is one cluster: k-means with one centroid labels
        # every request 0, and reabsorption leaves a lone cluster alone
        return [_cluster(group, members, provenance)]
    X = distinct[node_of]
    rng = _group_rng(config.global_seed, group.template)
    if config.force_kmeans:
        labels = kmeans_assign(X, k, rng)
    else:
        labels = kmeans_assign(spectral_init(graph, EMBEDDING_DIM, rng)[node_of], k, rng)
    labels = _reabsorb_small(labels, X, min_size)

    clusters = [
        _cluster(group, [members[i] for i in np.nonzero(labels == c)[0]], provenance)
        for c in np.unique(labels)
    ]
    clusters.sort(key=lambda cl: min(cl.member_ids))
    return clusters


def _cluster(
    group: TemplateGroup, members: list[NormalizedRequest], provenance: str
) -> EndpointCluster:
    members = sorted(members, key=lambda m: m.record.id)
    seen: list[str] = []
    for nr in members:
        path = canonical_path(nr)
        if path not in seen:
            seen.append(path)
        if len(seen) == 3:
            break
    return EndpointCluster(
        template=group.template,
        member_ids=[nr.record.id for nr in members],
        representative_paths=seen,
        provenance=provenance,
    )


@dataclass
class Traffic:
    """A dataset as discovery sees it once filtered and normalized."""

    # the kept records, normalized, in input order; each holds its record
    normalized: list[NormalizedRequest]
    # (record id, reason) for each record the filter dropped
    dropped: list[tuple[int, str]]


def prepare_traffic(
    dataset: Dataset,
    tau: float = DEFAULT_TAU,
    disable_noise_filter: bool = False,
) -> Traffic:
    """The first two stages of discovery: filter the traffic at the gate
    threshold ``tau``, normalize what it keeps.

    The normalized requests share one object per distinct path segment and
    query key; the table that shares them lives for this call only.
    """
    shared: dict[str, str] = {}
    if disable_noise_filter:
        return Traffic([normalize(record, None, shared) for record in dataset.records], [])
    normalized: list[NormalizedRequest] = []
    # the filter hands each kept record over with the URL split it read
    outcome = filter_traffic(
        dataset, tau, lambda record, split: normalized.append(normalize(record, split, shared))
    )
    return Traffic(normalized, outcome.dropped)


def discover(
    traffic: Traffic,
    refiner_config: RefinerConfig | None = None,
    disable_template_mining: bool = False,
) -> list[EndpointCluster]:
    """The rest of the pipeline on what ``prepare_traffic`` made of a dataset:
    mine templates, refine each group."""
    refiner_config = refiner_config or RefinerConfig()
    normalized = traffic.normalized
    if not normalized:
        return []

    if disable_template_mining:
        groups = [TemplateGroup(PathTemplate(method="*", pattern=()), normalized)]
    else:
        groups = mine(normalized)

    clusters: list[EndpointCluster] = []
    for group in groups:
        clusters.extend(refine_group(group, refiner_config))
    clusters.sort(
        key=lambda cl: (cl.template.method, cl.template.render(), min(cl.member_ids))
    )
    return clusters
