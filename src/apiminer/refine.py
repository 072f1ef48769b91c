"""Stage-2 refinement: split template groups into behavioral endpoint clusters.

Each group of three or more requests is cut into the connected components
of its thresholded similarity graph, found from the scaled rows without an
n x n array (``features.connected_components``), then clusters under
``MIN_CLUSTER_FRACTION`` of the group are merged into the nearest big one.
Refinement works on a group's distinct feature rows in sorted order and the
count of requests on each: the requests of one row are one node, so
identical requests are never split, and the labels go back to the requests
once, at the end.  Features are extracted once per distinct
``features.row_input``, the fields a row reads.  For a graph of k
components, the top k eigenvectors of its normalized adjacency are the
components' indicators (von Luxburg, 2007), so spectral clustering would
only re-derive them.  ``RefinerConfig.force_kmeans`` runs k-means on the
scaled rows instead, the paper's ablation of the graph, with k the
component count (at most ``MAX_K``), seeds drawn by farthest-first
traversal from the smallest row, and centroids weighted by the counts.
Neither path draws random numbers, and each depends only on the group's
rows and their counts, not on the order of its requests.

A group whose requests off its most common feature row are too few to form
a cluster of their own is one cluster, with no scaling and no graph, under
either path; a group whose requests share one ``row_input`` is one cluster
before any feature row is made.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .records import Dataset
from .normalize import NormalizedRequest, QueryKeyCensus, canonical_path, normalize, split_url
from .denoise import DEFAULT_TAU, filter_traffic
from .templates import PASSTHROUGH, EndpointCluster, PathTemplate, TemplateGroup, mine
from .features import (
    connected_components,
    extract_features,
    row_input,
    scale_features,
)

GRAPH_REFINED = "GraphRefined"
# marks clusters made under force_kmeans; the string is kept for clusters.json
KMEANS_ABLATION = "KMeansFallback"

# clusters smaller than this fraction of a refined group are reabsorbed into
# the nearest surviving cluster (guards against splinter clusters created by a
# handful of lexically perturbed requests)
MIN_CLUSTER_FRACTION = 0.2

# the k-means ablation cuts a group into its graph's components, at most this many
MAX_K = 8
# Lloyd iterations the k-means ablation runs at most
KMEANS_MAX_ITERS = 50


@dataclass
class RefinerConfig:
    theta: float = 0.85
    # k-means on the scaled features in place of the graph (ablation)
    force_kmeans: bool = False


def farthest_point_seeds(rows: np.ndarray, k: int) -> np.ndarray:
    """k seed rows by farthest-first traversal (Gonzalez, 1985) over distinct
    rows in sorted order: the first row, then each time the row farthest
    from those chosen, the earlier row on a tie."""
    chosen = [0]
    dist = np.linalg.norm(rows - rows[0], axis=1)
    while len(chosen) < k:
        nxt = int(np.argmax(dist))
        chosen.append(nxt)
        dist = np.minimum(dist, np.linalg.norm(rows - rows[nxt], axis=1))
    return rows[chosen]


def _centroid(rows: np.ndarray, counts: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Mean of the requests on the masked rows, each row weighted by its count."""
    return np.average(rows[mask], axis=0, weights=counts[mask])


def kmeans_assign(rows: np.ndarray, counts: np.ndarray, k: int) -> np.ndarray:
    """Plain Lloyd iterations from ``farthest_point_seeds`` on distinct sorted
    rows, row i standing for ``counts[i]`` requests; a label per row."""
    centroids = farthest_point_seeds(rows, k)
    labels = np.zeros(len(rows), dtype=int)
    for it in range(KMEANS_MAX_ITERS):
        d2 = np.sum((rows[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(d2, axis=1)
        if it > 0 and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            mask = labels == c
            if mask.any():
                centroids[c] = _centroid(rows, counts, mask)
    return labels


def _reabsorb_small(
    labels: np.ndarray, rows: np.ndarray, counts: np.ndarray, min_size: int
) -> np.ndarray:
    """Merge clusters of fewer than min_size requests into the nearest
    surviving centroid; ``labels`` and ``counts`` are per distinct sorted row.

    The smallest small cluster goes first, into the nearest big one; ties in
    size or distance go to the cluster with the smallest row, so the result
    does not depend on how the labels are numbered.
    """
    labels = labels.copy()
    while True:
        # rows are sorted, so a cluster's first row is its smallest
        first = dict(zip(*np.unique(labels, return_index=True)))
        size = np.bincount(labels, weights=counts)
        small = [c for c in first if size[c] < min_size]
        big = [c for c in first if size[c] >= min_size]
        if not small or not big:
            return labels
        target_c = min(small, key=lambda c: (size[c], first[c]))
        target = _centroid(rows, counts, labels == target_c)
        d = {c: np.linalg.norm(target - _centroid(rows, counts, labels == c)) for c in big}
        dest = min(big, key=lambda c: (d[c], first[c]))
        labels[labels == target_c] = dest


def _feature_rows(inputs: dict[tuple, int], input_of: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The distinct raw feature rows in sorted order, and the row of each
    member, for members whose distinct ``row_input``s are the keys of
    ``inputs`` and whose i-th has the key numbered ``input_of[i]``; one
    ``extract_features`` call per key."""
    input_rows = [extract_features(key) for key in inputs]
    # tuples of floats sort as np.unique(axis=0) sorts rows, at a small
    # fraction of its fixed cost on a group of a few rows
    rows = sorted(set(input_rows))
    position = {row: i for i, row in enumerate(rows)}
    return np.array(rows), np.array([position[row] for row in input_rows])[input_of]


def refine_group(group: TemplateGroup, config: RefinerConfig | None = None) -> list[EndpointCluster]:
    """Split one template group into endpoint clusters per the two-stage scheme.

    A group of fewer than three requests passes through as one cluster.  So
    does, with the refining path's provenance, a group whose requests share
    one ``row_input`` (before any feature row or array is made) or whose
    requests off its most common feature row are too few for a cluster.
    """
    config = config or RefinerConfig()
    members = group.members
    n = len(members)
    if n == 0:
        return []
    if n < 3:
        return [_cluster(group, members, PASSTHROUGH)]

    provenance = KMEANS_ABLATION if config.force_kmeans else GRAPH_REFINED
    inputs: dict[tuple, int] = {}
    input_of = [inputs.setdefault(row_input(nr), len(inputs)) for nr in members]
    if len(inputs) == 1:
        # one feature row, which the dominant-row exit below would find
        return [_cluster(group, members, provenance)]
    rows, node_of = _feature_rows(inputs, input_of)
    counts = np.bincount(node_of)
    min_size = max(2, int(np.ceil(MIN_CLUSTER_FRACTION * n)))
    if n - counts.max() < min_size:
        # the copies of a row share a label, so the cluster holding
        # the most common row has at least n - min_size + 1 >= min_size
        # members (n >= 3) and every other cluster fewer than min_size: with
        # one big cluster, reabsorption merges the rest into it
        return [_cluster(group, members, provenance)]
    # min and max over the distinct rows are those over every request, so
    # each request's scaled row is its distinct row scaled
    rows = scale_features(rows)
    labels = connected_components(rows, config.theta)
    if config.force_kmeans:
        labels = kmeans_assign(rows, counts, min(int(labels.max()) + 1, MAX_K))
    labels = _reabsorb_small(labels, rows, counts, min_size)[node_of]

    clusters = [
        _cluster(group, [members[i] for i in np.nonzero(labels == c)[0]], provenance)
        for c in np.flatnonzero(np.bincount(labels))
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
    threshold ``tau``, normalize what it keeps, and drop from the kept
    requests' query keys those ``QueryKeyCensus`` finds neutral.

    The normalized requests share one object per distinct path segment and
    query key; the table that shares them lives for this call only.
    """
    shared: dict[str, str] = {}
    normalized: list[NormalizedRequest] = []
    census = QueryKeyCensus()

    def keep(record, split: tuple[str, str]) -> None:
        nr = normalize(record, split, shared)
        normalized.append(nr)
        if nr.raw_query_keys:
            census.count(nr, split[1])

    if disable_noise_filter:
        for record in dataset.records:
            keep(record, split_url(record))
        dropped = []
    else:
        # the filter hands each kept record over with the URL split it read
        dropped = filter_traffic(dataset, tau, keep).dropped
    census.drop_neutral(normalized)
    return Traffic(normalized, dropped)


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
