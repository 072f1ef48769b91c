"""Lightweight per-request semantic features and the similarity graph."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .records import structured_payload
from .normalize import NormalizedRequest

API_KEYWORDS = {"api", "v1", "v2", "v3", "rest", "graphql"}
COMMON_QUERY_KEYS = {"page", "limit", "offset", "sort", "filter", "q", "id"}
WRITE_VERBS = {"POST", "PUT", "PATCH", "DELETE"}

FEATURE_NAMES = (
    "path_depth",
    "api_keyword_count",
    "query_param_count",
    "common_key_count",
    "has_query",
    "body_size_log",
    "body_field_count",
    "body_nesting_depth",
    "method_write",
    "has_structured_payload",
)


def extract_features(nr: NormalizedRequest) -> tuple[float, ...]:
    """Raw (pre-scaling) 10-component feature vector for one request."""
    record = nr.record
    return (
        float(len(nr.segments)),
        float(sum(1 for s in nr.segments if s in API_KEYWORDS)),
        *_query_facts(nr.raw_query_keys),
        math.log1p(max(0, record.body_size)),
        float(record.body_field_count or 0),
        float(record.body_nesting_depth or 0),
        1.0 if record.method in WRITE_VERBS else 0.0,
        1.0 if structured_payload(record.content_type) else 0.0,
    )


@lru_cache(maxsize=256)
def _query_facts(keys: tuple[str, ...]) -> tuple[float, float, float]:
    """The query features of a request's query keys: distinct keys, distinct
    common keys and whether there is a query, once per key tuple."""
    distinct = dict.fromkeys(keys)
    return (
        float(len(distinct)),
        float(sum(1 for k in distinct if k in COMMON_QUERY_KEYS)),
        1.0 if keys else 0.0,
    )


def scale_features(matrix: np.ndarray) -> np.ndarray:
    """Min-max scale each column to [0, 1]; constant columns scale to 0."""
    lo = matrix.min(axis=0)
    hi = matrix.max(axis=0)
    span = hi - lo
    span[span == 0] = 1.0
    return (matrix - lo) / span


@dataclass
class SimilarityGraph:
    """Thresholded similarity graph over the distinct feature rows of a group.

    Node ``a`` stands for ``counts[a]`` requests with identical feature rows.
    ``A`` holds the similarity between distinct rows and has a zero diagonal;
    ``self_sim[a]`` is the similarity between two copies of row ``a`` (1 for
    a non-zero row, 0 for a zero row, whose copies stay isolated).  The graph
    is the n-request graph with every copy of a row expanded to its own node,
    and ``n`` is that request count.
    """

    A: np.ndarray
    # node of each of the n requests
    node_of: np.ndarray
    self_sim: np.ndarray
    n: int = field(init=False)
    # requests per node
    counts: np.ndarray = field(init=False)

    def __post_init__(self):
        self.n = len(self.node_of)
        self.counts = np.bincount(self.node_of, minlength=self.A.shape[0]).astype(float)


def build_graph(features: np.ndarray, theta: float, node_of: np.ndarray) -> SimilarityGraph:
    """Thresholded cosine-derived similarity graph on scaled feature rows.

    s(i, j) = (1 + cos(x_i, x_j)) / 2; pairs involving a zero vector get
    s = 0.  Entries below theta are cut; the diagonal is zero.  ``features``
    holds distinct rows and ``node_of`` gives the row of each request.
    """
    if not (0.0 < theta < 1.0):
        raise ValueError("theta must be in (0,1)")
    norms = np.linalg.norm(features, axis=1)
    safe = norms.copy()
    safe[safe == 0] = 1.0
    unit = features / safe[:, None]
    cos = unit @ unit.T
    sim = (1.0 + cos) / 2.0
    zero_mask = norms == 0
    sim[zero_mask, :] = 0.0
    sim[:, zero_mask] = 0.0
    sim[sim < theta] = 0.0
    np.fill_diagonal(sim, 0.0)
    sim = (sim + sim.T) / 2.0
    return SimilarityGraph(A=sim, node_of=node_of, self_sim=(~zero_mask).astype(float))


def connected_components(A: np.ndarray) -> np.ndarray:
    """Component label per node of the thresholded graph (union-find)."""
    n = A.shape[0]
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    rows, cols = np.nonzero(A)
    for i, j in zip(rows.tolist(), cols.tolist()):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    roots = {}
    labels = np.empty(n, dtype=int)
    for i in range(n):
        r = find(i)
        labels[i] = roots.setdefault(r, len(roots))
    return labels


def select_k(graph: SimilarityGraph) -> int:
    """Cluster count: connected components, clamped to [1, min(8, n)].

    Components are those of the graph over distinct rows: the copies of a row
    share one embedding, so they can never fill more than one cluster.
    """
    if graph.n < 1:
        raise ValueError("graph must have at least one node")
    count = int(connected_components(graph.A).max()) + 1
    return max(1, min(count, min(8, graph.n)))
