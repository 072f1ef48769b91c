"""Lightweight per-request semantic features, the similarity graph over
scaled feature rows, and its connected components."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .records import structured_payload
from .normalize import NormalizedRequest

COMMON_QUERY_KEYS = {"page", "limit", "offset", "sort", "filter", "q", "id"}
WRITE_VERBS = {"POST", "PUT", "PATCH", "DELETE"}

FEATURE_NAMES = (
    "query_param_count",
    "common_key_count",
    "has_query",
    "body_size_log",
    "body_field_count",
    "body_nesting_depth",
    "method_write",
    "has_structured_payload",
)


def row_input(nr: NormalizedRequest) -> tuple:
    """The fields a request's feature row reads: its query keys, body size,
    body field count, body nesting depth, method and content type.
    Requests that agree on them share a row."""
    record = nr.record
    return (
        nr.raw_query_keys,
        record.body_size,
        record.body_field_count,
        record.body_nesting_depth,
        record.method,
        record.content_type,
    )


def extract_features(nr: NormalizedRequest) -> tuple[float, ...]:
    """Raw (pre-scaling) feature vector for one request, one component per
    name of ``FEATURE_NAMES``, computed from its ``row_input`` alone."""
    keys, body_size, field_count, nesting_depth, method, content_type = row_input(nr)
    return (
        *_query_facts(keys),
        math.log1p(max(0, body_size)),
        float(field_count or 0),
        float(nesting_depth or 0),
        1.0 if method in WRITE_VERBS else 0.0,
        1.0 if structured_payload(content_type) else 0.0,
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


def build_graph(features: np.ndarray, theta: float) -> np.ndarray:
    """Boolean adjacency of the thresholded similarity graph on scaled rows.

    Rows i and j are joined when s = (1 + cos(x_i, x_j)) / 2 >= theta, in
    either order, since the two products can round apart.  A zero row joins
    nothing, and no row joins itself.  Given a group's distinct rows, its
    components are those of the graph over every request, except that the
    copies of a zero row stay one component.
    """
    if not (0.0 < theta < 1.0):
        raise ValueError("theta must be in (0,1)")
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


def connected_components(A: np.ndarray) -> np.ndarray:
    """Component label per node of the graph (union-find), numbered in order
    of each component's first node."""
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
