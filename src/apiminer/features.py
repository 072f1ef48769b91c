"""Lightweight semantic features, one row per distinct ``row_input``, and the
connected components of the similarity graph over scaled rows, found from
the rows themselves in memory linear in their number."""

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


def extract_features(key: tuple) -> tuple[float, ...]:
    """Raw (pre-scaling) feature vector of the requests whose ``row_input``
    is ``key``, one component per name of ``FEATURE_NAMES``."""
    keys, body_size, field_count, nesting_depth, method, content_type = key
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


# a frontier is compared with the rows no component holds yet in blocks of at
# most this many rows, and fewer when a block would pass this many similarities
BLOCK_ROWS = 512
BLOCK_CELLS = 2**20


def connected_components(rows: np.ndarray, theta: float) -> np.ndarray:
    """Component label per row of the thresholded similarity graph on scaled
    rows, numbered in order of each component's first row.

    Rows i and j are joined when s = (1 + cos(x_i, x_j)) / 2 >= theta; a zero
    row joins nothing.  The search is breadth-first from each row no
    component holds yet: a step compares a block of the frontier's unit rows
    with the rows still unreached, so no n x n array is made and a row is
    compared no more once reached.  Given a group's distinct rows, its
    components are those of the graph over every request, except that the
    copies of a zero row stay one component.
    """
    if not (0.0 < theta < 1.0):
        raise ValueError("theta must be in (0,1)")
    norms = np.linalg.norm(rows, axis=1)
    # each row is named by its component's first row; a zero row by itself
    first = np.arange(len(rows))
    left = np.flatnonzero(norms > 0)
    unit = rows[left] / norms[left, None]
    while len(left):
        start = left[0]
        frontier, unit, left = unit[:1], unit[1:], left[1:]
        while len(frontier) and len(left):
            size = max(1, min(BLOCK_ROWS, BLOCK_CELLS // len(left)))
            block, frontier = frontier[:size], frontier[size:]
            joined = ((1.0 + block @ unit.T) / 2.0 >= theta).any(axis=0)
            if joined.any():
                first[left[joined]] = start
                frontier = np.concatenate((frontier, unit[joined]))
                unit, left = unit[~joined], left[~joined]
    # a component's first row is its smallest, so numbering the rows that
    # start one in order numbers the components in order of their first row
    return np.searchsorted(np.flatnonzero(first == np.arange(len(rows))), first)
