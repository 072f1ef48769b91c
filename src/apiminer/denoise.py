"""Non-API traffic filtering: cascaded rule signals plus a logistic sanity gate."""

from __future__ import annotations

import math
import re
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache

from .records import Dataset, HttpRecord, structured_payload
from .normalize import split_url
from .templates import is_variable_segment

READ_VERBS = {"GET", "HEAD", "OPTIONS"}

DEFAULT_STATIC_EXTENSIONS = frozenset(
    {
        "js", "css", "png", "jpg", "jpeg", "gif", "svg", "ico",
        "html", "htm", "woff", "woff2", "ttf", "mp4", "map",
    }
)
DEFAULT_STATIC_PATH_MARKERS = (
    "/static/", "/assets/", "/images/", "/img/", "/fonts/", "/media/", "/cdn-cgi/",
)
# any marker; its closing slash, which every marker has, may be the path's end
_STATIC_PATH_MARKER_RE = re.compile(
    "|".join(re.escape(m[:-1]) + r"(?:/|\Z)" for m in DEFAULT_STATIC_PATH_MARKERS)
)
DEFAULT_NON_API_CONTENT_TYPES = (
    "text/html", "image/", "font/", "audio/", "video/",
    "application/zip", "application/gzip",
)

# Drop reason tags, cascade order.
STATIC_EXTENSION = "StaticExtension"
STATIC_PATH_PATTERN = "StaticPathPattern"
MISSING_CONTENT_TYPE = "MissingContentType"
NON_API_CONTENT_TYPE = "NonApiContentType"
LOGISTIC_GATE = "LogisticGate"

# Logistic gate weights over the feature vector
# (bias, method-is-read, path-depth, has-identifier-placeholder, has-query,
#  is-structured-payload).  The gate is deliberately permissive:
# a plain JSON API call scores >= 0.9 while a featureless record scores < 0.01.
LOGISTIC_WEIGHTS = (-5.0, 1.0, 1.5, 1.0, 0.5, 3.0)
DEFAULT_TAU = 0.01


@dataclass
class FilterOutcome:
    kept: list[int] = field(default_factory=list)
    dropped: list[tuple[int, str]] = field(default_factory=list)


def rule_signal(record: HttpRecord, path: str) -> str | None:
    """First matching drop reason in cascade order, or None; ``path`` is the
    record's URL path as ``split_url`` gives it.  The extension is read from
    the last non-empty segment, so a trailing slash does not hide it, and is
    looked for only in a path that holds a ``.``.  A marker also matches at
    the end of the path without its closing slash (``/x/static``)."""
    last_segment = path.rstrip("/").rsplit("/", 1)[-1] if "." in path else ""
    if "." in last_segment:
        ext = last_segment.rsplit(".", 1)[-1].lower()
        if ext in DEFAULT_STATIC_EXTENSIONS:
            return STATIC_EXTENSION
    if _STATIC_PATH_MARKER_RE.search(path.lower()):
        return STATIC_PATH_PATTERN
    return _content_type_reason(record.content_type)


@lru_cache(maxsize=128)
def _content_type_reason(content_type: str | None) -> str | None:
    """The drop reason a content type gives, once per distinct content type."""
    if content_type is None:
        return MISSING_CONTENT_TYPE
    if content_type.lower().startswith(DEFAULT_NON_API_CONTENT_TYPES):
        return NON_API_CONTENT_TYPE
    return None


def _gate_vector(
    record: HttpRecord, depth: int, query: str, placeholder: float
) -> tuple[float, ...]:
    """The gate's feature vector, with the ID-segment bit given."""
    return (
        1.0,
        1.0 if record.method in READ_VERBS else 0.0,
        float(depth),
        placeholder,
        1.0 if query else 0.0,
        1.0 if structured_payload(record.content_type) else 0.0,
    )


def gate_features(record: HttpRecord, path: str, query: str) -> tuple[float, ...]:
    """Structural feature vector x for the logistic gate."""
    segments = [s for s in path.split("/") if s]
    has_placeholder = any(is_variable_segment(s) for s in segments)
    return _gate_vector(record, len(segments), query, 1.0 if has_placeholder else 0.0)


def _sigmoid_score(weights: tuple[float, ...], x: tuple[float, ...]) -> float:
    z = sum(w * v for w, v in zip(weights, x))
    return 1.0 / (1.0 + math.exp(-z))


def sanity_score(record: HttpRecord, path: str, query: str) -> float:
    """sigma(w . x), strictly inside (0, 1)."""
    return _sigmoid_score(LOGISTIC_WEIGHTS, gate_features(record, path, query))


def _gate_drops(
    record: HttpRecord,
    path: str,
    query: str,
    tau: float,
    decisions: dict[tuple[float, ...], tuple[bool, bool]],
) -> bool:
    """``sanity_score(record, path, query) < tau``, with the
    ID-segment scan only when its bit can change that answer.

    ``decisions`` maps a gate vector with the bit at 0 to the answer with
    the bit at 0 and at 1; both scores are summed as ``sanity_score`` sums
    them, so the real score is bit-identical to one of the two.
    """
    parts = path.split("/")
    x = _gate_vector(record, len(parts) - parts.count(""), query, 0.0)
    pair = decisions.get(x)
    if pair is None:
        with_bit = x[:3] + (1.0,) + x[4:]
        pair = decisions[x] = (
            _sigmoid_score(LOGISTIC_WEIGHTS, x) < tau,
            _sigmoid_score(LOGISTIC_WEIGHTS, with_bit) < tau,
        )
    drop_without, drop_with = pair
    if drop_with != drop_without and any(is_variable_segment(s) for s in parts if s):
        return drop_with
    return drop_without


def filter_traffic(
    dataset: Dataset,
    tau: float = DEFAULT_TAU,
    on_kept: Callable[[HttpRecord, tuple[str, str]], None] | None = None,
) -> FilterOutcome:
    """Partition records into kept / dropped-with-reason, preserving input order.

    ``on_kept(record, split)`` is called on each kept record, in input order,
    with the ``split_url`` the filter read, so a caller can normalize the
    record without splitting its URL again.  A record is dropped by the
    gate when its ``sanity_score`` is below ``tau``.

    A record's method, URL and content type fix both the rule cascade and
    the gate, so a record with the same three as one this call dropped is
    dropped for the same reason without its URL being split again.  Kept
    records are not remembered: their URLs seldom repeat.
    """
    if not (0.0 < tau < 1.0):
        raise ValueError(f"tau must be in (0,1), got {tau}")
    outcome = FilterOutcome()
    decisions: dict[tuple[float, ...], tuple[bool, bool]] = {}
    # with no negative weight past the bias, raising a feature never lowers
    # the score (float products and sums and the sigmoid are monotone), so
    # if a depth-1 vector with every other feature at 0 passes, every record
    # with a path segment passes
    keeps_any_segment = min(LOGISTIC_WEIGHTS[1:]) >= 0 and not (
        _sigmoid_score(LOGISTIC_WEIGHTS, (1.0, 0.0, 1.0, 0.0, 0.0, 0.0)) < tau
    )
    # (method, url, content_type) of each record dropped so far, to its reason
    drops: dict[tuple[str, str, str | None], str] = {}
    for record in dataset.records:
        key = (record.method, record.url, record.content_type)
        reason = drops.get(key)
        if reason is not None:
            outcome.dropped.append((record.id, reason))
            continue
        path, query = split_url(record)
        reason = rule_signal(record, path)
        if (
            reason is None
            and not (keeps_any_segment and path.strip("/"))
            and _gate_drops(record, path, query, tau, decisions)
        ):
            reason = LOGISTIC_GATE
        if reason is None:
            outcome.kept.append(record.id)
            if on_kept is not None:
                on_kept(record, (path, query))
        else:
            drops[key] = reason
            outcome.dropped.append((record.id, reason))
    return outcome
