"""Noise laboratory: lexical perturbation and interference-injection rules."""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from urllib.parse import urlsplit, urlunsplit

import numpy as np

from .normalize import malformed_url
from .records import Dataset, HttpRecord, _new_tuple

LEXIFY = "Lexify"
INTERFERE = "Interfere"


class SplitUrl:
    """One ``urlsplit`` of a URL, and the pieces every Lexify rule reads: the
    query's non-empty ``&`` pairs, the path's non-empty segments, and whether
    the path ends in a slash after a segment."""

    __slots__ = ("parts", "pairs", "segments", "trailing")

    def __init__(self, url: str):
        self.parts = urlsplit(url)
        self.pairs = [p for p in self.parts.query.split("&") if p]
        self.segments = [s for s in self.parts.path.split("/") if s]
        self.trailing = self.parts.path.endswith("/") and len(self.segments) > 0

    def applicable(self) -> list[tuple[str, Sequence]]:
        """(rule name, targets) of each Lexify rule that applies, in
        ``LEXIFY_RULES`` order."""
        out = []
        for name, (targets_of, _) in _LEXIFY.items():
            targets = targets_of(self)
            if targets:
                out.append((name, targets))
        return out

    def rebuild(self, path: str | None = None, query: str | None = None) -> str:
        parts = self.parts
        return urlunsplit(
            (
                parts.scheme,
                parts.netloc,
                parts.path if path is None else path,
                parts.query if query is None else query,
                parts.fragment,
            )
        )


def _split(record: HttpRecord) -> SplitUrl:
    """The record's URL split, or the ``IngestError`` ``discover`` raises for it."""
    try:
        return SplitUrl(record.url)
    except ValueError as exc:
        raise malformed_url(record, exc) from None


def _join(segments: list[str], trailing: bool) -> str:
    path = "/" + "/".join(segments)
    if trailing and segments:
        path += "/"
    return path


def _pick(targets: Sequence, rng: np.random.Generator):
    return targets[int(rng.integers(len(targets)))]


def _shuffle_query(url: SplitUrl, pairs: list[str], rng: np.random.Generator) -> str:
    order = list(rng.permutation(len(pairs)))
    if order == sorted(order):
        order = order[::-1]
    return url.rebuild(query="&".join(pairs[i] for i in order))


def _append_neutral(url: SplitUrl, neutral: Sequence[str], _rng) -> str:
    return url.rebuild(query="&".join([*url.pairs, *neutral]))


def _duplicate_pair(url: SplitUrl, pairs: Sequence[str], rng: np.random.Generator) -> str:
    return url.rebuild(query="&".join([*url.pairs, _pick(pairs, rng)]))


def _edit_segment(edit: Callable[[str, np.random.Generator], str]):
    """Mutation that rewrites one drawn segment position with ``edit``."""

    def mutate(url: SplitUrl, positions: Sequence[int], rng: np.random.Generator) -> str:
        segments = list(url.segments)
        pos = _pick(positions, rng)
        segments[pos] = edit(segments[pos], rng)
        return url.rebuild(path=_join(segments, url.trailing))

    return mutate


def _edit_value(edit: Callable[[str], str]):
    """Mutation that rewrites the value of one drawn query pair with ``edit``."""

    def mutate(url: SplitUrl, positions: Sequence[int], rng: np.random.Generator) -> str:
        pairs = list(url.pairs)
        pos = _pick(positions, rng)
        key, _, value = pairs[pos].partition("=")
        pairs[pos] = key + "=" + edit(value)
        return url.rebuild(query="&".join(pairs))

    return mutate


def _set_trailing(trailing: bool):
    def mutate(url: SplitUrl, _targets, _rng) -> str:
        return url.rebuild(path=_join(url.segments, trailing))

    return mutate


def _inject_dot(segment: str, rng: np.random.Generator) -> str:
    cut = 1 + int(rng.integers(len(segment) - 1))
    return segment[:cut] + "." + segment[cut:]


def _spaced_values(url: SplitUrl) -> list[int]:
    return [i for i, p in enumerate(url.pairs) if " " in p.split("=", 1)[-1]]


# Each Lexify rule as (targets, mutate).  ``targets(url)`` is the rule's one
# applicability condition: the query pairs or segment positions it may change,
# or the one pair or slash it adds or removes; empty when the rule does not
# apply.  ``mutate(url, targets, rng)`` returns the new URL and makes the
# rule's own draws from ``rng``.
_LEXIFY: dict[str, tuple[Callable[[SplitUrl], Sequence], Callable[..., str]]] = {
    "Query Order Shuffle": (lambda u: u.pairs if len(u.pairs) >= 2 else (), _shuffle_query),
    "Neutral Query Parameter": (lambda u: ("tmp=0",), _append_neutral),
    "Duplicate Query Key": (lambda u: u.pairs, _duplicate_pair),
    "Underscore Injection": (
        lambda u: [i for i, s in enumerate(u.segments) if len(s) >= 3],
        _edit_segment(lambda s, rng: s + "_"),
    ),
    "Hyphen Duplication": (
        lambda u: [i for i, s in enumerate(u.segments) if "-" in s],
        _edit_segment(lambda s, rng: s.replace("-", "--", 1)),
    ),
    "Dot Injection": (
        lambda u: [i for i, s in enumerate(u.segments) if len(s) >= 4 and "." not in s],
        _edit_segment(_inject_dot),
    ),
    # doubles the slash that precedes the drawn segment
    "Repeated Slash": (lambda u: range(len(u.segments)), _edit_segment(lambda s, rng: "/" + s)),
    "Trailing Slash Addition": (
        lambda u: ("/",) if u.segments and not u.trailing else (),
        _set_trailing(True),
    ),
    "Trailing Slash Removal": (lambda u: ("/",) if u.trailing else (), _set_trailing(False)),
    "Uppercase Token": (
        lambda u: [i for i, s in enumerate(u.segments) if s != s.upper()],
        _edit_segment(lambda s, rng: s.upper()),
    ),
    "Lowercase Token": (
        lambda u: [i for i, s in enumerate(u.segments) if s != s.lower()],
        _edit_segment(lambda s, rng: s.lower()),
    ),
    "Space Encoding": (_spaced_values, _edit_value(lambda v: v.replace(" ", "%20"))),
    "Plus Encoding": (_spaced_values, _edit_value(lambda v: v.replace(" ", "+"))),
    # str.isalnum is False for an empty value, and for a pair with no "="
    "Hex Encoding": (
        lambda u: [i for i, p in enumerate(u.pairs) if p.partition("=")[2].isalnum()],
        _edit_value(lambda v: "".join(f"%{ord(c):02x}" for c in v)),
    ),
}

LEXIFY_RULES = tuple(_LEXIFY)

INTERFERE_CATEGORIES = (
    "Static Asset Request",
    "Image Resource Request",
    "Font and Media Request",
    "Health Check Endpoint",
    "Metrics Endpoint",
    "Framework Handshake Request",
    "Hot Reload / Dev Channel",
    "Third-party Analytics Call",
    "CDN / Proxy Trace",
)

# segment-mutating rules that path normalization cannot absorb
TOKEN_MUTATION_RULES = frozenset(
    {"Underscore Injection", "Hyphen Duplication", "Dot Injection"}
)


@dataclass(frozen=True)
class NoiseRule:
    name: str
    kind: str

    def __post_init__(self):
        if self.kind == LEXIFY and self.name not in LEXIFY_RULES:
            raise ValueError(f"unknown Lexify rule {self.name!r}")
        if self.kind == INTERFERE and self.name not in INTERFERE_CATEGORIES:
            raise ValueError(f"unknown Interfere category {self.name!r}")
        if self.kind not in (LEXIFY, INTERFERE):
            raise ValueError(f"unknown noise kind {self.kind!r}")


RULE_REGISTRY = tuple(
    [NoiseRule(name, LEXIFY) for name in LEXIFY_RULES]
    + [NoiseRule(name, INTERFERE) for name in INTERFERE_CATEGORIES]
)


def _record(record: HttpRecord, rid: int, url: str) -> HttpRecord:
    """``record`` with the given id and URL, every other field shared.

    The fields of an ``HttpRecord`` already passed its checks, which would
    return them unchanged, so its tuple is built directly; a record of any
    other type goes through the constructor.
    """
    _, method, _, headers, content_type, body_size, fields, depth, label = record
    if type(record) is HttpRecord:
        return _new_tuple(
            HttpRecord, (rid, method, url, headers, content_type, body_size, fields, depth, label)
        )
    return HttpRecord(rid, method, url, headers, content_type, body_size, fields, depth, label)


def lexify(record: HttpRecord, rule: NoiseRule, rng: np.random.Generator) -> tuple[HttpRecord, bool]:
    """Apply one Lexify rule; returns (record, applied).

    Inapplicable rules return the record unchanged with applied=False.  The
    ground-truth label is always preserved.
    """
    if rule.kind != LEXIFY:
        raise ValueError("lexify requires a Lexify rule")
    url = _split(record)
    targets_of, mutate = _LEXIFY[rule.name]
    targets = targets_of(url)
    if not targets:
        return record, False
    return _record(record, record.id, mutate(url, targets, rng)), True


_ASSET_STEMS = ("app", "main", "vendor", "bundle", "chunk", "logo", "banner", "icon", "hero", "intro")

_INTERFERE_FAMILIES: dict[str, list[tuple[str, str, str | None]]] = {
    # category -> (method, path template with optional {stem}, content type)
    "Static Asset Request": [
        ("GET", "/static/{stem}.js", "application/javascript"),
        ("GET", "/assets/{stem}.css", "text/css"),
    ],
    "Image Resource Request": [
        ("GET", "/images/{stem}.png", "image/png"),
        ("GET", "/img/{stem}.jpg", "image/jpeg"),
    ],
    "Font and Media Request": [
        ("GET", "/fonts/{stem}.woff2", "font/woff2"),
        ("GET", "/media/{stem}.mp4", "video/mp4"),
    ],
    "Health Check Endpoint": [("GET", "/health", None), ("GET", "/status", None)],
    "Metrics Endpoint": [("GET", "/metrics", None), ("GET", "/actuator/metrics", None)],
    "Framework Handshake Request": [("GET", "/sockjs/info", None), ("GET", "/ws/connect", None)],
    "Hot Reload / Dev Channel": [("GET", "/webpack-hmr", None), ("GET", "/vite/client", None)],
    "Third-party Analytics Call": [("POST", "/analytics/collect", None), ("POST", "/track/event", None)],
    "CDN / Proxy Trace": [("GET", "/cdn-cgi/trace", None), ("GET", "/proxy/ping", None)],
}


def _draw_interference(category: str, rng: np.random.Generator) -> tuple[str, str, str | None]:
    """(method, url, content type) of one request drawn from a category family."""
    method, path, content_type = _INTERFERE_FAMILIES[category][int(rng.integers(2))]
    if "{stem}" in path:
        stem = _ASSET_STEMS[int(rng.integers(len(_ASSET_STEMS)))]
        path = path.replace("{stem}", stem)
    return method, path, content_type


def _interference_record(record_id: int, method: str, url: str, content_type: str | None) -> HttpRecord:
    # an upper-case method, a header tuple and an empty body, as
    # HttpRecord's checks hold them
    headers = (("Content-Type", content_type),) if content_type else ()
    return _new_tuple(HttpRecord, (record_id, method, url, headers, content_type, 0, None, None, None))


def interfere_sample(category: NoiseRule, rng: np.random.Generator, record_id: int = 0) -> HttpRecord:
    """Draw one fresh, unlabeled interference record from a category family."""
    if category.kind != INTERFERE:
        raise ValueError("interfere_sample requires an Interfere category")
    return _interference_record(record_id, *_draw_interference(category.name, rng))


def _renumber(records: list[HttpRecord]) -> list[HttpRecord]:
    return [
        record if record.id == new_id else _record(record, new_id, record.url)
        for new_id, record in enumerate(records)
    ]


def inject(dataset: Dataset, kind: str, ratio: float, seed: int) -> Dataset:
    """Produce a noisy variant of a dataset.

    Lexify transforms round(ratio * N) records in place (one applicable rule
    each); Interfere interleaves round(ratio * N) fresh unlabeled records.
    Deterministic under (dataset, kind, ratio, seed).
    """
    if not (0.0 <= ratio <= 1.0):
        raise ValueError("ratio must be in [0,1]")
    n = len(dataset.records)
    count = int(round(ratio * n))
    rng = np.random.default_rng(seed)
    if count == 0:
        return dataset

    if kind == LEXIFY:
        records = list(dataset.records)
        for idx in sorted(rng.choice(n, size=count, replace=False).tolist()):
            record = records[idx]
            # one split answers which rules apply and feeds the drawn rule
            url = _split(record)
            applicable = url.applicable()
            if applicable:
                name, targets = _pick(applicable, rng)
                records[idx] = _record(record, record.id, _LEXIFY[name][1](url, targets, rng))
        return Dataset(records=_renumber(records), source=dataset.source + f"+lexify{ratio:g}")

    if kind == INTERFERE:
        drawn = [
            _draw_interference(INTERFERE_CATEGORIES[int(rng.integers(len(INTERFERE_CATEGORIES)))], rng)
            for _ in range(count)
        ]
        positions = sorted(rng.integers(0, n + 1, size=count).tolist())
        # each extra is built once, at the id it keeps: the j-th goes before
        # the record at positions[j], or after the last record
        merged: list[HttpRecord] = []
        j = 0
        for idx in range(n + 1):
            while j < count and positions[j] == idx:
                merged.append(_interference_record(len(merged), *drawn[j]))
                j += 1
            if idx < n:
                merged.append(dataset.records[idx])
        return Dataset(records=_renumber(merged), source=dataset.source + f"+interfere{ratio:g}")

    raise ValueError(f"unknown noise kind {kind!r}")
