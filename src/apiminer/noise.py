"""Noise laboratory: lexical perturbation and interference-injection rules."""

from __future__ import annotations

from dataclasses import dataclass, replace
from urllib.parse import urlsplit, urlunsplit

import numpy as np

from .records import Dataset, HttpRecord

LEXIFY = "Lexify"
INTERFERE = "Interfere"

LEXIFY_RULES = (
    "Query Order Shuffle",
    "Neutral Query Parameter",
    "Duplicate Query Key",
    "Underscore Injection",
    "Hyphen Duplication",
    "Dot Injection",
    "Repeated Slash",
    "Trailing Slash Addition",
    "Trailing Slash Removal",
    "Uppercase Token",
    "Lowercase Token",
    "Space Encoding",
    "Plus Encoding",
    "Hex Encoding",
)

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


def _split(url: str):
    parts = urlsplit(url)
    return parts


def _rebuild(parts, path=None, query=None) -> str:
    return urlunsplit(
        (
            parts.scheme,
            parts.netloc,
            parts.path if path is None else path,
            parts.query if query is None else query,
            parts.fragment,
        )
    )


def _query_pairs(query: str) -> list[str]:
    return [p for p in query.split("&") if p] if query else []


def _segments(path: str) -> list[str]:
    return [s for s in path.split("/") if s]


def _join(segments: list[str], trailing: bool) -> str:
    path = "/" + "/".join(segments)
    if trailing and segments:
        path += "/"
    return path


def _mutable_positions(segments: list[str], min_len: int = 3) -> list[int]:
    return [i for i, s in enumerate(segments) if len(s) >= min_len]


def lexify(record: HttpRecord, rule: NoiseRule, rng: np.random.Generator) -> tuple[HttpRecord, bool]:
    """Apply one Lexify rule; returns (record, applied).

    Inapplicable rules return the record unchanged with applied=False.  The
    ground-truth label is always preserved.
    """
    if rule.kind != LEXIFY:
        raise ValueError("lexify requires a Lexify rule")
    parts = _split(record.url)
    pairs = _query_pairs(parts.query)
    segments = _segments(parts.path)
    trailing = parts.path.endswith("/") and len(segments) > 0
    name = rule.name

    if name == "Query Order Shuffle":
        if len(pairs) < 2:
            return record, False
        order = list(rng.permutation(len(pairs)))
        if order == sorted(order):
            order = order[::-1]
        new_query = "&".join(pairs[i] for i in order)
        return replace(record, url=_rebuild(parts, query=new_query)), True

    if name == "Neutral Query Parameter":
        new_query = "&".join(pairs + ["tmp=0"])
        return replace(record, url=_rebuild(parts, query=new_query)), True

    if name == "Duplicate Query Key":
        if not pairs:
            return record, False
        pick = pairs[int(rng.integers(len(pairs)))]
        return replace(record, url=_rebuild(parts, query="&".join(pairs + [pick]))), True

    if name == "Underscore Injection":
        positions = _mutable_positions(segments)
        if not positions:
            return record, False
        pos = positions[int(rng.integers(len(positions)))]
        segments[pos] = segments[pos] + "_"
        return replace(record, url=_rebuild(parts, path=_join(segments, trailing))), True

    if name == "Hyphen Duplication":
        positions = [i for i, s in enumerate(segments) if "-" in s]
        if not positions:
            return record, False
        pos = positions[int(rng.integers(len(positions)))]
        segments[pos] = segments[pos].replace("-", "--", 1)
        return replace(record, url=_rebuild(parts, path=_join(segments, trailing))), True

    if name == "Dot Injection":
        positions = [i for i, s in enumerate(segments) if len(s) >= 4 and "." not in s]
        if not positions:
            return record, False
        pos = positions[int(rng.integers(len(positions)))]
        seg = segments[pos]
        cut = 1 + int(rng.integers(len(seg) - 1))
        segments[pos] = seg[:cut] + "." + seg[cut:]
        return replace(record, url=_rebuild(parts, path=_join(segments, trailing))), True

    if name == "Repeated Slash":
        if not segments:
            return record, False
        pos = int(rng.integers(len(segments)))
        path = _join(segments, trailing)
        # double the slash that precedes the chosen segment
        idx = 0
        for _ in range(pos + 1):
            idx = path.index("/", idx) + 1
        path = path[: idx - 1] + "/" + path[idx - 1 :]
        return replace(record, url=_rebuild(parts, path=path)), True

    if name == "Trailing Slash Addition":
        if trailing or not segments:
            return record, False
        return replace(record, url=_rebuild(parts, path=_join(segments, True))), True

    if name == "Trailing Slash Removal":
        if not trailing:
            return record, False
        return replace(record, url=_rebuild(parts, path=_join(segments, False))), True

    if name == "Uppercase Token":
        positions = [i for i, s in enumerate(segments) if s != s.upper()]
        if not positions:
            return record, False
        pos = positions[int(rng.integers(len(positions)))]
        segments[pos] = segments[pos].upper()
        return replace(record, url=_rebuild(parts, path=_join(segments, trailing))), True

    if name == "Lowercase Token":
        positions = [i for i, s in enumerate(segments) if s != s.lower()]
        if not positions:
            return record, False
        pos = positions[int(rng.integers(len(positions)))]
        segments[pos] = segments[pos].lower()
        return replace(record, url=_rebuild(parts, path=_join(segments, trailing))), True

    if name in ("Space Encoding", "Plus Encoding"):
        target = [i for i, p in enumerate(pairs) if " " in p.split("=", 1)[-1]]
        if not target:
            return record, False
        pos = target[int(rng.integers(len(target)))]
        key, _, value = pairs[pos].partition("=")
        repl = "%20" if name == "Space Encoding" else "+"
        pairs[pos] = key + "=" + value.replace(" ", repl)
        return replace(record, url=_rebuild(parts, query="&".join(pairs))), True

    if name == "Hex Encoding":
        target = [
            i
            for i, p in enumerate(pairs)
            if "=" in p and p.split("=", 1)[1] and all(c.isalnum() for c in p.split("=", 1)[1])
        ]
        if not target:
            return record, False
        pos = target[int(rng.integers(len(target)))]
        key, _, value = pairs[pos].partition("=")
        pairs[pos] = key + "=" + "".join(f"%{ord(c):02x}" for c in value)
        return replace(record, url=_rebuild(parts, query="&".join(pairs))), True

    raise AssertionError(f"unhandled rule {name}")


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


def interfere_sample(category: NoiseRule, rng: np.random.Generator, record_id: int = 0) -> HttpRecord:
    """Draw one fresh, unlabeled interference record from a category family."""
    if category.kind != INTERFERE:
        raise ValueError("interfere_sample requires an Interfere category")
    method, path, content_type = _INTERFERE_FAMILIES[category.name][
        int(rng.integers(2))
    ]
    if "{stem}" in path:
        stem = _ASSET_STEMS[int(rng.integers(len(_ASSET_STEMS)))]
        path = path.replace("{stem}", stem)
    return HttpRecord(
        id=record_id,
        method=method,
        url=path,
        headers=[("Content-Type", content_type)] if content_type else [],
        content_type=content_type,
        body_size=0,
    )


def _renumber(records: list[HttpRecord]) -> tuple[list[HttpRecord], dict[int, str]]:
    out = []
    truth = {}
    for new_id, record in enumerate(records):
        rec = replace(record, id=new_id)
        out.append(rec)
        if rec.label is not None:
            truth[new_id] = rec.label
    return out, truth


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
        chosen = sorted(rng.choice(n, size=count, replace=False).tolist())
        by_index = {idx: True for idx in chosen}
        rules = [NoiseRule(name, LEXIFY) for name in LEXIFY_RULES]
        # whether a rule applies never depends on the generator, so one probe
        # generator serves every applicability check
        probe = np.random.default_rng(0)
        new_records = []
        for idx, record in enumerate(dataset.records):
            if idx not in by_index:
                new_records.append(record)
                continue
            applicable = [rule for rule in rules if lexify(record, rule, probe)[1]]
            if not applicable:
                new_records.append(record)
                continue
            rule = applicable[int(rng.integers(len(applicable)))]
            mutated, _ = lexify(record, rule, rng)
            new_records.append(mutated)
        records, truth = _renumber(new_records)
        return Dataset(records=records, source=dataset.source + f"+lexify{ratio:g}", ground_truth=truth)

    if kind == INTERFERE:
        extras = []
        for _ in range(count):
            category = NoiseRule(INTERFERE_CATEGORIES[int(rng.integers(len(INTERFERE_CATEGORIES)))], INTERFERE)
            extras.append(interfere_sample(category, rng))
        positions = sorted(rng.integers(0, n + 1, size=count).tolist())
        merged: list[HttpRecord] = []
        extra_iter = iter(range(count))
        pos_idx = 0
        for idx, record in enumerate(dataset.records):
            while pos_idx < count and positions[pos_idx] == idx:
                merged.append(extras[pos_idx])
                pos_idx += 1
            merged.append(record)
        merged.extend(extras[pos_idx:])
        records, truth = _renumber(merged)
        return Dataset(records=records, source=dataset.source + f"+interfere{ratio:g}", ground_truth=truth)

    raise ValueError(f"unknown noise kind {kind!r}")
