"""Noise laboratory: lexical perturbation and interference-injection rules."""

from __future__ import annotations

from collections.abc import Callable, Sequence
from functools import lru_cache
from typing import NamedTuple
from urllib.parse import urlsplit, uses_netloc

import numpy as np

from .normalize import malformed_url, path_start
from .records import Dataset, HttpRecord, _new_tuple

LEXIFY = "Lexify"
INTERFERE = "Interfere"


class SplitUrl:
    """A URL cut into the five parts ``urlsplit`` gives, and the pieces every
    Lexify rule reads: the query's non-empty ``&`` pairs, the path's non-empty
    segments, and whether the path ends in a slash after a segment.

    A URL that ``split_url`` cuts by hand (``normalize.path_start``) is cut
    here the same way, at its first '#' and '?' and where its path begins, so
    the noise lab and ``discover`` read the same path; every other URL goes
    through ``urlsplit``, and its ``ValueError`` with it.
    """

    __slots__ = ("parts", "pairs", "segments", "trailing")

    def __init__(self, url: str):
        start = path_start(url)
        if start is None:
            self.parts = tuple(urlsplit(url))
        else:
            # an empty origin for a relative path: no scheme, no netloc
            scheme, _, netloc = url[:start].partition("://")
            rest, _, fragment = url[start:].partition("#")
            path, _, query = rest.partition("?")
            self.parts = (scheme, netloc, path, query, fragment)
        path, query = self.parts[2:4]
        self.pairs = [p for p in query.split("&") if p]
        self.segments = [s for s in path.split("/") if s]
        self.trailing = path.endswith("/") and len(self.segments) > 0

    def rebuild(self, path: str | None = None, query: str | None = None) -> str:
        """The URL with ``path`` and ``query`` in place of its own, joined as
        ``urlunsplit`` joins it on CPython 3.10 and 3.11, but with '//' and
        the netloc whenever the netloc is non-empty or the scheme is in
        ``uses_netloc``, as on 3.12+: 'http:///a' keeps its empty authority
        when its path comes to start with '//', which would read as a host.
        """
        scheme, netloc, old_path, old_query, fragment = self.parts
        url = old_path if path is None else path
        query = old_query if query is None else query
        if netloc or (scheme and scheme in uses_netloc):
            if url and url[:1] != "/":
                url = "/" + url
            url = "//" + netloc + url
        if scheme:
            url = scheme + ":" + url
        if query:
            url += "?" + query
        if fragment:
            url += "#" + fragment
        return url


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


# raw words a decoder draws from its generator at a time
DRAW_CHUNK = 256


class _Draws:
    """The values numpy's scalar ``rng.integers(n)`` and ``rng.permutation(n)``
    calls would give, decoded from the generator's raw 32-bit words, which
    are drawn ``DRAW_CHUNK`` at a time.

    numpy bounds a draw below ``n < 2**32`` by Lemire's method on the
    generator's 32-bit stream (``buffered_bounded_lemire_uint32``), and
    shuffles by Fisher-Yates with masked rejection on the same stream
    (``random_interval``), so a batch of words yields the same values as
    the scalar calls, at a fraction of their cost.  ``sync`` then leaves
    the generator where those calls would have.
    """

    __slots__ = ("_rng", "_state", "_words", "_next", "_spent")

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._state = rng.bit_generator.state
        # the current chunk, the index of its next word, and the words of
        # the chunks before it
        self._words: list[int] = []
        self._next = 0
        self._spent = 0

    def word(self) -> int:
        """The generator's next raw 32-bit word."""
        i = self._next
        if i == len(self._words):
            self._spent += i
            self._words = self._rng.integers(0, 1 << 32, size=DRAW_CHUNK, dtype=np.uint64).tolist()
            i = 0
        self._next = i + 1
        return self._words[i]

    def below(self, n: int) -> int:
        """What ``rng.integers(n)`` gives, for 1 <= n < 2**32."""
        if n == 1:
            return 0
        while True:
            m = self.word() * n
            low = m & 0xFFFFFFFF
            # numpy rejects a low half below (2**32 - n) % n, which is below n
            if low >= n or low >= (0x100000000 - n) % n:
                return m >> 32

    def order(self, n: int) -> list[int]:
        """What ``rng.permutation(n)`` gives, as a list."""
        items = list(range(n))
        for i in range(n - 1, 0, -1):
            # the smallest mask of low bits that covers i
            mask = (1 << i.bit_length()) - 1
            j = self.word() & mask
            while j > i:
                j = self.word() & mask
            items[i], items[j] = items[j], items[i]
        return items

    def sync(self) -> None:
        """Leave the generator as the scalar calls would have: its state
        when the decoder began, advanced by the words the draws used.  The
        decoder draws nothing after it."""
        rng = self._rng
        rng.bit_generator.state = self._state
        used = self._spent + self._next
        if used:
            rng.integers(0, 1 << 32, size=used, dtype=np.uint64)


def _pick(targets: Sequence, draws: _Draws):
    return targets[draws.below(len(targets))]


def _shuffle_query(url: SplitUrl, _targets, draws: _Draws) -> str:
    pairs = url.pairs
    order = draws.order(len(pairs))
    if order == sorted(order):
        order = order[::-1]
    return url.rebuild(query="&".join(pairs[i] for i in order))


def _append_neutral(url: SplitUrl, _targets, _draws) -> str:
    return url.rebuild(query="&".join([*url.pairs, "tmp=0"]))


def _duplicate_pair(url: SplitUrl, positions: Sequence[int], draws: _Draws) -> str:
    return url.rebuild(query="&".join([*url.pairs, url.pairs[_pick(positions, draws)]]))


def _edit_segment(edit: Callable[[str, _Draws], str]):
    """Mutation that rewrites one drawn segment position with ``edit``."""

    def mutate(url: SplitUrl, positions: Sequence[int], draws: _Draws) -> str:
        segments = list(url.segments)
        pos = _pick(positions, draws)
        segments[pos] = edit(segments[pos], draws)
        return url.rebuild(path=_join(segments, url.trailing))

    return mutate


def _edit_value(edit: Callable[[str], str]):
    """Mutation that rewrites the value of one drawn query pair with ``edit``."""

    def mutate(url: SplitUrl, positions: Sequence[int], draws: _Draws) -> str:
        pairs = list(url.pairs)
        pos = _pick(positions, draws)
        key, _, value = pairs[pos].partition("=")
        pairs[pos] = key + "=" + edit(value)
        return url.rebuild(query="&".join(pairs))

    return mutate


def _set_trailing(trailing: bool):
    def mutate(url: SplitUrl, _targets, _draws) -> str:
        return url.rebuild(path=_join(url.segments, trailing))

    return mutate


def _inject_dot(segment: str, draws: _Draws) -> str:
    cut = 1 + draws.below(len(segment) - 1)
    return segment[:cut] + "." + segment[cut:]


def _value(pair: str) -> str:
    # a pair with no "=" has no value
    return pair.partition("=")[2]


class _Rule(NamedTuple):
    # what ``holds`` is asked of: "url" (the whole SplitUrl), or each of its
    # "segments" or "pairs"
    on: str
    holds: Callable[..., bool]
    # (url, targets, draws) -> the new URL, with the rule's own draws
    mutate: Callable[[SplitUrl, Sequence[int], _Draws], str]


# Each Lexify rule with its one condition.  A rule on segments or pairs
# applies where the condition holds for any of them, and the positions where
# it holds are its targets; a rule on the whole URL has none.
_LEXIFY: dict[str, _Rule] = {
    "Query Order Shuffle": _Rule("url", lambda u: len(u.pairs) >= 2, _shuffle_query),
    "Neutral Query Parameter": _Rule("url", lambda u: True, _append_neutral),
    "Duplicate Query Key": _Rule("pairs", lambda p: True, _duplicate_pair),
    "Underscore Injection": _Rule(
        "segments", lambda s: len(s) >= 3, _edit_segment(lambda s, _draws: s + "_")
    ),
    "Hyphen Duplication": _Rule(
        "segments", lambda s: "-" in s, _edit_segment(lambda s, _draws: s.replace("-", "--", 1))
    ),
    "Dot Injection": _Rule(
        "segments", lambda s: len(s) >= 4 and "." not in s, _edit_segment(_inject_dot)
    ),
    # doubles the slash that precedes the drawn segment
    "Repeated Slash": _Rule("segments", lambda s: True, _edit_segment(lambda s, _draws: "/" + s)),
    "Trailing Slash Addition": _Rule(
        "url", lambda u: bool(u.segments) and not u.trailing, _set_trailing(True)
    ),
    "Trailing Slash Removal": _Rule("url", lambda u: u.trailing, _set_trailing(False)),
    "Uppercase Token": _Rule(
        "segments", lambda s: s != s.upper(), _edit_segment(lambda s, _draws: s.upper())
    ),
    "Lowercase Token": _Rule(
        "segments", lambda s: s != s.lower(), _edit_segment(lambda s, _draws: s.lower())
    ),
    "Space Encoding": _Rule(
        "pairs", lambda p: " " in _value(p), _edit_value(lambda v: v.replace(" ", "%20"))
    ),
    "Plus Encoding": _Rule(
        "pairs", lambda p: " " in _value(p), _edit_value(lambda v: v.replace(" ", "+"))
    ),
    # str.isalnum is False for an empty value; the value's UTF-8 bytes are
    # escaped, so it decodes back to itself
    "Hex Encoding": _Rule(
        "pairs",
        lambda p: _value(p).isalnum(),
        _edit_value(lambda v: "".join(f"%{b:02x}" for b in v.encode())),
    ),
}
LEXIFY_RULES = tuple(_LEXIFY)


def _rule_bits(on: str):
    """A cached function from one item (a path segment or query pair) to
    the bits of the ``on`` rules whose condition holds for it, rule i in
    ``LEXIFY_RULES`` order at bit i."""
    rules = [(1 << i, holds) for i, (kind, holds, _) in enumerate(_LEXIFY.values()) if kind == on]

    @lru_cache(maxsize=4096)
    def bits(item: str) -> int:
        mask = 0
        for bit, holds in rules:
            if holds(item):
                mask |= bit
        return mask

    return bits


_segment_bits = _rule_bits("segments")
_pair_bits = _rule_bits("pairs")
_URL_RULES = tuple(
    (1 << i, holds) for i, (on, holds, _) in enumerate(_LEXIFY.values()) if on == "url"
)


@lru_cache(maxsize=1 << len(_LEXIFY))
def _rule_names(mask: int) -> tuple[str, ...]:
    return tuple(name for i, name in enumerate(_LEXIFY) if mask >> i & 1)


def applicable_rules(url: SplitUrl) -> tuple[str, ...]:
    """The names of the Lexify rules that apply to ``url``, in
    ``LEXIFY_RULES`` order: the rule bits of each of its segments and
    pairs, computed once per distinct one, and of the whole URL."""
    mask = 0
    for bits in map(_segment_bits, url.segments):
        mask |= bits
    for bits in map(_pair_bits, url.pairs):
        mask |= bits
    for bit, holds in _URL_RULES:
        if holds(url):
            mask |= bit
    return _rule_names(mask)


def _apply(rule: _Rule, url: SplitUrl, draws: _Draws) -> str:
    """The URL ``rule`` makes of ``url``, which it applies to."""
    on, holds, mutate = rule
    targets = () if on == "url" else [i for i, item in enumerate(getattr(url, on)) if holds(item)]
    return mutate(url, targets, draws)


def _record(record: HttpRecord, rid: int, url: str) -> HttpRecord:
    """``record`` with the given id and URL, every other field shared.

    A record's fields already passed the constructor's checks, which would
    return them unchanged, so the tuple is built directly.
    """
    _, method, _, headers, content_type, body_size, fields, depth, label = record
    return _new_tuple(
        HttpRecord, (rid, method, url, headers, content_type, body_size, fields, depth, label)
    )


def lexify(record: HttpRecord, name: str, rng: np.random.Generator) -> tuple[HttpRecord, bool]:
    """Apply the Lexify rule ``name``; returns (record, applied).

    Inapplicable rules return the record unchanged with applied=False.  The
    ground-truth label is always preserved.
    """
    if name not in LEXIFY_RULES:
        raise ValueError(f"unknown Lexify rule {name!r}")
    url = _split(record)
    if name not in applicable_rules(url):
        return record, False
    draws = _Draws(rng)
    new_url = _apply(_LEXIFY[name], url, draws)
    draws.sync()
    return _record(record, record.id, new_url), True


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

# ``inject`` draws a category by its index in this order
INTERFERE_CATEGORIES = tuple(_INTERFERE_FAMILIES)


def _draw_interference(category: str, draws: _Draws) -> tuple[str, str, str | None]:
    """(method, url, content type) of one request drawn from a category family."""
    method, path, content_type = _INTERFERE_FAMILIES[category][draws.below(2)]
    if "{stem}" in path:
        stem = _ASSET_STEMS[draws.below(len(_ASSET_STEMS))]
        path = path.replace("{stem}", stem)
    return method, path, content_type


# one header tuple per family content type, which its records share
_FAMILY_HEADERS = {
    content_type: (("Content-Type", content_type),) if content_type else ()
    for family in _INTERFERE_FAMILIES.values()
    for _, _, content_type in family
}


def _interference_record(record_id: int, method: str, url: str, content_type: str | None) -> HttpRecord:
    # an upper-case method, a header tuple and an empty body, as
    # HttpRecord's checks hold them
    return _new_tuple(HttpRecord, (
        record_id, method, url, _FAMILY_HEADERS[content_type], content_type, 0, None, None, None
    ))


def interfere_sample(name: str, rng: np.random.Generator, record_id: int = 0) -> HttpRecord:
    """Draw one fresh, unlabeled interference record from the family of
    category ``name``, built by ``HttpRecord``'s checked constructor."""
    if name not in INTERFERE_CATEGORIES:
        raise ValueError(f"unknown Interfere category {name!r}")
    draws = _Draws(rng)
    method, url, content_type = _draw_interference(name, draws)
    draws.sync()
    return HttpRecord(record_id, method, url, _FAMILY_HEADERS[content_type], content_type)


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
    if kind not in (LEXIFY, INTERFERE):
        raise ValueError(f"unknown noise kind {kind!r}")
    n = len(dataset.records)
    count = int(round(ratio * n))
    rng = np.random.default_rng(seed)
    if count == 0:
        return dataset

    if kind == LEXIFY:
        # each record with its index as its id
        records = _renumber(dataset.records)
        chosen = sorted(rng.choice(n, size=count, replace=False).tolist())
        draws = _Draws(rng)
        for idx in chosen:
            record = records[idx]
            # one split answers which rules apply and feeds the drawn rule,
            # whose targets alone are listed
            url = _split(record)
            names = applicable_rules(url)
            if names:
                new_url = _apply(_LEXIFY[_pick(names, draws)], url, draws)
                records[idx] = _record(record, idx, new_url)
        return Dataset(records=records, source=dataset.source + f"+lexify{ratio:g}")

    # Interfere
    draws = _Draws(rng)
    drawn = [
        _draw_interference(INTERFERE_CATEGORIES[draws.below(len(INTERFERE_CATEGORIES))], draws)
        for _ in range(count)
    ]
    # the positions are one batch call, drawn from where the requests'
    # scalar draws would leave the generator
    draws.sync()
    positions = sorted(rng.integers(0, n + 1, size=count).tolist())
    # one pass, each record built once at its final id: the j-th extra
    # goes before the record at positions[j], or after the last record,
    # and a record follows the extras placed before it
    merged: list[HttpRecord] = []
    append = merged.append
    j = 0
    for idx in range(n + 1):
        while j < count and positions[j] == idx:
            append(_interference_record(idx + j, *drawn[j]))
            j += 1
        if idx < n:
            record = dataset.records[idx]
            rid = idx + j
            append(record if record.id == rid else _record(record, rid, record.url))
    return Dataset(records=merged, source=dataset.source + f"+interfere{ratio:g}")
