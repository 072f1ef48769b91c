"""Canonical request-path normalization.

Strips scheme/host/query/fragment, collapses slash noise, folds case, and
decodes unreserved percent escapes so superficially different URLs of the
same interface compare equal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from urllib.parse import urlsplit

from .records import HttpRecord, IngestError

_UNRESERVED = set(
    "abcdefghijklmnopqrstuvwxyz"
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    "0123456789-._~"
)


@dataclass(slots=True)
class NormalizedRequest:
    record: HttpRecord
    segments: list[str]
    raw_query_keys: tuple[str, ...] = ()


_ESCAPE = re.compile(r"%([0-9A-Fa-f]{2})")


def _decode_unreserved(path: str) -> str:
    """Decode %XX escapes (two ASCII hex digits, per RFC 3986) only when they
    encode an unreserved ASCII char.

    Reserved escapes (e.g. %2F) are preserved so decoding can never create
    a new segment boundary.
    """
    if "%" not in path:
        return path
    return _ESCAPE.sub(lambda m: c if (c := chr(int(m[1], 16))) in _UNRESERVED else m[0], path)


def _query_keys(query: str, share) -> tuple[str, ...]:
    """Parameter names in order, duplicates kept, each through ``share``;
    no query gives the one empty tuple."""
    if not query:
        return ()
    keys = [pair.split("=", 1)[0] for pair in query.split("&") if pair]
    return tuple([share(key, key) for key in keys])


# An http(s) scheme and a host that urlsplit passes through unchecked:
# ASCII, no IPv6 brackets, ended by the path, query, fragment or the URL's end.
_PLAIN_ORIGIN = re.compile(r"https?://[^/?#\[\]\x80-\U0010ffff]*(?![^/?#])")


# a '://' before the query and the fragment
_AUTHORITY = re.compile(r"[^?#]*://")


def path_start(url: str) -> int | None:
    """Where the path begins in a URL that ``split_url`` cuts by hand at its
    first '#' and '?', else None.

    Those are a schemeless '//…' URL with no '://' before its first '?' or
    '#', whose leading slashes are slash noise on a relative path rather
    than a network-path reference with an authority component, and, without
    the tab, CR and LF that ``urlsplit`` deletes, a relative path and an
    ``_PLAIN_ORIGIN`` URL: ``urlsplit`` strips, removes and checks nothing
    else in them.
    """
    if url[:2] == "//":
        return None if _AUTHORITY.match(url) else 0
    if "\t" in url or "\r" in url or "\n" in url:
        return None
    if url[:1] == "/":
        return 0
    origin = _PLAIN_ORIGIN.match(url)
    return origin.end() if origin else None


def malformed_url(record: HttpRecord, exc: ValueError) -> IngestError:
    """The error for a record whose URL ``urlsplit`` rejects with ``exc``."""
    return IngestError(f"record {record.id}: malformed url {record.url!r}: {exc}")


def split_url(record: HttpRecord) -> tuple[str, str]:
    """The (path, query) of a record's URL, the one split the filter and
    ``normalize`` both read.

    Plain relative and http(s) URLs are split here, with the result
    ``urlsplit`` gives; every other URL goes through ``urlsplit``.
    """
    url = record.url
    start = path_start(url)
    if start is not None:
        path, _, query = url[start:].partition("#")[0].partition("?")
        return path, query
    try:
        parts = urlsplit(url)
    except ValueError as exc:
        raise malformed_url(record, exc) from None
    return parts.path, parts.query


def normalize(
    record: HttpRecord,
    split: tuple[str, str] | None = None,
    shared: dict[str, str] | None = None,
) -> NormalizedRequest:
    """Canonicalize a record's URL into path segments and query keys.

    ``split`` is the record's ``split_url``, when the caller has made it.
    ``shared`` maps each path segment and query key met so far to the one
    object that stands for it, when the caller shares them across records.
    """
    path, query = split if split is not None else split_url(record)
    share = (shared if shared is not None else {}).setdefault
    # lower-casing the whole path is lower-casing each segment: '/' neither
    # changes case nor ends a final sigma's context
    segments = [share(seg, seg) for seg in _decode_unreserved(path).lower().split("/") if seg]
    return NormalizedRequest(record, segments, _query_keys(query, share))


# a query key that takes one value across a capture, at this many (method,
# depth, first two segments) sites or more, tells no endpoint from another
# (DUST: Bar-Yossef, Keidar & Schonfeld, WWW 2007)
NEUTRAL_KEY_SITES = 3


class QueryKeyCensus:
    """For each query key of a capture: whether it has taken one value so
    far, and up to ``NEUTRAL_KEY_SITES`` of the sites it appears at."""

    def __init__(self) -> None:
        # key -> its one ``key=value`` pair so far; None once a second differs
        self._pair: dict[str, str | None] = {}
        self._sites: dict[str, set[tuple]] = {}

    def count(self, nr: NormalizedRequest, query: str) -> None:
        """Count the query of a request ``normalize`` made from ``query``."""
        site = (nr.record.method, len(nr.segments), *nr.segments[:2])
        # raw_query_keys holds the key of each non-empty pair, in order
        for key, pair in zip(nr.raw_query_keys, filter(None, query.split("&"))):
            seen = self._pair.setdefault(key, pair)
            if seen is None:
                continue
            if seen != pair:
                self._pair[key] = None
                continue
            sites = self._sites.setdefault(key, set())
            if len(sites) < NEUTRAL_KEY_SITES:
                sites.add(site)

    def drop_neutral(self, normalized: list[NormalizedRequest]) -> None:
        """Drop the keys neutral over everything counted from each request's
        ``raw_query_keys``."""
        neutral = {
            key for key, pair in self._pair.items()
            if pair is not None and len(self._sites[key]) >= NEUTRAL_KEY_SITES
        }
        if not neutral:
            return
        for nr in normalized:
            keys = nr.raw_query_keys
            if keys and not neutral.isdisjoint(keys):
                nr.raw_query_keys = tuple([key for key in keys if key not in neutral])


def canonical_path(nr: NormalizedRequest) -> str:
    if not nr.segments:
        return "/"
    return "/" + "/".join(nr.segments)
