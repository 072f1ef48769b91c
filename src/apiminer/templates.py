"""Structural template mining over normalized request paths.

A fixed-depth split on the leading path segments groups requests whose
paths differ only at variable-looking positions (ids, UUIDs, hashes) into a
single wildcard template per (method, depth).  Near-miss spellings are
resolved by count: at each node a spelling within edit distance 1 of one
that occurs at least twice as often joins that spelling's child, so
single-character token corruption does not shatter an endpoint, and two
frequent words one edit apart stay two endpoints.  A level with more than
MAX_CHILDREN resolved tokens keeps children for the most frequent ones.
Mining reads counts and spellings, never line order.

Within a leaf a request joins a template when it matches SIM_THRESHOLD of
its positions, and the TREE_DEPTH routed positions always count as matches.
So a leaf of depth at most TREE_DEPTH / SIM_THRESHOLD (2 x TREE_DEPTH) is
one template, made in one pass over its members.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

from .normalize import NormalizedRequest

# levels of the prefix tree a request is routed through
TREE_DEPTH = 4
# share of positions that must match for a request to join a leaf's template
SIM_THRESHOLD = 0.5
# children per tree node; the tokens of a level past its MAX_CHILDREN most
# frequent go down its wildcard branch
MAX_CHILDREN = 64

_UUID_RE = re.compile(
    r"^[0-9a-f]{8}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{12}$",
    re.IGNORECASE,
)
_HEX_RE = re.compile(r"^[0-9a-f]+$", re.IGNORECASE)
_DIGIT_RUN_RE = re.compile(r"\d+")
_PUNCT_STRIP_RE = re.compile(r"[^0-9a-zA-Z]")


# Fixed tokens recur every few records while ids rarely repeat, so a few
# hundred entries hold the tokens without keeping many ids alive.
_SEGMENT_CACHE_SIZE = 256


@lru_cache(maxsize=_SEGMENT_CACHE_SIZE)
def is_variable_segment(segment: str) -> bool:
    """True if the segment looks like a dynamic identifier, not a fixed token."""
    if segment.isdigit():
        return True
    if _UUID_RE.match(segment):
        return True
    if len(segment) >= 8 and _HEX_RE.match(segment):
        return True
    if len(segment) >= 16:
        digits = sum(c.isdigit() for c in segment)
        if digits / len(segment) >= 0.3:
            return True
    if len(_DIGIT_RUN_RE.findall(segment)) >= 3:
        return True
    return False


@lru_cache(maxsize=_SEGMENT_CACHE_SIZE)
def _looks_variable_loosely(segment: str) -> bool:
    """Variable check tolerant of injected punctuation (e.g. '12.3', '123_')."""
    if is_variable_segment(segment):
        return True
    stripped = _PUNCT_STRIP_RE.sub("", segment)
    return bool(stripped) and is_variable_segment(stripped)


def _edit_distance_at_most_one(a: str, b: str) -> bool:
    if a == b:
        return True
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la > lb:
        a, b, la, lb = b, a, lb, la
    # a is the shorter (or equal length) string
    i = j = 0
    edited = False
    while i < la and j < lb:
        if a[i] == b[j]:
            i += 1
            j += 1
            continue
        if edited:
            return False
        edited = True
        if la == lb:
            i += 1
        j += 1
    return True


def _near_match(a: str, b: str) -> bool:
    if min(len(a), len(b)) < 3:
        return False
    return _edit_distance_at_most_one(a, b)


@dataclass(frozen=True)
class PathTemplate:
    method: str
    pattern: tuple[str | None, ...]  # None == wildcard

    def render(self) -> str:
        if not self.pattern:
            return "/"
        return "/" + "/".join("{*}" if t is None else t for t in self.pattern)


@dataclass
class TemplateGroup:
    template: PathTemplate
    members: list[NormalizedRequest] = field(default_factory=list)

    @property
    def member_ids(self) -> list[int]:
        return [nr.record.id for nr in self.members]


# the provenance of a cluster that is its template group, unrefined
PASSTHROUGH = "Passthrough"


@dataclass
class EndpointCluster:
    template: PathTemplate
    member_ids: list[int] = field(default_factory=list)
    representative_paths: list[str] = field(default_factory=list)
    provenance: str = PASSTHROUGH


def _match_ratio(pattern: list, segments: list[str]) -> float:
    if not pattern:
        return 1.0
    # routing has already resolved the leading positions, so they count as hits
    routed = min(TREE_DEPTH, len(segments))
    hits = routed
    for token, segment in zip(pattern[routed:], segments[routed:]):
        if token is None or token == segment or _near_match(token, segment):
            hits += 1
    return hits / len(pattern)


def _resolve(counts: dict[str, int]) -> dict[str, str]:
    """Map each spelling to the spelling whose child it joins.

    A spelling joins the most frequent of the MAX_CHILDREN most frequent
    spellings that is within one edit of it and occurs at least twice as
    often, ties broken by spelling; otherwise it keeps its own child.
    """
    top = sorted(counts, key=lambda s: (-counts[s], s))[:MAX_CHILDREN]
    return {
        s: next((t for t in top if counts[t] >= 2 * n and _near_match(s, t)), s)
        for s, n in counts.items()
    }


def _split(members: list[NormalizedRequest], level: int = 0):
    """Route members through one tree level; yield the member list of each leaf.

    Children are kept for the MAX_CHILDREN resolved tokens with the highest
    total count, ties by spelling; the rest of the level goes down the
    wildcard branch with the variable spellings.  Each leaf lists its
    members in arrival order.  A level that sends them all down one branch
    hands ``members`` itself to the next level.
    """
    if level == min(TREE_DEPTH, len(members[0].segments)):
        yield members
        return
    column = [nr.segments[level] for nr in members]
    counts = Counter(column)
    # an all-digit spelling is variable (is_variable_segment's first rule)
    fixed = {s: n for s, n in counts.items() if not (s.isdigit() or _looks_variable_loosely(s))}
    resolved = _resolve(fixed)
    if len(resolved) > MAX_CHILDREN:
        totals = Counter()
        for spelling, token in resolved.items():
            totals[token] += counts[spelling]
        kept = set(sorted(totals, key=lambda t: (-totals[t], t))[:MAX_CHILDREN])
        resolved = {s: t for s, t in resolved.items() if t in kept}
    if not resolved or (len(resolved) == len(counts) and len(set(resolved.values())) == 1):
        yield from _split(members, level + 1)
        return
    children: dict[str, list[NormalizedRequest]] = {}
    wildcard: list[NormalizedRequest] = []
    for nr, spelling in zip(members, column):
        token = resolved.get(spelling)
        if token is None:
            wildcard.append(nr)
        else:
            children.setdefault(token, []).append(nr)
    for child in (*children.values(), wildcard):
        if child:
            yield from _split(child, level + 1)


def mine(requests: list[NormalizedRequest]) -> list[TemplateGroup]:
    """Group requests into wildcard path templates.

    Requests are partitioned by (method, depth) and split on their leading
    segments, near-miss spellings resolved by count (``_resolve``).  Within
    a leaf a request joins the best-matching template (position-match ratio
    >= SIM_THRESHOLD) or starts a new one.  Positions that disagree across
    members become wildcards.  The groups do not depend on the order of
    ``requests``; each lists its members in that order.
    """
    partitions: dict[tuple[str, int], list[NormalizedRequest]] = {}
    for nr in requests:
        partitions.setdefault((nr.record.method, len(nr.segments)), []).append(nr)

    groups: list[TemplateGroup] = []
    for (method, _), members in partitions.items():
        for leaf in _split(members):
            for pattern, template_members in _leaf_templates(leaf):
                template = PathTemplate(method=method, pattern=tuple(pattern))
                groups.append(TemplateGroup(template, template_members))
    groups.sort(key=lambda g: (g.template.method, g.template.render(), min(g.member_ids)))
    return groups


def _leaf_templates(members: list[NormalizedRequest]) -> list[tuple[list, list]]:
    """The (pattern, members) templates of one leaf.

    Members join in the order of their segments, not of their arrival; each
    template lists its members in arrival order.  A pattern keeps a
    position's spelling when every member of the template spells it so and
    ``is_variable_segment`` rejects it, else holds a wildcard there.
    """
    depth = len(members[0].segments)
    if min(TREE_DEPTH, depth) >= SIM_THRESHOLD * depth:
        # the routed positions count as hits, so every match ratio reaches
        # the threshold and every member joins the first template
        pattern = [
            None if column.count(column[0]) < len(column) or is_variable_segment(column[0])
            else column[0]
            for column in zip(*(nr.segments for nr in members))
        ]
        return [(pattern, members)]
    templates: list[tuple[list, list[int]]] = []
    for i, nr in sorted(enumerate(members), key=lambda item: item[1].segments):
        segments = nr.segments
        best, best_ratio = None, -1.0
        for entry in templates:
            ratio = _match_ratio(entry[0], segments)
            if ratio > best_ratio:  # the earliest-created template wins ties
                best, best_ratio = entry, ratio
        if best is None or best_ratio < SIM_THRESHOLD:
            best = ([None if is_variable_segment(s) else s for s in segments], [])
            templates.append(best)
        pattern = best[0]
        for j, segment in enumerate(segments):
            if pattern[j] != segment:
                pattern[j] = None
        best[1].append(i)
    return [(pattern, [members[i] for i in sorted(joined)]) for pattern, joined in templates]
