"""Structural template mining over normalized request paths.

A fixed-depth prefix tree groups requests whose paths differ only at
variable-looking positions (ids, UUIDs, hashes) into a single wildcard
template per (method, depth).  Child lookup is typo-tolerant: a segment
within edit distance 1 of an existing child token follows that child, so
single-character token corruption does not shatter an endpoint.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache

from .normalize import NormalizedRequest

# levels of the prefix tree a request is routed through
TREE_DEPTH = 4
# share of positions that must match for a request to join a leaf's template
SIM_THRESHOLD = 0.5
# children per tree node before that level collapses to its wildcard branch
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


class _Leaf:
    __slots__ = ("templates",)

    def __init__(self):
        # each entry: [pattern list, member NormalizedRequests]
        self.templates: list[list] = []


class _Node:
    __slots__ = ("children", "aliases", "wildcard_child", "collapsed")

    # spelling variants recorded per child key; bounds alias-chain growth
    MAX_ALIASES = 8

    def __init__(self):
        self.children: dict[str, _Node | _Leaf] = {}
        # child key -> distinct segment spellings routed into that child;
        # near-matching against recorded spellings keeps single-character
        # corruptions of one token together even when the first spelling
        # seen was itself corrupted
        self.aliases: dict[str, list[str]] = {}
        self.wildcard_child: _Node | _Leaf | None = None
        self.collapsed = False


def _match_ratio(pattern: list, segments: list[str]) -> float:
    if not pattern:
        return 1.0
    hits = 0
    for token, segment in zip(pattern, segments):
        if token is None or token == segment or _near_match(token, segment):
            hits += 1
    return hits / len(pattern)


def _route(root: _Node, segments: list[str]) -> _Leaf:
    levels = min(TREE_DEPTH, len(segments))
    node = root
    for i in range(levels):
        make = _Leaf if i == levels - 1 else _Node
        segment = segments[i]
        if node.collapsed or _looks_variable_loosely(segment):
            if node.wildcard_child is None:
                node.wildcard_child = make()
            node = node.wildcard_child
            continue
        child = node.children.get(segment)
        if child is None:
            for token, existing in node.children.items():
                spellings = [token] + node.aliases.get(token, [])
                if any(_near_match(segment, s) for s in spellings):
                    child = existing
                    alias_list = node.aliases.setdefault(token, [])
                    if segment not in alias_list and len(alias_list) < _Node.MAX_ALIASES:
                        alias_list.append(segment)
                    break
        if child is None:
            if len(node.children) >= MAX_CHILDREN:
                # branching cap reached: collapse this level to the wildcard branch
                node.collapsed = True
                if node.wildcard_child is None:
                    node.wildcard_child = make()
                node = node.wildcard_child
                continue
            child = make()
            node.children[segment] = child
        node = child
    if isinstance(node, _Node):  # depth 0 paths
        if node.wildcard_child is None:
            node.wildcard_child = _Leaf()
        return node.wildcard_child
    return node


def mine(requests: list[NormalizedRequest]) -> list[TemplateGroup]:
    """Group requests into wildcard path templates.

    Requests are partitioned by (method, depth), routed through a prefix
    tree on their leading segments, and joined to the best-matching leaf
    template (position-match ratio >= SIM_THRESHOLD) or start a new one.
    Positions that disagree across members become wildcards.
    """
    partitions: dict[tuple[str, int], list[NormalizedRequest]] = {}
    for nr in requests:
        partitions.setdefault((nr.record.method, len(nr.segments)), []).append(nr)

    groups: list[TemplateGroup] = []
    for (method, _), members in partitions.items():
        root = _Node()
        # the sort below orders the groups, so the leaves need no order
        leaves: set[_Leaf] = set()
        for nr in members:
            leaf = _route(root, nr.segments)
            leaves.add(leaf)
            _join_leaf(leaf, nr)
        for leaf in leaves:
            for pattern, leaf_members in leaf.templates:
                template = PathTemplate(method=method, pattern=tuple(pattern))
                groups.append(TemplateGroup(template, leaf_members))
    groups.sort(key=lambda g: (g.template.method, g.template.render(), min(g.member_ids)))
    return groups


def _join_leaf(leaf: _Leaf, nr: NormalizedRequest) -> None:
    best = None
    best_ratio = -1.0
    for entry in leaf.templates:
        ratio = _match_ratio(entry[0], nr.segments)
        if ratio > best_ratio:  # earliest-created wins ties
            best = entry
            best_ratio = ratio
    if best is not None and best_ratio >= SIM_THRESHOLD:
        pattern = best[0]
        for i, segment in enumerate(nr.segments):
            if pattern[i] is not None and pattern[i] != segment:
                pattern[i] = None
        best[1].append(nr)
        return
    pattern = [None if is_variable_segment(s) else s for s in nr.segments]
    leaf.templates.append([pattern, [nr]])
