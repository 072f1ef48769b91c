"""Structural template mining."""

import itertools
import random
import string
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from apiminer import templates
from apiminer.corpus import CorpusSpec, synth_corpus
from apiminer.noise import INTERFERE, LEXIFY, LEXIFY_RULES, inject, lexify
from apiminer.normalize import NormalizedRequest, normalize
from apiminer.records import Dataset, HttpRecord
from apiminer.refine import prepare_traffic
from apiminer.templates import (
    MAX_CHILDREN,
    is_variable_segment,
    SIM_THRESHOLD,
    TREE_DEPTH,
    mine,
    _edit_distance_at_most_one,
    _leaf_templates,
    _looks_variable_loosely,
    _match_ratio,
    _resolve,
)


def nr(url, method="GET", rid=0):
    return normalize(HttpRecord(id=rid, method=method, url=url))


def mine_urls(urls, method="GET"):
    requests = [nr(u, method=method, rid=i) for i, u in enumerate(urls)]
    return mine(requests)


def id_groups(groups):
    return {frozenset(g.member_ids) for g in groups}


# ids, hashes and fixed tokens, and their punctuated variants
SEGMENTS = st.text(max_size=24) | st.text(alphabet="0123456789abcdef-_.xyz", max_size=40)


class TestSegmentCache:
    @given(SEGMENTS)
    def test_cached_classifiers_match_uncached(self, segment):
        for classify in (is_variable_segment, _looks_variable_loosely):
            assert classify(segment) == classify.__wrapped__(segment)
            # asked again, the answer comes from the cache
            assert classify(segment) == classify.__wrapped__(segment)

    def test_cache_is_bounded(self):
        for classify in (is_variable_segment, _looks_variable_loosely):
            assert 0 < classify.cache_info().maxsize <= 1024


class TestVariableDetection:
    @pytest.mark.parametrize(
        "segment",
        [
            "42",
            "0",
            "550e8400-e29b-41d4-a716-446655440000",
            "deadbeef",
            "a1b2c3d4e5f6a7b8",
            "user1234abcd5678efgh",  # long with >= 30% digits
            "a1b2c3",  # three digit runs
        ],
    )
    def test_variable(self, segment):
        assert is_variable_segment(segment)

    @pytest.mark.parametrize(
        "segment", ["items", "v1x", "user-profile", "order", "cafe", "beef"]
    )
    def test_fixed(self, segment):
        assert not is_variable_segment(segment)


class TestEditDistanceHelper:
    def test_against_brute_force(self):
        def levenshtein(a, b):
            prev = list(range(len(b) + 1))
            for i, ca in enumerate(a, 1):
                cur = [i]
                for j, cb in enumerate(b, 1):
                    cur.append(
                        min(prev[j] + 1, cur[-1] + 1, prev[j - 1] + (ca != cb))
                    )
                prev = cur
            return prev[-1]

        words = ["order", "order_", "ordr", "odrer", "orders", "invoice", "or", ""]
        for a, b in itertools.product(words, repeat=2):
            assert _edit_distance_at_most_one(a, b) == (levenshtein(a, b) <= 1), (a, b)


class TestGoldenTemplates:
    PATHS = [
        "/api/v1/items/101",
        "/api/v1/items/102",
        "/api/v1/items/103",
        "/api/v1/order/101/status",
        "/api/v1/order/102/status",
        "/api/v1/order/103/status",
    ]

    def test_two_templates(self):
        groups = mine_urls(self.PATHS)
        rendered = sorted(g.template.render() for g in groups)
        assert rendered == ["/api/v1/items/{*}", "/api/v1/order/{*}/status"]

    def test_order_invariance_sample(self):
        for perm in itertools.islice(itertools.permutations(self.PATHS), 0, 720, 14):
            groups = mine_urls(list(perm))
            rendered = sorted(g.template.render() for g in groups)
            assert rendered == ["/api/v1/items/{*}", "/api/v1/order/{*}/status"]
        # two corruptions of "items", two edits apart from each other: both
        # join "items" whichever spelling arrives first
        paths = self.PATHS + ["/api/v1/item.s/104", "/api/v1/items_/105"]
        for perm in itertools.islice(itertools.permutations(paths), 0, 40320, 271):
            groups = mine_urls(list(perm))
            assert sorted(g.template.render() for g in groups) == [
                "/api/v1/order/{*}/status", "/api/v1/{*}/{*}",
            ]
            assert {frozenset(perm[i] for i in g.member_ids) for g in groups} == {
                frozenset(paths[:3] + paths[6:]), frozenset(paths[3:6]),
            }


class TestGrouping:
    def test_method_splits_before_routing(self):
        requests = [nr("/api/user", "GET", 0), nr("/api/user", "POST", 1)]
        groups = mine(requests)
        assert len(groups) == 2
        assert {g.template.method for g in groups} == {"GET", "POST"}

    def test_depth_splits(self):
        groups = mine_urls(["/api/user", "/api/user/42"])
        assert len(groups) == 2

    def test_routing_depth_keeps_shallow_fixed_tokens_apart(self):
        # every segment is a routing level here, so distinct fixed tokens
        # mean distinct leaves
        groups = mine_urls(["/api/items/fresh", "/api/items/stale"])
        assert len(groups) == 2

    def test_wildcard_on_position_past_routing_depth(self):
        groups = mine_urls(
            ["/api/v1/items/bulk/fresh", "/api/v1/items/bulk/stale"]
        )
        assert len(groups) == 1
        assert groups[0].template.render() == "/api/v1/items/bulk/{*}"

    def test_members_always_match_template(self):
        urls = [f"/api/v1/things/{i}" for i in range(5)] + ["/api/v1/other/name"]
        requests = [nr(u, rid=i) for i, u in enumerate(urls)]
        for g in mine(requests):
            for member in g.members:
                assert member.record.method == g.template.method
                assert len(member.segments) == len(g.template.pattern)
                for token, segment in zip(g.template.pattern, member.segments):
                    assert token is None or token == segment

    def test_single_character_token_corruption_groups_together(self):
        urls = ["/api/v1/orders/1", "/api/v1/orders/2", "/api/v1/orders_/3"]
        groups = mine_urls(urls)
        assert len(groups) == 1
        assert sorted(groups[0].member_ids) == [0, 1, 2]

    # letter-pair tokens such as "abab" differ from each other in two or more
    # places, so none is routed into another's child by a near match; they
    # sort by spelling in this order
    COLLAPSE_TOKENS = [
        "".join(pair) * 2
        for pair in itertools.islice(
            itertools.product("abcdefghijklmnopqrstuvwxyz", repeat=2), MAX_CHILDREN + 2
        )
    ]
    # every token once, and the last token, which sorts last, once more
    COLLAPSE_URLS = [f"/api/{t}/x" for t in COLLAPSE_TOKENS] + [f"/api/{COLLAPSE_TOKENS[-1]}/x"]

    def test_max_children_collapses_level(self):
        groups = mine_urls(self.COLLAPSE_URLS)
        # the twice-seen token keeps its child, as do the MAX_CHILDREN - 1
        # once-seen tokens first by spelling; the two once-seen tokens last
        # by spelling go down the wildcard branch, wherever they arrive
        assert len(groups) == MAX_CHILDREN + 1
        collapsed = [g for g in groups if g.template.render() == "/api/{*}/x"]
        assert [g.member_ids for g in collapsed] == [[MAX_CHILDREN - 1, MAX_CHILDREN]]
        last = [g for g in groups if g.template.render() == f"/api/{self.COLLAPSE_TOKENS[-1]}/x"]
        assert [g.member_ids for g in last] == [[MAX_CHILDREN + 1, MAX_CHILDREN + 2]]

    @settings(max_examples=30, deadline=None)
    @given(st.permutations(range(MAX_CHILDREN + 3)))
    def test_collapsed_level_does_not_depend_on_line_order(self, order):
        requests = [nr(u, rid=i) for i, u in enumerate(self.COLLAPSE_URLS)]
        expected = id_groups(mine(requests))
        assert id_groups(mine([requests[i] for i in order])) == expected

    def test_zero_depth_paths_grouped(self):
        groups = mine_urls(["/", "/"])
        assert len(groups) == 1
        assert groups[0].template.render() == "/"


def reference_leaf_templates(members):
    """Every leaf through the join loop: in the order of their segments,
    members join the best-matching template or start one."""
    joined_templates = []
    for i, request in sorted(enumerate(members), key=lambda item: item[1].segments):
        segments = request.segments
        best, best_ratio = None, -1.0
        for entry in joined_templates:
            ratio = _match_ratio(entry[0], segments)
            if ratio > best_ratio:
                best, best_ratio = entry, ratio
        if best is None or best_ratio < SIM_THRESHOLD:
            best = ([None if is_variable_segment(s) else s for s in segments], [])
            joined_templates.append(best)
        pattern = best[0]
        for j, segment in enumerate(segments):
            if pattern[j] != segment:
                pattern[j] = None
        best[1].append(i)
    return [(pattern, [members[i] for i in sorted(joined)]) for pattern, joined in joined_templates]


LEAF_WORDS = ("users", "user", "items", "v1", "api", "7", "123", "abcdef0123", "x_1_2_3")


@st.composite
def leaves(draw):
    """The members of one leaf: requests of one depth, 0 to 12, each position
    drawn from a few spellings of that position."""
    depth = draw(st.integers(0, 12))
    columns = [draw(st.lists(st.sampled_from(LEAF_WORDS), min_size=1, max_size=3)) for _ in range(depth)]
    size = draw(st.integers(1, 12))
    return [
        NormalizedRequest(HttpRecord(id=i, method="GET", url="/"), [draw(st.sampled_from(c)) for c in columns])
        for i in range(size)
    ]


class TestLeafTemplates:
    @settings(max_examples=300, deadline=None)
    @given(leaves())
    def test_leaf_templates_match_the_join_loop(self, members):
        got = _leaf_templates(members)
        expected = reference_leaf_templates(members)
        assert [pattern for pattern, _ in got] == [pattern for pattern, _ in expected]
        assert [[m.record.id for m in joined] for _, joined in got] == [
            [m.record.id for m in joined] for _, joined in expected
        ]

    def test_leaves_up_to_twice_the_routing_depth_are_one_template(self):
        # every match ratio is at least the routed share of the positions
        assert min(TREE_DEPTH, 2 * TREE_DEPTH) >= SIM_THRESHOLD * 2 * TREE_DEPTH
        members = [
            NormalizedRequest(HttpRecord(id=i, method="GET", url="/"), list(segments))
            for i, segments in enumerate(["abcdefgh", "abcdefgh", "zbcdvwxy"])
        ]
        ((pattern, joined),) = _leaf_templates(members)
        assert pattern == [None, "b", "c", "d", None, None, None, None]
        assert joined == members
        # one position deeper, the third request matches 4 of 9 positions and
        # starts a template of its own
        deeper = [
            NormalizedRequest(m.record, [*m.segments, tail]) for m, tail in zip(members, "iij")
        ]
        assert [joined for _, joined in _leaf_templates(deeper)] == [deeper[:2], deeper[2:]]


def copying_split(members, level=0):
    """The tree router that copies every level: each member goes to the list
    of its resolved token or to the wildcard list, even when one list takes
    them all, and every spelling is asked ``_looks_variable_loosely``."""
    if level == min(TREE_DEPTH, len(members[0].segments)):
        yield members
        return
    column = [request.segments[level] for request in members]
    counts = Counter(column)
    resolved = _resolve({s: n for s, n in counts.items() if not _looks_variable_loosely(s)})
    if len(resolved) > MAX_CHILDREN:
        totals = Counter()
        for spelling, token in resolved.items():
            totals[token] += counts[spelling]
        kept = set(sorted(totals, key=lambda t: (-totals[t], t))[:MAX_CHILDREN])
        resolved = {s: t for s, t in resolved.items() if t in kept}
    children, wildcard = {}, []
    for request, spelling in zip(members, column):
        token = resolved.get(spelling)
        if token is None:
            wildcard.append(request)
        else:
            children.setdefault(token, []).append(request)
    for child in (*children.values(), wildcard):
        if child:
            yield from copying_split(child, level + 1)


def copying_mine(requests):
    """``mine`` over ``copying_split``: (method, rendered template, member ids)."""
    partitions = {}
    for request in requests:
        partitions.setdefault((request.record.method, len(request.segments)), []).append(request)
    groups = [
        (method, templates.PathTemplate(method, tuple(pattern)).render(),
         [m.record.id for m in joined])
        for (method, _), members in partitions.items()
        for leaf in copying_split(members)
        for pattern, joined in _leaf_templates(leaf)
    ]
    return sorted(groups, key=lambda g: (g[0], g[1], min(g[2])))


# ids (ASCII and not), near-miss words and fixed tokens
ROUTE_WORDS = ("users", "user", "items", "itemz", "api", "v1", "7", "123", "٣", "²",
               "abcdef0123", "x_1_2_3", "12.3")


def requests_of(paths):
    return [
        NormalizedRequest(HttpRecord(id=i, method=method, url="/"), list(segments))
        for i, (method, segments) in enumerate(paths)
    ]


@st.composite
def routed_paths(draw):
    """(method, segments) of 1-24 requests of depth 0-6, and up to
    MAX_CHILDREN + 2 distinct tokens at the second level of /api/*/x."""
    segments = st.lists(st.sampled_from(ROUTE_WORDS), max_size=6)
    paths = draw(st.lists(st.tuples(st.sampled_from(["GET", "POST"]), segments),
                          min_size=1, max_size=24))
    tokens = TestGrouping.COLLAPSE_TOKENS
    wide = draw(st.integers(0, len(tokens) + 2))
    return paths + [("GET", ["api", tokens[i % len(tokens)], "x"]) for i in range(wide)]


class TestOneBranchLevels:
    @settings(max_examples=300, deadline=None)
    @given(routed_paths())
    # a level of ids only
    @example([("GET", ["api", str(i), "x"]) for i in (1, 2, 33, 1)])
    # one token, two spellings: itemz joins items
    @example([("GET", ["items"])] * 10 + [("GET", ["itemz"])])
    # a level past MAX_CHILDREN, its last two tokens cut to the wildcard
    @example([("GET", ["api", t, "x"]) for t in TestGrouping.COLLAPSE_TOKENS])
    # non-ASCII digits are ids by isdigit, as by is_variable_segment
    @example([("GET", ["api", "٣"]), ("GET", ["api", "²"]), ("GET", ["api", "٣"])])
    # ids with one word at one level
    @example([("GET", ["api", "7", "x"]), ("GET", ["api", "123", "x"]),
              ("GET", ["api", "users", "x"])])
    def test_mine_equals_the_copying_router(self, paths):
        requests = requests_of(paths)
        got = [(g.template.method, g.template.render(), g.member_ids) for g in mine(requests)]
        assert got == copying_mine(requests)


class TestCountResolution:
    def test_two_frequent_words_one_edit_apart_stay_apart(self):
        words = ("users", "user", "cards", "carts")
        urls = [f"/api/v1/{w}/{i}" for i in range(1, 6) for w in words] + ["/api/v1/user_/9"]
        groups = mine_urls(urls)
        # "user_" is one edit from both "user" and "users", which occur
        # equally often: the tie goes to the spelling that sorts first
        assert {frozenset(urls[i].split("/")[3] for i in g.member_ids) for g in groups} == {
            frozenset({"users"}), frozenset({"user", "user_"}),
            frozenset({"cards"}), frozenset({"carts"}),
        }

    def test_near_match_calls_are_bounded(self, monkeypatch):
        # 32,000 distinct 7-letter words, half of them seen twice: every
        # once-seen word is a candidate against the most frequent spellings
        rng = np.random.default_rng(0)
        letters = np.array(list(string.ascii_lowercase))
        words = sorted({"".join(w) for w in rng.choice(letters, size=(40_000, 7))})[:32_000]
        assert len(words) == 32_000
        urls = [f"/api/{w}/x" for w in words + words[:16_000]]
        requests = [nr(u, rid=i) for i, u in enumerate(urls)]
        calls = 0
        near_match = templates._near_match

        def counting(a, b):
            nonlocal calls
            calls += 1
            return near_match(a, b)

        monkeypatch.setattr(templates, "_near_match", counting)
        groups = mine(requests)
        assert sum(len(g.members) for g in groups) == 48_000
        distinct = len({s for request in requests for s in request.segments})
        assert 0 < calls <= MAX_CHILDREN * distinct


VOCAB = ("users", "user", "carts", "cards", "items", "item", "api", "v1", "{id}")


@st.composite
def noisy_captures(draw):
    """URLs of 1-4 templates of depth 1-9 over words one edit apart, about
    30% of them passed through a Lexify rule."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    paths = st.lists(st.sampled_from(VOCAB), min_size=1, max_size=9)
    urls = []
    for path in draw(st.lists(paths, min_size=1, max_size=4)):
        for _ in range(draw(st.integers(1, 12))):
            segments = (str(rng.integers(1, 10**6)) if t == "{id}" else t for t in path)
            record = HttpRecord(id=0, method="GET", url="/" + "/".join(segments))
            if rng.random() < 0.3:
                name = LEXIFY_RULES[int(rng.integers(len(LEXIFY_RULES)))]
                record, _ = lexify(record, name, rng)
            urls.append(record.url)
    return urls


class TestOrderFree:
    @settings(max_examples=300, deadline=None)
    @given(noisy_captures(), st.integers(0, 2**32 - 1))
    # two corruptions two edits apart, each one edit from the frequent word
    @example(["/us.ers", "/users_"] + ["/users"] * 5, 0)
    # past the routed levels: the request with an id came first or not
    @example(["/api/api/api/api/1/users/users/users/users",
              "/api/api/api/api/carts/carts/carts/carts/carts"], 0)
    def test_groups_do_not_depend_on_line_order(self, urls, order_seed):
        requests = [nr(u, rid=i) for i, u in enumerate(urls)]
        shuffled = requests[:]
        random.Random(order_seed).shuffle(shuffled)
        expected = id_groups(mine(requests))
        assert id_groups(mine(requests[::-1])) == expected
        assert id_groups(mine(shuffled)) == expected

    def test_sweep_captures_under_permutations(self):
        base = synth_corpus(CorpusSpec(20, 50, seed=1))
        cells = itertools.product((LEXIFY, INTERFERE), (0.05, 0.25, 0.5, 0.75, 0.95), (1, 2, 3))
        for kind, ratio, noise_seed in cells:
            capture = inject(base, kind, ratio, noise_seed)
            expected = id_groups(mine(prepare_traffic(capture).normalized))
            for k in range(3):
                records = list(capture.records)
                random.Random(1000 + k).shuffle(records)
                moved = id_groups(mine(prepare_traffic(Dataset(records)).normalized))
                assert moved == expected, (kind, ratio, noise_seed, k)
