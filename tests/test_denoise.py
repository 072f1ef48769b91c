"""Traffic filtering: rule cascade and the logistic sanity gate."""

import math
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from apiminer import denoise
from apiminer.denoise import (
    DEFAULT_NON_API_CONTENT_TYPES,
    DEFAULT_STATIC_EXTENSIONS,
    DEFAULT_STATIC_PATH_MARKERS,
    DEFAULT_TAU,
    LOGISTIC_GATE,
    LOGISTIC_WEIGHTS,
    MISSING_CONTENT_TYPE,
    NON_API_CONTENT_TYPE,
    STATIC_EXTENSION,
    STATIC_PATH_PATTERN,
    filter_traffic,
    gate_features,
    rule_signal,
    sanity_score,
)
from apiminer.features import FEATURE_NAMES, extract_features, row_input
from apiminer.normalize import normalize, split_url
from apiminer.records import STRUCTURED_CONTENT_PREFIXES, Dataset, HttpRecord, IngestError


def rec(rid=0, method="GET", url="/api/v1/items", content_type="application/json",
        body_size=0):
    return HttpRecord(
        id=rid, method=method, url=url, content_type=content_type, body_size=body_size
    )


def rule(record):
    return rule_signal(record, split_url(record)[0])


def score(record):
    return sanity_score(record, *split_url(record))


class TestRuleCascade:
    def test_static_extension(self):
        assert rule(rec(url="/app/main.js")) == STATIC_EXTENSION

    def test_extension_only_on_last_segment(self):
        assert rule(rec(url="/v1.js/items")) is None

    def test_static_path_marker(self):
        assert rule(rec(url="/static/app")) == STATIC_PATH_PATTERN

    def test_marker_matches_final_directory(self):
        assert rule(rec(url="/cdn-cgi/trace", content_type=None)) == STATIC_PATH_PATTERN

    def test_missing_content_type(self):
        assert rule(rec(content_type=None)) == MISSING_CONTENT_TYPE

    def test_non_api_content_type(self):
        assert rule(rec(content_type="text/html; charset=utf-8")) == NON_API_CONTENT_TYPE

    def test_extension_beats_content_type(self):
        # cascade order: the extension rule fires even with an API content type
        assert rule(rec(url="/files/x.png")) == STATIC_EXTENSION

    def test_clean_api_call_passes_rules(self):
        assert rule(rec()) is None

    @pytest.mark.parametrize("url", ["/img.png", "/img.png/", "/img.png//"])
    def test_trailing_slash_does_not_hide_extension(self, url):
        # Lexify's Trailing Slash Addition must not carry a static file past the filter
        assert filter_traffic(Dataset([rec(url=url)])).dropped == [(0, STATIC_EXTENSION)]

    def test_api_path_with_trailing_slash_kept(self):
        assert filter_traffic(Dataset([rec(url="/api/v1/items/")])).kept == [0]


def reference_rule_signal(record, path):
    """The rule cascade read plainly: the last segment's extension, then each
    marker in turn over the lowered path with a closing slash, then the
    content type."""
    last_segment = path.rstrip("/").rsplit("/", 1)[-1]
    if "." in last_segment:
        if last_segment.rsplit(".", 1)[-1].lower() in DEFAULT_STATIC_EXTENSIONS:
            return STATIC_EXTENSION
    lowered = path.lower()
    if not lowered.endswith("/"):
        lowered = lowered + "/"
    for marker in DEFAULT_STATIC_PATH_MARKERS:
        if marker in lowered:
            return STATIC_PATH_PATTERN
    if record.content_type is None:
        return MISSING_CONTENT_TYPE
    if record.content_type.lower().startswith(DEFAULT_NON_API_CONTENT_TYPES):
        return NON_API_CONTENT_TYPE
    return None


# marker names in any case (and "ſtatic", which only a case-blind match
# would take for "static"), spellings with dots in them, and free text
RULE_SEGMENTS = (
    st.sampled_from([m.strip("/") for m in DEFAULT_STATIC_PATH_MARKERS]).flatmap(
        lambda name: st.sampled_from([name, name.upper(), name.title()])
    )
    | st.sampled_from(["ſtatic", "İmg", "v1.js", "X.JS", "a.b.png", "file.", ".css", ".", "..",
                       "items", "12.3", "app.min.Js", "static.js"])
    | st.text(alphabet="aJs./-\n", max_size=6)
    | st.text(max_size=4)
)
RULE_PATHS = st.builds(
    lambda lead, segments, tail: lead + "/".join(segments) + tail,
    st.sampled_from(["", "/", "//"]),
    st.lists(RULE_SEGMENTS, max_size=6),
    st.sampled_from(["", "/", "//", "/static", "/STATIC", "/cdn-cgi"]),
)


class TestRuleCascadeReference:
    @settings(max_examples=500, deadline=None)
    @given(RULE_PATHS, st.sampled_from([None, "application/json", "text/html", "Image/png"]))
    @example("/v1.js/items", "application/json")
    @example("/cdn-cgi/trace", None)
    @example("/X.JS/", "application/json")
    @example("", "application/json")
    @example("", None)
    # the only dot is the path's first character
    @example(".css", "application/json")
    # a closing newline is no end of the path for the marker
    @example("/x/static\n", "application/json")
    def test_rule_signal_is_the_plain_cascade(self, path, content_type):
        record = rec(content_type=content_type)
        assert rule_signal(record, path) == reference_rule_signal(record, path)


class TestGate:
    def test_feature_vector(self):
        record = rec(method="GET", url="/api/v1/items/42?page=1")
        x = gate_features(record, *split_url(record))
        assert x == (1.0, 1.0, 4.0, 1.0, 1.0, 1.0)

    def test_json_post_scores_above_point_nine(self):
        # z = -5 + 0 + 1.5*3 + 0 + 0 + 3 = 2.5
        record = rec(method="POST", url="/api/v1/items", body_size=10)
        z = 2.5
        assert score(record) == pytest.approx(1 / (1 + math.exp(-z)))
        assert score(record) > 0.9

    def test_pathological_record_scores_below_tau(self):
        # unknown verb, zero depth, no query, unstructured: z = -5
        record = rec(method="BREW", url="/", content_type="application/octet-stream")
        assert score(record) == pytest.approx(1 / (1 + math.exp(5)))
        assert score(record) < DEFAULT_TAU

    def test_score_strictly_inside_unit_interval(self):
        s = score(rec())
        assert 0.0 < s < 1.0


class TestFilterTraffic:
    def test_partition_preserves_order_and_reasons(self):
        ds = Dataset(
            records=[
                rec(rid=0),
                rec(rid=1, url="/static/app.css"),
                rec(rid=2, content_type=None),
                rec(rid=3, method="BREW", url="/", content_type="application/octet-stream"),
                rec(rid=4, url="/api/v1/orders"),
            ]
        )
        outcome = filter_traffic(ds)
        assert outcome.kept == [0, 4]
        assert outcome.dropped == [
            (1, STATIC_EXTENSION),
            (2, MISSING_CONTENT_TYPE),
            (3, LOGISTIC_GATE),
        ]

    def test_custom_tau_overrides(self):
        ds = Dataset(records=[rec(rid=0)])
        assert filter_traffic(ds, 0.999999).kept == []


class TestSharedSplit:
    """The filter decides on the URL split that normalize reads."""

    def test_schemeless_path_gated_on_normalized_segments(self):
        # '//' is slash noise here, not a host: all four segments count
        record = rec(url="//api/v1/users/12")
        path, query = split_url(record)
        assert (path, query) == ("//api/v1/users/12", "")
        assert gate_features(record, path, query)[2] == len(normalize(record).segments) == 4

    def test_schemeless_static_asset_still_dropped(self):
        ds = Dataset(records=[rec(url="//static/app.js")])
        assert filter_traffic(ds).dropped == [(0, STATIC_EXTENSION)]

    def test_kept_records_handed_over_with_their_split(self):
        ds = Dataset(records=[
            rec(rid=0, url="http://h/api/v1/items?page=2#top"),
            rec(rid=1, url="/app.js"),
            rec(rid=2),
        ])
        handed = []
        outcome = filter_traffic(
            ds, on_kept=lambda record, split: handed.append((record.id, split))
        )
        assert outcome.kept == [0, 2]
        assert handed == [(0, ("/api/v1/items", "page=2")), (2, ("/api/v1/items", ""))]


# path pieces with and without ID-like segments, static markers and queries
PATH_PIECES = ["api", "v1", "12", "x", "deadbeef99", "static", "app.js", "?q=1", "", "Users"]
WEIGHT = st.floats(-20.0, 20.0)
REQUEST = st.tuples(
    st.sampled_from(["GET", "POST", "HEAD"]) | st.text(max_size=6),
    st.lists(st.sampled_from(PATH_PIECES) | st.text(max_size=4), max_size=8).map(
        lambda pieces: "/" + "/".join(pieces)
    ),
    st.sampled_from([None, "application/json", "text/plain"]) | st.text(max_size=20),
)


class TestGateShortcut:
    """filter_traffic skips the ID-segment scan only where it cannot change the gate."""

    def test_id_segment_bit_decides_when_it_can(self):
        # z = -1 + 2 * has_placeholder: 0.73 with an ID segment, 0.27 without
        ds = Dataset(records=[rec(rid=0, url="/api/12"), rec(rid=1, url="/api/x")])
        with mock.patch.object(denoise, "LOGISTIC_WEIGHTS", (-1.0, 0.0, 0.0, 2.0, 0.0, 0.0)):
            outcome = filter_traffic(ds, 0.5)
        assert outcome.kept == [0]
        assert outcome.dropped == [(1, LOGISTIC_GATE)]

    @settings(max_examples=300, deadline=None)
    @given(
        weights=st.tuples(*[WEIGHT] * 6),
        tau=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        requests=st.lists(REQUEST, min_size=1, max_size=6),
    )
    @example(weights=(-1.0, 0.0, 0.0, 2.0, 0.0, 0.0), tau=0.5,
             requests=[("GET", "/api/12", "application/json"), ("GET", "/api/x", "application/json")])
    # kept only with the bit at exactly 1: the score at 0.5 is 0.5
    @example(weights=(-1.0, 0.0, 0.0, 2.0, 0.0, 0.0), tau=0.6,
             requests=[("GET", "/api/12", "application/json")])
    # the default gate keeps every path with a segment: a depth-0 POST is
    # still scored, and dropped (z = -5), while its depth-1 twin is kept
    @example(weights=LOGISTIC_WEIGHTS, tau=DEFAULT_TAU,
             requests=[("POST", "/", "text/plain"), ("POST", "/api", "text/plain")])
    # a negative path-depth weight: depth 1 passes (0.27) and depth 3 does
    # not (0.05), so no bound from the depth-1 score may keep the deeper path
    @example(weights=(0.0, 0.0, -1.0, 0.0, 0.0, 0.0), tau=0.2,
             requests=[("GET", "/api", "application/json"),
                       ("GET", "/api/v1/x", "application/json")])
    def test_decisions_match_rules_then_score(self, weights, tau, requests):
        # several records per dataset, so one filter call decides records that
        # share a gate vector and differ in the ID-segment bit
        records = [
            HttpRecord(id=i, method=method, url=url, content_type=content_type)
            for i, (method, url, content_type) in enumerate(requests)
        ]
        # patched per example: Hypothesis rejects function-scoped fixtures
        with mock.patch.object(denoise, "LOGISTIC_WEIGHTS", weights):
            expected = rules_then_score(records, tau)
            if expected is None:
                with pytest.raises(IngestError):
                    filter_traffic(Dataset(records=records), tau)
                return
            outcome = filter_traffic(Dataset(records=records), tau)
        assert (outcome.kept, outcome.dropped) == expected


def rules_then_score(records, tau):
    """(kept ids, dropped (id, reason) pairs) of the plain per-record cascade,
    then ``sanity_score < tau``; None if a URL does not split."""
    kept, dropped = [], []
    for record in records:
        try:
            path, query = split_url(record)
        except IngestError:
            return None
        reason = rule_signal(record, path)
        if reason is None and sanity_score(record, path, query) < tau:
            reason = LOGISTIC_GATE
        if reason is None:
            kept.append(record.id)
        else:
            dropped.append((record.id, reason))
    return kept, dropped


class TestRepeatedDrops:
    """A record with the method, URL and content type of one the same call
    dropped is dropped for the same reason, without a second URL split."""

    @settings(max_examples=300, deadline=None)
    @given(
        pool=st.lists(REQUEST, min_size=3, max_size=3),
        picks=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3)), max_size=12),
        tau=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    @example(
        pool=[("GET", "/app.js", "application/json"), ("POST", "/", "text/plain"),
              ("GET", "/api/v1/items", "application/json")],
        picks=[(0, 1), (1, 0), (2, 0), (0, 3), (1, 2), (2, 0), (0, 1)],
        tau=DEFAULT_TAU,
    )
    def test_repeated_records_decided_as_the_cascade_decides_them(self, pool, picks, tau):
        # a few triples, many records: the body size is no part of a decision
        records = [
            HttpRecord(id=i, method=pool[p][0], url=pool[p][1], content_type=pool[p][2],
                       body_size=size)
            for i, (p, size) in enumerate(picks)
        ]
        expected = rules_then_score(records, tau)
        splits = []

        def counted(record):
            splits.append(record.id)
            return split_url(record)

        with mock.patch.object(denoise, "split_url", counted):
            if expected is None:
                with pytest.raises(IngestError):
                    filter_traffic(Dataset(records=records), tau)
                return
            outcome = filter_traffic(Dataset(records=records), tau)
        assert (outcome.kept, outcome.dropped) == expected
        # one split per record, but for one whose triple an earlier record was dropped for
        reasons = dict(outcome.dropped)
        dropped_triples, expected_splits = set(), []
        for record in records:
            triple = (record.method, record.url, record.content_type)
            if triple not in dropped_triples:
                expected_splits.append(record.id)
                if record.id in reasons:
                    dropped_triples.add(triple)
        assert splits == expected_splits


class TestSegmentBound:
    """Under the default weights a path with a segment passes the gate unscored."""

    def test_gate_scores_only_paths_without_a_segment(self):
        ds = Dataset(records=[
            rec(rid=0, method="POST", url="/", content_type="text/plain"),
            rec(rid=1, method="BREW", url="/x", content_type="text/plain"),
            rec(rid=2, url="//api//12/"),
            rec(rid=3, url="http://h?page=1"),
            rec(rid=4, url="/api/v1/items?q=1"),
        ])
        scored = []
        gate_drops = denoise._gate_drops

        def counted(record, path, *args):
            scored.append(path)
            return gate_drops(record, path, *args)

        with mock.patch.object(denoise, "_gate_drops", counted):
            outcome = filter_traffic(ds)
        assert scored == ["/", ""]
        assert outcome.kept == [1, 2, 3, 4]
        assert outcome.dropped == [(0, LOGISTIC_GATE)]


class TestConfigValidation:
    def test_tau_bounds(self):
        for tau in (0.0, 1.0, float("nan")):
            with pytest.raises(ValueError):
                filter_traffic(Dataset(records=[rec()]), tau)

    def test_default_weights_documented_shape(self):
        assert len(LOGISTIC_WEIGHTS) == 6


# prefixes of both lists in upper case, and characters whose lower case
# differs in length or sits outside ASCII; no lone surrogate, which a record
# refuses (tested in test_records)
CONTENT_TYPES = st.none() | st.text(
    alphabet=st.sampled_from("aAjJsSoOnN/+-;=İK") | st.characters(codec="utf-8"), max_size=12
) | st.sampled_from(
    [p.upper() for p in DEFAULT_NON_API_CONTENT_TYPES + STRUCTURED_CONTENT_PREFIXES]
).flatmap(lambda p: st.text(max_size=3).map(lambda tail: p + tail))


class TestContentTypeFacts:
    @settings(max_examples=400, deadline=None)
    @given(CONTENT_TYPES)
    @example(None)
    @example("Application/JSON; charset=utf-8")
    @example("İmage/png")
    @example("TEXT/HTML")
    def test_cached_facts_are_the_formula(self, content_type):
        record = rec(url="/api/v1/items", content_type=content_type)
        lowered = None if content_type is None else content_type.lower()
        if lowered is None:
            reason = MISSING_CONTENT_TYPE
        elif any(lowered.startswith(p) for p in DEFAULT_NON_API_CONTENT_TYPES):
            reason = NON_API_CONTENT_TYPE
        else:
            reason = None
        structured = 1.0 if (lowered or "").startswith(STRUCTURED_CONTENT_PREFIXES) else 0.0
        # asked twice: once filling the caches, once reading them
        for _ in range(2):
            assert rule(record) == reason
            assert gate_features(record, *split_url(record))[5] == structured
            features = extract_features(row_input(normalize(record)))
            assert features[FEATURE_NAMES.index("has_structured_payload")] == structured
