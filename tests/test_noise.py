"""Noise lab: perturbation rules, interference families, dataset injection."""

import hashlib
import re
from urllib.parse import SplitResult, unquote, urlsplit, urlunsplit, uses_netloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from apiminer.noise import (
    _ASSET_STEMS,
    _INTERFERE_FAMILIES,
    _LEXIFY,
    DRAW_CHUNK,
    INTERFERE,
    INTERFERE_CATEGORIES,
    LEXIFY,
    LEXIFY_RULES,
    SplitUrl,
    _apply,
    _Draws,
    applicable_rules,
    inject,
    interfere_sample,
    lexify,
)
from apiminer.corpus import CorpusSpec, synth_corpus
from apiminer.normalize import normalize, path_start, split_url
from apiminer.records import Dataset, HttpRecord, IngestError, write_dataset


def rec(rid=0, url="/api/v1/items?page=1", method="GET", label="EP_00"):
    return HttpRecord(
        id=rid, method=method, url=url, content_type="application/json",
        label=label,
    )


def rule(name):
    return name


def rng(seed=0):
    return np.random.default_rng(seed)


class TestRegistry:
    def test_exact_rule_names(self):
        assert len(LEXIFY_RULES) == 14
        assert len(INTERFERE_CATEGORIES) == 9
        assert len(set(LEXIFY_RULES) | set(INTERFERE_CATEGORIES)) == 23

    @pytest.mark.parametrize("name", ["Tilde Injection", "Health Check Endpoint", ""])
    def test_lexify_refuses_names_not_in_its_table(self, name):
        with pytest.raises(ValueError, match=re.escape(f"unknown Lexify rule {name!r}")):
            lexify(rec(), name, rng())

    @pytest.mark.parametrize("name", ["Tilde Request", "Query Order Shuffle", ""])
    def test_interfere_sample_refuses_names_not_in_its_table(self, name):
        with pytest.raises(ValueError, match=re.escape(f"unknown Interfere category {name!r}")):
            interfere_sample(name, rng())


class TestLexifyRules:
    def test_query_order_shuffle(self):
        r = rec(url="/api/user?id=1&role=admin")
        out, applied = lexify(r, rule("Query Order Shuffle"), rng())
        assert applied
        assert out.url == "/api/user?role=admin&id=1"

    def test_shuffle_needs_two_params(self):
        r = rec(url="/api/user?id=1")
        out, applied = lexify(r, rule("Query Order Shuffle"), rng())
        assert not applied and out.url == r.url

    def test_neutral_parameter_appended(self):
        out, applied = lexify(rec(url="/api/user"), rule("Neutral Query Parameter"), rng())
        assert applied and out.url == "/api/user?tmp=0"

    def test_duplicate_query_key(self):
        out, applied = lexify(rec(url="/api/user?id=1"), rule("Duplicate Query Key"), rng())
        assert applied and out.url == "/api/user?id=1&id=1"

    def test_underscore_injection(self):
        out, applied = lexify(rec(url="/api/user/profile"), rule("Underscore Injection"), rng())
        assert applied
        segs = out.url.split("?")[0].strip("/").split("/")
        changed = [s for s in segs if s.endswith("_")]
        assert len(changed) == 1

    def test_hyphen_duplication(self):
        out, applied = lexify(rec(url="/api/audit-logs/3"), rule("Hyphen Duplication"), rng())
        assert applied and "/audit--logs/" in out.url

    def test_hyphen_needs_hyphen(self):
        out, applied = lexify(rec(url="/api/items"), rule("Hyphen Duplication"), rng())
        assert not applied

    def test_dot_injection(self):
        out, applied = lexify(rec(url="/api/orders"), rule("Dot Injection"), rng())
        assert applied
        segs = out.url.split("?")[0].strip("/").split("/")
        dotted = [s for s in segs if "." in s]
        assert len(dotted) == 1 and dotted[0].replace(".", "") in ("api", "orders")

    def test_repeated_slash(self):
        out, applied = lexify(rec(url="/api/items"), rule("Repeated Slash"), rng())
        assert applied and "//" in out.url

    def test_trailing_slash_addition_and_removal(self):
        out, applied = lexify(rec(url="/api/items"), rule("Trailing Slash Addition"), rng())
        assert applied and out.url.split("?")[0] == "/api/items/"
        back, applied = lexify(out, rule("Trailing Slash Removal"), rng())
        assert applied and back.url.split("?")[0] == "/api/items"
        _, applied = lexify(rec(url="/api/items"), rule("Trailing Slash Removal"), rng())
        assert not applied

    def test_case_toggles(self):
        out, applied = lexify(rec(url="/api/items"), rule("Uppercase Token"), rng())
        assert applied
        assert any(s.isupper() for s in out.url.strip("/").split("/"))
        _, applied = lexify(rec(url="/API/ITEMS"), rule("Uppercase Token"), rng())
        assert not applied
        out, applied = lexify(rec(url="/API/items"), rule("Lowercase Token"), rng())
        assert applied and out.url == "/api/items"

    def test_space_and_plus_encoding(self):
        r = rec(url="/api/search?q=red shoes")
        out, applied = lexify(r, rule("Space Encoding"), rng())
        assert applied and out.url == "/api/search?q=red%20shoes"
        out, applied = lexify(r, rule("Plus Encoding"), rng())
        assert applied and out.url == "/api/search?q=red+shoes"
        _, applied = lexify(rec(url="/api/search?q=x"), rule("Space Encoding"), rng())
        assert not applied

    @pytest.mark.parametrize("name, space", [("Space Encoding", "%20"), ("Plus Encoding", "+")])
    def test_only_a_spaced_value_is_a_target(self, name, space):
        bare = rec(url="/api/x?a b")
        out, applied = lexify(bare, rule(name), rng())
        assert not applied and out.url == bare.url
        for seed in range(4):
            out, applied = lexify(rec(url="/api/x?a b&q=a b"), rule(name), rng(seed))
            assert applied and out.url == f"/api/x?a b&q=a{space}b"

    def test_hex_encoding(self):
        out, applied = lexify(rec(url="/api/search?q=test"), rule("Hex Encoding"), rng())
        assert applied and out.url == "/api/search?q=%74%65%73%74"

    def test_hex_encoding_escapes_utf8_bytes(self):
        out, applied = lexify(rec(url="/api/search?q=\u4e2d"), rule("Hex Encoding"), rng())
        assert applied and out.url == "/api/search?q=%e4%b8%ad"

    @given(value=st.text(min_size=1, max_size=8).filter(str.isalnum), seed=st.integers(0, 2**32))
    @example(value="\u4e2d", seed=0)
    @example(value="caf\u00e9", seed=0)
    def test_hex_encoded_value_decodes_to_itself(self, value, seed):
        out, applied = lexify(rec(url=f"/api/search?q={value}"), rule("Hex Encoding"), rng(seed))
        assert applied
        key, _, new = out.url.partition("?")[2].partition("=")
        assert key == "q" and unquote(new) == value

    def test_label_and_identity_preserved(self):
        r = rec(url="/api/user?a=1&b=2", label="EP_07")
        for name in LEXIFY_RULES:
            out, applied = lexify(r, rule(name), rng(3))
            assert out.label == "EP_07"
            assert out.method == r.method
            if not applied:
                assert out.url == r.url


class TestInterfereSample:
    def test_every_category_unlabeled_and_in_family(self):
        for name in INTERFERE_CATEGORIES:
            sample = interfere_sample(name, rng(5), record_id=9)
            assert sample.label is None
            assert sample.id == 9
            family = _INTERFERE_FAMILIES[name]
            assert any(
                sample.method == m
                and sample.content_type == ct
                and (
                    sample.url == p
                    or ("{stem}" in p and sample.url.startswith(p.split("{stem}")[0]))
                )
                for m, p, ct in family
            )

    def test_asset_families_carry_real_media_types(self):
        sample = interfere_sample("Image Resource Request", rng(1))
        assert sample.content_type.startswith("image/")

    def test_background_families_have_no_content_type(self):
        assert interfere_sample("Health Check Endpoint", rng(1)).content_type is None


# a draw below a bound, or ("order", n) for a permutation of n; bounds past
# 2**31 make numpy reject up to half the words it draws
DRAW_CALLS = (
    st.integers(1, 2**32 - 1)
    | st.integers(2**31 + 1, 2**32 - 1)
    | st.integers(1, 64)
    | st.tuples(st.just("order"), st.integers(0, 40))
)


def words_used(draws: _Draws) -> int:
    return draws._spent + draws._next


class TestDraws:
    """``_Draws`` gives what numpy's scalar calls give, and leaves the
    generator where they leave it; a numpy release that bounds or shuffles
    by another method fails here."""

    @given(seed=st.integers(0, 2**64 - 1), calls=st.lists(DRAW_CALLS, max_size=40))
    @example(seed=0, calls=[3 * 2**30] * 40 + [("order", 40)] * 8)
    # a bound of one, and a permutation of none or one, take no word
    @example(seed=1, calls=[1, ("order", 0), ("order", 1), 1])
    def test_draws_are_the_scalar_calls(self, seed, calls):
        decoded, scalar = rng(seed), rng(seed)
        draws = _Draws(decoded)
        for call in calls:
            if isinstance(call, tuple):
                assert draws.order(call[1]) == scalar.permutation(call[1]).tolist()
            else:
                assert draws.below(call) == int(scalar.integers(call))
        draws.sync()
        assert decoded.bit_generator.state == scalar.bit_generator.state
        assert int(decoded.integers(2**32 - 1)) == int(scalar.integers(2**32 - 1))

    def test_rejected_words_are_skipped_as_numpy_skips_them(self):
        # at 3 * 2**30 numpy rejects about one word in four
        decoded, scalar = rng(5), rng(5)
        draws = _Draws(decoded)
        values = [draws.below(3 * 2**30) for _ in range(2 * DRAW_CHUNK)]
        assert values == [int(scalar.integers(3 * 2**30)) for _ in values]
        assert words_used(draws) > len(values) + DRAW_CHUNK // 4
        draws.sync()
        assert decoded.bit_generator.state == scalar.bit_generator.state


def small_dataset(n=10):
    records = [
        rec(rid=i, url=f"/api/v1/items/{i}?page={i}", label=f"EP_{i % 2}")
        for i in range(n)
    ]
    return Dataset(records=records, source="t")


URL_PIECES = st.sampled_from(
    ["/", "//", "api", "v1", "audit-logs", "Items", "ORDERS", "12", "a", "?", "&", "=",
     "q=a b", "page=2", "k=", "tmp=0", "#f", ".", "_", "-"]
)


class TestApplicability:
    @given(
        url=st.lists(URL_PIECES, max_size=12).map("".join),
        name=st.sampled_from(LEXIFY_RULES),
        seeds=st.tuples(st.integers(0, 2**32), st.integers(0, 2**32)),
    )
    def test_applied_flag_does_not_depend_on_the_generator(self, url, name, seeds):
        record = rec(url=url)
        a, b = (lexify(record, rule(name), rng(seed))[1] for seed in seeds)
        assert a == b

    @given(url=st.lists(URL_PIECES, max_size=12).map("".join), seed=st.integers(0, 2**32))
    def test_applicable_rules_are_the_rules_lexify_applies(self, url, seed):
        # inject draws from applicable_rules(); lexify reads the same conditions
        record = rec(url=url)
        applied = [name for name in LEXIFY_RULES if lexify(record, rule(name), rng(seed))[1]]
        assert applicable_rules(SplitUrl(url)) == tuple(applied)


# URLs urlsplit rejects: an unclosed IPv6 bracket, and a host that NFKC
# normalization turns into one holding '#'
MALFORMED_URLS = ("http://[::1/x", "http://h\uff03x/a")
# any text, and URL pieces with what urlsplit checks: brackets, ports, and
# characters NFKC normalization turns into '#' and '?'
URL_TEXT = st.text(max_size=16) | st.lists(
    URL_PIECES | st.sampled_from(["http://", "https://h", "[", "]", "::1", ":80", "@", "\uff03", "\uff1f"]),
    max_size=8,
).map("".join)


# one URL for each way SplitUrl cuts and rebuild joins: relative, a '//'
# path, an upper-case scheme, userinfo and a port, an empty '?' and '#', and
# leading white space
SPLIT_CASES = (
    "/api/v1/items?page=2#top", "//h/a", "HTTPS://H/a", "https://u:p@h:8080/a-b/",
    "https://h?", "https://h/a#", " https://h/a", "\t/a", "https://h", "http:///a",
    "//api/v1/users#x://y",
)
# paths and queries rebuild is given: none, empty, rooted, not rooted, '//'
NEW_PARTS = (None, "", "/", "/a//b/", "a/b", "//x", "tmp=0", "a b&c")


def expected_split(url: str) -> SplitResult:
    """urlsplit's parts of ``url``, except for a schemeless '//…' URL, which
    ``split_url`` reads as a relative path with slash noise: no netloc, and
    the path and query ``split_url`` cuts."""
    if url[:2] == "//" and path_start(url) == 0:
        path, query = split_url(rec(url=url))
        return SplitResult("", "", path, query, url.partition("#")[2])
    return urlsplit(url)


def expected_join(parts: SplitResult) -> str:
    """urlunsplit's URL of ``parts`` on CPython 3.10 and 3.11, but for a
    ``uses_netloc`` scheme, an empty netloc and a path that starts with '//':
    there rebuild keeps the empty authority, as 3.12+ does, where 3.11 drops
    it and the path's first segment would read as the host."""
    if parts.scheme and parts.scheme in uses_netloc and not parts.netloc and parts.path[:2] == "//":
        return parts.scheme + "://" + urlunsplit(parts._replace(scheme=""))
    return urlunsplit(parts)


def assert_split_is_urllibs(url: str, path: str | None, query: str | None):
    """SplitUrl cuts ``url`` as ``expected_split`` does (or raises as urlsplit
    does), and rebuild joins the parts with ``path`` and ``query`` as
    ``expected_join`` does."""
    try:
        parts = expected_split(url)
    except ValueError:
        with pytest.raises(ValueError):
            SplitUrl(url)
        return
    split = SplitUrl(url)
    assert split.parts == tuple(parts)
    assert split.rebuild() == expected_join(parts)
    new = parts._replace(
        path=parts.path if path is None else path, query=parts.query if query is None else query
    )
    assert split.rebuild(path=path, query=query) == expected_join(new)


class TestSplitUrl:
    @given(url=URL_TEXT, path=st.sampled_from(NEW_PARTS), query=st.sampled_from(NEW_PARTS))
    def test_split_and_rebuild_are_urllibs(self, url, path, query):
        assert_split_is_urllibs(url, path, query)

    @pytest.mark.parametrize("url", SPLIT_CASES)
    def test_each_case_splits_and_rebuilds_as_urllib(self, url):
        for path in NEW_PARTS:
            for query in NEW_PARTS:
                assert_split_is_urllibs(url, path, query)


# schemeless '//…' URLs, which discover reads as relative paths
SCHEMELESS_URLS = (
    "//api/v1/users", "//api//v1/users/?page=1&q=a#top", "///x/y/", "//api", "//h:80/a?b#c",
    # a '://' in the fragment
    "//api/v1/users#x://y", "//api/v1/users?q=1#x://y",
)


class TestSchemelessUrls:
    @pytest.mark.parametrize("url", SCHEMELESS_URLS)
    def test_segments_are_discovers(self, url):
        split = SplitUrl(url)
        assert split.parts[:2] == ("", "")
        assert split.segments == normalize(rec(url=url)).segments
        assert split.rebuild() == url

    @pytest.mark.parametrize("url", SCHEMELESS_URLS)
    def test_segment_rules_target_discovers_segments(self, url):
        # Underscore Injection targets each segment of 3 or more characters,
        # the first one included, and rewrites the one drawn as discover reads it
        segments = normalize(rec(url=url)).segments
        targets = [i for i, s in enumerate(segments) if len(s) >= 3]
        for seed in range(8):
            noisy, applied = lexify(rec(url=url), rule("Underscore Injection"), rng(seed))
            assert applied == bool(targets)
            if applied:
                moved = [i for i, (a, b) in enumerate(zip(segments, normalize(noisy).segments)) if a != b]
                assert len(moved) == 1 and moved[0] in targets


# http(s) URLs with an empty authority, whose path starts with one slash or two
EMPTY_AUTHORITY_URLS = (
    "http:///api/v1/orders/12", "http:///Api/v1/user-items/?id=1&q=a b#top",
    "https:////api/v1/x", "https:////api//V1/x-y/?id=1&role=admin",
)
# the Lexify rules that rewrite a segment's characters
SEGMENT_EDITS = ("Underscore Injection", "Hyphen Duplication", "Dot Injection")


class TestEmptyAuthority:
    @pytest.mark.parametrize("url", EMPTY_AUTHORITY_URLS)
    @pytest.mark.parametrize("name", [n for n in LEXIFY_RULES if n not in SEGMENT_EDITS])
    def test_rules_that_leave_segments_alone_keep_discovers_segments(self, url, name):
        # rebuild keeps the empty authority, so that no segment moves into the host
        segments = normalize(rec(url=url)).segments
        for seed in range(8):
            noisy, _ = lexify(rec(url=url), rule(name), rng(seed))
            assert normalize(noisy).segments == segments, noisy.url


def split_url_error(record: HttpRecord) -> str:
    with pytest.raises(IngestError) as raised:
        split_url(record)
    return str(raised.value)


class TestMalformedUrls:
    @pytest.mark.parametrize("url", MALFORMED_URLS)
    @pytest.mark.parametrize("name", LEXIFY_RULES)
    def test_lexify_raises_the_split_url_error(self, url, name):
        record = rec(rid=7, url=url)
        message = split_url_error(record)
        assert message.startswith(f"record 7: malformed url {url!r}: ")
        with pytest.raises(IngestError, match=re.escape(message) + "$"):
            lexify(record, rule(name), rng())

    @pytest.mark.parametrize("url", MALFORMED_URLS)
    def test_inject_raises_the_split_url_error(self, url):
        records = [rec(rid=0), rec(rid=1, url=url), rec(rid=2)]
        message = split_url_error(records[1])
        with pytest.raises(IngestError, match=re.escape(message) + "$"):
            inject(Dataset(records), LEXIFY, 1.0, seed=0)
        # Interfere never splits a URL
        assert len(inject(Dataset(records), INTERFERE, 1.0, seed=0).records) == 6

    @given(
        urls=st.lists(URL_TEXT, min_size=1, max_size=4),
        kind=st.sampled_from([LEXIFY, INTERFERE]),
        ratio=st.sampled_from([0.5, 1.0]),
        seed=st.integers(0, 2**32),
    )
    @example(urls=list(MALFORMED_URLS), kind=LEXIFY, ratio=1.0, seed=0)
    def test_inject_returns_a_dataset_or_raises_ingest_error(self, urls, kind, ratio, seed):
        dataset = Dataset([rec(rid=i, url=url) for i, url in enumerate(urls)])
        try:
            noisy = inject(dataset, kind, ratio, seed)
        except IngestError as exc:
            assert kind == LEXIFY and "malformed url" in str(exc)
        else:
            assert isinstance(noisy, Dataset)


# sha256 of write_dataset(inject(synth_corpus(CorpusSpec(endpoints, requests,
# seed=corpus_seed)), ...)) by (corpus_seed, endpoints, requests, kind, ratio,
# seed): any change to the corpus's or noise lab's draws, mutations or JSONL
# form moves these.  The 20 x 50 cells are the sweep benchmark workload's 30
# captures, the 20 x 300 cells the deep workload's, and the 180 x 30 cells the
# wide workload's, each at the benchmark's corpus seeds 42 and 7.
PINNED_CAPTURES = {
    (42, 20, 50, LEXIFY, 0.05, 1): "b6671ce37192cc656a00a1ef7352c2958659c265429496cc6e6fb4afc138af71",
    (42, 20, 50, LEXIFY, 0.05, 2): "c12fd79f5c0700a74ef4acd71ccb7adce43659ff432d36df1d97dec411a688b2",
    (42, 20, 50, LEXIFY, 0.05, 3): "302866a3294261ff3673232c19229b48d98cd0c967f3a19cb88a9ac87fe8eb8d",
    (42, 20, 50, LEXIFY, 0.25, 1): "c4db879854d664b67b07d15d304d54ca688ff4369448ea74949b32bb098afff7",
    (42, 20, 50, LEXIFY, 0.25, 2): "43bbbe24da4fc71926b5d7c0cbde694e3f7a49c3aecc5f791a6dabbe4cc3fbdc",
    (42, 20, 50, LEXIFY, 0.25, 3): "3409d89d2a2eecbf3e398237a7ec7c05f359743729a2fe5a986699adaa80ed19",
    (42, 20, 50, LEXIFY, 0.5, 1): "ed06a37cb9a77aeeb51fdf737e6c7d4edeb69049e4f70ba12cc645ea2d1876b2",
    (42, 20, 50, LEXIFY, 0.5, 2): "3d554a6e1e9deb661c7a392e39a379b44b54dca1cd01e9668146c04da002b9b6",
    (42, 20, 50, LEXIFY, 0.5, 3): "faf3beeaa2f9c347978afb078ba54ab89bdb6d1ba293690294359df381c688b5",
    (42, 20, 50, LEXIFY, 0.75, 1): "6c53c326d31fbdef42b1c6764f82a026dd73fd97a166f31e6fa87c2af75e5fb3",
    (42, 20, 50, LEXIFY, 0.75, 2): "1ec2d345388f5e1bc6c55ac57120eddc87c265e7ac369f687857961a63cfd6b7",
    (42, 20, 50, LEXIFY, 0.75, 3): "6af22e33b3eab78a6e171ca85590fe3847f1896a18f83700d5439412ed49fabb",
    (42, 20, 50, LEXIFY, 0.95, 1): "df46f02b8851ace5a7b2c37c37c31eb98565aea19aa20798bfaf771e13bbffd8",
    (42, 20, 50, LEXIFY, 0.95, 2): "ec7901218a9959a868b8b231146d4c1a1cf11aa635532f50912cc9d2526baaa2",
    (42, 20, 50, LEXIFY, 0.95, 3): "123bf39daddcb092c3372157c0e27c02209133a32e472b49b44810d6077d613e",
    (42, 20, 50, INTERFERE, 0.05, 1): "5f49f35dc0d716263fae1a64a14d039b4630c1ff0c69536f67d6417090c3181f",
    (42, 20, 50, INTERFERE, 0.05, 2): "ebd2953d763d765ac518ce8d385f76b65920d0af226cc5378218b2351830ab52",
    (42, 20, 50, INTERFERE, 0.05, 3): "e4e511cb2680dfe718ecaba980fbf7ec5169fab9482c1f917a17a57153f4cd72",
    (42, 20, 50, INTERFERE, 0.25, 1): "1a937316aeb329693dbbaf4ec94943b0b7d8468eca51bb53323ee10f7d70c684",
    (42, 20, 50, INTERFERE, 0.25, 2): "b25703cecf3ee256969a3ee4d1b84fed5dffb6c94f3720b561d40aa2c8bf38fe",
    (42, 20, 50, INTERFERE, 0.25, 3): "0e28b4540cc639e287dfae6de1172fb4f1c5ecdebef5294d80774f3267162d05",
    (42, 20, 50, INTERFERE, 0.5, 1): "f0eb825f83604dcc8e14b6ef5f06e72b71e7db674ac1bef32977ad172362a157",
    (42, 20, 50, INTERFERE, 0.5, 2): "6b349fa8fdd901ae39254a7a4aa7927f3930eb64201032b46314c881a6b7548b",
    (42, 20, 50, INTERFERE, 0.5, 3): "608772437bb30d3b9dabef73bbc40dca7d2e30b0abfde68b9817c2ad5e437d1a",
    (42, 20, 50, INTERFERE, 0.75, 1): "28fc1ecd698f28a4a0df98768852520fe99eb315996f63648ec3db714ff8c6e6",
    (42, 20, 50, INTERFERE, 0.75, 2): "cbf98d83d539050de1e862049e082dd136ac5b65cea32d721197bc58742238ab",
    (42, 20, 50, INTERFERE, 0.75, 3): "9f97c431b10ab6abb3218728418c4bdf3b5d75fa6f33b98c957c70d5e28993ae",
    (42, 20, 50, INTERFERE, 0.95, 1): "0e3d1ad7fb888a2ee37ac0128bdac42fcd062f18a5ea82275cd9c50c21fa3928",
    (42, 20, 50, INTERFERE, 0.95, 2): "cce0b0a65ab050a7602b3f766b675debef3764e35ba15ef625abe1af865bc0ac",
    (42, 20, 50, INTERFERE, 0.95, 3): "538f5195c11bcb349476107811fad70f250ab87bbea67a3cbee6ec11ef887ef2",
    (42, 20, 300, LEXIFY, 0.5, 1): "960294f0868889ef44ee21acf843f9c7e4c5e77511d2f159f82b444864d00745",
    (42, 20, 300, LEXIFY, 0.5, 2): "d91282b7a3a89ba4e43f44f81959d9c5a6c2bbedcf3a204f9977927a5c9ab197",
    (42, 180, 30, INTERFERE, 0.95, 1): "c678829c6302021b439253adb7e47dbfc34009aef8119800017ad1a00b03d4bc",
    (42, 180, 30, INTERFERE, 0.95, 2): "f8b1ecc9837ac4b6b26740a1d6156d180cbc951e5c215a27c3bcc2020b024af2",
    (42, 180, 30, INTERFERE, 0.95, 3): "0d84f1781ef13a5576987f08b2e269251fa29482271fea2b1c15e598b8c84dc3",
    (7, 20, 50, LEXIFY, 0.05, 1): "9aae3038540368968afc7cd190f69a8e8d125218ec94cb4fa02aa9f78e036844",
    (7, 20, 50, LEXIFY, 0.05, 2): "6a312b8a57751fdf67801b996bd07923638e12e655c1dd37a42ec9cd217ff2cc",
    (7, 20, 50, LEXIFY, 0.05, 3): "e349c4e87ecdd4cab626303cf1edb9e3a748d02d1b5c8b3c9bedf9380e045236",
    (7, 20, 50, LEXIFY, 0.25, 1): "dd00efceb55bcbb4e4d6b70da0502d5a84bb3d8230d3ad6d55cb878096a67e59",
    (7, 20, 50, LEXIFY, 0.25, 2): "4855c6bf42512215404843ce66bf033d3d5fa119ae2f08fea7fb9f07a67daa03",
    (7, 20, 50, LEXIFY, 0.25, 3): "43e46b5c73d05bde78da0c10d0d4b205effdf70b07217782a39076be615b50fe",
    (7, 20, 50, LEXIFY, 0.5, 1): "0704e25f5a398fa1515f45e2be042ec4b406380911aaefa3d9fa2b423aadf44b",
    (7, 20, 50, LEXIFY, 0.5, 2): "6a1b1cf5f2311bc5f81c747dedbbc99d69319f1d77fe25b473b21dbd69293596",
    (7, 20, 50, LEXIFY, 0.5, 3): "eabf10dd9cfc0ef2fb7b914c0e47ca44a9d43c7d4584600e72215cdd3d8f8aa4",
    (7, 20, 50, LEXIFY, 0.75, 1): "c78ada76ca0d332836688fa74560bec197a8626416f0d529d332f7906253e3ea",
    (7, 20, 50, LEXIFY, 0.75, 2): "60abe241f742c4879be826311908b82b6ebd820d66081b5508a751ec1a896031",
    (7, 20, 50, LEXIFY, 0.75, 3): "b1022e75dba1098997e2e4511ea7bbc9a5a27f81bde43107e7248423dbd0f2ab",
    (7, 20, 50, LEXIFY, 0.95, 1): "c7b4a6307425a11bb209b5bb2b72aa837d64d28757f1e68c60ad96f5eac009cd",
    (7, 20, 50, LEXIFY, 0.95, 2): "e7422eed695b1a147d05be385ce5259cd03857b0437e9a958abf93e2624776bf",
    (7, 20, 50, LEXIFY, 0.95, 3): "cb9f4bf21ebe5cb05940191882b409559fd151701c9c1bf4c117507591065828",
    (7, 20, 50, INTERFERE, 0.05, 1): "cf2635d246bc005841f9cb2842580a061d2531975e00f010557d03ba9f1717bb",
    (7, 20, 50, INTERFERE, 0.05, 2): "32174781c5687e7a5b019e6fdc1166b12ef65dfca4466e589a95b711fddb7cae",
    (7, 20, 50, INTERFERE, 0.05, 3): "1bf8890be5a09d8cd6e6e2b2f11998bac614426a1dca6e4a2efc04f335801d2c",
    (7, 20, 50, INTERFERE, 0.25, 1): "7775a4ed935177901fb098ceb3e3b778f3487e2d9a1a5ae7914553bc4812a189",
    (7, 20, 50, INTERFERE, 0.25, 2): "8ad532d6b217bf10867e98044466505d59b527075112167fd62c2bf48c19d566",
    (7, 20, 50, INTERFERE, 0.25, 3): "556edacbfc71d7c5377aa35924972ce09bdca2ce4a307802b7931ff58a3b0a7e",
    (7, 20, 50, INTERFERE, 0.5, 1): "676522e006af84e7615d0cb7cee80d2804cf8ae337958656b2a4ec628ff6c1de",
    (7, 20, 50, INTERFERE, 0.5, 2): "335f4dbc0ad6d083a8a6428fdb3ddc9335a80722d21988c1e0d892727d32b143",
    (7, 20, 50, INTERFERE, 0.5, 3): "fc7b5679f8d7fdf23c1c4ad63b152e6619c110aecefbdc0a2953bb958354e0ef",
    (7, 20, 50, INTERFERE, 0.75, 1): "7f1e6492719b692e227fecd7f44898928f98dffc84f29240d28c28592e41313e",
    (7, 20, 50, INTERFERE, 0.75, 2): "6914065b6c4fabcbb65cd7a0c1e9c98a9a4a5ec07d9857adabaf00aa89896bb3",
    (7, 20, 50, INTERFERE, 0.75, 3): "a1193b46567669c77861b2b315a11ea7ddcccaa20c3330d19d0d75669052d286",
    (7, 20, 50, INTERFERE, 0.95, 1): "ab411e23996e21a55c173b9da24c7f9268617ad1defc6c3250b3708a66eddaef",
    (7, 20, 50, INTERFERE, 0.95, 2): "2a76618f7991283cc605c2675cd8b3963e1ae32428c2bfb083291fae384c5bc4",
    (7, 20, 50, INTERFERE, 0.95, 3): "17bcd2b9d8c9133bc41293ea4fbe8eb75e167668d606fc3dec8fa916efece073",
    (7, 20, 300, LEXIFY, 0.5, 1): "79e27ac217877fcb158c97efda8e3cc95b92b8206183ef1c40f6c792af41b37f",
    (7, 20, 300, LEXIFY, 0.5, 2): "1fd3e880f2cd565f92abcb79b1766b8b033fc0179cf6623a3a01f2c06ade8c46",
    (7, 180, 30, INTERFERE, 0.95, 1): "ed3b16ea4e8bf3be527c3ab07231209935b64407bd65f7e911d203d50cd3e1c0",
    (7, 180, 30, INTERFERE, 0.95, 2): "228a0cea9a394db4c80628d9aa10e9d528f73138ee5777f01487f4ab111f0cf6",
    (7, 180, 30, INTERFERE, 0.95, 3): "baecb1bb3b5a473c4111ff208445b32391c4ffcb83bae0342ad54fb4f18d416c",
}


def merged_then_renumbered(dataset, ratio, seed):
    """Interfere's records built in two passes, each category, family member
    and asset stem drawn by a scalar call of its own: the drawn extras
    merged in at their positions, then each record whose index is not its
    id rebuilt through the checked constructor with its index as its id."""
    n = len(dataset.records)
    count = int(round(ratio * n))
    if count == 0:
        return dataset.records
    generator = np.random.default_rng(seed)
    extras = []
    for _ in range(count):
        category = INTERFERE_CATEGORIES[int(generator.integers(len(INTERFERE_CATEGORIES)))]
        method, path, content_type = _INTERFERE_FAMILIES[category][int(generator.integers(2))]
        if "{stem}" in path:
            path = path.replace("{stem}", _ASSET_STEMS[int(generator.integers(len(_ASSET_STEMS)))])
        headers = (("Content-Type", content_type),) if content_type else ()
        extras.append(HttpRecord(0, method, path, headers, content_type))
    positions = sorted(generator.integers(0, n + 1, size=count).tolist())
    merged = list(dataset.records)
    # from the last position back, so each insertion leaves the earlier ones
    for position, extra in reversed(list(zip(positions, extras))):
        merged.insert(position, extra)
    return [r if r.id == i else r._replace(id=i) for i, r in enumerate(merged)]


class ScalarDraws:
    """The draws of a Lexify mutation, each a scalar numpy call of its own."""

    def __init__(self, generator):
        self.generator = generator

    def below(self, n):
        return int(self.generator.integers(n))

    def order(self, n):
        return self.generator.permutation(n).tolist()


def scalar_lexify(dataset, ratio, seed):
    """Lexify's records with every draw a scalar call: the records chosen,
    then for each in index order its rule and the rule's own draws (the
    rules' mutations are those ``inject`` applies, tested above)."""
    n = len(dataset.records)
    count = int(round(ratio * n))
    if count == 0:
        return dataset.records
    records = [r if r.id == i else r._replace(id=i) for i, r in enumerate(dataset.records)]
    generator = np.random.default_rng(seed)
    draws = ScalarDraws(generator)
    for idx in sorted(generator.choice(n, size=count, replace=False).tolist()):
        url = SplitUrl(records[idx].url)
        names = applicable_rules(url)
        if names:
            name = names[draws.below(len(names))]
            records[idx] = records[idx]._replace(url=_apply(_LEXIFY[name], url, draws))
    return records


SEGMENTS = st.sampled_from(
    ["api", "v1", "audit-logs", "Items", "ORDERS", "12", "a", "price-rules", "search", "x.json"]
)
PAIRS = st.sampled_from(["page=2", "page=3", "q=a b", "k=", "sort", "id=7", "term=x", "tmp=0"])
# URLs whose queries hold 2 to 6 pairs, so Query Order Shuffle applies to
# each, and whose long segments take Dot Injection
LEXIFY_URLS = st.builds(
    lambda segments, pairs, slash: "/" + "/".join(segments) + slash + "?" + "&".join(pairs),
    st.lists(SEGMENTS, min_size=1, max_size=5),
    st.lists(PAIRS, min_size=2, max_size=6),
    st.sampled_from(["", "/"]),
)


class TestInject:
    @pytest.mark.parametrize("cell", sorted(PINNED_CAPTURES))
    def test_generated_captures_are_pinned(self, cell):
        corpus_seed, endpoints, requests, kind, ratio, seed = cell
        corpus = synth_corpus(CorpusSpec(endpoints, requests, seed=corpus_seed))
        noisy = inject(corpus, kind, ratio, seed)
        digest = hashlib.sha256(write_dataset(noisy).encode()).hexdigest()
        assert digest == PINNED_CAPTURES[cell]

    def test_ratio_zero_is_byte_identical(self):
        ds = small_dataset()
        out = inject(ds, LEXIFY, 0.0, seed=3)
        assert write_dataset(out) == write_dataset(ds)

    def test_lexify_transforms_exact_count(self):
        ds = small_dataset(10)
        out = inject(ds, LEXIFY, 0.5, seed=3)
        assert len(out.records) == 10
        changed = sum(
            1 for a, b in zip(ds.records, out.records) if a.url != b.url
        )
        assert changed == 5
        assert out.ground_truth == ds.ground_truth

    def test_interfere_adds_unlabeled_records(self):
        ds = small_dataset(10)
        out = inject(ds, "Interfere", 0.5, seed=3)
        assert len(out.records) == 15
        unlabeled = [r for r in out.records if r.label is None]
        assert len(unlabeled) == 5
        assert len(out.ground_truth) == 10
        # original records keep their relative order
        kept_urls = [r.url for r in out.records if r.label is not None]
        assert kept_urls == [r.url for r in ds.records]

    def test_ids_renumbered_densely(self):
        out = inject(small_dataset(10), "Interfere", 0.5, seed=3)
        assert [r.id for r in out.records] == list(range(15))
        assert set(out.ground_truth) <= set(range(15))

    @given(
        ids=st.lists(st.integers(0, 30), unique=True, max_size=12),
        ratio=st.floats(0, 1),
        seed=st.integers(0, 2**32),
    )
    @example(ids=list(range(8)), ratio=0.95, seed=1)
    @example(ids=[5, 1, 2, 9], ratio=1.0, seed=0)
    def test_interfere_is_merge_then_renumber(self, ids, ratio, seed):
        dataset = Dataset([rec(rid=rid, url=f"/api/v1/items/{rid}") for rid in ids])
        expected = merged_then_renumbered(dataset, ratio, seed)
        noisy = inject(dataset, INTERFERE, ratio, seed)
        assert noisy.records == expected
        assert [list(map(type, r)) for r in noisy.records] == [list(map(type, r)) for r in expected]
        # a record whose id does not move is the input's own object
        kept = [r for r in noisy.records if r.label is not None]
        for old, new in zip(dataset.records, kept):
            assert (new is old) == (new.id == old.id)

    @given(
        urls=st.lists(LEXIFY_URLS, min_size=1, max_size=12),
        ratio=st.floats(0, 1),
        seed=st.integers(0, 2**32),
    )
    @example(urls=["/api/v1/audit-logs?page=2&q=a b&sort&id=7&term=x&k="] * 6, ratio=1.0, seed=3)
    def test_lexify_draws_are_the_scalar_calls(self, urls, ratio, seed):
        dataset = Dataset([rec(rid=i, url=url) for i, url in enumerate(urls)])
        assert inject(dataset, LEXIFY, ratio, seed).records == scalar_lexify(dataset, ratio, seed)

    def test_deterministic(self):
        a = inject(small_dataset(), LEXIFY, 0.5, seed=7)
        b = inject(small_dataset(), LEXIFY, 0.5, seed=7)
        assert write_dataset(a) == write_dataset(b)
        c = inject(small_dataset(), LEXIFY, 0.5, seed=8)
        assert write_dataset(a) != write_dataset(c)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            inject(small_dataset(), LEXIFY, 1.5, seed=1)
        with pytest.raises(ValueError):
            inject(small_dataset(), "Garble", 0.5, seed=1)
        # the kind is checked also where no record would change
        for ratio in (0.0, 0.05):
            with pytest.raises(ValueError):
                inject(small_dataset(), "Lexfy", ratio, seed=1)


def assert_checked(record):
    """``record`` is exactly an ``HttpRecord`` and holds its fields as the
    constructor holds them, down to their types."""
    assert type(record) is HttpRecord
    built = HttpRecord(*record)
    assert tuple(record) == tuple(built)
    assert [type(v) for v in record] == [type(v) for v in built]


def from_input(base: Dataset, noisy: Dataset):
    """(input record, output record) pairs: every input record is labelled,
    and keeps its order among the output's labelled records."""
    kept = [r for r in noisy.records if r.label is not None]
    assert len(kept) == len(base.records)
    return list(zip(base.records, kept))


# URLs on which every Lexify rule applies to some record
RULE_URLS = (
    "/api/v1/user-profile/items/?q=a b&page=2&page=3",
    "/API/Orders/Item.json?id=7",
    "http://h:8080/api/v2/search?term=x",
    "/a",
)


def noise_bases():
    corpus = synth_corpus(CorpusSpec(6, 10, seed=5))
    built = [
        HttpRecord(i, "post" if i % 2 else "GET", url, (("Content-Type", "application/json"),),
                   "application/json", 12, 2, 1, f"EP_{i % len(RULE_URLS)}")
        for i, url in enumerate(RULE_URLS * 3)
    ]
    # ids no position reaches: every output record is renumbered
    sparse = [r._replace(id=1000 + i) for i, r in enumerate(corpus.records[:20] + built)]
    return [corpus, Dataset(built), Dataset(sparse)]


class TestNoiseRecords:
    """Every record the noise lab makes holds what ``HttpRecord``'s
    constructor would, and shares each field it does not change."""

    @pytest.mark.parametrize("kind", [LEXIFY, INTERFERE])
    @pytest.mark.parametrize("ratio", [0.05, 0.5, 0.95])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_injected_records_are_checked_and_share_unchanged_fields(self, kind, ratio, seed):
        for base in noise_bases():
            noisy = inject(base, kind, ratio, seed)
            for record in noisy.records:
                assert_checked(record)
            for old, new in from_input(base, noisy):
                assert all(new[i] is old[i] for i in (1, 3, 4, 5, 6, 7, 8))
                if kind == INTERFERE or new.url == old.url:
                    assert new.url is old.url
                if new.id == old.id and new.url is old.url:
                    assert new is old

    @pytest.mark.parametrize("name", LEXIFY_RULES)
    def test_lexify_records_are_checked_and_share_unchanged_fields(self, name):
        for i, url in enumerate(RULE_URLS):
            record = HttpRecord(i, "PUT", url, (("A", "b"),), "text/plain", 3, 1, 1, "EP")
            for seed in range(3):
                out, applied = lexify(record, rule(name), rng(seed))
                assert_checked(out)
                assert all(out[j] is record[j] for j in (0, 1, 3, 4, 5, 6, 7, 8))
                assert (out.url != url) if applied else (out is record)

    @pytest.mark.parametrize("name", INTERFERE_CATEGORIES)
    def test_interference_samples_are_checked(self, name):
        for seed in range(4):
            assert_checked(interfere_sample(name, rng(seed), record_id=seed))

    @pytest.mark.parametrize("record_id", ["x", True])
    def test_interference_sample_ids_are_checked(self, record_id):
        message = f"record {record_id}: id must be an integer, got {record_id!r}"
        with pytest.raises(IngestError, match=re.escape(message) + "$"):
            interfere_sample("Health Check Endpoint", rng(), record_id=record_id)
