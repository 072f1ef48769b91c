"""Path canonicalization."""

import re
from urllib.parse import urlsplit

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from apiminer.normalize import _decode_unreserved, canonical_path, normalize, path_start, split_url
from apiminer.records import HttpRecord, IngestError


def rec(url, method="GET"):
    return HttpRecord(id=0, method=method, url=url)


class TestNormalize:
    def test_scheme_and_host_stripped(self):
        nr = normalize(rec("http://h:8080/api/v1/items"))
        assert nr.segments == ["api", "v1", "items"]

    def test_repeated_slashes_and_trailing_slash(self):
        nr = normalize(rec("http://h/api//user/profile/"))
        assert nr.segments == ["api", "user", "profile"]

    def test_query_and_fragment_removed_keys_recorded_in_order(self):
        nr = normalize(rec("/api/user?role=admin&id=1#frag"))
        assert nr.segments == ["api", "user"]
        assert nr.raw_query_keys == ("role", "id")

    def test_duplicate_query_keys_kept(self):
        nr = normalize(rec("/api/user?id=1&id=2"))
        assert nr.raw_query_keys == ("id", "id")

    def test_requests_without_a_query_share_one_empty_tuple(self):
        a, b = normalize(rec("/api/user")), normalize(rec("/api/item?"))
        assert a.raw_query_keys == () and a.raw_query_keys is b.raw_query_keys

    def test_query_order_does_not_affect_path(self):
        a = normalize(rec("/api/user?role=admin&id=1"))
        b = normalize(rec("/api/user?id=1&role=admin"))
        assert (a.record.method, a.segments) == (b.record.method, b.segments)
        assert sorted(a.raw_query_keys) == sorted(b.raw_query_keys)

    def test_segments_lowercased(self):
        assert normalize(rec("/API/User")).segments == ["api", "user"]

    def test_percent_decoding_unreserved_only(self):
        # %74%65 = "te" (unreserved: decoded); %2F = "/" (reserved: preserved)
        nr = normalize(rec("/api/%74%65st/a%2Fb"))
        assert nr.segments == ["api", "test", "a%2fb"]

    def test_plus_left_untouched_in_path(self):
        assert normalize(rec("/api/a+b")).segments == ["api", "a+b"]

    def test_no_path_yields_root(self):
        nr = normalize(rec("http://h"))
        assert nr.segments == []
        assert canonical_path(nr) == "/"

    def test_root_path(self):
        assert canonical_path(normalize(rec("/"))) == "/"

    def test_method_carried_over(self):
        assert normalize(rec("/x", method="post")).record.method == "POST"


# pieces that reach each branch of split_url: plain relative and http(s)
# URLs, hosts urlsplit checks, and what urlsplit strips or deletes
URL_PIECES = [
    "http://", "https://", "HTTP://", "ftp:", "//", "/", "[", "]", "é",
    # U+2100 turns into 'a/c' under NFKC, which urlsplit rejects in a host
    "\u2100", "?", "#", "\t", "\r", "\n", "\x00", " ", "h", "api", ":",
]


# what decides where path_start puts the path: slashes, '://', the query and
# fragment marks, what urlsplit deletes, the schemes, what no plain host holds
PATH_START_PIECES = [
    "/", "//", "://", "?", "#", "\t", "\r", "\n", "http", "https", "HTTP", "[", "]", "é",
    "@", "%20", "h", ":", "a",
]


def two_step_path_start(url):
    """The path start of the rule as first written, in two steps: a plain
    relative or http(s) URL, then the '//…' URL with no '://' before its
    query and fragment."""
    if "\t" in url or "\r" in url or "\n" in url:
        start = None
    elif url[:1] == "/" and url[1:2] != "/":
        start = 0
    else:
        origin = re.match(r"https?://[^/?#\[\]\x80-\U0010ffff]*(?![^/?#])", url)
        start = origin.end() if origin else None
    if start is None and url.startswith("//") and not re.match(r"[^?#]*://", url):
        return 0
    return start


class TestSplitUrl:
    def test_path_and_query(self):
        assert split_url(rec("https://h:1/api/x?a=1&b=2#frag")) == ("/api/x", "a=1&b=2")

    def test_schemeless_double_slash_is_a_path(self):
        assert split_url(rec("//api/v1/users/12?x=1#f")) == ("//api/v1/users/12", "x=1")
        assert split_url(rec("//h/p?next=http://x")) == ("//h/p", "next=http://x")

    def test_a_fragment_does_not_change_how_a_schemeless_url_reads(self):
        assert split_url(rec("//api/v1/users#x://y")) == ("//api/v1/users", "")
        assert normalize(rec("//api/v1/users#x://y")).segments == ["api", "v1", "users"]
        assert normalize(rec("//api/v1/users")).segments == ["api", "v1", "users"]

    def test_normalize_reads_a_given_split(self):
        record = rec("http://h/api/Users/12?id=1")
        assert normalize(record, split_url(record)) == normalize(record)

    @pytest.mark.parametrize("url", ["http://[::1/api/x", "http://a]b/x"])
    def test_malformed_url_names_record_and_url(self, url):
        record = HttpRecord(id=7, method="GET", url=url)
        with pytest.raises(IngestError, match=re.escape(f"record 7: malformed url {url!r}")):
            split_url(record)
        with pytest.raises(IngestError, match="record 7"):
            normalize(record)

    @settings(max_examples=1000, deadline=None)
    @given(st.text() | st.lists(st.sampled_from(URL_PIECES) | st.text(max_size=3), max_size=12).map("".join))
    # '//' then a scheme: not the schemeless branch, and not a relative path
    @example("//http://")
    def test_split_is_urlsplits(self, url):
        assume(not (url.startswith("//") and not re.match(r"[^?#]*://", url)))
        try:
            parts = urlsplit(url)
        except ValueError:
            with pytest.raises(IngestError):
                split_url(rec(url))
            return
        assert split_url(rec(url)) == (parts.path, parts.query)

    @settings(max_examples=1000, deadline=None)
    @given(st.lists(st.sampled_from(PATH_START_PIECES), max_size=10).map("".join))
    def test_path_start_is_the_two_step_rule(self, url):
        assert path_start(url) == two_step_path_start(url)

    @pytest.mark.parametrize("path, decoded", [
        ("/%41%7e%2D", "/A~-"),
        ("/%4a%5f%2e", "/J_."),
        # reserved, non-ASCII and malformed escapes stay as they are
        ("/a%2Fb%3f%20", "/a%2Fb%3f%20"),
        ("/%C3%A9", "/%C3%A9"),
        ("/%4", "/%4"),
        ("/%%41", "/%A"),
        ("/%+1%-1% 1", "/%+1%-1% 1"),
        # only ASCII hex digits form an escape (RFC 3986): not fullwidth or
        # Arabic-Indic digits, which int(..., 16) reads as 4 and 1
        ("/%\uff14\uff11", "/%\uff14\uff11"),
        ("/%\u0664\u0661", "/%\u0664\u0661"),
    ])
    def test_decode_unreserved(self, path, decoded):
        assert _decode_unreserved(path) == decoded

    def test_path_without_escapes_is_returned_as_is(self):
        path = "/api/a+b/c"
        assert _decode_unreserved(path) is path


class TestCanonicalPath:
    def test_joins_segments(self):
        nr = normalize(rec("/api/v1/items"))
        assert canonical_path(nr) == "/api/v1/items"

    def test_round_trip_on_canonical_input(self):
        nr = normalize(rec("/api/user"))
        again = normalize(rec(canonical_path(nr)))
        assert again.segments == nr.segments


SEGMENT = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_",
    min_size=1,
    max_size=10,
)


class TestProperties:
    @given(st.lists(SEGMENT, min_size=0, max_size=6))
    def test_idempotence(self, segments):
        url = "/" + "/".join(segments)
        nr = normalize(rec(url))
        again = normalize(rec(canonical_path(nr)))
        assert again.segments == nr.segments

    @given(st.lists(SEGMENT, min_size=1, max_size=6), st.integers(0, 5))
    def test_slash_noise_absorbed(self, segments, extra):
        clean = "/" + "/".join(segments)
        noisy = "/" + ("/" * extra) + ("/" * 2).join(segments) + "/"
        assert normalize(rec(noisy)).segments == normalize(rec(clean)).segments


# cased letters, the final-sigma context (':' and '.' are case-ignorable),
# characters whose lower case is longer ('İ'), escapes, and fullwidth and
# Arabic-Indic digits, which are no hex digits in an escape
PATH_CHARS = st.sampled_from("/Σσς İIıAa:.'%2F41\uff14\uff11\u0664\u0661") | st.characters()


class TestLowerOnce:
    @settings(max_examples=500, deadline=None)
    @given(st.text(alphabet=PATH_CHARS))
    @example("/AΣ/b")
    @example("/AΣ:/b")
    @example("/a/Σ")
    @example("/İ/x")
    def test_segments_are_each_segment_lowered(self, path):
        expected = [seg.lower() for seg in _decode_unreserved(path).split("/") if seg]
        assert normalize(rec("/"), (path, "")).segments == expected

    def test_segments_and_keys_are_shared_through_the_table(self):
        shared = {}
        a = normalize(rec("/API/Items/7?page=1&sort=x"), shared=shared)
        b = normalize(rec("/api/items/8?page=2"), shared=shared)
        assert a.segments[:2] == b.segments[:2] == ["api", "items"]
        assert all(x is y for x, y in zip(a.segments[:2], b.segments[:2]))
        assert a.raw_query_keys[0] is b.raw_query_keys[0]
        assert set(shared) == {"api", "items", "7", "8", "page", "sort"}
