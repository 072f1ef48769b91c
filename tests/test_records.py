"""Ingestion: HAR / JSONL parsing, canonical serialization, validation."""

import copy
import enum
import gc
import io
import json
import pickle
import re
import time
import tracemalloc

import pytest
from hypothesis import example, given, strategies as st

from apiminer.records import (
    Dataset,
    HttpRecord,
    IngestError,
    parse_har,
    parse_jsonl,
    read_labels,
    write_dataset,
)
from apiminer.cli import main
from apiminer.corpus import CorpusSpec, synth_corpus
from apiminer.metrics import report
from apiminer.noise import INTERFERE, LEXIFY, inject
from apiminer.refine import discover, prepare_traffic


def har_doc(entries):
    return json.dumps({"log": {"entries": entries}}).encode("utf-8")


def entry(method="GET", url="http://h/api/v1/user/me", headers=(), body=None, body_size=0):
    e = {
        "request": {
            "method": method,
            "url": url,
            "headers": [{"name": n, "value": v} for n, v in headers],
            "bodySize": body_size,
        }
    }
    if body is not None:
        e["request"]["postData"] = {"text": body}
    return e


class TestParseHar:
    def test_single_entry(self):
        ds = parse_har(har_doc([entry()]))
        assert len(ds.records) == 1
        rec = ds.records[0]
        assert rec.method == "GET"
        assert rec.url == "http://h/api/v1/user/me"
        assert rec.id == 0

    def test_content_type_header_case_insensitive_first_wins(self):
        ds = parse_har(
            har_doc(
                [
                    entry(
                        headers=[
                            ("content-TYPE", "application/json"),
                            ("Content-Type", "text/html"),
                        ]
                    )
                ]
            )
        )
        assert ds.records[0].content_type == "application/json"

    def test_json_body_structure_metrics(self):
        body = json.dumps({"a": 1, "b": {"c": [1, 2]}})
        ds = parse_har(
            har_doc(
                [
                    entry(
                        method="POST",
                        headers=[("Content-Type", "application/json")],
                        body=body,
                        body_size=len(body),
                    )
                ]
            )
        )
        rec = ds.records[0]
        assert rec.body_field_count == 2
        assert rec.body_nesting_depth == 3  # {"b": {"c": [..]}}

    def test_entry_without_url_skipped_and_counted(self):
        ds = parse_har(har_doc([{"request": {"method": "GET"}}, entry()]))
        assert len(ds.records) == 1
        assert ds.skipped == 1

    def test_a_null_or_empty_url_is_skipped_and_counted(self):
        ds = parse_har(har_doc([entry(url=None), entry(), entry(url="")]))
        assert [r.url for r in ds.records] == [entry()["request"]["url"]]
        assert ds.skipped == 2

    @pytest.mark.parametrize("value", ["0", "false", "[]", "{}", "5", "1.5", "true", '["/x"]'])
    def test_a_url_that_is_not_a_string_is_refused(self, tmp_path, capsys, value):
        # only a missing, null or empty URL is skipped: a falsy number, bool,
        # list or object is no more a URL than a truthy one
        src = tmp_path / "bad.har"
        src.write_bytes(b'{"log": {"entries": [{"request": {"url": "/a"}}, {"request": {"url": %s}}]}}'
                        % value.encode())
        message = f"malformed HAR entry at index 1: url must be a string, got {json.loads(value)!r}"
        with pytest.raises(IngestError, match=re.escape(message) + "$"):
            parse_har(src.read_bytes())
        assert main(["ingest", "--format", "har", "--in", str(src)]) == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1

    def test_malformed_json_reports_byte_offset(self):
        with pytest.raises(IngestError, match=r"byte offset \d+"):
            parse_har(b'{"log": {"entries": [}}')

    def test_missing_log_key(self):
        with pytest.raises(IngestError, match="log"):
            parse_har(b"{}")

    def test_entry_without_request_is_hard_error(self):
        with pytest.raises(IngestError, match="index 0"):
            parse_har(har_doc([{"response": {}}]))

    @pytest.mark.parametrize("field, value", [
        ("headers", ["oops"]),
        ("headers", [{"name": 1, "value": "x"}]),
        ("headers", {"name": "a"}),
        ("bodySize", "x"),
        ("bodySize", [1]),
        ("url", 5),
        ("postData", "raw"),
        ("method", 5),
        ("method", None),
        ("method", ["GET"]),
    ])
    def test_malformed_field_names_entry_and_field(self, field, value):
        bad = entry(headers=[("Content-Type", "application/json")], body="{}", body_size=2)
        bad["request"][field] = value
        with pytest.raises(IngestError, match=f"entry at index 1: {field} must be"):
            parse_har(har_doc([entry(), bad]))

    def test_request_and_log_must_be_objects(self):
        with pytest.raises(IngestError, match="index 0: request must be an object"):
            parse_har(har_doc([{"request": []}]))
        with pytest.raises(IngestError, match="log is not an object"):
            parse_har(b'{"log": []}')

    @pytest.mark.parametrize("value", ["1.5", "2.0", "1e3", "-1.0", "true", "false", '"7"'])
    def test_a_body_size_that_is_not_a_json_integer_is_refused(self, tmp_path, capsys, value):
        # as the JSONL reader and the record refuse it: no bool, float or
        # string is read as a count, nor is -1.0 read as HAR's "unknown" -1
        src = tmp_path / "bad.har"
        src.write_bytes(b'{"log": {"entries": [{"request": {"url": "/x", "bodySize": %s}}]}}'
                        % value.encode())
        message = f"entry at index 0: bodySize must be an integer, got {json.loads(value)!r}"
        with pytest.raises(IngestError, match=re.escape(message)):
            parse_har(src.read_bytes())
        assert main(["ingest", "--format", "har", "--in", str(src)]) == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1

    def test_body_size_unknown_without_text_reads_as_zero_and_fits_64_bits(self):
        # -1 and null are HAR's "unknown"; with no posted text there is no size
        for body_size in (-1, None):
            for e in (entry(body_size=body_size), entry(body="", body_size=body_size)):
                assert parse_har(har_doc([e])).records[0].body_size == 0
            e = entry(body_size=body_size)
            for post_data in ({}, {"text": None}, {"text": 7}, "x", None):
                e["request"]["postData"] = post_data
                assert parse_har(har_doc([e])).records[0].body_size == 0
        with pytest.raises(IngestError, match="entry at index 0: bodySize must be a 64-bit integer"):
            parse_har(har_doc([entry(body_size=2**63)]))

    @pytest.mark.parametrize("body_size", [-1, None])
    def test_body_size_unknown_reads_the_posted_text(self, tmp_path, body_size):
        # a JSON POST exported without its size keeps its size and counts
        body = '{"name": "é", "tags": ["a"], "meta": {"k": 1}}'
        headers = [("Content-Type", "application/json")]
        doc = har_doc([
            entry("POST", "/api/v1/orders", headers, body, body_size),
            entry("POST", "/api/v1/orders", headers, body, len(body.encode("utf-8"))),
            # a lone surrogate is three bytes under surrogatepass
            entry("POST", "/api/v1/notes", [("Content-Type", "text/plain")], "a\ud800", body_size),
        ])
        unknown, known, lone = parse_har(doc).records
        assert unknown.body_size == len(body.encode("utf-8")) == 47
        counts = (unknown.body_field_count, unknown.body_nesting_depth)
        assert counts == (known.body_field_count, known.body_nesting_depth) != (None, None)
        assert lone.body_size == 4
        src, out = tmp_path / "c.har", tmp_path / "c.jsonl"
        src.write_bytes(doc)
        assert main(["ingest", "--format", "har", "--in", str(src), "--out", str(out)]) == 0
        assert parse_jsonl(out.read_text(encoding="utf-8")).records[0] == unknown

    @pytest.mark.parametrize("levels", [600, 100_000])
    def test_deeply_nested_body_is_opaque(self, levels):
        # json.loads gives up on the deeper body, the depth walk on the other
        body = "[" * levels + "]" * levels
        bad = entry(headers=[("Content-Type", "application/json")], body=body, body_size=len(body))
        record = parse_har(har_doc([bad])).records[0]
        assert (record.body_field_count, record.body_nesting_depth) == (0, 0)

    def test_deeply_nested_document(self):
        with pytest.raises(IngestError, match="nested too deeply"):
            parse_har(b"[" * 100_000)


class TestParseJsonl:
    def test_basic_fields_and_labels(self):
        text = (
            '{"id": 0, "method": "get", "url": "/api/a", "label": "EP_A"}\n'
            '{"id": 1, "method": "POST", "url": "/api/b", "body_size": 10}\n'
        )
        ds = parse_jsonl(text)
        assert [r.method for r in ds.records] == ["GET", "POST"]
        assert ds.ground_truth == {0: "EP_A"}

    def test_blank_lines_ignored(self):
        ds = parse_jsonl('\n{"method": "GET", "url": "/x"}\n\n')
        assert len(ds.records) == 1

    def test_error_carries_line_number(self):
        with pytest.raises(IngestError, match="line 2"):
            parse_jsonl('{"method": "GET", "url": "/x"}\nnot json\n')

    def test_missing_method_or_url(self):
        with pytest.raises(IngestError, match="line 1"):
            parse_jsonl('{"url": "/x"}\n')

    @pytest.mark.parametrize("field, value", [
        ("body_size", '"abc"'),
        ("body_size", "[1]"),
        ("body_field_count", '"x"'),
        ("body_nesting_depth", "{}"),
        ("headers", '["oops"]'),
        ("headers", "[[\"a\", 1]]"),
        ("content_type", "3"),
        ("label", "[]"),
        ("method", "null"),
        ("method", '["x"]'),
        ("url", "null"),
        ("url", "7"),
        ("url", '{"path": "/y"}'),
    ])
    def test_malformed_field_names_line_and_field(self, field, value):
        text = '{"method": "GET", "url": "/x"}\n' f'{{"method": "GET", "url": "/y", "{field}": {value}}}\n'
        with pytest.raises(IngestError, match=f"line 2: {field} must be"):
            parse_jsonl(text)

    @pytest.mark.parametrize("field", ["body_size", "body_field_count", "body_nesting_depth"])
    @pytest.mark.parametrize("value", ["1.5", "2.0", "1e3", "1e300", "true", "false", '"7"', '"9223372036854775807"'])
    def test_a_count_that_is_not_a_json_integer_is_refused(self, field, value):
        # as the record refuses it: no bool, float or string is read as a count
        text = '{"method": "GET", "url": "/x"}\n{"method": "GET", "url": "/y", "%s": %s}' % (field, value)
        message = f"line 2: {field} must be an integer, got {json.loads(value)!r}"
        for read in (parse_jsonl, read_labels):
            with pytest.raises(IngestError, match=re.escape(message)):
                read(text)
        # null is a count left out
        line = '{"method": "GET", "url": "/x", "%s": null}' % field
        assert parse_jsonl(line).records == [HttpRecord(0, "GET", "/x")]

    @pytest.mark.parametrize("field", ["body_size", "body_field_count", "body_nesting_depth"])
    def test_counts_fit_64_bits(self, field):
        # a float holds neither 10**400 nor -10**400, and each count becomes one
        for value in (2**63 - 1, -(2**63)):
            parse_jsonl('{"method": "GET", "url": "/x", "%s": %s}' % (field, json.dumps(value)))
        for value in (2**63, -(2**63) - 1, 10**400):
            with pytest.raises(IngestError, match=f"line 1: {field} must be a 64-bit integer"):
                parse_jsonl('{"method": "GET", "url": "/x", "%s": %s}' % (field, json.dumps(value)))

    def test_padded_lines_parse_as_json_loads_does(self):
        ds = parse_jsonl('  {"method": "GET", "url": "/x"}  \n\t{"method": "GET", "url": "/y"}')
        assert [r.url for r in ds.records] == ["/x", "/y"]

    def test_deeply_nested_line(self):
        with pytest.raises(IngestError, match="line 2: nested too deeply"):
            parse_jsonl('{"method": "GET", "url": "/x"}\n' + "[" * 100_000)

    @given(line=st.lists(st.sampled_from([
        '{"method": "GET", "url": "/x"}', "{", "}", "[", "]", '"', ",", ":", " ", "\t",
        "\ufeff", "1", "-", "e5", "1" * 5000, "NaN", "null", "true", '"a"', '{"k":', "\\u00e9",
    ]), max_size=6).map("".join))
    def test_every_line_reads_as_json_loads_reads_it(self, line):
        # the direct scanner call falls back to json.loads for anything it
        # does not read whole, so objects and error messages are json.loads's
        from apiminer.records import _loads

        try:
            expected = json.loads(line)
        except (ValueError, RecursionError) as exc:
            with pytest.raises(type(exc)) as got:
                _loads(line)
            assert str(got.value) == str(exc)
        else:
            # repr: NaN is not equal to itself, and key order counts
            assert repr(_loads(line)) == repr(expected)


class Count(enum.IntEnum):
    TWO = 2


class Text(str):
    pass


class TestRecordInvariants:
    def test_method_uppercased(self):
        assert HttpRecord(id=0, method="post", url="/x").method == "POST"

    def test_negative_body_size_clamped(self):
        assert HttpRecord(id=0, method="GET", url="/x", body_size=-5).body_size == 0

    def test_zero_body_clears_structure_metrics(self):
        rec = HttpRecord(
            id=0, method="GET", url="/x", body_size=0,
            body_field_count=3, body_nesting_depth=2,
        )
        assert rec.body_field_count == 0
        assert rec.body_nesting_depth == 0

    def test_duplicate_ids_rejected(self):
        r = HttpRecord(id=0, method="GET", url="/x")
        with pytest.raises(IngestError, match="^duplicate record id 0 in dataset$"):
            Dataset(records=[r, HttpRecord(id=0, method="GET", url="/y")])
        # the first record whose id an earlier one holds
        records = [HttpRecord(id=i, method="GET", url="/x") for i in (4, 9, 2, 9, 4)]
        with pytest.raises(IngestError, match="^duplicate record id 9 in dataset$"):
            Dataset(records=records)

    @pytest.mark.parametrize("field", ["body_size", "body_field_count", "body_nesting_depth"])
    def test_counts_fit_64_bits(self, field):
        HttpRecord(id=0, method="GET", url="/x", **{"body_size": 1, field: 2**63 - 1})
        for value in (2**63, -(2**63) - 1, 10**400):
            with pytest.raises(IngestError, match=f"record 7: {field} must be a 64-bit integer"):
                HttpRecord(id=7, method="GET", url="/x", **{"body_size": 1, field: value})

    def test_a_count_cannot_be_set_after_construction(self):
        records = [
            HttpRecord(id=i, method="POST", url=f"/api/v1/items/{i}",
                       content_type="application/json", body_size=10, body_field_count=2)
            for i in range(4)
        ]
        with pytest.raises(AttributeError):
            records[0].body_field_count = 10**400
        # every other way to a record with a new count checks it
        with pytest.raises(IngestError, match="record 0: body_field_count must be a 64-bit"):
            records[0]._replace(body_field_count=10**400)
        with pytest.raises(IngestError, match="record 0: body_field_count must be a 64-bit"):
            HttpRecord._make((0, "POST", "/x", (), None, 10, 10**400, None, None))
        assert records[0].body_field_count == 2
        clusters = discover(prepare_traffic(Dataset(records=records)))
        assert sorted(i for c in clusters for i in c.member_ids) == [0, 1, 2, 3]

    def test_normalized_when_built_and_equal_when_copied(self):
        record = HttpRecord(id=3, method="get", url="/x", headers=[["A", "b"]],
                            body_size=-4, body_field_count=5)
        assert record.method == "GET"
        assert record.headers == (("A", "b"),)
        assert (record.body_size, record.body_field_count) == (0, 0)
        assert pickle.loads(pickle.dumps(record)) == record
        assert copy.deepcopy(record) == record
        assert record._replace(url="/y") == HttpRecord(3, "GET", "/y", (("A", "b"),), None, 0, 0)
        assert HttpRecord(0, "GET", "/x", (["A", "b"],)).headers == (("A", "b"),)
        assert HttpRecord(0, "GET", "/x", record.headers).headers is record.headers

    @pytest.mark.parametrize("field, value", [
        ("url", None),
        ("id", True),
        ("body_field_count", 1.5),
        ("body_size", 1.5),
        ("url", Text("/x")),
        ("body_nesting_depth", Count.TWO),
        ("headers", (("a", "b", "c"),)),
        ("headers", (("a", ["b"]),)),
        ("method", None),
        ("content_type", 5),
        ("label", 3),
        ("headers", "ab"),
    ], ids=["none-url", "bool-id", "float-count", "float-size", "str-subclass", "intenum",
            "header-triple", "list-header-value", "none-method", "int-content-type",
            "int-label", "str-headers"])
    def test_a_field_of_another_type_is_an_ingest_error(self, field, value):
        fields = dict(id=7, method="GET", url="/x", headers=(("a", "b"),), content_type="t",
                      body_size=3, body_field_count=1, body_nesting_depth=1, label="L")
        fields[field] = value
        message = f"record {fields['id']}: {field} must be .*, got {re.escape(repr(value))}$"
        with pytest.raises(IngestError, match=message):
            HttpRecord(**fields)
        # _replace builds through the same checks
        with pytest.raises(IngestError, match=message):
            HttpRecord(7, "GET", "/x")._replace(**{field: value})



def labelled_dataset():
    """Two endpoints of six labelled requests each, and one unlabelled request."""
    records = [
        HttpRecord(id=i, method="GET", url=f"/api/v1/{name}/{i}?page=1",
                   content_type="application/json", label=name.upper())
        for i, name in enumerate(["items", "users"] * 6)
    ]
    records.append(HttpRecord(id=12, method="GET", url="/api/v1/health"))
    return Dataset(records=records)


class TestGroundTruth:
    """A dataset's ground truth is its records' labels, however it was made."""

    def test_labels_of_built_records(self):
        ds = labelled_dataset()
        assert ds.ground_truth == {i: ["ITEMS", "USERS"][i % 2] for i in range(12)}
        assert Dataset(records=[HttpRecord(0, "GET", "/a", label="X")]).ground_truth == {0: "X"}

    def test_labels_survive_write_and_parse(self):
        ds = labelled_dataset()
        again = parse_jsonl(write_dataset(ds))
        assert again.ground_truth == ds.ground_truth
        assert read_labels(write_dataset(ds)) == (ds.ground_truth, 13)

    @pytest.mark.parametrize("kind", [LEXIFY, INTERFERE])
    def test_labels_survive_inject(self, kind):
        ds = labelled_dataset()
        noisy = inject(ds, kind, 0.5, 3)
        assert noisy.ground_truth == {r.id: r.label for r in noisy.records if r.label is not None}
        assert list(noisy.ground_truth.values()) == list(ds.ground_truth.values())

    def test_report_scores_built_dataset(self):
        ds = labelled_dataset()
        rep = report(discover(prepare_traffic(ds)), ds.ground_truth)
        assert (rep.tp, rep.fn) == (2, 0)


# strings with quotes, backslashes, control characters, DEL, text past ASCII,
# astral characters and lone surrogates
WRITER_TEXT = st.text(
    st.sampled_from('"\\\x00\x1f\x7f\xe9\u2028\U0001f600\ud800\udfff/a') | st.characters(exclude_categories=())
)
# a codec, not the default category filter: in a union with other characters
# the default filter lets lone surrogates through
SURROGATE_FREE_TEXT = st.text(st.sampled_from('"\\\x00\x1f\x7f\xe9\u2028\U0001f600/a') | st.characters(codec="utf-8"))
COUNTS = st.integers(-(2**63 - 1), 2**63 - 1)
# each field of a record, of the types the constructor takes
RECORD_FIELDS = dict(
    id=st.just(0),
    method=st.sampled_from(["GET", "post"]) | SURROGATE_FREE_TEXT,
    url=SURROGATE_FREE_TEXT,
    headers=st.lists(st.tuples(SURROGATE_FREE_TEXT, SURROGATE_FREE_TEXT), max_size=2).map(tuple),
    content_type=st.none() | SURROGATE_FREE_TEXT,
    body_size=COUNTS,
    body_field_count=st.none() | COUNTS,
    body_nesting_depth=st.none() | COUNTS,
    label=st.none() | SURROGATE_FREE_TEXT,
)
# values of other types, and of types next to the constructor's
OTHER_VALUES = st.sampled_from([None, True, False, 1.5, 2.0, Count.TWO, Text("t"), b"x", ["x"]])
LOOSE_TEXT = SURROGATE_FREE_TEXT | OTHER_VALUES
LOOSE_HEADERS = st.lists(st.tuples(LOOSE_TEXT, LOOSE_TEXT) | st.lists(LOOSE_TEXT, max_size=3), max_size=2)


@st.composite
def loose_fields(draw):
    """A record's fields of the constructor's types, but for at most one,
    whose name is returned with them and whose value is of another type or
    next to its own."""
    fields = draw(st.fixed_dictionaries(RECORD_FIELDS))
    name = draw(st.sampled_from([None, *fields]))
    if name is not None:
        fields[name] = draw(OTHER_VALUES | LOOSE_HEADERS.map(tuple) if name == "headers" else OTHER_VALUES)
    return name, fields


class TestRoundTrip:
    def test_write_then_parse_is_identity(self):
        text = (
            '{"id": 0, "method": "GET", "url": "/api/a?x=1",'
            ' "headers": [["Content-Type", "application/json"]],'
            ' "content_type": "application/json", "body_size": 0, "label": "E"}\n'
            '{"id": 1, "method": "POST", "url": "/api/b", "body_size": 7,'
            ' "body_field_count": 2, "body_nesting_depth": 1}\n'
        )
        ds = parse_jsonl(text)
        again = parse_jsonl(write_dataset(ds))
        assert again.records == ds.records
        assert again.ground_truth == ds.ground_truth

    def test_serialization_is_stable(self):
        ds = parse_jsonl('{"method": "GET", "url": "/x"}\n')
        assert write_dataset(ds) == write_dataset(parse_jsonl(write_dataset(ds)))

    def test_empty_dataset_serializes_to_empty_string(self):
        assert write_dataset(Dataset()) == ""

    @given(st.lists(st.builds(HttpRecord, **RECORD_FIELDS), max_size=4))
    def test_records_round_trip_for_dense_ids_without_lone_surrogates(self, records):
        records = [r._replace(id=i) for i, r in enumerate(records)]
        again = parse_jsonl(write_dataset(Dataset(records, source="built")))
        assert again.records == records
        assert [list(map(type, r)) for r in again.records] == [list(map(type, r)) for r in records]
        assert again.source == "jsonl"

    @given(loose_fields())
    def test_a_record_of_loose_fields_is_refused_or_round_trips(self, drawn):
        name, fields = drawn
        try:
            record = HttpRecord(**fields)
        except IngestError as exc:
            assert name is not None and f"record {fields['id']}: {name} must be " in str(exc)
            return
        again = parse_jsonl(write_dataset(Dataset([record])))
        assert again.records == [record]
        assert list(map(type, again.records[0])) == list(map(type, record))

    def test_ids_are_renumbered_from_zero(self):
        records = [HttpRecord(5, "GET", "/a"), HttpRecord(9, "GET", "/b")]
        again = parse_jsonl(write_dataset(Dataset(records)))
        assert again.records == [r._replace(id=i) for i, r in enumerate(records)]

    @pytest.mark.parametrize("field", ["method", "url", "headers", "content_type", "label"])
    def test_a_lone_surrogate_is_refused_by_the_record(self, field):
        # no UTF-8 output can write one, and no reader reads its escape
        record = HttpRecord(7, "GET", "/x", (("a", "b"),), "t", label="L")
        values = {"method": "G\ud800T", "url": "/x\udfff", "headers": (("a", "\udbff"),),
                  "content_type": "\udc00t", "label": "L\ud800"}
        message = f"record 7: {field} must be a string without a lone surrogate"
        with pytest.raises(IngestError, match=message):
            record._replace(**{field: values[field]})
        with pytest.raises(IngestError, match=message):
            HttpRecord(**{**record._asdict(), field: values[field]})


# the JSON encoder's text with the writer's separators: the oracle of its layout
ENCODE_LINE = json.JSONEncoder(separators=(",", ":")).encode


def encoded_line(record) -> str:
    """A record's line as the JSON encoder writes it from the dict of its
    fields, keys in the written order and each optional field only when set."""
    rid, method, url, headers, content_type, body_size, fields, depth, label = record
    out = {"id": rid, "method": method, "url": url, "headers": [list(h) for h in headers]}
    if content_type is not None:
        out["content_type"] = content_type
    out["body_size"] = body_size
    if fields is not None:
        out["body_field_count"] = fields
    if depth is not None:
        out["body_nesting_depth"] = depth
    if label is not None:
        out["label"] = label
    return ENCODE_LINE(out) + "\n"


def held(*fields) -> HttpRecord:
    """A record that holds ``fields`` as given, past the constructor's checks."""
    return tuple.__new__(HttpRecord, fields)


SHARED_HEADERS = (("Content-Type", "application/json"),)


@st.composite
def writer_records(draw):
    """One to three records with distinct ids, fields of the constructor's
    types as drawn (past its range checks, clamping and clearing); a later
    record may share the first one's headers."""
    records = []
    for rid in draw(st.lists(COUNTS, min_size=1, max_size=3, unique=True)):
        headers = draw(st.lists(st.tuples(WRITER_TEXT, WRITER_TEXT), max_size=3).map(tuple))
        if records and draw(st.booleans()):
            headers = records[0].headers
        records.append(held(
            rid,
            draw(WRITER_TEXT),
            draw(WRITER_TEXT),
            headers,
            draw(st.none() | WRITER_TEXT),
            draw(COUNTS),
            draw(st.none() | COUNTS),
            draw(st.none() | COUNTS),
            draw(st.none() | WRITER_TEXT),
        ))
    return records


# a few strings that each field draws from, so one string is the method of
# one record, the content type of another and the label of a third
SHARED_TEXT = st.sampled_from(["GET", "a", "", '"', "\u00e9", "\U0001f600", "\x00"])


@st.composite
def pooled_records(draw):
    """Two to six records whose strings come from ``SHARED_TEXT``."""
    count = draw(st.integers(2, 6))
    return [
        held(
            rid,
            draw(SHARED_TEXT),
            draw(SHARED_TEXT),
            draw(st.lists(st.tuples(SHARED_TEXT, SHARED_TEXT), max_size=2).map(tuple)),
            draw(st.none() | SHARED_TEXT),
            draw(st.integers(0, 3)),
            draw(st.none() | st.integers(0, 3)),
            draw(st.none() | st.integers(0, 3)),
            draw(st.none() | SHARED_TEXT),
        )
        for rid in range(count)
    ]


class TestWriter:
    """``write_dataset`` writes each line as the JSON encoder writes the dict
    of its fields."""

    @given(writer_records())
    @example([HttpRecord(0, "GET", "/a", SHARED_HEADERS, label="A"),
              HttpRecord(1, "POST", "/b", SHARED_HEADERS, body_size=2)])
    def test_lines_are_the_encoders(self, records):
        assert write_dataset(Dataset(records)) == "".join(encoded_line(r) for r in records)

    @given(pooled_records())
    @example([held(0, "a", "/x", (), "GET", 0, None, None, "a"),
              held(1, "GET", "/y", (), "a", 1, 1, None, "GET")])
    def test_a_string_shared_by_fields_is_written_as_each_field(self, records):
        # one string may be a method in one record and a label in another
        assert write_dataset(Dataset(records)) == "".join(encoded_line(r) for r in records)

    def test_checked_records_are_the_encoders_lines(self):
        records = [
            HttpRecord(0, "get", "/a\u00e9", SHARED_HEADERS, "application/json", 5, 2, 1, "A"),
            HttpRecord(1, "POST", "/b", [["x", "\x00"]], body_size=-3, body_field_count=4),
            HttpRecord(2, "PUT", "/c\U0001f600", SHARED_HEADERS, label="C\u2028"),
        ]
        assert write_dataset(Dataset(records)) == "".join(encoded_line(r) for r in records)


def canonical_capture(count=3) -> str:
    records = [
        HttpRecord(id=i, method="GET", url=f"/api/v1/items/{i}", label=f"EP_{i % 2}")
        for i in range(count)
    ]
    return write_dataset(Dataset(records=records))


class TestReadLabels:
    @pytest.mark.parametrize("line, message", [
        ("not json", "line 4: Expecting value"),
        # white space to str.strip, but not to json.loads
        ("\x0c", "line 4: Expecting value"),
        ("\x1e", "line 4: Expecting value"),
        ("\xa0", "line 4: Expecting value"),
        ("\u2028", "line 4: Expecting value"),
        ('{"id":3,"method":"GET","url":"/x","headers":[],"body_size":' + "9" * 20 + "}",
         "line 4: body_size must be a 64-bit integer"),
    ])
    def test_malformed_line_after_canonical_lines_names_its_line(self, line, message):
        text = canonical_capture() + line + "\n" + canonical_capture()
        for reader in (read_labels, parse_jsonl):
            with pytest.raises(IngestError, match=message):
                reader(text)

    def test_crlf_and_blank_lines_are_skipped_and_not_counted(self):
        lines = canonical_capture(4).splitlines()
        text = "\r\n".join(["", lines[0], " ", lines[1], "\t", "", lines[2], lines[3], "  "]) + "\r\n"
        assert read_labels(text) == ({0: "EP_0", 1: "EP_1", 2: "EP_0", 3: "EP_1"}, 4)
        assert read_labels(text) == (parse_jsonl(text).ground_truth, 4)

    @pytest.mark.parametrize("as_file", [False, True])
    def test_each_distinct_label_is_one_object(self, as_file):
        # canonical lines, then the same lines re-spaced, which the checked
        # path reads
        lines = canonical_capture(6).splitlines()
        text = "".join(line + "\n" for line in lines) + "".join(
            json.dumps(json.loads(line)) + "\n" for line in lines
        )
        labels, requests = read_labels(io.BytesIO(text.encode()) if as_file else text)
        assert requests == 12 and sorted(set(labels.values())) == ["EP_0", "EP_1"]
        assert len({id(label) for label in labels.values()}) == 2

    @pytest.mark.parametrize("label", ['"EP_1"', '"EP\\u005f1"'])
    def test_label_reads_as_its_value(self, label):
        # written as is, the pattern reads it; escaped, the checked path does
        line = '{"id":0,"method":"GET","url":"/x","headers":[],"body_size":0,"label":%s}' % label
        assert read_labels(line) == ({0: "EP_1"}, 1)

    @pytest.mark.parametrize("line", [
        "\\" * 2**20,
        "[" * 2**20,
        '{"id":0,"method":"GET","url":"' + "\\" * 2**20,
        '{"id":0,"method":"GET","url":"' + "\\u0041" * 2**17 + "\\",
    ], ids=["backslashes", "brackets", "url-of-backslashes", "url-of-escapes"])
    def test_long_malformed_line_is_read_in_linear_time(self, line):
        # a megabyte line; work quadratic in its length would take hours
        start = time.perf_counter()
        with pytest.raises(IngestError) as raised:
            read_labels(line)
        assert time.perf_counter() - start < 2.0
        with pytest.raises(IngestError) as parsed:
            parse_jsonl(line)
        assert str(raised.value) == str(parsed.value)


class TestLoneSurrogate:
    LINE = ('{"id":0,"method":"GET","url":"/x","headers":[["a","b"]],"content_type":"t",'
            '"body_size":0,"label":"L"}')

    @pytest.mark.parametrize("field, old, new", [
        ("method", '"GET"', '"G\\ud800T"'),
        ("url", '"/x"', '"/x\\udfff"'),
        ("headers", '"b"', '"\\udbff"'),
        ("content_type", '"t"', '"\\uDC00t"'),
        ("label", '"L"', '"L\\ud800"'),
        ("url", '"/x"', '"/\ud800"'),
    ], ids=["method", "url", "header", "content_type", "label", "raw"])
    def test_lone_surrogate_is_rejected_by_both_readers(self, field, old, new):
        text = canonical_capture() + self.LINE.replace(old, new, 1) + "\n"
        message = f"line 4: {field} must be a string without a lone surrogate"
        for reader in (read_labels, parse_jsonl):
            with pytest.raises(IngestError, match=message):
                reader(text)

    def test_surrogate_pair_is_read(self):
        record = HttpRecord(0, "GET", "/x/\U0001f600", (("a", "\U0001f600"),), label="EP_\U0001f600")
        text = write_dataset(Dataset([record]))
        assert "\\ud83d\\ude00" in text
        assert parse_jsonl(text).records == [record]
        assert read_labels(text) == ({0: "EP_\U0001f600"}, 1)

    @pytest.mark.parametrize("field", ["url", "method", "headers"])
    def test_lone_surrogate_in_har_entry(self, field):
        bad = {"url": {"url": "http://h/\ud800"}, "method": {"method": "\udc00"},
               "headers": {"headers": [{"name": "X", "value": "\ud800"}]}}[field]
        doc = entry()
        doc["request"].update(bad)
        with pytest.raises(IngestError, match=f"index 0: {field} must be a string without a lone"):
            parse_har(har_doc([doc]))


def jsonl_lines(text: str) -> list[str]:
    """The lines of ``text`` as the io module's universal newlines end them:
    at '\n', '\r\n' and '\r' only."""
    return [line.removesuffix("\n").removesuffix("\r") for line in io.StringIO(text, newline="")]


# records whose strings hold characters that str.splitlines breaks at
LINE_RECORDS = [
    HttpRecord(0, "GET", "/api/v1/\x85/items", label="EP\u20281"),
    HttpRecord(1, "POST", "/api/v1/x", content_type="application/json", body_size=5,
               body_field_count=1, body_nesting_depth=1, label="EP_2"),
    HttpRecord(2, "GET", "/api/v1/a\u2029b\x1c\x1d\x1e\v\f"),
]
# each record's line as the writer writes it, re-spaced, and re-spaced with
# raw characters past ASCII
LINE_FORMS = [
    [line, json.dumps(json.loads(line)), json.dumps(json.loads(line), ensure_ascii=False)]
    for line in write_dataset(Dataset(LINE_RECORDS)).splitlines()
]
# blank to JSON Lines: nothing but the white space json.loads strips
BLANK_LINES = ["", " ", "\t", " \t "]
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def mixed_capture(draw):
    """JSONL text of lines from ``LINE_FORMS`` and ``BLANK_LINES``, each ended
    by '\n', '\r\n' or '\r' (the last maybe by none), and the records its
    request lines stand for."""
    text, records = "", []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.booleans()):
            text += draw(st.sampled_from(BLANK_LINES))
        else:
            i = draw(st.integers(0, len(LINE_RECORDS) - 1))
            text += draw(st.sampled_from(LINE_FORMS[i]))
            records.append(LINE_RECORDS[i]._replace(id=len(records)))
        text += draw(LINE_ENDS)
    return text.removesuffix(draw(st.sampled_from(["", "\n", "\r"]))), records


def read_outcome(capture):
    """What ``parse_jsonl`` and ``read_labels`` make of capture text, or of
    bytes read as a file, or the message each raises."""
    outcome = []
    for read in (lambda t: parse_jsonl(t).records, read_labels):
        try:
            outcome.append(read(io.BytesIO(capture) if isinstance(capture, bytes) else capture))
        except IngestError as exc:
            outcome.append(str(exc))
    return outcome


class TestLines:
    @given(mixed_capture())
    def test_canonical_and_respaced_lines_read_under_every_line_end(self, capture):
        text, records = capture
        labels = {r.id: r.label for r in records if r.label is not None}
        assert read_outcome(text) == [records, (labels, len(records))]

    @given(st.lists(st.tuples(
        st.sampled_from([form for forms in LINE_FORMS for form in forms] + BLANK_LINES)
        | st.text(alphabet=st.sampled_from("ab{} \n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029") | st.characters()),
        LINE_ENDS,
    ), max_size=8).map(lambda lines: "".join(line + end for line, end in lines)))
    def test_lines_end_only_where_json_lines_ends_them(self, text):
        # records, counts and errors (with their line numbers) are those of
        # the same lines ended by '\n'
        assert read_outcome(text) == read_outcome("\n".join(jsonl_lines(text)))

    @staticmethod
    def newline_peaks(read, respaced, as_file):
        """The peaks tracemalloc counts while ``read`` reads a capture with
        its lines ended by '\n', and by '\r': as text, or as a file."""
        text = write_dataset(synth_corpus(CorpusSpec(20, 100, seed=42)))
        if respaced:
            text = "".join(json.dumps(json.loads(line)) + "\n" for line in text.splitlines())
        peaks = []
        for newline in ("\n", "\r"):
            capture = text.replace("\n", newline)
            if as_file:
                capture = io.BytesIO(capture.encode())
            # the garbage of earlier tests, collected now rather than during
            # one of the two measured reads
            gc.collect()
            tracemalloc.start()
            try:
                read(capture)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peaks

    @pytest.mark.parametrize("read", [parse_jsonl, read_labels])
    @pytest.mark.parametrize("respaced", [False, True])
    def test_a_capture_ended_by_carriage_returns_is_not_copied(self, read, respaced):
        peaks = self.newline_peaks(read, respaced, as_file=False)
        # the lines are read in place: a copy of the text would be 440 KiB
        assert peaks[1] < peaks[0] + 32 * 1024, peaks

    @pytest.mark.parametrize("read", [parse_jsonl, read_labels])
    @pytest.mark.parametrize("respaced", [False, True])
    def test_a_file_ended_by_carriage_returns_is_not_copied(self, read, respaced):
        # each block is cut after its last '\r' as after its last '\n'
        peaks = self.newline_peaks(read, respaced, as_file=True)
        assert peaks[1] < peaks[0] + 32 * 1024, peaks

    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_a_line_break_a_json_string_may_hold_is_read(self, char, newline):
        records = [
            HttpRecord(0, "GET", f"/api/v1/{char}/items", label=f"EP{char}1"),
            HttpRecord(1, "POST", "/api/v1/x", label="EP_2"),
        ]
        # raw, as json.dumps writes them with ensure_ascii=False
        lines = write_dataset(Dataset(records)).split("\n")[:-1]
        text = "".join(json.dumps(json.loads(line), ensure_ascii=False) + newline for line in lines)
        assert char in text
        assert parse_jsonl(text).records == records
        assert read_labels(text) == ({0: f"EP{char}1", 1: "EP_2"}, 2)
