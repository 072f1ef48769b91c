"""Traffic ingestion: HAR and JSONL capture files into a uniform record list."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import lru_cache
from json.decoder import scanstring
from json.encoder import encode_basestring_ascii as _string
from typing import BinaryIO, NamedTuple


STRUCTURED_CONTENT_PREFIXES = (
    "application/json",
    "application/x-www-form-urlencoded",
    "multipart/form-data",
    "application/xml",
    "text/json",
)


@lru_cache(maxsize=128)
def structured_payload(content_type: str | None) -> bool:
    """Whether a content type, lower-cased, starts with one of
    ``STRUCTURED_CONTENT_PREFIXES``: the gate's and the features' structured
    bit, computed once per distinct content type."""
    return (content_type or "").lower().startswith(STRUCTURED_CONTENT_PREFIXES)


class IngestError(ValueError):
    """Raised for malformed capture input."""


def _held_counts(
    body_size: int, fields: int | None, depth: int | None
) -> tuple[int, int | None, int | None]:
    """The counts as a record holds them: a negative body size is clamped to
    0, and an empty body has no structure counts, so a field count or
    nesting depth it gives is cleared to 0."""
    if body_size <= 0:
        # None stays None
        return 0, fields and 0, depth and 0
    return body_size, fields, depth


class _RecordFields(NamedTuple):
    id: int
    method: str
    url: str
    # (name, value) pairs in capture order
    headers: tuple[tuple[str, str], ...] = ()
    content_type: str | None = None
    body_size: int = 0
    body_field_count: int | None = None
    body_nesting_depth: int | None = None
    label: str | None = None


_new_tuple = tuple.__new__


class _Fault(Exception):
    """A field that breaks the record contract.  Its text names the field,
    what it must be and the value given; each caller puts where the record
    came from before it."""

    def __init__(self, name: str, expected: str, value):
        super().__init__(f"{name} must be {expected}, got {value!r}")
        self.name = name
        self.expected = expected


_STRING = "a string"
_INTEGER = "an integer"
_PAIRS = "a list of (name, value) string pairs"
# Counts must fit a signed 64-bit integer: the features turn each count into
# a float, and no float holds an integer much past 10**308.
_FITS = "a 64-bit integer"
_SURROGATE = re.compile("[\ud800-\udfff]")


def _lone_surrogate(text: str | None) -> bool:
    """Whether ``text`` holds a lone surrogate, which no UTF-8 output can
    write; a string of ASCII holds none."""
    return text is not None and not text.isascii() and _SURROGATE.search(text) is not None


def _held_fields(
    rid, method, url, headers, content_type, body_size, fields, depth, label, scan: bool
) -> tuple:
    """The fields of one record, in ``HttpRecord``'s order, as a record holds
    them: the one check of the record contract.

    Each field must be of exactly the types a parsed record holds: an
    ``int`` id and body size (not a bool or any other subclass), ``str``
    method and url, a ``str`` or None content type and label, an ``int`` or
    None for each structure count, and headers as a tuple or list of
    two-item (str, str) pairs.  Each count must fit 64 bits and, with
    ``scan``, no string may hold a lone surrogate.  A field that breaks the
    contract raises ``_Fault``.  The method is upper-cased (an upper-case
    method keeps its object, which a capture may share), the headers are
    held as a tuple of tuples, a negative body size is clamped to 0 and the
    structure counts of an empty body are cleared to 0.
    """
    if type(rid) is not int:
        raise _Fault("id", _INTEGER, rid)
    if type(method) is not str:
        raise _Fault("method", _STRING, method)
    if type(url) is not str:
        raise _Fault("url", _STRING, url)
    held = headers
    if type(headers) is not tuple:
        if type(headers) is not list:
            raise _Fault("headers", _PAIRS, headers)
        held = None
    for pair in headers:
        if type(pair) is not tuple:
            if type(pair) is not list:
                raise _Fault("headers", _PAIRS, headers)
            held = None
        if len(pair) != 2 or type(pair[0]) is not str or type(pair[1]) is not str:
            raise _Fault("headers", _PAIRS, headers)
    if held is None:
        held = tuple(map(tuple, headers))
    if type(content_type) is not str and content_type is not None:
        raise _Fault("content_type", _STRING, content_type)
    if type(body_size) is not int:
        raise _Fault("body_size", _INTEGER, body_size)
    if not -(2**63) <= body_size < 2**63:
        raise _Fault("body_size", _FITS, body_size)
    if type(fields) is not int:
        if fields is not None:
            raise _Fault("body_field_count", _INTEGER, fields)
    elif not -(2**63) <= fields < 2**63:
        raise _Fault("body_field_count", _FITS, fields)
    if type(depth) is not int:
        if depth is not None:
            raise _Fault("body_nesting_depth", _INTEGER, depth)
    elif not -(2**63) <= depth < 2**63:
        raise _Fault("body_nesting_depth", _FITS, depth)
    if type(label) is not str and label is not None:
        raise _Fault("label", _STRING, label)
    if scan:
        for name, value, texts in (
            ("method", method, (method,)),
            ("url", url, (url,)),
            ("headers", headers, [text for pair in held for text in pair]),
            ("content_type", content_type, (content_type,)),
            ("label", label, (label,)),
        ):
            if any(map(_lone_surrogate, texts)):
                raise _Fault(name, "a string without a lone surrogate", value)
    upper = method.upper()
    if upper != method:
        method = upper
    body_size, fields, depth = _held_counts(body_size, fields, depth)
    return rid, method, url, held, content_type, body_size, fields, depth, label


class HttpRecord(_RecordFields):
    """One captured request, immutable once built.

    Every way of making one (the constructor, ``_make``, ``_replace``,
    unpickling) goes through ``__new__``, which holds the fields as
    ``_held_fields`` checks them.  A field that breaks the record contract
    raises ``IngestError`` naming the record and the field.
    """

    __slots__ = ()

    def __new__(
        cls,
        id: int,
        method: str,
        url: str,
        headers: tuple[tuple[str, str], ...] = (),
        content_type: str | None = None,
        body_size: int = 0,
        body_field_count: int | None = None,
        body_nesting_depth: int | None = None,
        label: str | None = None,
    ):
        try:
            return _new_tuple(cls, _held_fields(
                id, method, url, headers, content_type, body_size,
                body_field_count, body_nesting_depth, label, True,
            ))
        except _Fault as fault:
            raise IngestError(f"record {id}: {fault}") from None

    @classmethod
    def _make(cls, iterable) -> HttpRecord:
        # namedtuple's _make (and _replace, which calls it) skip __new__
        return cls(*iterable)


@dataclass
class Dataset:
    records: list[HttpRecord] = field(default_factory=list)
    source: str = ""
    # entries skipped with a warning during ingest (e.g. HAR entry without url)
    skipped: int = 0

    def __post_init__(self):
        if len({r.id for r in self.records}) != len(self.records):
            # only a failed check looks for the first repeated id
            seen: set[int] = set()
            for r in self.records:
                if r.id in seen:
                    raise IngestError(f"duplicate record id {r.id} in dataset")
                seen.add(r.id)

    @property
    def ground_truth(self) -> dict[int, str]:
        """The label of each labelled record, by id, in record order."""
        return {r.id: r.label for r in self.records if r.label is not None}

    def __len__(self) -> int:
        return len(self.records)


def _header_lookup(headers: tuple[tuple[str, str], ...], name: str) -> str | None:
    """Case-insensitive header lookup, first occurrence wins."""
    lname = name.lower()
    for hname, hvalue in headers:
        if hname.lower() == lname:
            return hvalue
    return None


def _json_structure(text: str) -> tuple[int, int]:
    """Top-level field count and nesting depth of a JSON body, (0, 0) if opaque."""

    def depth(node) -> int:
        if isinstance(node, dict):
            return 1 + max((depth(v) for v in node.values()), default=0)
        if isinstance(node, list):
            return 1 + max((depth(v) for v in node), default=0)
        return 0

    try:
        obj = json.loads(text)
        return (len(obj), depth(obj)) if isinstance(obj, (dict, list)) else (0, 0)
    except (ValueError, TypeError, RecursionError):
        # not JSON, or nested too deeply to walk
        return 0, 0


def decode_utf8(data: bytes, name: str, offset: int = 0) -> str:
    """``data`` decoded as UTF-8.  A byte that is not UTF-8 raises
    ``IngestError`` naming ``name`` and the byte's offset, counted from
    ``offset``: where ``data`` starts in its file."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IngestError(f"{name} is not valid UTF-8 at byte {offset + exc.start}") from exc


def _har_error(index: int, name: str, expected: str, value) -> IngestError:
    return IngestError(
        f"malformed HAR entry at index {index}: {name} must be {expected}, got {value!r}"
    )


def parse_har(data: bytes) -> Dataset:
    """Parse a HAR 1.2 document into a Dataset.

    Only the request side of each entry is consumed.  A ``bodySize`` of -1
    or null, HAR's "unknown", reads as the UTF-8 length of ``postData.text``
    when that is a string, and as 0 otherwise.  An entry whose
    request URL is missing, null or empty is skipped and counted in
    ``Dataset.skipped``; any other URL that is not a string is an error.
    """
    text = decode_utf8(data, "HAR")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise IngestError(f"malformed HAR document at byte offset {exc.pos}") from exc
    except ValueError as exc:
        # an integer literal past CPython's digit limit
        raise IngestError(f"malformed HAR document: {exc}") from exc
    except RecursionError:
        raise IngestError("malformed HAR document: nested too deeply") from None
    del text
    if not isinstance(doc, dict) or "log" not in doc:
        raise IngestError("malformed HAR document: missing top-level 'log'")
    if not isinstance(doc["log"], dict):
        raise IngestError("malformed HAR document: log is not an object")
    entries = doc["log"].get("entries", [])
    if not isinstance(entries, list):
        raise IngestError("malformed HAR document: log.entries is not a list")

    records: list[HttpRecord] = []
    skipped = 0
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict) or "request" not in entry:
            raise IngestError(f"malformed HAR entry at index {index}: missing request")
        request = entry["request"]
        if not isinstance(request, dict):
            raise _har_error(index, "request", "an object", request)
        url = request.get("url")
        if url is None or url == "":
            skipped += 1
            continue
        headers = request.get("headers", [])
        if type(headers) is list:
            # {name, value} objects as pairs; any other entry is None, which
            # the check refuses as no pair
            headers = [(h.get("name", ""), h.get("value", "")) if type(h) is dict else None
                       for h in headers]
        body_size = request.get("bodySize")
        post_data = request.get("postData")
        if body_size is None or (type(body_size) is int and body_size == -1):
            # HAR's "unknown": the UTF-8 length of the posted text, if any
            text = post_data.get("text") if type(post_data) is dict else None
            body_size = len(text.encode("utf-8", "surrogatepass")) if type(text) is str else 0
        try:
            rid, method, url, headers, _, body_size, _, _, _ = _held_fields(
                len(records), request.get("method", "GET"), url, headers, None,
                body_size, None, None, None, True,
            )
        except _Fault as fault:
            name = "bodySize" if fault.name == "body_size" else fault.name
            raise _har_error(index, name, fault.expected, request[name]) from None
        content_type = _header_lookup(headers, "Content-Type")
        field_count = None
        nesting = None
        if body_size > 0 and post_data and content_type:
            if not isinstance(post_data, dict):
                raise _har_error(index, "postData", "an object", post_data)
            if content_type.lower().startswith(STRUCTURED_CONTENT_PREFIXES[0]):
                field_count, nesting = _json_structure(post_data.get("text", ""))
        # the checked fields with the content type, a checked header value, and
        # the counts of a decoded body, a length and a depth, which fit 64 bits
        records.append(_new_tuple(HttpRecord, (
            rid, method, url, headers, content_type, body_size, field_count, nesting, None
        )))
    return Dataset(records=records, source="har", skipped=skipped)


# The scanner json.loads runs once it has stripped the line and checked for a
# BOM; a line it reads whole is decoded to the same object.
_SCAN = json.scanner.make_scanner(json.decoder.JSONDecoder())


def _loads(line: str):
    """``json.loads(line)``, with its exceptions, through the scanner directly."""
    try:
        obj, end = _SCAN(line, 0)
        if end == len(line):
            return obj
    except (StopIteration, ValueError, RecursionError):
        pass
    # padding, a BOM, trailing data or an error: json.loads says which
    return json.loads(line)


# The text inside the quotes of a JSON string as ``write_dataset`` writes
# it, but for an escaped surrogate (an astral character as a pair, or a lone
# one) and a raw surrogate: lines with those take the checked path, which
# rejects a lone surrogate.  Most strings hold no escape and are read by the
# first branch in one scan; the second reads runs of plain characters between
# escapes.  Neither can split a run two ways, so a failed match backtracks in
# linear time.
_PLAIN = r'[^"\\\x00-\x1f\ud800-\udfff]'
_ESCAPE = r'\\(?:["\\/bfnrt]|u(?:[0-9a-cA-Ce-fE-F][0-9a-fA-F]{3}|[dD][0-7][0-9a-fA-F]{2}))'
_TEXT = rf"(?:{_PLAIN}*|{_PLAIN}*(?:{_ESCAPE}{_PLAIN}*)+)"
_HEADER = rf'\["{_TEXT}","{_TEXT}"\]'
# An integer of at most 18 digits, which fits 64 bits ([0-9], not \d: \d
# matches every Unicode digit, which JSON does not read).
_COUNT = r"-?(?:0|[1-9][0-9]{0,17})"
# The pattern of one line as ``write_dataset`` writes it, keys in its order,
# with one group per field of ``HttpRecord`` after its id, in the same order:
# the text inside the quotes of a string, the header list's JSON text, a
# count's digits.  A line that matches decodes to an object whose fields pass
# ``_held_fields``.  The label is taken only when it has no escape, so that
# the text is its value.  An optional part is written (?:part|), which the
# regex engine runs faster than (?:part)?.
_CANONICAL_LINE = (
    rf'\{{"id":{_COUNT},"method":"(?P<method>{_TEXT})","url":"(?P<url>{_TEXT})"'
    rf',"headers":(?P<headers>\[(?:{_HEADER}(?:,{_HEADER})*|)\])'
    rf'(?:,"content_type":"(?P<content_type>{_TEXT})"|)'
    rf',"body_size":(?P<body_size>{_COUNT})'
    rf'(?:,"body_field_count":(?P<body_field_count>{_COUNT})|)'
    rf'(?:,"body_nesting_depth":(?P<body_nesting_depth>{_COUNT})|)'
    rf'(?:,"label":"(?P<label>{_PLAIN}*)"|)\}}'
)
# ``_CANONICAL_LINE`` at a line's start in the text, through the line's end
# where JSON Lines ends a line: '\r\n', '\r', '\n' or the end of the text.
# No part of the line's pattern matches '\r' or '\n', so this matches where
# ``_CANONICAL_LINE`` matches the whole line.  The line's pattern is kept as
# text and compiled only here.
_CANONICAL_AT = re.compile(_CANONICAL_LINE + r"(?:\r\n|\r|\n|\Z)")


def _unescape(text: str) -> str:
    """The value of a JSON string whose text inside the quotes is ``text``."""
    return scanstring(text + '"', 0)[0]


# The bytes a capture file is read by at a time.
BLOCK_SIZE = 64 * 1024


def _text_blocks(capture: str | BinaryIO):
    """The text of a JSONL capture, one block at a time: the text itself, or
    a binary file read ``BLOCK_SIZE`` bytes at a time and decoded as UTF-8
    block by block.

    A block of the file is cut after its last '\n', or after its last '\r'
    unless that '\r' is the last byte read, which may start a '\r\n': so
    each block but the last ends a line, and no '\r\n' is split.  UTF-8
    puts neither byte inside a character, so each block decodes alone.  A
    line longer than a block is kept whole in the bytes carried to the next
    block.  A byte that is not UTF-8 raises ``IngestError`` naming the file
    and the byte's offset from its start.
    """
    if isinstance(capture, str):
        yield capture
        return
    read = capture.read
    name = getattr(capture, "name", "capture")
    # the bytes read since the last cut, which start at ``offset``
    carried: list[bytes | memoryview] = []
    offset = 0
    while data := read(BLOCK_SIZE):
        cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, len(data) - 1)) + 1
        if not cut:
            carried.append(data)
            continue
        # a view, so that the bytes before the cut are copied once, into the
        # block, which is decoded, and its text parsed, without the bytes read
        carried.append(memoryview(data)[:cut])
        block = b"".join(carried)
        carried = [data[cut:]]
        del data
        text = decode_utf8(block, name, offset)
        offset += len(block)
        del block
        yield text
    last = b"".join(carried)
    if last:
        yield decode_utf8(last, name, offset)


def _jsonl_requests(capture: str | BinaryIO, shared: dict):
    """Each request line of a JSONL capture, its text or a binary file, read
    block by block of ``_text_blocks`` with lines counted across blocks: the
    ``_CANONICAL_LINE`` match of a line as ``write_dataset`` writes it, which
    passes every check, or else the line's fields as ``_held_fields`` checks
    and holds them, after the id.  A line of nothing but spaces and tabs
    yields nothing.

    A line that is not a request object, or a field that breaks the record
    contract, raises ``IngestError`` naming the line and the field.  The
    checked fields share one object per distinct value through ``shared``
    (each method, content type, label, header pair and header list).

    Lines end where JSON Lines ends them, at '\n', '\r\n' or '\r' (not at
    every break ``str.splitlines`` knows, some of which a JSON string may
    hold unescaped).  The pattern is matched at each line's offset in its
    block, so a matched line makes no string of its own; the end of any
    other line is found with ``str.find``, each '\n' and '\r' once.
    """
    share = shared.setdefault
    canonical = _CANONICAL_AT.match
    lineno = 0
    for text in _text_blocks(capture):
        find = text.find
        size = len(text)
        pos = 0
        # the first '\n' and the first '\r' at or past some earlier line start,
        # or ``size`` if there is none; each is looked for again once passed
        newline = carriage = -1
        while pos < size:
            lineno += 1
            match = canonical(text, pos)
            if match is not None:
                pos = match.end()
                yield match
                continue
            if newline < pos:
                newline = find("\n", pos)
                if newline < 0:
                    newline = size
            if carriage < pos:
                carriage = find("\r", pos)
                if carriage < 0:
                    carriage = size
            if carriage < newline:
                line = text[pos:carriage]
                pos = carriage + 2 if newline == carriage + 1 else carriage + 1
            else:
                line = text[pos:newline]
                pos = newline + 1
            # json.loads strips no other white space from a line
            if not line.strip(" \t"):
                continue
            try:
                obj = _loads(line)
            except json.JSONDecodeError as exc:
                raise IngestError(f"malformed JSONL object at line {lineno}: {exc.msg}") from exc
            except ValueError as exc:
                # an integer literal past CPython's digit limit
                raise IngestError(f"malformed JSONL object at line {lineno}: {exc}") from exc
            except RecursionError:
                raise IngestError(f"malformed JSONL object at line {lineno}: nested too deeply") from None
            if type(obj) is not dict:
                raise IngestError(f"malformed JSONL object at line {lineno}: not an object")
            if "method" not in obj or "url" not in obj:
                raise IngestError(f"malformed JSONL object at line {lineno}: missing method/url")
            get = obj.get
            # a count is a JSON integer, or null, which leaves it out
            body_size = get("body_size")
            try:
                fields = _held_fields(
                    0, obj["method"], obj["url"], get("headers", []), get("content_type"),
                    0 if body_size is None else body_size, get("body_field_count"),
                    get("body_nesting_depth"), get("label"),
                    # a string holds a character past ASCII, as itself or as an
                    # escape, only if the line does
                    not line.isascii() or "\\u" in line,
                )
            except _Fault as fault:
                raise IngestError(f"malformed JSONL object at line {lineno}: {fault}") from None
            _, method, url, headers, content_type, body_size, field_count, nesting, label = fields
            pairs = shared.get(headers)
            if pairs is None:
                pairs = tuple([share(pair, pair) for pair in headers])
                shared[pairs] = pairs
            yield (
                share(method, method),
                url,
                pairs,
                share(content_type, content_type),
                body_size,
                field_count,
                nesting,
                share(label, label),
            )


def parse_jsonl(capture: str | BinaryIO) -> Dataset:
    """Parse a JSONL capture, its text or a binary file, one request object
    per line that is not blank.  A file is read in blocks of ``BLOCK_SIZE``
    bytes, so neither its bytes nor its whole text are held.

    The records of one capture share one object per distinct method,
    content type, label, header pair and header list.
    """
    records: list[HttpRecord] = []
    shared: dict = {}
    share = shared.setdefault
    methods: dict[str, str] = {}
    # each header list's JSON text in a canonical line, to its shared pairs
    header_lists: dict[str, tuple[tuple[str, str], ...]] = {}
    for rid, fields in enumerate(_jsonl_requests(capture, shared)):
        if type(fields) is tuple:
            # as ``_held_fields`` checks and holds them
            record = (rid,) + fields
        else:
            method, url, headers, content_type, body_size, field_count, nesting, label = (
                fields.groups()
            )
            if "\\" in method:
                method = _unescape(method)
            upper = methods.get(method)
            if upper is None:
                upper = method.upper()
                upper = methods[method] = share(upper, upper)
            if "\\" in url:
                url = _unescape(url)
            pairs = header_lists.get(headers)
            if pairs is None:
                pairs = tuple(share((name, value), (name, value)) for name, value in _loads(headers))
                pairs = header_lists[headers] = share(pairs, pairs)
            if content_type is not None:
                if "\\" in content_type:
                    content_type = _unescape(content_type)
                content_type = share(content_type, content_type)
            if label is not None:
                label = share(label, label)
            # 18 digits at most: every count fits
            body_size, field_count, nesting = _held_counts(
                int(body_size),
                None if field_count is None else int(field_count),
                None if nesting is None else int(nesting),
            )
            record = (rid, upper, url, pairs, content_type, body_size, field_count, nesting, label)
        records.append(_new_tuple(HttpRecord, record))
    return Dataset(records=records, source="jsonl")


def read_labels(capture: str | BinaryIO) -> tuple[dict[int, str], int]:
    """The ground truth of a JSONL capture, its text or a binary file, and
    its number of requests, without building a record.

    Of a line as ``write_dataset`` writes it, only the label is read.  Every
    other line is checked as ``parse_jsonl`` checks it, so the two raise the
    same ``IngestError`` for the same capture.  The labels share one object
    per distinct label, as ``parse_jsonl``'s do.
    """
    ground_truth: dict[int, str] = {}
    requests = 0
    shared: dict = {}
    share = shared.setdefault
    for fields in _jsonl_requests(capture, shared):
        label = fields[-1] if type(fields) is tuple else fields["label"]
        if label is not None:
            ground_truth[requests] = share(label, label)
        requests += 1
    return ground_truth, requests


def _header_text(headers: tuple[tuple[str, str], ...]) -> str:
    """The JSON text of a record's headers."""
    pairs = ["[" + _string(name) + "," + _string(value) + "]" for name, value in headers]
    return "[" + ",".join(pairs) + "]"


def write_dataset(dataset: Dataset) -> str:
    """Emit the canonical JSONL form, each line ended by a newline.

    Fields go in a fixed order; id, method, url, headers and body_size are
    always written, the other fields only when they are not None.  Each
    line is laid out here, by one f-string, in the key order and bytes of
    the JSON encoder with separators (",", ":"): strings through the ASCII
    string escaper, ints as ``str`` writes them.  Each string field is
    escaped where its line is laid out, and each distinct header tuple's
    text is made once per call.  The ``.records`` of records with ids
    0..n-1 read back equal through ``parse_jsonl``.
    """
    string = _string
    # by id: the records keep each headers object alive for the call
    header_texts: dict[int, str] = {}
    lines = []
    append = lines.append
    for record in dataset.records:
        rid, method, url, headers, content_type, body_size, fields, depth, label = record
        head = header_texts.get(id(headers))
        if head is None:
            head = header_texts[id(headers)] = _header_text(headers)
        type_text = "" if content_type is None else ',"content_type":' + string(content_type)
        label_text = "" if label is None else ',"label":' + string(label)
        counts = "" if fields is None else f',"body_field_count":{fields}'
        if depth is not None:
            counts += f',"body_nesting_depth":{depth}'
        append(
            f'{{"id":{rid},"method":{string(method)},"url":{string(url)},"headers":{head}'
            f'{type_text},"body_size":{body_size}{counts}{label_text}}}\n'
        )
    return "".join(lines)
