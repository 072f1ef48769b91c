"""Traffic ingestion: HAR and JSONL capture files into a uniform record list."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

KNOWN_VERBS = {"GET", "POST", "PUT", "PATCH", "DELETE", "HEAD", "OPTIONS"}

STRUCTURED_CONTENT_PREFIXES = (
    "application/json",
    "application/x-www-form-urlencoded",
    "multipart/form-data",
    "application/xml",
    "text/json",
)

# Canonical JSONL field order for write_dataset / round-trip stability.
_FIELD_ORDER = (
    "id",
    "method",
    "url",
    "headers",
    "content_type",
    "body_size",
    "body_field_count",
    "body_nesting_depth",
    "label",
)


class IngestError(ValueError):
    """Raised for malformed capture input."""


# Counts must fit a signed 64-bit integer: the features turn each count into
# a float, and no float holds an integer much past 10**308.
_COUNT_MIN = -(2**63)
_COUNT_MAX = 2**63 - 1


@dataclass
class HttpRecord:
    id: int
    method: str
    url: str
    headers: list[tuple[str, str]] = field(default_factory=list)
    content_type: str | None = None
    body_size: int = 0
    body_field_count: int | None = None
    body_nesting_depth: int | None = None
    label: str | None = None

    def __post_init__(self):
        self.method = self.method.upper()
        if self.body_size < 0:
            self.body_size = 0
        if self.body_size == 0:
            # no body implies no structure metrics
            if self.body_field_count:
                self.body_field_count = 0
            if self.body_nesting_depth:
                self.body_nesting_depth = 0

    @property
    def known_verb(self) -> bool:
        return self.method in KNOWN_VERBS


@dataclass
class Dataset:
    records: list[HttpRecord] = field(default_factory=list)
    source: str = ""
    ground_truth: dict[int, str] = field(default_factory=dict)
    # entries skipped with a warning during ingest (e.g. HAR entry without url)
    skipped: int = 0

    def __post_init__(self):
        ids = {r.id for r in self.records}
        if len(ids) != len(self.records):
            raise IngestError("duplicate record ids in dataset")
        for rid in self.ground_truth:
            if rid not in ids:
                raise IngestError(f"ground_truth refers to unknown record id {rid}")

    def __len__(self) -> int:
        return len(self.records)


def _header_lookup(headers: list[tuple[str, str]], name: str) -> str | None:
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


def _har_error(index: int, name: str, expected: str, value) -> IngestError:
    return IngestError(
        f"malformed HAR entry at index {index}: {name} must be {expected}, got {value!r}"
    )


def _har_headers(index: int, headers) -> list[tuple[str, str]]:
    if isinstance(headers, list) and all(
        isinstance(h, dict)
        and isinstance(h.get("name", ""), str)
        and isinstance(h.get("value", ""), str)
        for h in headers
    ):
        return [(h.get("name", ""), h.get("value", "")) for h in headers]
    raise _har_error(index, "headers", "a list of {name, value} string objects", headers)


def parse_har(data: bytes) -> Dataset:
    """Parse a HAR 1.2 document into a Dataset.

    Only the request side of each entry is consumed.  Entries lacking a
    request URL are skipped and counted in ``Dataset.skipped``.
    """
    try:
        doc = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise IngestError(f"HAR is not valid UTF-8 at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise IngestError(f"malformed HAR document at byte offset {exc.pos}") from exc
    except ValueError as exc:
        # an integer literal past CPython's digit limit
        raise IngestError(f"malformed HAR document: {exc}") from exc
    except RecursionError:
        raise IngestError("malformed HAR document: nested too deeply") from None
    if not isinstance(doc, dict) or "log" not in doc:
        raise IngestError("malformed HAR document: missing top-level 'log'")
    if not isinstance(doc["log"], dict):
        raise IngestError("malformed HAR document: log is not an object")
    entries = doc["log"].get("entries", [])
    if not isinstance(entries, list):
        raise IngestError("malformed HAR document: log.entries is not a list")

    records: list[HttpRecord] = []
    ground_truth: dict[int, str] = {}
    skipped = 0
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict) or "request" not in entry:
            raise IngestError(f"malformed HAR entry at index {index}: missing request")
        request = entry["request"]
        if not isinstance(request, dict):
            raise _har_error(index, "request", "an object", request)
        url = request.get("url")
        if not url:
            skipped += 1
            continue
        if not isinstance(url, str):
            raise _har_error(index, "url", "a string", url)
        method = request.get("method", "GET")
        if not isinstance(method, str):
            raise _har_error(index, "method", "a string", method)
        headers = _har_headers(index, request.get("headers", []))
        content_type = _header_lookup(headers, "Content-Type")
        try:
            body_size = int(request.get("bodySize") or 0)
        except (TypeError, ValueError, OverflowError):
            raise _har_error(index, "bodySize", "an integer", request["bodySize"]) from None
        if not _COUNT_MIN <= body_size <= _COUNT_MAX:
            raise _har_error(index, "bodySize", "a 64-bit integer", request["bodySize"])
        body_size = max(0, body_size)
        field_count = None
        nesting = None
        post_data = request.get("postData")
        if body_size > 0 and post_data and content_type:
            if not isinstance(post_data, dict):
                raise _har_error(index, "postData", "an object", post_data)
            if content_type.lower().startswith(STRUCTURED_CONTENT_PREFIXES[0]):
                field_count, nesting = _json_structure(post_data.get("text", ""))
        rid = len(records)
        record = HttpRecord(
            id=rid,
            method=method,
            url=url,
            headers=headers,
            content_type=content_type,
            body_size=body_size,
            body_field_count=field_count,
            body_nesting_depth=nesting,
        )
        records.append(record)
    return Dataset(records=records, source="har", ground_truth=ground_truth, skipped=skipped)


_HEADER_PAIRS = "a list of [name, value] string pairs"


def _field_error(lineno: int, name: str, expected: str, value) -> IngestError:
    return IngestError(
        f"malformed JSONL object at line {lineno}: {name} must be {expected}, got {value!r}"
    )


def _as_int(lineno: int, name: str, value) -> int | None:
    """A JSONL count field that is not a plain 64-bit int: None, a convertible
    value, or an error."""
    if value is None:
        return None
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        raise _field_error(lineno, name, "an integer", value) from None
    if not _COUNT_MIN <= number <= _COUNT_MAX:
        raise _field_error(lineno, name, "a 64-bit integer", value)
    return number


def parse_jsonl(text: str) -> Dataset:
    """Parse JSONL capture text, one request object per non-empty line."""
    records: list[HttpRecord] = []
    ground_truth: dict[int, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
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
        method = obj["method"]
        if type(method) is not str:
            raise _field_error(lineno, "method", "a string", method)
        url = obj["url"]
        if type(url) is not str:
            raise _field_error(lineno, "url", "a string", url)
        headers = obj.get("headers", [])
        if type(headers) is not list:
            raise _field_error(lineno, "headers", _HEADER_PAIRS, headers)
        for h in headers:
            if type(h) is not list or len(h) != 2 or type(h[0]) is not str or type(h[1]) is not str:
                raise _field_error(lineno, "headers", _HEADER_PAIRS, headers)
        content_type = obj.get("content_type")
        if content_type is not None and type(content_type) is not str:
            raise _field_error(lineno, "content_type", "a string", content_type)
        label = obj.get("label")
        if label is not None and type(label) is not str:
            raise _field_error(lineno, "label", "a string", label)
        body_size = obj.get("body_size")
        if type(body_size) is not int or not _COUNT_MIN <= body_size <= _COUNT_MAX:
            body_size = _as_int(lineno, "body_size", body_size) or 0
        field_count = obj.get("body_field_count")
        if type(field_count) is not int or not _COUNT_MIN <= field_count <= _COUNT_MAX:
            field_count = _as_int(lineno, "body_field_count", field_count)
        nesting = obj.get("body_nesting_depth")
        if type(nesting) is not int or not _COUNT_MIN <= nesting <= _COUNT_MAX:
            nesting = _as_int(lineno, "body_nesting_depth", nesting)
        rid = len(records)
        records.append(
            HttpRecord(
                rid,
                method,
                url,
                [(name, value) for name, value in headers],
                content_type,
                body_size,
                field_count,
                nesting,
                label,
            )
        )
        if label is not None:
            ground_truth[rid] = label
    return Dataset(records=records, source="jsonl", ground_truth=ground_truth)


def write_dataset(dataset: Dataset) -> str:
    """Emit the canonical JSONL form; parse_jsonl(write_dataset(d)) == d."""
    lines = []
    for record in dataset.records:
        obj = {
            "id": record.id,
            "method": record.method,
            "url": record.url,
            "headers": [list(h) for h in record.headers],
            "content_type": record.content_type,
            "body_size": record.body_size,
            "body_field_count": record.body_field_count,
            "body_nesting_depth": record.body_nesting_depth,
            "label": record.label,
        }
        out = {k: obj[k] for k in _FIELD_ORDER if obj[k] is not None or k in ("id", "method", "url")}
        # headers/body_size always emitted for stability
        out.setdefault("headers", [])
        out.setdefault("body_size", 0)
        lines.append(json.dumps(out, separators=(",", ":"), sort_keys=False))
    return "\n".join(lines) + ("\n" if lines else "")
