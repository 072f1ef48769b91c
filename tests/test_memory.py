"""Memory per request: values shared per capture, kept-only traffic, the
bytes a parsed capture and its traffic retain, the peak of reading a capture
file, and the peak of refining one group of many distinct rows."""

import gc
import json
import sys
import tracemalloc

import pytest

from apiminer.cli import main
from apiminer.corpus import CorpusSpec, synth_corpus
from apiminer.denoise import filter_traffic
from apiminer.noise import INTERFERE, LEXIFY, inject
from apiminer.normalize import normalize
from apiminer.records import BLOCK_SIZE, HttpRecord, parse_jsonl, read_labels, write_dataset
from apiminer.refine import RefinerConfig, discover, prepare_traffic, refine_group
from apiminer.templates import mine


def capture(kind, seed=1, requests=100):
    """A labeled capture as JSONL text: 20 endpoints with ``requests`` each,
    half the records lexified or as many again interleaved as interference."""
    corpus = synth_corpus(CorpusSpec(endpoint_count=20, requests_per_endpoint=requests, seed=42))
    return write_dataset(inject(corpus, kind, 0.5, seed))


def _shared(values):
    """Whether equal values among ``values`` are one object each."""
    first = {}
    return all(first.setdefault(v, v) is v for v in values)


class TestCapture:
    def test_equal_values_of_one_parse_are_one_object(self):
        lines = [
            json.dumps({
                "method": method, "url": f"/api/{i}",
                "headers": [["Content-Type", ct], ["X-Trace", "on"]],
                "content_type": ct, "label": f"EP_{i % 3}",
            })
            for i, (method, ct) in enumerate(
                [("get", "application/json"), ("GET", "text/html"), ("post", "application/json")] * 4
            )
        ]
        ds = parse_jsonl("\n".join(lines))
        records = ds.records
        assert [r.method for r in records[:3]] == ["GET", "GET", "POST"]
        for name in ("method", "content_type", "label", "headers"):
            assert _shared(getattr(r, name) for r in records), name
        assert _shared(pair for r in records for pair in r.headers)
        assert _shared([*ds.ground_truth.values(), *(r.label for r in records)])
        # the decoder builds a string per line; two values leave two objects
        assert len({id(r.content_type) for r in records}) == 2
        assert len({id(r.headers) for r in records}) == 2


class TestTraffic:
    @pytest.mark.parametrize("kind", [LEXIFY, INTERFERE])
    def test_equal_segments_and_keys_of_one_call_are_one_object(self, kind):
        traffic = prepare_traffic(parse_jsonl(capture(kind, requests=10)))
        assert _shared(s for nr in traffic.normalized for s in nr.segments)
        assert _shared(k for nr in traffic.normalized for k in nr.raw_query_keys)

    def test_calls_share_nothing(self):
        ds = parse_jsonl(capture(LEXIFY, requests=5))
        first, second = prepare_traffic(ds), prepare_traffic(ds)
        assert first.normalized == second.normalized
        assert first.normalized[0].segments[0] is not second.normalized[0].segments[0]

    @pytest.mark.parametrize("disable_filter", [False, True])
    def test_records_are_the_kept_ones(self, disable_filter):
        ds = parse_jsonl(capture(INTERFERE, requests=10))
        traffic = prepare_traffic(ds, disable_noise_filter=disable_filter)
        if disable_filter:
            kept = ds.records
        else:
            kept_ids = set(filter_traffic(ds).kept)
            kept = [r for r in ds.records if r.id in kept_ids]
            assert len(kept) < len(ds.records)
        held = [nr.record for nr in traffic.normalized]
        assert len(held) == len(kept)
        assert all(a is b for a, b in zip(held, kept))


def _module_tables():
    """Each container an apiminer module holds at module level, by name, with
    its length; and each cached function, by name, with its cache."""
    tables, caches = {}, {}
    for name, module in list(sys.modules.items()):
        if name != "apiminer" and not name.startswith("apiminer."):
            continue
        for attr, value in vars(module).items():
            if isinstance(value, (dict, list, set)):
                tables[f"{name}.{attr}"] = len(value)
            elif callable(getattr(value, "cache_info", None)):
                caches[f"{name}.{attr}"] = value.cache_info()
    return tables, caches


def test_no_module_table_grows_across_captures(tmp_path):
    def run(kind, seed):
        path = tmp_path / f"{kind}-{seed}.jsonl"
        path.write_text(capture(kind, seed, requests=20), encoding="utf-8")
        assert main(["discover", "--in", str(path), "--out", str(tmp_path / "c.json")]) == 0
        assert main(["evaluate", "--in", str(path), "--clusters", str(tmp_path / "c.json"),
                     "--out", str(tmp_path / "e.json")]) == 0
        discover(prepare_traffic(parse_jsonl(path.read_text(encoding="utf-8"))))

    run(LEXIFY, 1)
    tables, _ = _module_tables()
    for kind, seed in [(LEXIFY, 2), (INTERFERE, 1), (INTERFERE, 2)]:
        run(kind, seed)
    after, caches = _module_tables()
    assert after == tables
    assert caches
    for name, info in caches.items():
        assert info.maxsize is not None and info.currsize <= info.maxsize, name


def _retained_per_request(kind):
    """Bytes tracemalloc counts as held per request: by the parsed capture,
    then by its traffic once the capture is let go, as ``discover`` does."""
    text = capture(kind)
    n = text.count("\n")
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        dataset = parse_jsonl(text)
        parsed = tracemalloc.get_traced_memory()[0] - base
        traffic = prepare_traffic(dataset)
        del dataset
        gc.collect()
        prepared = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert traffic.normalized
    return parsed / n, prepared / n


# Bytes per request, measured with CPython 3.10 and 3.11 (the larger of the
# two; they differ by 3-8 bytes): Lexify 309 parsed and 595 in the traffic,
# Interfere 277 and 418.  Each bound is about 15% above.  Before records
# became tuples sharing their repeated values, and traffic held the dropped
# records too, these were about 780 / 1300 and 670 / 1050.
RETAINED_BOUNDS = {LEXIFY: (360, 680), INTERFERE: (320, 480)}


@pytest.mark.parametrize("kind", [LEXIFY, INTERFERE])
def test_bytes_retained_per_request(kind):
    parsed, prepared = _retained_per_request(kind)
    parsed_bound, prepared_bound = RETAINED_BOUNDS[kind]
    assert parsed <= parsed_bound, f"parse_jsonl holds {parsed:.0f} B per request"
    assert prepared <= prepared_bound, f"prepare_traffic holds {prepared:.0f} B per request"


def _read_peak(read):
    """What ``read()`` returns, the bytes tracemalloc counts as held once it
    returns, and the most it held while reading."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = read()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held - base, peak - base


def test_a_capture_file_is_read_in_blocks(tmp_path):
    path = tmp_path / "capture.jsonl"
    path.write_text(capture(INTERFERE, requests=400), encoding="utf-8")
    size = path.stat().st_size
    assert size >= 32 * BLOCK_SIZE
    with open(path, "rb") as handle:
        labels, held, peak = _read_peak(lambda: read_labels(handle))
    # the bytes and text of a block or two besides the labels: measured with
    # CPython 3.11, 2.5 blocks
    assert peak - held <= 4 * BLOCK_SIZE, f"{(peak - held) / BLOCK_SIZE:.1f} blocks"
    # the file's bytes and its text at once
    whole, _, whole_peak = _read_peak(lambda: read_labels(path.read_bytes().decode("utf-8")))
    assert whole == labels
    assert whole_peak >= 2 * size


# Refinement works on a group's distinct rows and finds their components
# without a pairwise array: 8,000 requests with as many body sizes hold
# arrays of 8,000 rows and a block of similarities.  Measured with CPython
# 3.11 and numpy 2.4: 3.9 MiB on either path; a dense 8,000 x 8,000
# similarity graph takes 552 MiB.
REFINE_PEAK_BOUND = 64 * 2**20


@pytest.mark.parametrize("force_kmeans", [False, True])
def test_refining_many_distinct_rows_peak(force_kmeans):
    members = [
        normalize(HttpRecord(id=i, method="POST", url="/api/v1/orders",
                             content_type="application/json", body_size=100 + i,
                             body_field_count=3, body_nesting_depth=1))
        for i in range(8000)
    ]
    (group,) = mine(members)
    gc.collect()
    tracemalloc.start()
    try:
        clusters = refine_group(group, RefinerConfig(force_kmeans=force_kmeans))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(len(c.member_ids) for c in clusters) == 8000
    assert peak <= REFINE_PEAK_BOUND, f"refine_group peaked at {peak / 2**20:.0f} MiB"
