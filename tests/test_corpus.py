"""Synthetic labeled corpus generator."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from apiminer.corpus import CorpusSpec, _plan_endpoints, synth_corpus
from apiminer.records import HttpRecord, write_dataset


def oracle_id(style, rng):
    """One id, drawn by one call of its own."""
    if style == "int":
        return str(int(rng.integers(100, 999999)))
    if style == "uuid":
        raw = rng.bytes(16).hex()
        return f"{raw[0:8]}-{raw[8:12]}-{raw[12:16]}-{raw[16:20]}-{raw[20:32]}"
    assert style == "hex"
    return rng.bytes(8).hex()


def oracle_corpus(spec):
    """The corpus built request by request, round-robin over the endpoints:
    each id and each query value drawn by a call of its own from the
    endpoint's generator, and each record through the checked constructor."""
    plans = _plan_endpoints(spec)
    rngs = [np.random.default_rng(spec.seed * 1_000_003 + i) for i in range(len(plans))]
    records = []
    for j in range(spec.requests_per_endpoint):
        for plan, rng in zip(plans, rngs):
            segments = list(plan.prefix)
            if plan.has_id:
                segments.append(oracle_id(plan.id_style, rng))
            if plan.tail is not None:
                segments.append(plan.tail)
            url = "https://app.example.com/" + "/".join(segments)
            if plan.query_keys:
                value = int(rng.integers(1, 500))
                url += "?" + "&".join(f"{k}={value + n}" for n, k in enumerate(plan.query_keys))
            body_size, fields, nesting = plan.body_profiles[j % len(plan.body_profiles)]
            records.append(HttpRecord(
                len(records), plan.method, url, (("Content-Type", "application/json"),),
                "application/json", body_size, fields or None, nesting or None, plan.label,
            ))
    return records


class TestDefaultCorpus:
    def test_sizes_and_labels(self):
        ds = synth_corpus(CorpusSpec())
        assert len(ds.records) == 1000
        truth = ds.ground_truth
        # every record labelled
        assert list(truth) == [r.id for r in ds.records]
        assert set(truth.values()) == {f"EP_{i:02d}" for i in range(20)}

    def test_even_split_across_endpoints(self):
        ds = synth_corpus(CorpusSpec())
        counts = {}
        for r in ds.records:
            counts[r.label] = counts.get(r.label, 0) + 1
        assert set(counts.values()) == {50}

    def test_round_robin_interleaving(self):
        ds = synth_corpus(CorpusSpec())
        first_cycle = [r.label for r in ds.records[:20]]
        assert first_cycle == [f"EP_{i:02d}" for i in range(20)]

    def test_deterministic_per_seed(self):
        a = synth_corpus(CorpusSpec())
        b = synth_corpus(CorpusSpec())
        assert write_dataset(a) == write_dataset(b)
        c = synth_corpus(CorpusSpec(seed=43))
        assert write_dataset(a) != write_dataset(c)

    @pytest.mark.parametrize("spec", [CorpusSpec(), CorpusSpec(45, 4, seed=3)])
    def test_records_hold_what_the_constructor_holds(self, spec):
        # the corpus builds its tuples without HttpRecord's checks
        for record in synth_corpus(spec).records:
            built = HttpRecord(*record)
            assert type(record) is HttpRecord
            assert tuple(record) == tuple(built)
            assert [type(v) for v in record] == [type(v) for v in built]

    def test_records_are_api_shaped(self):
        ds = synth_corpus(CorpusSpec())
        for r in ds.records[:40]:
            assert r.url.startswith("https://app.example.com/api/")
            assert r.content_type == "application/json"


class TestPerEndpointDraws:
    """Each endpoint decodes its ids and query values, request by request,
    from its generator's raw words; the corpus is the one drawn a call per
    value."""

    @settings(deadline=None, max_examples=60)
    @given(
        endpoints=st.integers(1, 182),
        requests=st.integers(1, 5),
        seed=st.integers(0, 2**63),
    )
    # every id style, the last tail-word tier, and endpoints that draw both
    # an id and a query value
    @example(endpoints=182, requests=5, seed=42)
    @example(endpoints=1, requests=1, seed=0)
    # 70 uuids are 280 raw words: each uuid endpoint crosses the edge of
    # its decoder's first DRAW_CHUNK words
    @example(endpoints=20, requests=70, seed=42)
    def test_the_corpus_is_the_one_drawn_a_call_per_value(self, endpoints, requests, seed):
        spec = CorpusSpec(endpoints, requests, seed)
        records = synth_corpus(spec).records
        expected = oracle_corpus(spec)
        assert records == expected
        assert [list(map(type, r)) for r in records] == [list(map(type, r)) for r in expected]

    def test_the_example_spec_holds_every_kind_of_endpoint(self):
        plans = _plan_endpoints(CorpusSpec(182, 1))
        assert {p.id_style for p in plans if p.has_id} == {"int", "uuid", "hex"}
        assert any(p.has_id and p.query_keys for p in plans)
        assert any(p.has_id and not p.query_keys for p in plans)
        assert any(p.query_keys and not p.has_id for p in plans)
        assert any(p.prefix[-1].endswith("-ratings") for p in plans)


class TestMinimalSpec:
    def test_single_endpoint(self):
        ds = synth_corpus(
            CorpusSpec(endpoint_count=1, requests_per_endpoint=3, seed=1)
        )
        assert len(ds.records) == 3
        assert {r.label for r in ds.records} == {"EP_00"}
        paths = [r.url.split("?")[0] for r in ds.records]
        split = [p.split("/") for p in paths]
        assert len({len(s) for s in split}) == 1
        # paths differ only at one (variable) position
        diff_cols = {
            i
            for i in range(len(split[0]))
            if len({s[i] for s in split}) > 1
        }
        assert len(diff_cols) == 1


class TestValidation:
    def test_bad_counts(self):
        with pytest.raises(ValueError):
            CorpusSpec(endpoint_count=0)
        with pytest.raises(ValueError):
            CorpusSpec(requests_per_endpoint=0)

    def test_vocabulary_budget_enforced(self):
        with pytest.raises(ValueError):
            synth_corpus(CorpusSpec(endpoint_count=200, requests_per_endpoint=1))
