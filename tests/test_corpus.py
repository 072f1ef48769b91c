"""Synthetic labeled corpus generator."""

import pytest

from apiminer.corpus import CorpusSpec, synth_corpus
from apiminer.records import HttpRecord, write_dataset


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
