"""Partitions depend neither on how many threads the BLAS library runs, nor
on the order of the capture's records, nor on the Lexify rules that
normalization absorbs."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

import numpy as np

import apiminer
from apiminer.corpus import CorpusSpec, synth_corpus
from apiminer.noise import INTERFERE, LEXIFY, inject, lexify
from apiminer.normalize import normalize
from apiminer.records import Dataset, HttpRecord, write_dataset
from apiminer.refine import RefinerConfig, discover, prepare_traffic

SRC = str(Path(apiminer.__file__).resolve().parent.parent)


def test_partitions_independent_of_blas_threads(tmp_path):
    capture = tmp_path / "capture.jsonl"
    noisy = inject(synth_corpus(CorpusSpec(20, 300, seed=42)), LEXIFY, 0.5, 1)
    capture.write_text(write_dataset(noisy), encoding="utf-8")
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"clusters-{threads}.json"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        command = [sys.executable, "-m", "apiminer.cli", "discover",
                   "--in", str(capture), "--out", str(out)]
        runs.append((subprocess.Popen(command, env=env), out))
    documents = []
    for process, out in runs:
        assert process.wait(timeout=600) == 0
        documents.append(out.read_bytes())
    partitions = [
        sorted(cluster["member_ids"] for cluster in json.loads(doc)) for doc in documents
    ]
    assert partitions[0] == partitions[1]
    assert documents[0] == documents[1]


def member_sets(dataset: Dataset, force_kmeans: bool = False) -> set[frozenset[int]]:
    config = RefinerConfig(force_kmeans=force_kmeans)
    return {frozenset(c.member_ids) for c in discover(prepare_traffic(dataset), config)}


def test_deep_capture_partition_independent_of_record_order():
    # refinement reads a group's set of feature rows, so no shuffle of the
    # deep Lexify-0.5-s1 capture moves its partition, on either path
    noisy = inject(synth_corpus(CorpusSpec(20, 300, 42)), LEXIFY, 0.5, 1)
    shuffled = list(noisy.records)
    random.Random(1004).shuffle(shuffled)
    for force_kmeans in (False, True):
        assert member_sets(Dataset(shuffled), force_kmeans) == member_sets(noisy, force_kmeans)


@settings(max_examples=40, deadline=None)
@given(
    endpoints=st.integers(1, 6),
    requests=st.integers(3, 20),
    corpus_seed=st.integers(0, 2**16),
    kind=st.sampled_from([LEXIFY, INTERFERE]),
    ratio=st.sampled_from([0.0, 0.25, 0.5, 0.95]),
    noise_seed=st.integers(0, 2**16),
    force_kmeans=st.booleans(),
    data=st.data(),
)
def test_discover_independent_of_record_order(
    endpoints, requests, corpus_seed, kind, ratio, noise_seed, force_kmeans, data
):
    noisy = inject(synth_corpus(CorpusSpec(endpoints, requests, corpus_seed)), kind, ratio, noise_seed)
    shuffled = data.draw(st.permutations(noisy.records))
    assert member_sets(Dataset(shuffled), force_kmeans) == member_sets(noisy, force_kmeans)


# The Lexify rules that normalization absorbs: slash noise and the case of a
# segment.  The query rules are left out: they change the key=value pairs
# QueryKeyCensus reads.  Case is absorbed for ASCII segments; the case
# mapping of some other letters does not round-trip ('ß'.upper() is 'SS').
ABSORBED_RULES = (
    "Repeated Slash", "Trailing Slash Addition", "Trailing Slash Removal",
    "Uppercase Token", "Lowercase Token",
)
ASCII_SEGMENTS = st.text(alphabet="abcXYZ019-._~", min_size=1, max_size=8) | st.sampled_from(
    ["%7e", "%7E", "%2f", "%41b", "Users", "v1"]
)
URLS = st.builds(
    lambda origin, segments, trailing, rest: origin + "/" + "/".join(segments) + trailing + rest,
    st.sampled_from(["", "/", "https://h", "http://H:8080", "HTTPS://h"]),
    st.lists(ASCII_SEGMENTS, max_size=6),
    st.sampled_from(["", "/"]),
    st.sampled_from(["", "?a=1&B=2&a=3", "?q", "#f", "?x=1#f"]),
)


def rewritten(dataset: Dataset, name: str, seed: int) -> Dataset:
    """The dataset with rule ``name`` applied alone to every record it applies to."""
    rng = np.random.default_rng(seed)
    return Dataset([lexify(record, name, rng)[0] for record in dataset.records])


@settings(max_examples=300, deadline=None)
@given(url=URLS, name=st.sampled_from(ABSORBED_RULES), seed=st.integers(0, 2**16))
def test_absorbed_rule_leaves_the_normalized_request(url, name, seed):
    record = HttpRecord(id=0, method="GET", url=url)
    (noisy,) = rewritten(Dataset([record]), name, seed).records
    before, after = normalize(record), normalize(noisy)
    assert after.segments == before.segments
    assert after.raw_query_keys == before.raw_query_keys


@settings(max_examples=30, deadline=None)
@given(
    corpus_seed=st.integers(0, 2**16),
    noise_seed=st.integers(0, 2**16),
    name=st.sampled_from(ABSORBED_RULES),
)
def test_absorbed_rule_leaves_the_partition(corpus_seed, noise_seed, name):
    # Lexify noise first, so that some paths end in a slash or hold an
    # upper-case token for the removal and lower-casing rules to act on
    noisy = inject(synth_corpus(CorpusSpec(6, 12, corpus_seed)), LEXIFY, 0.5, noise_seed)
    assert member_sets(rewritten(noisy, name, noise_seed)) == member_sets(noisy)
