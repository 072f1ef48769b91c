"""Partitions depend neither on how many threads the BLAS library runs nor
on the order of the capture's records."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

import apiminer
from apiminer.corpus import CorpusSpec, synth_corpus
from apiminer.noise import INTERFERE, LEXIFY, inject
from apiminer.records import Dataset, write_dataset
from apiminer.refine import discover, prepare_traffic

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


def member_sets(dataset: Dataset) -> set[frozenset[int]]:
    return {frozenset(c.member_ids) for c in discover(prepare_traffic(dataset))}


def test_deep_capture_partition_independent_of_record_order():
    # a capture whose partition moved under this shuffle when refinement ran
    # k-means on a spectral embedding
    noisy = inject(synth_corpus(CorpusSpec(20, 300, 42)), LEXIFY, 0.5, 1)
    shuffled = list(noisy.records)
    random.Random(1004).shuffle(shuffled)
    assert member_sets(Dataset(shuffled)) == member_sets(noisy)


@settings(max_examples=40, deadline=None)
@given(
    endpoints=st.integers(1, 6),
    requests=st.integers(3, 20),
    corpus_seed=st.integers(0, 2**16),
    kind=st.sampled_from([LEXIFY, INTERFERE]),
    ratio=st.sampled_from([0.0, 0.25, 0.5, 0.95]),
    noise_seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_discover_independent_of_record_order(
    endpoints, requests, corpus_seed, kind, ratio, noise_seed, data
):
    noisy = inject(synth_corpus(CorpusSpec(endpoints, requests, corpus_seed)), kind, ratio, noise_seed)
    shuffled = data.draw(st.permutations(noisy.records))
    assert member_sets(Dataset(shuffled)) == member_sets(noisy)
