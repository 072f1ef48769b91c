"""Partitions do not depend on how many threads the BLAS library runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import apiminer
from apiminer.corpus import CorpusSpec, synth_corpus
from apiminer.noise import LEXIFY, inject
from apiminer.records import write_dataset

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
