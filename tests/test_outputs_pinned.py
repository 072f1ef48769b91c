"""Every output of discover and evaluate, pinned by digest on two small captures.

A change that is meant to leave the pipeline's behaviour alone must leave
these digests alone too: the capture, the cluster document, the three dumps,
the evaluation report, and the cluster documents of the k-means ablation and
of the one-group path (template mining off, with and without the filter).
"""

import hashlib

import pytest

from apiminer.cli import main
from apiminer.corpus import CorpusSpec, synth_corpus
from apiminer.noise import INTERFERE, LEXIFY, inject
from apiminer.records import write_dataset

# the Lexify capture has no non-API traffic: its dropped.tsv is the empty file,
# and its one-group documents with and without the filter are the same
PINNED = {
    LEXIFY: {
        "capture.jsonl": "e2f648a80c2a48fb156fa3f8df72cd5cd54d191a639741bf77d82ae6b81ef888",
        "clusters.json": "965fe8eaba4d7ce19aed36bad8cad3655fe474bc622f0884146a33eb88c1c035",
        "dropped.tsv": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "normalized.tsv": "783aa7a3a00209249ad175b0c4981e1bba6581a7c8666472372b04fcdacb7014",
        "templates.tsv": "fc28b17ffd0c78a595e5fd35c6bb40369bd25da3cb60dff9ad7bbf25b6d40a57",
        "evaluate.json": "98d1b39738c11439ddbb4c47df0eaf974133078e3e7484612cacad7b3fdde868",
        "kmeans.json": "3db566adcecadfd4a8dafabe1c289dc96b6e99ec03469909bc57eff9bbb0752f",
        "one-group.json": "d63df88deee4b5b04470320ef9216c9e7526c62e82fa75004f72419cb4a5fe00",
        "one-group-unfiltered.json": "d63df88deee4b5b04470320ef9216c9e7526c62e82fa75004f72419cb4a5fe00",
    },
    INTERFERE: {
        "capture.jsonl": "2214ad11bf81a8c8d365ea70ca3924d66ce20f8a51ea5b4e798fb28665b59b36",
        "clusters.json": "2295577409b71f5ff33395eec87920ab71c3805b803ea0a142fe92847e190243",
        "dropped.tsv": "46007140540ca3cb2849282a7c501078a7f4d8903cc7335997ed8697db6973b3",
        "normalized.tsv": "f734ef8b61d6c95a967ca856abcfdbb104d267f46e7ffed5e5a4a15dc3c9cdb8",
        "templates.tsv": "5a3d4f4d1027ef6aceb36ad1925ccfd42726af3caaaf2dc3f676c355c23f1b68",
        "evaluate.json": "c050537df7c959e8f987d26e0ac62edfb98dde0049f99a810bfa06de05a14859",
        "kmeans.json": "cc36dd3c3570aec61f2bf7b368c119c4e1b10ceea8a2b491bf86196dc13394d2",
        "one-group.json": "5c8c76d113f1808c4e187a2e7c6ceae5ca32150c1222ad2969b125c112793fa2",
        "one-group-unfiltered.json": "0731c0670521373f67d11bbabf3b77974ef234d18232085f20e26b2adc6e4fba",
    },
}


def _digests(kind) -> dict[str, str]:
    capture = "capture.jsonl"
    noisy = inject(synth_corpus(CorpusSpec(6, 12)), kind, 0.5, 1)
    with open(capture, "w", encoding="utf-8") as handle:
        handle.write(write_dataset(noisy))
    assert main(["discover", "--in", capture, "--out", "clusters.json",
                 "--emit-dropped", "dropped.tsv", "--dump-normalized", "normalized.tsv",
                 "--dump-templates", "templates.tsv"]) == 0
    assert main(["evaluate", "--in", capture, "--clusters", "clusters.json",
                 "--out", "evaluate.json"]) == 0
    assert main(["discover", "--in", capture, "--out", "kmeans.json", "--force-kmeans"]) == 0
    assert main(["discover", "--in", capture, "--out", "one-group.json",
                 "--disable-templates"]) == 0
    assert main(["discover", "--in", capture, "--out", "one-group-unfiltered.json",
                 "--disable-nf", "--disable-templates"]) == 0
    names = (capture, "clusters.json", "dropped.tsv", "normalized.tsv", "templates.tsv",
             "evaluate.json", "kmeans.json", "one-group.json", "one-group-unfiltered.json")
    digests = {}
    for name in names:
        with open(name, "rb") as handle:
            digests[name] = hashlib.sha256(handle.read()).hexdigest()
    return digests


@pytest.mark.parametrize("kind", [LEXIFY, INTERFERE])
def test_outputs_match_pinned_digests(tmp_path, monkeypatch, kind):
    # relative paths keep the report's config echo the same in any directory
    monkeypatch.chdir(tmp_path)
    assert _digests(kind) == PINNED[kind]
