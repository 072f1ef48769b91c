"""The output documents are what ``json.dumps(..., indent=2)`` writes."""

import json

from hypothesis import given, settings, strategies as st

from apiminer.cli import _cluster_document
from apiminer.metrics import EvalReport
from apiminer.refine import EndpointCluster
from apiminer.templates import PathTemplate

# text with what a JSON string escapes: quotes, backslashes, control
# characters, text past ASCII and past U+FFFF, and lone surrogates
TEXT = st.text(
    alphabet=st.sampled_from('a/_"\\\x00\n\t\x1f\x7fé \U0001f600𐏿\ud800\udfff')
    | st.characters(),
    max_size=6,
)
SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | TEXT
    | st.sampled_from([float("nan"), float("inf"), -0.0, 1e300, 5e-324])
)
# lists, tuples and dicts with text or other keys, as a report may echo them
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(TEXT, inner, max_size=3)
    | st.lists(inner, max_size=2).map(tuple)
    | st.dictionaries(st.integers() | st.none(), inner, max_size=2),
    max_leaves=8,
)
CLUSTERS = st.lists(
    st.builds(
        EndpointCluster,
        template=st.builds(
            PathTemplate, method=TEXT, pattern=st.lists(st.none() | TEXT, max_size=3).map(tuple)
        ),
        member_ids=st.lists(st.integers(), max_size=4),
        representative_paths=st.lists(TEXT, max_size=3),
        provenance=TEXT,
    ),
    max_size=3,
)
PER_CLUSTER = st.fixed_dictionaries({
    "cluster": st.integers(0, 100),
    "template": TEXT,
    "method": TEXT,
    "size": st.integers(0, 100),
    "matched_endpoint": st.none() | TEXT,
    "majority_label": st.none() | TEXT,
    "majority_fraction": st.floats(0, 1),
})
REPORTS = st.builds(
    EvalReport,
    tp=st.integers(0, 100),
    fp=st.integers(0, 100),
    fn=st.integers(0, 100),
    pga=st.floats(),
    rga=st.floats(),
    fga=st.floats(),
    purity=st.floats(),
    pga_defined=st.booleans(),
    rga_defined=st.booleans(),
    fga_defined=st.booleans(),
    per_cluster=st.lists(PER_CLUSTER, max_size=3),
    config_echo=st.dictionaries(TEXT, JSON_VALUES, max_size=3),
)
WRITERS = settings(max_examples=300, deadline=None)


@WRITERS
@given(clusters=CLUSTERS)
def test_cluster_document_is_json_dumps(clusters):
    payload = [
        {
            "method": c.template.method,
            "template": c.template.render(),
            "member_count": len(c.member_ids),
            "provenance": c.provenance,
            "representative_paths": c.representative_paths,
            "member_ids": c.member_ids,
        }
        for c in clusters
    ]
    assert _cluster_document(clusters) == json.dumps(payload, indent=2) + "\n"


def test_empty_cluster_document():
    assert _cluster_document([]) == "[]\n"


@WRITERS
@given(report=REPORTS)
def test_report_is_json_dumps(report):
    payload = {
        "tp": report.tp,
        "fp": report.fp,
        "fn": report.fn,
        "pga": round(report.pga, 4),
        "rga": round(report.rga, 4),
        "fga": round(report.fga, 4),
        "purity": round(report.purity, 6),
        "pga_defined": report.pga_defined,
        "rga_defined": report.rga_defined,
        "fga_defined": report.fga_defined,
        "per_cluster": report.per_cluster,
        "config_echo": report.config_echo,
    }
    assert report.to_json() == json.dumps(payload, indent=2)
