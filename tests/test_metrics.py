"""Evaluation metrics: exact-set matching, the three ratios, purity."""

import json
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from apiminer.metrics import (
    CSV_HEADER,
    NoLabeledDataError,
    match_counts,
    purity,
    report,
)
from apiminer.refine import EndpointCluster
from apiminer.templates import PathTemplate


def cluster(member_ids, method="GET", template="/api/x"):
    tokens = tuple(template.strip("/").split("/")) if template != "/" else ()
    return EndpointCluster(
        template=PathTemplate(method=method, pattern=tokens),
        member_ids=list(member_ids),
    )


def truth_of(sizes):
    """sizes: label -> record count; ids assigned sequentially."""
    truth = {}
    nxt = 0
    blocks = {}
    for label, count in sizes.items():
        blocks[label] = list(range(nxt, nxt + count))
        for i in blocks[label]:
            truth[i] = label
        nxt += count
    return truth, blocks


class TestMatchCounts:
    def test_perfect(self):
        truth, blocks = truth_of({"A": 3, "B": 2})
        clusters = [cluster(blocks["A"]), cluster(blocks["B"])]
        assert match_counts(clusters, truth) == (2, 0, 0)

    def test_split_endpoint_counts_as_miss(self):
        truth, blocks = truth_of({"A": 4})
        clusters = [cluster(blocks["A"][:2]), cluster(blocks["A"][2:])]
        assert match_counts(clusters, truth) == (0, 2, 1)

    def test_merged_endpoints_count_as_miss(self):
        truth, blocks = truth_of({"A": 2, "B": 2})
        clusters = [cluster(blocks["A"] + blocks["B"])]
        assert match_counts(clusters, truth) == (0, 1, 2)

    def test_unlabeled_member_spoils_cluster(self):
        truth, blocks = truth_of({"A": 2})
        clusters = [cluster(blocks["A"] + [99])]
        assert match_counts(clusters, truth) == (0, 1, 1)

    def test_each_label_claimed_once(self):
        truth, blocks = truth_of({"A": 2})
        clusters = [cluster(blocks["A"]), cluster(blocks["A"])]
        assert match_counts(clusters, truth) == (1, 1, 0)

    def test_lenient_majority_overlap(self):
        truth, blocks = truth_of({"A": 4, "B": 4})
        # cluster holds 3 of A's 4 records: lenient majority match, exact miss
        clusters = [cluster(blocks["A"][:3]), cluster(blocks["B"])]
        assert match_counts(clusters, truth) == (1, 1, 1)
        assert match_counts(clusters, truth, lenient=True) == (2, 0, 0)


class TestPurity:
    def test_pure_clusters(self):
        truth, blocks = truth_of({"A": 3, "B": 1})
        clusters = [cluster(blocks["A"]), cluster(blocks["B"])]
        assert purity(clusters, truth) == 1.0

    def test_mixed_cluster(self):
        truth, blocks = truth_of({"A": 3, "B": 1})
        clusters = [cluster(blocks["A"] + blocks["B"])]
        assert purity(clusters, truth) == 0.75

    def test_unlabeled_members_ignored(self):
        truth, blocks = truth_of({"A": 2})
        clusters = [cluster(blocks["A"] + [99])]
        assert purity(clusters, truth) == 1.0

    def test_no_labeled_records_raises(self):
        with pytest.raises(NoLabeledDataError):
            purity([cluster([5, 6])], {0: "A"})


class TestReport:
    def test_eleven_of_thirteen(self):
        truth, blocks = truth_of({f"L{i}": 1 for i in range(13)})
        clusters = [cluster(blocks[f"L{i}"]) for i in range(11)]
        rep = report(clusters, truth)
        assert (rep.tp, rep.fp, rep.fn) == (11, 0, 2)
        assert rep.pga == pytest.approx(100.00, abs=0.01)
        assert rep.rga == pytest.approx(84.62, abs=0.01)
        assert rep.fga == pytest.approx(91.67, abs=0.01)

    def test_harmonic_mean_identity(self):
        truth, blocks = truth_of({"A": 2, "B": 2, "C": 2})
        clusters = [cluster(blocks["A"]), cluster(blocks["B"][:1])]
        rep = report(clusters, truth)
        if rep.pga_defined and rep.rga_defined and rep.pga + rep.rga > 0:
            harmonic = 2 * rep.pga * rep.rga / (rep.pga + rep.rga)
            assert rep.fga == pytest.approx(harmonic, abs=1e-9)

    def test_zero_denominators_flagged(self):
        truth, _ = truth_of({"A": 1})
        rep = report([], truth)
        assert rep.pga == 0.0 and not rep.pga_defined
        assert rep.purity == 0.0

    def test_per_cluster_diagnostics(self):
        truth, blocks = truth_of({"A": 3, "B": 1})
        clusters = [cluster(blocks["A"]), cluster(blocks["B"] + [99])]
        rep = report(clusters, truth)
        assert rep.per_cluster[0]["matched_endpoint"] == "A"
        assert rep.per_cluster[1]["matched_endpoint"] is None
        assert rep.per_cluster[1]["majority_label"] == "B"

    def test_json_round_trips(self):
        truth, blocks = truth_of({"A": 2})
        rep = report([cluster(blocks["A"])], truth, config_echo={"seed": 3})
        doc = json.loads(rep.to_json())
        assert doc["tp"] == 1 and doc["config_echo"] == {"seed": 3}

    def test_csv_row_shape(self):
        truth, blocks = truth_of({"A": 2})
        rep = report([cluster(blocks["A"])], truth)
        row = rep.to_csv_row(dataset="d", noise_type="Lexify", noise_ratio=0.5, seed=3)
        assert len(row.split(",")) == len(CSV_HEADER.split(","))
        assert row == "d,Lexify,0.5,3,1,0,0,100.00,100.00,100.00,1.0000"


class TestRandomizedAgainstOracle:
    def test_matches_brute_force(self):
        import random

        rng = random.Random(13)
        for _ in range(30):
            labels = [f"L{i}" for i in range(rng.randint(1, 5))]
            truth = {}
            rid = 0
            for lab in labels:
                for _ in range(rng.randint(1, 4)):
                    truth[rid] = lab
                    rid += 1
            ids = list(truth)
            rng.shuffle(ids)
            clusters = []
            while ids:
                take = rng.randint(1, len(ids))
                clusters.append(cluster(ids[:take]))
                ids = ids[take:]
            tp, fp, fn = match_counts(clusters, truth)
            # oracle: brute-force exact-set comparison
            label_sets = {}
            for i, lab in truth.items():
                label_sets.setdefault(lab, set()).add(i)
            matched = set()
            otp = 0
            for c in clusters:
                mem = set(c.member_ids)
                for lab, ls in label_sets.items():
                    if mem == ls and lab not in matched:
                        matched.add(lab)
                        otp += 1
                        break
            assert (tp, fp, fn) == (otp, len(clusters) - otp, len(label_sets) - otp)
            pur = purity(clusters, truth)
            osum = sum(
                max(
                    sum(1 for i in c.member_ids if truth.get(i) == lab)
                    for lab in labels
                )
                for c in clusters
            )
            assert pur == pytest.approx(osum / len(truth), rel=1e-9)


def reference_report(clusters, truth, lenient):
    """The report's figures the plain way: label sets, and one question at a
    time to each cluster."""
    label_sets = {}
    for rid, label in truth.items():
        label_sets.setdefault(label, set()).add(rid)
    matched, tp, total, majority_sum, per_cluster = set(), 0, 0, 0, []
    for c in clusters:
        labeled = {i for i in c.member_ids if i in truth}
        labels = [truth[i] for i in c.member_ids if i in truth]
        majority, count = Counter(labels).most_common(1)[0] if labels else (None, 0)
        exact = None
        if (
            labels
            and len(labeled) == len(c.member_ids)
            and len(set(labels)) == 1
            and labeled == label_sets[majority]
        ):
            exact = majority
        if lenient and labeled:
            votes = Counter(truth[i] for i in labeled)
            # the labels with more than half the distinct labeled members
            for label, held in votes.items():
                if (label not in matched and held * 2 > len(labeled)
                        and held * 2 > len(label_sets[label])):
                    matched.add(label)
                    tp += 1
        elif not lenient and exact is not None and exact not in matched:
            matched.add(exact)
            tp += 1
        total += len(labels)
        majority_sum += count
        per_cluster.append((exact, majority, round(count / len(labels), 6) if labels else 0.0))
    fp, fn = len(clusters) - tp, len(label_sets) - len(matched)
    if not clusters and truth:
        pur = 0.0
    elif total == 0:
        pur = None
    else:
        pur = majority_sum / total
    return (tp, fp, fn), pur, per_cluster


# ids 0-7 may be labeled; 8 and 9 never are, and a cluster may list an id twice
TRUTHS = st.dictionaries(st.integers(0, 7), st.sampled_from("ABC"), max_size=8)
CLUSTERS = st.lists(st.lists(st.integers(0, 9), max_size=6), max_size=5)


class TestReportAgainstReference:
    @settings(max_examples=500, deadline=None)
    @given(TRUTHS, CLUSTERS, st.booleans())
    @example({0: "A", 1: "A"}, [[0, 1, 1]], False)
    @example({0: "A", 1: "A", 2: "B"}, [[0, 0, 0, 2, 1]], True)
    @example({0: "A", 1: "B"}, [[0, 1], [0]], True)
    @example({0: "A"}, [[8, 9]], False)
    def test_report_is_the_reference(self, truth, member_lists, lenient):
        clusters = [cluster(ids) for ids in member_lists]
        counts, pur, per_cluster = reference_report(clusters, truth, lenient)
        if pur is None:
            with pytest.raises(NoLabeledDataError):
                report(clusters, truth, lenient=lenient)
            return
        rep = report(clusters, truth, lenient=lenient)
        assert (rep.tp, rep.fp, rep.fn) == counts == match_counts(clusters, truth, lenient)
        assert rep.purity == pur
        assert [
            (c["matched_endpoint"], c["majority_label"], c["majority_fraction"])
            for c in rep.per_cluster
        ] == per_cluster
        assert [c["size"] for c in rep.per_cluster] == [len(ids) for ids in member_lists]
