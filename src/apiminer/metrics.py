"""Group-accuracy metrics (PGA / RGA / FGA) and cluster purity."""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass, field

from .templates import EndpointCluster

CSV_HEADER = "dataset,noise_type,noise_ratio,seed,tp,fp,fn,pga,rga,fga,purity"


class NoLabeledDataError(ValueError):
    """Raised when purity is requested but no labeled record is clustered."""


@dataclass
class EvalReport:
    tp: int
    fp: int
    fn: int
    pga: float
    rga: float
    fga: float
    purity: float
    pga_defined: bool
    rga_defined: bool
    fga_defined: bool
    per_cluster: list[dict] = field(default_factory=list)
    config_echo: dict = field(default_factory=dict)

    def to_json(self) -> str:
        # the fields in their order, the four ratios rounded
        payload = dict(vars(self))
        for name, digits in (("pga", 4), ("rga", 4), ("fga", 4), ("purity", 6)):
            payload[name] = round(payload[name], digits)
        return json.dumps(payload, indent=2)

    def to_csv_row(self, dataset: str = "", noise_type: str = "", noise_ratio: float = 0.0,
                   seed: int = 0) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="")
        writer.writerow(
            [
                dataset,
                noise_type,
                f"{noise_ratio:g}",
                seed,
                self.tp,
                self.fp,
                self.fn,
                f"{self.pga:.2f}",
                f"{self.rga:.2f}",
                f"{self.fga:.2f}",
                f"{self.purity:.4f}",
            ]
        )
        return buf.getvalue()


# what one cluster's labels say: its majority label (None when no member is
# labeled), the members holding it, its labeled members, and the label whose
# records it is exactly (None when it is not)
_ClusterLabels = tuple[str | None, int, int, str | None]


def _read_labels(
    clusters: list[EndpointCluster], truth: dict[int, str], lenient: bool
) -> tuple[int, int, int, list[_ClusterLabels]]:
    """Exact-set group accuracy counts (tp, fp, fn), with what each cluster's
    labels say, from one read of each cluster's labels.

    A cluster is correct iff its labeled members are exactly the full record
    set of one endpoint label and it contains neither another label's records
    nor unlabeled (interference) records.  With ``lenient`` a cluster matches
    the label a strict majority of its distinct labeled members hold instead,
    if that is more than half the label's records and no earlier cluster
    matched it.
    """
    sizes = Counter(truth.values())
    matched: set[str] = set()
    tp = 0
    rows: list[_ClusterLabels] = []
    for cluster in clusters:
        ids = cluster.member_ids
        labels = [truth[i] for i in ids if i in truth]
        votes = Counter(labels)
        majority, count = votes.most_common(1)[0] if labels else (None, 0)
        # every member labeled with one label, each of its records once
        exact = (
            majority
            if labels and count == len(ids) == sizes[majority] and len(set(ids)) == count
            else None
        )
        rows.append((majority, count, len(labels), exact))
        if lenient:
            if len(set(ids)) != len(ids):
                # a record listed twice votes once
                votes = Counter(truth[i] for i in set(ids) if i in truth)
            if not votes:
                continue
            # a strict majority is the one most common label; under a tie
            # no label has one, whichever most_common names
            label, held = votes.most_common(1)[0]
            if label not in matched and held * 2 > sizes[label] and held * 2 > votes.total():
                matched.add(label)
                tp += 1
        elif exact is not None and exact not in matched:
            matched.add(exact)
            tp += 1
    return tp, len(clusters) - tp, len(sizes) - len(matched), rows


def match_counts(
    clusters: list[EndpointCluster],
    truth: dict[int, str],
    lenient: bool = False,
) -> tuple[int, int, int]:
    """Exact-set group accuracy counts (tp, fp, fn); see ``_read_labels``."""
    return _read_labels(clusters, truth, lenient)[:3]


def _purity(rows: list[_ClusterLabels]) -> float:
    total = sum(labeled for _, _, labeled, _ in rows)
    if total == 0:
        raise NoLabeledDataError("no labeled records in any cluster")
    return sum(count for _, count, _, _ in rows) / total


def purity(clusters: list[EndpointCluster], truth: dict[int, str]) -> float:
    """(1/N) * sum_k max_c |cluster k members with label c|, labeled records only."""
    return _purity(_read_labels(clusters, truth, False)[3])


def _ratio(num: float, den: float) -> tuple[float, bool]:
    if den <= 0:
        return 0.0, False
    return 100.0 * num / den, True


def report(
    clusters: list[EndpointCluster],
    truth: dict[int, str],
    config_echo: dict | None = None,
    lenient: bool = False,
) -> EvalReport:
    tp, fp, fn, rows = _read_labels(clusters, truth, lenient)
    pga, pga_def = _ratio(tp, tp + fp)
    rga, rga_def = _ratio(tp, tp + fn)
    fga, fga_def = _ratio(2 * tp, 2 * tp + fp + fn)
    if not clusters and truth:
        # degenerate run: nothing discovered; flagged zero rather than an error
        pur = 0.0
    else:
        pur = _purity(rows)
    per_cluster = [
        {
            "cluster": idx,
            "template": cluster.template.render(),
            "method": cluster.template.method,
            "size": len(cluster.member_ids),
            "matched_endpoint": exact,
            "majority_label": majority,
            "majority_fraction": round(count / labeled, 6) if labeled else 0.0,
        }
        for idx, (cluster, (majority, count, labeled, exact)) in enumerate(zip(clusters, rows))
    ]
    return EvalReport(
        tp=tp,
        fp=fp,
        fn=fn,
        pga=pga,
        rga=rga,
        fga=fga,
        purity=pur,
        pga_defined=pga_def,
        rga_defined=rga_def,
        fga_defined=fga_def,
        per_cluster=per_cluster,
        config_echo=config_echo or {},
    )
