"""In-memory span tracer that wraps apiminer's layer functions from outside.

Each layer function is replaced, for the duration of a traced pass, at the
module attribute the pipeline calls it through (``apiminer.refine.mine``,
``apiminer.cli.parse_jsonl``, ...).  Nothing under ``src/`` is edited.  The
wrappers call the original function with the same arguments and return its
result unchanged, so the pipeline's outputs stay byte-identical.

Spans record a name, start, end, parent span and capture id.  Functions that
run once per record (``normalize``, ``extract_features``) do not get a span
per call: their calls are counted and timed on the enclosing span instead.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

# (module, attribute, span name).  One span name may cover several call sites.
SPAN_SITES = (
    ("apiminer.cli", "cmd_discover", "cli.discover"),
    ("apiminer.cli", "cmd_evaluate", "cli.evaluate"),
    ("apiminer.cli", "parse_jsonl", "records.parse"),
    ("apiminer.cli", "discover", "refine.discover"),
    ("apiminer.cli", "filter_traffic", "denoise.filter"),
    ("apiminer.refine", "filter_traffic", "denoise.filter"),
    ("apiminer.refine", "mine", "templates.mine"),
    ("apiminer.refine", "refine_group", "refine.group"),
    ("apiminer.refine", "scale_features", "features.scale"),
    ("apiminer.refine", "build_graph", "features.graph"),
    ("apiminer.refine", "select_k", "features.components"),
    # refine imports connected_components too; a direct call from there is
    # timed under the same name as the one select_k makes
    ("apiminer.refine", "connected_components", "features.components"),
    ("apiminer.features", "connected_components", "features.components"),
    ("apiminer.refine", "train_embeddings", "refine.train"),
    ("apiminer.refine", "kmeans_assign", "refine.kmeans"),
    ("apiminer.cli", "report", "metrics.report"),
)

# Per-record call sites, aggregated onto the enclosing span.
COUNTED_SITES = (
    ("apiminer.cli", "normalize", "normalize.normalize"),
    ("apiminer.refine", "normalize", "normalize.normalize"),
    ("apiminer.refine", "extract_features", "features.extract"),
)


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    capture: str
    end: float = 0.0
    # per-record call name -> [calls, seconds]
    counted: dict[str, list] = field(default_factory=dict)
    # sizes read from the call's arguments and return value
    info: dict[str, int] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class GroupRecord:
    """What the trace learned about one template group's refinement."""

    capture: str
    method: str
    template: str
    n: int
    rows: int | None = None
    distinct_rows: int | None = None
    k: int | None = None
    path: str | None = None
    iterations: int | None = None
    capped: bool | None = None
    seconds: float = 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.groups: list[GroupRecord] = []
        self.capture = ""
        self._stack: list[int] = []
        self._group: GroupRecord | None = None
        self._patched: list[tuple[object, str, object]] = []
        # seconds the wrappers spend outside the functions they wrap
        self.cost = 0.0

    # -- span bookkeeping -------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, perf_counter(), parent, self.capture))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name} closed out of order")
        return span

    def count(self, name: str, seconds: float) -> None:
        entry = self.spans[self._stack[-1]].counted.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += seconds

    # -- wrapping ---------------------------------------------------------

    def install(self) -> None:
        """Replace every call site that exists with its traced wrapper."""
        for module_name, attr, name in SPAN_SITES:
            self._patch(module_name, attr, lambda fn, n=name: self._span_wrapper(fn, n))
        for module_name, attr, name in COUNTED_SITES:
            self._patch(module_name, attr, lambda fn, n=name: self._count_wrapper(fn, n))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _patch(self, module_name: str, attr: str, make) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            return
        self._patched.append((module, attr, original))
        setattr(module, attr, make(original))

    def _span_wrapper(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = perf_counter()
            index = self.open(name)
            if name == "refine.group":
                self._start_group(args[0])
            called = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                returned = perf_counter()
                span = self.close(index)
            self._observe(name, args, result, span)
            self.cost += (called - entered) + (perf_counter() - returned)
            return result

        return traced

    def _count_wrapper(self, fn, name: str):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            returned = perf_counter()
            self.count(name, returned - start)
            self.cost += perf_counter() - returned
            return result

        return counted

    # -- per-group records from arguments and return values ---------------

    def _start_group(self, group) -> None:
        self._group = GroupRecord(
            capture=self.capture,
            method=group.template.method,
            template=group.template.render(),
            n=len(group.member_ids),
        )

    def _observe(self, name: str, args, result, span: Span) -> None:
        if name == "records.parse":
            span.info["records"] = len(result.records)
        elif name == "denoise.filter":
            span.info["records"] = len(args[0].records)
            span.info["kept"] = len(result.kept)
        elif name == "templates.mine":
            span.info["groups"] = len(result)
        group = self._group
        if name == "refine.group" and group is not None:
            group.seconds = span.seconds
            paths = {c.provenance for c in result}
            group.path = paths.pop() if len(paths) == 1 else ",".join(sorted(paths)) or "empty"
            self.groups.append(group)
            self._group = None
        elif group is None:
            return
        elif name == "features.scale":
            group.rows = int(result.shape[0])
            group.distinct_rows = int(np.unique(result, axis=0).shape[0])
        elif name == "features.components" and isinstance(result, int):
            group.k = result
        elif name == "refine.train":
            config = args[2]
            group.iterations = len(result.losses) - 1
            group.capped = group.iterations >= config.max_iters


def _outermost(spans: list[Span], name: str) -> list[Span]:
    """Spans called ``name`` that are not nested inside another span of that name."""
    out = []
    for span in spans:
        if span.name != name:
            continue
        parent = span.parent
        while parent is not None and spans[parent].name != name:
            parent = spans[parent].parent
        if parent is None:
            out.append(span)
    return out


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans and counted calls cover."""
    own = [s.seconds - sum(c[1] for c in s.counted.values()) for s in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.seconds
    return own


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced pass over a workload's captures."""
    spans = tracer.spans

    def total(name: str) -> float:
        return sum(s.seconds for s in _outermost(spans, name))

    def calls(name: str) -> int:
        return len(_outermost(spans, name))

    def counted(name: str) -> tuple[int, float]:
        entries = [s.counted[name] for s in spans if name in s.counted]
        return sum(e[0] for e in entries), sum(e[1] for e in entries)

    own = self_seconds(spans)
    captures = [i for i, s in enumerate(spans) if s.name == "capture"]
    capture_s = sum(spans[i].seconds for i in captures)
    uncovered = sum(own[i] for i in captures)
    cli_self = sum(own[i] for i, s in enumerate(spans) if s.name.startswith("cli."))

    def info(name: str, key: str) -> int:
        return sum(s.info.get(key, 0) for s in _outermost(spans, name))

    filtered_in = info("denoise.filter", "records")
    normalize_calls, normalize_s = counted("normalize.normalize")
    _, extract_s = counted("features.extract")

    groups = tracer.groups
    trained = [g for g in groups if g.iterations is not None]
    scaled = [g for g in groups if g.rows]
    return {
        "records.parse_s": total("records.parse"),
        "records.calls": calls("records.parse"),
        "records.records": info("records.parse", "records"),
        "denoise.filter_s": total("denoise.filter"),
        "denoise.calls": calls("denoise.filter"),
        "denoise.kept_share": info("denoise.filter", "kept") / filtered_in if filtered_in else 0.0,
        "normalize.normalize_s": normalize_s,
        "normalize.calls": normalize_calls,
        "templates.mine_s": total("templates.mine"),
        "templates.groups": info("templates.mine", "groups"),
        "features.extract_s": extract_s + total("features.scale"),
        "features.graph_s": total("features.graph"),
        "features.components_s": total("features.components"),
        "refine.refine_s": total("refine.group"),
        "refine.train_s": total("refine.train"),
        "refine.groups.graph": sum(g.path == "GraphRefined" for g in groups),
        "refine.groups.kmeans": sum(g.path == "KMeansFallback" for g in groups),
        "refine.groups.passthrough": sum(g.path == "Passthrough" for g in groups),
        "refine.train_iters": sum(g.iterations for g in trained),
        "refine.train_capped_share": (
            sum(bool(g.capped) for g in trained) / len(trained) if trained else 0.0
        ),
        "refine.distinct_row_share": (
            sum(g.distinct_rows for g in scaled) / sum(g.rows for g in scaled) if scaled else 0.0
        ),
        "refine.slowest_group_s": max((g.seconds for g in groups), default=0.0),
        "refine.max_group_n": float(max((g.n for g in groups), default=0)),
        "metrics.report_s": total("metrics.report"),
        "cli.self_s": cli_self,
        "trace.covered_share": 1.0 - uncovered / capture_s if capture_s else 0.0,
        "trace.overhead_share": tracer.cost / capture_s if capture_s else 0.0,
    }
