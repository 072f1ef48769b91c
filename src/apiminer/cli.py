"""Command-line surface: ingest, discover, noise, evaluate, bench."""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _string
from pathlib import Path

from .records import Dataset, IngestError, decode_utf8, parse_har, parse_jsonl, read_labels, write_dataset
from .normalize import canonical_path
from .denoise import DEFAULT_TAU
from .refine import PASSTHROUGH, EndpointCluster, RefinerConfig, discover, prepare_traffic
from .noise import INTERFERE, LEXIFY, inject
from .metrics import CSV_HEADER, NoLabeledDataError, report
from .templates import PathTemplate


def _read_json(path: str):
    text = decode_utf8(Path(path).read_bytes(), path)
    try:
        return json.loads(text)
    except ValueError as exc:
        # a JSONDecodeError, or an integer literal past CPython's digit limit
        raise IngestError(f"malformed JSON in {path}: {exc}") from exc
    except RecursionError:
        raise IngestError(f"malformed JSON in {path}: nested too deeply") from None


def _read_dataset(path: str, fmt: str) -> Dataset:
    if fmt == "har":
        return parse_har(Path(path).read_bytes())
    if fmt == "jsonl":
        with open(path, "rb") as capture:
            return parse_jsonl(capture)
    raise IngestError(f"unknown input format {fmt!r}")


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _is_seed(value) -> bool:
    # numpy seeds its generators from non-negative integers only
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _is_str(value) -> bool:
    return isinstance(value, str)


def _in_unit_interval(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and 0 < value < 1


# the keys a config file may set, each with the values it accepts
_CONFIG_KEYS = {
    "tau": ("a number in (0, 1)", _in_unit_interval),
    "theta": ("a number in (0, 1)", _in_unit_interval),
    "seed": ("a non-negative integer", _is_seed),
    "force_kmeans": ("true or false", lambda value: isinstance(value, bool)),
}


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise IngestError("config file must hold a single JSON object")
    for key, value in doc.items():
        if key not in _CONFIG_KEYS:
            known = ", ".join(_CONFIG_KEYS)
            raise IngestError(f"config file: unknown key {key!r} (known keys: {known})")
        expected, accepts = _CONFIG_KEYS[key]
        if not accepts(value):
            raise IngestError(f"config file: {key} must be {expected}, got {value!r}")
    return doc


def _pipeline_settings(args: argparse.Namespace) -> tuple[float, RefinerConfig]:
    """The gate threshold and refiner settings, each flag ``main`` left unset
    at its built-in default."""
    tau = DEFAULT_TAU if args.tau is None else args.tau
    given = {"theta": args.theta, "force_kmeans": args.force_kmeans}
    return tau, RefinerConfig(**{name: value for name, value in given.items() if value is not None})


def _array(items: list[str], indent: str) -> str:
    """A JSON list of the encoded ``items``, its brackets at ``indent``."""
    if not items:
        return "[]"
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


def _cluster_document(clusters: list[EndpointCluster]) -> str:
    """The clusters as ``json.dumps(..., indent=2)`` writes their entries."""
    entries = [
        f'{{\n    "method": {_string(c.template.method)},\n    "template": {_string(c.template.render())},\n'
        f'    "member_count": {len(c.member_ids)},\n    "provenance": {_string(c.provenance)},\n'
        f'    "representative_paths": {_array(list(map(_string, c.representative_paths)), "    ")},\n'
        f'    "member_ids": {_array(list(map(str, c.member_ids)), "    ")}\n  }}'
        for c in clusters
    ]
    return _array(entries, "") + "\n"


def _cluster_field(entry: dict, index: int, name: str, expected: str, accepts, default=None):
    """``entry[name]`` if it holds ``expected``; ``default`` if absent and one is given."""
    if name not in entry:
        if default is None:
            raise IngestError(f"cluster entry {index}: missing {name}")
        return default
    if not accepts(entry[name]):
        raise IngestError(f"cluster entry {index}: {name} must be {expected}, got {entry[name]!r}")
    return entry[name]


def _load_clusters(path: str) -> list[EndpointCluster]:
    doc = _read_json(path)
    if not isinstance(doc, list):
        raise IngestError("cluster document must hold a JSON list")
    clusters = []
    for index, entry in enumerate(doc):
        if not isinstance(entry, dict):
            raise IngestError(f"cluster entry {index}: not an object")
        rendered = _cluster_field(entry, index, "template", "a string", _is_str)
        method = _cluster_field(entry, index, "method", "a string", _is_str)
        member_ids = _cluster_field(
            entry, index, "member_ids", "a list of integers",
            # no bool, and no Python call per id
            lambda v: isinstance(v, list) and all(type(i) is int for i in v),
        )
        paths = _cluster_field(
            entry, index, "representative_paths", "a list of strings",
            lambda v: isinstance(v, list) and all(_is_str(p) for p in v), default=[],
        )
        provenance = _cluster_field(
            entry, index, "provenance", "a string", _is_str, default=PASSTHROUGH
        )
        tokens = tuple(
            None if t == "{*}" else t
            for t in (rendered.strip("/").split("/") if rendered != "/" else [])
        )
        clusters.append(
            EndpointCluster(
                template=PathTemplate(method=method, pattern=tokens),
                member_ids=member_ids,
                representative_paths=paths,
                provenance=provenance,
            )
        )
    return clusters


def _check_member_ids(clusters: list[EndpointCluster], requests: int) -> None:
    """Each member id names one of the capture's ``requests`` requests."""
    for index, cluster in enumerate(clusters):
        ids = cluster.member_ids
        if ids and (min(ids) < 0 or max(ids) >= requests):
            stray = next(i for i in ids if not 0 <= i < requests)
            raise IngestError(
                f"cluster entry {index}: member id {stray} is not one of the "
                f"capture's {requests} requests"
            )


def cmd_ingest(args) -> int:
    dataset = _read_dataset(args.input, args.format)
    if dataset.skipped:
        print(f"warning: skipped {dataset.skipped} entries without a request URL", file=sys.stderr)
    _write_text(args.out, write_dataset(dataset))
    return 0


def cmd_discover(args) -> int:
    dataset = _read_dataset(args.input, args.format)
    tau, refiner_config = _pipeline_settings(args)
    traffic = prepare_traffic(dataset, tau, args.disable_nf)
    # the normalized requests hold the kept records; let the dropped ones go
    del dataset
    if args.emit_dropped:
        lines = [f"{rid}\t{reason}" for rid, reason in traffic.dropped]
        _write_text(args.emit_dropped, "\n".join(lines) + ("\n" if lines else ""))
    if args.dump_normalized:
        lines = [f"{nr.record.method}\t{canonical_path(nr)}" for nr in traffic.normalized]
        _write_text(args.dump_normalized, "\n".join(lines) + ("\n" if lines else ""))
    clusters = discover(
        traffic,
        refiner_config=refiner_config,
        disable_template_mining=args.disable_templates,
    )
    # free the normalized requests before the cluster document is encoded
    del traffic
    if args.dump_templates:
        templates = dict.fromkeys((c.template.method, c.template.render()) for c in clusters)
        _write_text(args.dump_templates, "".join(f"{m}\t{t}\n" for m, t in templates))
    _write_text(args.out, _cluster_document(clusters))
    return 0


# the noise kind each --kind value names
_NOISE_KINDS = {"lexify": LEXIFY, "interfere": INTERFERE}


def cmd_noise(args) -> int:
    if not 0.0 <= args.ratio <= 1.0:
        raise IngestError(f"noise --ratio must lie in [0, 1], got {args.ratio!r}")
    _check_seed("noise --seed", args.seed)
    dataset = _read_dataset(args.input, args.format)
    noisy = inject(dataset, _NOISE_KINDS[args.kind], args.ratio, args.seed or 0)
    _write_text(args.out, write_dataset(noisy))
    return 0


def cmd_evaluate(args) -> int:
    if args.format != "jsonl":
        # a HAR request has no label field
        raise IngestError(
            f"evaluate reads labels from a JSONL capture; --format {args.format} carries none"
        )
    _check_seed("evaluate --seed", args.seed)
    # the capture is checked line by line, but no record is built
    with open(args.input, "rb") as capture:
        ground_truth, requests = read_labels(capture)
    if not ground_truth:
        raise NoLabeledDataError(
            "evaluation requires a labeled dataset: no record carries a label"
        )
    clusters = _load_clusters(args.clusters)
    _check_member_ids(clusters, requests)
    rep = report(
        clusters,
        ground_truth,
        config_echo={"input": args.input, "clusters": args.clusters, "lenient": args.lenient},
        lenient=args.lenient,
    )
    _write_text(args.out, rep.to_json() + "\n")
    if args.csv:
        row = rep.to_csv_row(dataset=args.input, seed=args.seed or 0)
        _write_text(args.csv, CSV_HEADER + "\n" + row + "\n")
    return 0


def _parse_list(flag: str, text: str, kind) -> list:
    try:
        return [kind(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise IngestError(
            f"bench {flag} must be a comma-separated list of {kind.__name__}s, got {text!r}"
        ) from None


def _check_seed(flag: str, seed: int | None) -> None:
    # numpy seeds its generators from non-negative integers only
    if seed is not None and seed < 0:
        raise IngestError(f"{flag} must be a non-negative integer, got {seed}")


def cmd_bench(args) -> int:
    # the only command that synthesizes a corpus; the others do not load it
    from .corpus import CorpusSpec, synth_corpus

    ratios = _parse_list("--ratios", args.ratios, float)
    if not all(0.0 <= r <= 1.0 for r in ratios):
        raise IngestError(f"bench --ratios must lie in [0, 1], got {args.ratios!r}")
    seeds = _parse_list("--seeds", args.seeds, int)
    if not all(s >= 0 for s in seeds):
        raise IngestError(f"bench --seeds must be non-negative integers, got {args.seeds!r}")
    _check_seed("bench --seed", args.seed)
    # CorpusSpec checks the counts, synth_corpus the vocabulary budget
    try:
        dataset = synth_corpus(CorpusSpec(
            endpoint_count=args.endpoints,
            requests_per_endpoint=args.requests,
            seed=args.seed if args.seed is not None else 42,
        ))
    except ValueError as exc:
        raise IngestError(
            f"bench --endpoints {args.endpoints} --requests {args.requests}: {exc}"
        ) from exc
    kinds = _NOISE_KINDS.values() if args.kind == "both" else [_NOISE_KINDS[args.kind]]
    tau, refiner_config = _pipeline_settings(args)
    rows = []
    for kind in sorted(kinds):
        for ratio in sorted(ratios):
            for noise_seed in sorted(seeds):
                noisy = inject(dataset, kind, ratio, noise_seed)
                clusters = discover(
                    prepare_traffic(noisy, tau, args.disable_nf),
                    refiner_config,
                    disable_template_mining=args.disable_templates,
                )
                rep = report(clusters, noisy.ground_truth)
                rows.append(
                    rep.to_csv_row(
                        dataset=dataset.source,
                        noise_type=kind,
                        noise_ratio=ratio,
                        seed=noise_seed,
                    )
                )
    _write_text(args.out, CSV_HEADER + "\n" + "\n".join(rows) + ("\n" if rows else ""))
    return 0


def _add_io_flags(p: argparse.ArgumentParser, output_default: str | None = "-") -> None:
    p.add_argument("--in", dest="input", required=True, help="input capture file")
    p.add_argument("--format", choices=("har", "jsonl"), default="jsonl")
    p.add_argument("--out", default=output_default, help="output path ('-' = stdout)")


def _unit_interval(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = None
    if not _in_unit_interval(value):
        raise argparse.ArgumentTypeError(f"must be a number in (0, 1), got {text!r}")
    return value


def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--theta", type=_unit_interval, default=None, help="similarity edge threshold")
    p.add_argument("--tau", type=_unit_interval, default=None, help="sanity-gate threshold")
    p.add_argument("--disable-nf", action="store_true", help="skip the traffic filter")
    p.add_argument("--disable-templates", action="store_true", help="one degenerate template group")
    p.add_argument("--force-kmeans", dest="force_kmeans", action="store_const", const=True,
                   default=None, help="bypass graph clustering in refinement")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apiminer",
        description="Reconstruct API endpoints from captured HTTP traffic.",
    )
    parser.add_argument("--config", default=None, help="JSON config file (flags override it)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse a capture into canonical JSONL")
    _add_io_flags(p)

    p = sub.add_parser("discover", help="run the endpoint-discovery pipeline")
    _add_io_flags(p)
    _add_pipeline_flags(p)
    p.add_argument("--dump-templates", default=None, help="write METHOD\\ttemplate lines here")
    p.add_argument("--dump-normalized", default=None, help="write METHOD\\tpath lines here")
    p.add_argument("--emit-dropped", default=None, help="write id\\treason lines here")

    p = sub.add_parser("noise", help="produce a noisy variant of a dataset")
    _add_io_flags(p)
    p.add_argument("--kind", choices=tuple(_NOISE_KINDS), required=True)
    p.add_argument("--ratio", type=float, required=True)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("evaluate", help="score a cluster document against ground truth")
    _add_io_flags(p)
    p.add_argument("--clusters", required=True, help="cluster JSON from discover")
    p.add_argument("--csv", default=None, help="also write a one-row CSV here")
    p.add_argument("--lenient", action="store_true", help="majority-overlap matching")
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("bench", help="noise-ratio sweep over a synthetic corpus")
    p.add_argument("--out", default="-")
    p.add_argument("--endpoints", type=int, default=20)
    p.add_argument("--requests", type=int, default=50)
    p.add_argument("--kind", choices=(*_NOISE_KINDS, "both"), default="both")
    p.add_argument("--ratios", default="0.05,0.25,0.5,0.75,0.95")
    p.add_argument("--seeds", default="1")
    p.add_argument("--seed", type=int, default=None, help="seeds the synthetic corpus")
    _add_pipeline_flags(p)
    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves a parser as it found it, so main builds one per process
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        file_config = _load_config_file(args.config)
        # the config file gives the pipeline flags of discover and bench their
        # defaults; its seed seeds bench's corpus, so discover, which has no
        # --seed, ignores it, and noise and evaluate read --seed from the flag
        if args.command in ("discover", "bench"):
            for name, value in file_config.items():
                if hasattr(args, name) and getattr(args, name) is None:
                    setattr(args, name, value)
        # looked up per call, so that a wrapped cmd_* function is the one run
        return globals()[f"cmd_{args.command}"](args)
    except (IngestError, NoLabeledDataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
