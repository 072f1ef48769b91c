"""Command-line surface: ingest, discover, noise, evaluate, bench."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .records import Dataset, IngestError, parse_har, parse_jsonl, write_dataset
from .normalize import canonical_path
from .denoise import FilterConfig
from .templates import MinerConfig
from .refine import EndpointCluster, RefinerConfig, discover, prepare_traffic
from .corpus import CorpusSpec, synth_corpus
from .noise import INTERFERE, LEXIFY, inject
from .metrics import CSV_HEADER, NoLabeledDataError, report
from .templates import PathTemplate


def _read_dataset(path: str, fmt: str) -> Dataset:
    data = Path(path).read_bytes()
    if fmt == "har":
        return parse_har(data)
    if fmt == "jsonl":
        return parse_jsonl(data.decode("utf-8"))
    raise IngestError(f"unknown input format {fmt!r}")


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise IngestError("config file must hold a single JSON object")
    return doc


def _setting(args: argparse.Namespace, file_config: dict, name: str, default):
    """Precedence: built-in default < config file < explicit flag."""
    flag = getattr(args, name, None)
    if flag is not None:
        return flag
    if name in file_config:
        return file_config[name]
    return default


def _pipeline_configs(args, file_config) -> tuple[FilterConfig, MinerConfig, RefinerConfig]:
    filter_config = FilterConfig(tau=_setting(args, file_config, "tau", 0.01))
    miner_config = MinerConfig()
    refiner_config = RefinerConfig(
        theta=_setting(args, file_config, "theta", 0.85),
        lam=_setting(args, file_config, "lam", 0.1),
        force_kmeans=bool(_setting(args, file_config, "force_kmeans", False)),
        global_seed=int(_setting(args, file_config, "seed", 0)),
    )
    return filter_config, miner_config, refiner_config


def _cluster_document(clusters: list[EndpointCluster]) -> str:
    payload = [
        {
            "method": c.method,
            "template": c.template.render(),
            "member_count": len(c.member_ids),
            "provenance": c.provenance,
            "representative_paths": c.representative_paths,
            "member_ids": c.member_ids,
        }
        for c in clusters
    ]
    return json.dumps(payload, indent=2) + "\n"


def _load_clusters(path: str) -> list[EndpointCluster]:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    clusters = []
    for entry in doc:
        rendered = entry["template"]
        tokens = tuple(
            None if t == "{*}" else t
            for t in (rendered.strip("/").split("/") if rendered != "/" else [])
        )
        clusters.append(
            EndpointCluster(
                template=PathTemplate(method=entry["method"], pattern=tokens),
                method=entry["method"],
                member_ids=list(entry["member_ids"]),
                representative_paths=list(entry.get("representative_paths", [])),
                provenance=entry.get("provenance", "Passthrough"),
            )
        )
    return clusters


def cmd_ingest(args, file_config) -> int:
    dataset = _read_dataset(args.input, args.format)
    if dataset.skipped:
        print(f"warning: skipped {dataset.skipped} entries without a request URL", file=sys.stderr)
    _write_text(args.out, write_dataset(dataset))
    return 0


def cmd_discover(args, file_config) -> int:
    dataset = _read_dataset(args.input, args.format)
    filter_config, miner_config, refiner_config = _pipeline_configs(args, file_config)
    traffic = prepare_traffic(dataset, filter_config, args.disable_nf)
    if args.emit_dropped:
        lines = [f"{rid}\t{reason}" for rid, reason in traffic.dropped]
        _write_text(args.emit_dropped, "\n".join(lines) + ("\n" if lines else ""))
    if args.dump_normalized:
        lines = [f"{nr.method}\t{canonical_path(nr)}" for nr in traffic.normalized]
        _write_text(args.dump_normalized, "\n".join(lines) + ("\n" if lines else ""))
    clusters = discover(
        traffic,
        miner_config=miner_config,
        refiner_config=refiner_config,
        disable_template_mining=args.disable_templates,
    )
    # free the normalized requests before the cluster document is encoded
    del traffic
    if args.dump_templates:
        seen = []
        for c in clusters:
            key = (c.method, c.template.render())
            if key not in seen:
                seen.append(key)
        _write_text(
            args.dump_templates,
            "".join(f"{m}\t{t}\n" for m, t in seen),
        )
    _write_text(args.out, _cluster_document(clusters))
    return 0


def cmd_noise(args, file_config) -> int:
    dataset = _read_dataset(args.input, args.format)
    kind = {"lexify": LEXIFY, "interfere": INTERFERE}[args.kind]
    noisy = inject(dataset, kind, args.ratio, args.seed if args.seed is not None else 0)
    _write_text(args.out, write_dataset(noisy))
    return 0


def cmd_evaluate(args, file_config) -> int:
    dataset = _read_dataset(args.input, args.format)
    if not dataset.ground_truth:
        raise NoLabeledDataError(
            "evaluation requires a labeled dataset: no record carries a label"
        )
    clusters = _load_clusters(args.clusters)
    rep = report(
        clusters,
        dataset.ground_truth,
        config_echo={"input": args.input, "clusters": args.clusters, "lenient": args.lenient},
        lenient=args.lenient,
    )
    _write_text(args.out, rep.to_json() + "\n")
    if args.csv:
        row = rep.to_csv_row(dataset=args.input, seed=args.seed or 0)
        _write_text(args.csv, CSV_HEADER + "\n" + row + "\n")
    return 0


def _parse_float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip() != ""]


def _parse_int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip() != ""]


def cmd_bench(args, file_config) -> int:
    spec = CorpusSpec(
        endpoint_count=args.endpoints,
        requests_per_endpoint=args.requests,
        seed=args.seed if args.seed is not None else 42,
    )
    dataset = synth_corpus(spec)
    kinds = [LEXIFY, INTERFERE] if args.kind == "both" else [
        {"lexify": LEXIFY, "interfere": INTERFERE}[args.kind]
    ]
    ratios = _parse_float_list(args.ratios)
    seeds = _parse_int_list(args.seeds)
    filter_config, miner_config, refiner_config = _pipeline_configs(args, file_config)
    rows = []
    for kind in sorted(kinds):
        for ratio in sorted(ratios):
            for noise_seed in sorted(seeds):
                noisy = inject(dataset, kind, ratio, noise_seed)
                clusters = discover(
                    noisy,
                    filter_config=filter_config,
                    miner_config=miner_config,
                    refiner_config=refiner_config,
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


def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None, help="global seed")
    p.add_argument("--theta", type=float, default=None, help="similarity edge threshold")
    p.add_argument("--lambda", dest="lam", type=float, default=None, help="regularizer weight")
    p.add_argument("--tau", type=float, default=None, help="sanity-gate threshold")
    p.add_argument("--disable-nf", action="store_true", help="skip the traffic filter")
    p.add_argument("--disable-templates", action="store_true", help="one degenerate template group")
    p.add_argument("--force-kmeans", dest="force_kmeans", action="store_const", const=True,
                   default=None, help="bypass graph training in refinement")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apiminer",
        description="Reconstruct API endpoints from captured HTTP traffic.",
    )
    parser.add_argument("--config", default=None, help="JSON config file (flags override it)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse a capture into canonical JSONL")
    _add_io_flags(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("discover", help="run the endpoint-discovery pipeline")
    _add_io_flags(p)
    _add_pipeline_flags(p)
    p.add_argument("--dump-templates", default=None, help="write METHOD\\ttemplate lines here")
    p.add_argument("--dump-normalized", default=None, help="write METHOD\\tpath lines here")
    p.add_argument("--emit-dropped", default=None, help="write id\\treason lines here")
    p.set_defaults(func=cmd_discover)

    p = sub.add_parser("noise", help="produce a noisy variant of a dataset")
    _add_io_flags(p)
    p.add_argument("--kind", choices=("lexify", "interfere"), required=True)
    p.add_argument("--ratio", type=float, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_noise)

    p = sub.add_parser("evaluate", help="score a cluster document against ground truth")
    _add_io_flags(p)
    p.add_argument("--clusters", required=True, help="cluster JSON from discover")
    p.add_argument("--csv", default=None, help="also write a one-row CSV here")
    p.add_argument("--lenient", action="store_true", help="majority-overlap matching")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("bench", help="noise-ratio sweep over a synthetic corpus")
    p.add_argument("--out", default="-")
    p.add_argument("--endpoints", type=int, default=20)
    p.add_argument("--requests", type=int, default=50)
    p.add_argument("--kind", choices=("lexify", "interfere", "both"), default="both")
    p.add_argument("--ratios", default="0.05,0.25,0.5,0.75,0.95")
    p.add_argument("--seeds", default="1")
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        file_config = _load_config_file(args.config)
        return args.func(args, file_config)
    except (IngestError, NoLabeledDataError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
