"""Run the benchmark once per seed and report each metric's run-to-run spread.

    python3 perfbench/spread.py --workload sweep --seeds 1-10 [--trace 0] [--out runs.jsonl]
                                [--record set_A]

Each run is a fresh ``run.py`` process with the ``run_seconds`` of
BENCHMARK.json.  For every metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound.  ``--out`` appends each run's result line to a file.
``--record NAME`` stores the summary as ``end_to_end_baseline.<workload>.<NAME>``
of ``baseline.json``; once ``set_A`` and ``set_B`` are both there,
``median_B_over_A`` gives set B's median over set A's per metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run
from make_baseline import parse_seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    parser.add_argument("--record", default=None, metavar="NAME")
    args = parser.parse_args(argv)
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    values: dict[str, list[float]] = {}
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=900)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        if proc.returncode != 0 or not last.startswith("{"):
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(last)
        if args.out:
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)

    print(f"{'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    summary: dict = {"seeds": parse_seeds(args.seeds)}
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        print(f"{name:32s} {median:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.4f} "
              f"{bound if bound is not None else '':>6}")
        summary[name] = {"median": round(median, 6), "q1": round(q1, 6),
                         "q3": round(q3, 6), "spread": round(spread, 4)}
    if args.record:
        record(args.workload, args.record, summary)
    return 0


def record(workload: str, name: str, summary: dict) -> None:
    doc = json.loads(run.BASELINE.read_text(encoding="utf-8"))
    sets = doc.setdefault("end_to_end_baseline", {}).setdefault(workload, {})
    sets[name] = summary
    if "set_A" in sets and "set_B" in sets:
        a, b = sets["set_A"], sets["set_B"]
        sets["median_B_over_A"] = {
            m: round(b[m]["median"] / a[m]["median"], 4) if a[m]["median"] else 1.0
            for m in a if m != "seeds" and m in b
        }
    run.BASELINE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
