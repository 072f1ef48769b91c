"""Record per-capture FGA references for the benchmark's correctness check.

    python3 perfbench/make_baseline.py --workloads sweep,deep,wide --seeds 0-30,42

Runs each capture of each workload once per seed and merges the FGA that
``evaluate`` reports into ``fga_reference`` of the output file (by default
``perfbench/baseline.json``), next to a note of the machine.  Per workload
the file keeps the recorded seeds, the FGA most of them give for each
capture (``fga``), and, per seed, only the captures that differ from it
(``except``).  ``run.py`` then fails any operation whose FGA falls below the
reference.  Run it again only when a change is meant to move FGA, and say
which cells moved.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

import run


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def expand(entry: dict) -> dict[int, dict[str, float]]:
    """Per-seed FGA tables from a workload's ``fga_reference`` entry."""
    return {seed: {**entry["fga"], **entry["except"].get(str(seed), {})}
            for seed in entry["seeds"]}


def compact(tables: dict[int, dict[str, float]]) -> dict:
    """The inverse of ``expand``: the most common FGA per capture plus exceptions."""
    captures = next(iter(tables.values()))
    common = {c: Counter(t[c] for t in tables.values()).most_common(1)[0][0] for c in captures}
    diffs = {str(seed): {c: f for c, f in t.items() if f != common[c]}
             for seed, t in sorted(tables.items())}
    return {"seeds": sorted(tables), "fga": common,
            "except": {seed: d for seed, d in diffs.items() if d}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="sweep,deep,wide")
    parser.add_argument("--seeds", default="42")
    parser.add_argument("--out", type=Path, default=run.BASELINE)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    table = run.workloads()

    doc = json.loads(args.out.read_text()) if args.out.is_file() else {"fga_reference": {}}
    doc["machine"] = run.machine()
    problems = []
    for name in args.workloads.split(","):
        workload = table[name]
        work = run.WORK / f"baseline-{name}"
        work.mkdir(parents=True, exist_ok=True)
        entry = doc["fga_reference"].get(name)
        tables = expand(entry) if entry else {}
        for seed in parse_seeds(args.seeds):
            captures, _ = run.set_up(workload, seed, work, reps=1)
            fgas = {}
            for capture in captures:
                result = run.run_operation(capture, work, workload.dumps, reference=None)
                problems += [f"{name} seed {seed} {capture.id}: {p}" for p in result.problems]
                fgas[capture.id] = result.fga
            moved = {c: f for c, f in fgas.items() if tables.get(seed, fgas)[c] != f}
            if moved:
                print(f"{name} seed {seed}: FGA moved in {moved}", flush=True)
            tables[seed] = fgas
            print(f"{name} seed {seed}: mean FGA {sum(fgas.values()) / len(fgas):.4f}", flush=True)
        doc["fga_reference"][name] = compact(tables)
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
