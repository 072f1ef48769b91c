"""End-to-end benchmark of apiminer on generated captures.

One operation is one capture taken through the user's path, in-process via
``apiminer.cli.main``: ``discover --in cap.jsonl --out clusters.json``, then
``evaluate --in cap.jsonl --clusters clusters.json``.  Captures come from
``synth_corpus`` + ``inject`` and are written as JSONL during set-up, which
runs in a forked child before any operation starts.  A single process runs
the operations closed-loop, one after another.

    python3 perfbench/run.py --workload sweep --seed 42 --seconds 10 --trace 0

``--trace 0`` times the operations untraced and prints every end-to-end
metric; ``--trace 1`` runs each capture once untraced and once traced and
prints every per-layer metric.  The last line of stdout is one JSON object.  Every
operation is checked: its exit code, that ``clusters.json`` partitions the
kept records, that ``--emit-dropped`` is the complement of the clusters,
that FGA is no lower than the reference in ``baseline.json``, and that its
output documents hash the same on every run of the same source.  The exit
code is 1 when any operation fails and 2 when the benchmark cannot start.

The host is shared, so its speed drifts while a run measures.  A probe thread
times a fixed chunk of work on the benchmark's CPU throughout, and every
operation and set-up time is scaled to seconds at a reference probe speed
(``SpeedProbe``).  The header lines give the times as measured.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import statistics
import sys
import threading
import traceback
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# One BLAS thread: refinement's output depends on the BLAS thread count (the
# summation order changes, and training amplifies the last bits into different
# partitions on ``deep``), and idle BLAS threads spin on a busy shared core.
# Set before anything imports numpy.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BASELINE = HERE / "baseline.json"
WORK = HERE / "work"
SETUP_REPS = 3

RATIOS = (0.05, 0.25, 0.5, 0.75, 0.95)

# The probe times a loop of PROBE_LOOP iterations every PROBE_INTERVAL_S.
# PROBE_REF_S is a typical time of that loop on the machine in baseline.json,
# where single samples took 2.0e-4 to 4.8e-4 s: a timing made at that probe
# speed is reported as measured.
PROBE_INTERVAL_S = 0.01
PROBE_LOOP = 3000
PROBE_REF_S = 3.0e-4


class SpeedProbe:
    """Samples how fast the CPU the benchmark runs on is, while it runs.

    On a shared host the same code runs up to twice as fast or slow from one
    stretch of tens of milliseconds to the next, and the drift over minutes
    moves a ten-second run by a quarter; the host's other CPU drifts on its
    own.  So the process is pinned to one CPU, and a thread on that CPU
    times a fixed pure-Python chunk every ``PROBE_INTERVAL_S``.  ``speed``
    turns a stretch's probe times into a factor that scales its measured
    seconds to seconds at the reference probe speed ``PROBE_REF_S``.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._stop: threading.Event | None = None

    @staticmethod
    def _chunk() -> float:
        start = perf_counter()
        total = 0
        for i in range(PROBE_LOOP):
            total += i * i % 7
        return perf_counter() - start

    def _sample(self) -> None:
        while not self._stop.wait(PROBE_INTERVAL_S):
            self.samples.append(self._chunk())

    @contextmanager
    def running(self):
        """Pin this process to one CPU and sample it until the block ends."""
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(cpus)})
        self._stop = threading.Event()
        thread = threading.Thread(target=self._sample, name="speed-probe", daemon=True)
        thread.start()
        try:
            yield self
        finally:
            self._stop.set()
            thread.join()
            self._stop = None
            os.sched_setaffinity(0, cpus)

    def mark(self) -> int:
        return len(self.samples)

    def speed(self, since: int) -> float:
        """Reference probe time over the mean probe time since ``mark()``.

        1.0 when no probe is running: the caller's seconds stay as measured.
        """
        if self._stop is None:
            return 1.0
        recent = self.samples[since:] or [self._chunk()]
        return PROBE_REF_S / statistics.fmean(recent)


PROBE = SpeedProbe()


@dataclass(frozen=True)
class Workload:
    name: str
    endpoints: int
    requests: int
    # (noise kind, ratio, noise seed) per capture
    cells: tuple[tuple[str, float, int], ...]
    # discover also writes --emit-dropped, --dump-normalized and --dump-templates
    dumps: bool = False


def workloads() -> dict[str, Workload]:
    from apiminer.noise import INTERFERE, LEXIFY

    return {
        # the ROADMAP's FGA contract: filter-heavy Interfere cells next to
        # refine-heavy Lexify cells, 30 captures of 1,000 to 1,950 records
        "sweep": Workload(
            "sweep", 20, 50,
            tuple((k, r, s) for k in (LEXIFY, INTERFERE) for r in RATIOS for s in (1, 2, 3)),
        ),
        # 6,000 records in groups of 300 plus a twin group of 600: refine and
        # features do nearly all the work
        "deep": Workload("deep", 20, 300, tuple((LEXIFY, 0.5, s) for s in (1, 2))),
        # ~10.5k records, half of them non-API traffic, groups of 60 or fewer:
        # ingest, filter, normalize, mining and the CLI's dumps dominate
        "wide": Workload(
            "wide", 180, 30, tuple((INTERFERE, 0.95, s) for s in (1, 2, 3)), dumps=True
        ),
    }


@dataclass
class Capture:
    id: str
    path: Path
    records: int
    kept: frozenset[int]


@dataclass
class SetupTimes:
    total: list[float] = field(default_factory=list)
    synth: list[float] = field(default_factory=list)
    inject: list[float] = field(default_factory=list)


@dataclass
class OpResult:
    capture: str
    # seconds as measured, and the probe's speed factor over the operation
    seconds: float
    speed: float = 1.0
    digests: dict[str, str] = field(default_factory=dict)
    fga: float = 0.0
    purity: float = 0.0
    problems: list[str] = field(default_factory=list)


def capture_id(kind: str, ratio: float, noise_seed: int) -> str:
    return f"{kind}-{ratio:g}-s{noise_seed}"


def set_up(workload: Workload, seed: int, work: Path, reps: int = SETUP_REPS):
    """Generate and write the workload's captures ``reps`` times; time each rep.

    Every rep must write byte-identical files.  The kept-id sets the checks
    need are computed on the last rep, one capture at a time, with the clock
    stopped; no capture is held after its file is written.  Each rep's times
    are scaled by the speed probe's factor over that rep.
    """
    with PROBE.running():
        return _set_up(workload, seed, work, reps)


def _set_up(workload: Workload, seed: int, work: Path, reps: int):
    from apiminer.corpus import CorpusSpec, synth_corpus
    from apiminer.denoise import filter_traffic
    from apiminer.noise import inject
    from apiminer.records import write_dataset

    times = SetupTimes()
    first_digests: list[str] | None = None
    for rep in range(reps):
        gc.collect()
        mark = PROBE.mark()
        start = perf_counter()
        base = synth_corpus(
            CorpusSpec(endpoint_count=workload.endpoints,
                       requests_per_endpoint=workload.requests, seed=seed)
        )
        synth_s = perf_counter() - start
        inject_s = write_s = 0.0
        captures, digests = [], []
        for kind, ratio, noise_seed in workload.cells:
            t0 = perf_counter()
            noisy = inject(base, kind, ratio, noise_seed)
            t1 = perf_counter()
            path = work / f"{capture_id(kind, ratio, noise_seed)}.jsonl"
            path.write_text(write_dataset(noisy), encoding="utf-8")
            inject_s += t1 - t0
            write_s += perf_counter() - t1
            digests.append(_sha256(path.read_bytes()))
            if rep == reps - 1:
                captures.append(Capture(id=capture_id(kind, ratio, noise_seed), path=path,
                                        records=len(noisy.records),
                                        kept=frozenset(filter_traffic(noisy).kept)))
            del noisy
        del base
        speed = PROBE.speed(mark)
        times.total.append((synth_s + inject_s + write_s) * speed)
        times.synth.append(synth_s * speed)
        times.inject.append(inject_s * speed)
        if first_digests is not None and digests != first_digests:
            raise RuntimeError("set-up wrote different captures for the same seed")
        first_digests = digests
    return captures, times


def set_up_apart(workload: Workload, seed: int, work: Path):
    """``set_up`` in a forked child that has ended when this returns.

    The child's memory does not count in this process's ``ru_maxrss``, so
    ``peak_rss_mb`` is the high-water mark of the operations alone.
    """
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
        return pool.submit(set_up, workload, seed, work).result()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _out_paths(capture: Capture, work: Path, dumps: bool) -> dict[str, Path]:
    names = ["clusters.json", "evaluate.json"]
    if dumps:
        names += ["dropped.tsv", "normalized.tsv", "templates.tsv"]
    return {name: work / f"{capture.id}.{name}" for name in names}


def run_operation(capture: Capture, work: Path, dumps: bool, reference: float | None,
                  tracer=None) -> OpResult:
    """Run discover then evaluate on one capture, timed; then check the outputs."""
    from apiminer import cli

    out = _out_paths(capture, work, dumps)
    discover = ["discover", "--in", str(capture.path), "--out", str(out["clusters.json"])]
    if dumps:
        discover += [
            "--emit-dropped", str(out["dropped.tsv"]),
            "--dump-normalized", str(out["normalized.tsv"]),
            "--dump-templates", str(out["templates.tsv"]),
        ]
    evaluate = ["evaluate", "--in", str(capture.path),
                "--clusters", str(out["clusters.json"]), "--out", str(out["evaluate.json"])]
    for path in out.values():
        path.unlink(missing_ok=True)

    gc.collect()
    codes: list[int] = []
    error = None
    mark = PROBE.mark()
    start = perf_counter()
    span = tracer.open("capture") if tracer else None
    try:
        codes.append(cli.main(discover))
        if codes[-1] == 0:
            codes.append(cli.main(evaluate))
    except Exception:  # an operation that raises is counted as failed, not fatal
        error = traceback.format_exc(limit=3)
    finally:
        if tracer:
            tracer.close(span)
    result = OpResult(capture.id, perf_counter() - start, PROBE.speed(mark))

    if error is not None:
        result.problems.append(f"raised: {error.strip().splitlines()[-1]}")
        return result
    if any(codes) or len(codes) != 2:
        result.problems.append(f"cli.main returned {codes}")
        return result
    result.digests = {name: _sha256(path.read_bytes()) for name, path in out.items()}
    clusters = json.loads(out["clusters.json"].read_text(encoding="utf-8"))
    result.problems += partition_problems(clusters, capture.kept, capture.records)
    if dumps:
        result.problems += complement_problems(
            out["dropped.tsv"].read_text(encoding="utf-8"), clusters, capture.records
        )
    report = json.loads(out["evaluate.json"].read_text(encoding="utf-8"))
    result.fga, result.purity = float(report["fga"]), float(report["purity"])
    if reference is not None and result.fga < reference:
        result.problems.append(f"FGA {result.fga} is below the reference {reference}")
    return result


def partition_problems(clusters: list[dict], kept: frozenset[int], records: int) -> list[str]:
    """Why a cluster document is not a partition of the kept record ids."""
    problems = []
    seen: set[int] = set()
    for index, entry in enumerate(clusters):
        members = entry["member_ids"]
        if not members:
            problems.append(f"cluster {index} is empty")
        if entry.get("member_count") != len(members):
            problems.append(f"cluster {index} member_count does not match its members")
        repeated = seen.intersection(members)
        if repeated or len(set(members)) != len(members):
            problems.append(f"cluster {index} repeats ids, e.g. {sorted(repeated)[:3]}")
        seen.update(members)
    if not seen <= set(range(records)):
        problems.append("clusters name ids that are not in the capture")
    if seen != kept:
        missing, extra = sorted(kept - seen), sorted(seen - kept)
        problems.append(
            f"clusters do not cover the kept ids: {len(missing)} missing {missing[:3]}, "
            f"{len(extra)} not kept {extra[:3]}"
        )
    return problems


def complement_problems(dropped_tsv: str, clusters: list[dict], records: int) -> list[str]:
    """Why the --emit-dropped ids are not exactly the records no cluster holds."""
    dropped = [int(line.split("\t", 1)[0]) for line in dropped_tsv.splitlines() if line]
    members = {i for entry in clusters for i in entry["member_ids"]}
    expected = set(range(records)) - members
    if len(set(dropped)) != len(dropped) or set(dropped) != expected:
        return [f"{len(dropped)} dropped ids are not the complement of the clusters "
                f"({len(expected)} records are in no cluster)"]
    return []


class Digests:
    """sha256 of each capture's output documents, checked across runs.

    Digests are kept per source tree, workload and seed in a JSON file in the
    work directory, so a run of the same code in a later process is checked
    against earlier ones as well as against its own repeats.
    """

    def __init__(self, path: Path, key: str) -> None:
        self.path = path
        self.key = key
        self.known = json.loads(path.read_text()) if path.is_file() else {}
        self.run = self.known.setdefault(key, {})

    def check(self, result: OpResult) -> None:
        if not result.digests:
            return
        earlier = self.run.setdefault(result.capture, result.digests)
        if earlier != result.digests:
            changed = sorted(k for k in result.digests if earlier.get(k) != result.digests[k])
            result.problems.append(f"output differs from an earlier run of this code: {changed}")

    def save(self) -> None:
        self.path.write_text(json.dumps(self.known, indent=1, sort_keys=True) + "\n")


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "apiminer").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def fga_references(workload: str, seed: int) -> tuple[dict[str, float], bool]:
    """Per-capture FGA references for ``seed``, and whether that seed was recorded.

    ``baseline.json`` keeps, per workload, the FGA most recorded seeds give
    (``fga``) and the captures of any seed that differ (``except``).  A seed
    that was not recorded is checked against the lowest FGA recorded for each
    capture.
    """
    table = json.loads(BASELINE.read_text(encoding="utf-8"))["fga_reference"].get(workload)
    if table is None:
        return {}, False
    refs = dict(table["fga"])
    if seed in table["seeds"]:
        refs.update(table["except"].get(str(seed), {}))
        return refs, True
    for diff in table["except"].values():
        for capture, fga in diff.items():
            refs[capture] = min(refs[capture], fga)
    return refs, False


def run_pass(captures, work, workload, refs, digests, tracer=None) -> list[OpResult]:
    """One operation per capture, in order."""
    results = []
    for capture in captures:
        if tracer is not None:
            tracer.capture = capture.id
        result = run_operation(capture, work, workload.dumps, refs[capture.id], tracer)
        digests.check(result)
        results.append(result)
    return results


def timed_run(captures, work, workload, refs, digests, seconds) -> list[OpResult]:
    """Cycle through the captures until ``seconds`` have passed and each ran once."""
    results = []
    start = perf_counter()
    while len(results) < len(captures) or perf_counter() - start < seconds:
        capture = captures[len(results) % len(captures)]
        results += run_pass([capture], work, workload, refs, digests)
    return results


def end_to_end_metrics(results, captures, setup: SetupTimes) -> dict[str, float]:
    by_capture: dict[str, list[float]] = {}
    for r in results:
        by_capture.setdefault(r.capture, []).append(r.seconds * r.speed)
    # per-capture medians, so a capture repeated more often in the run does
    # not weigh more than the others
    medians = [statistics.median(by_capture[c.id]) for c in captures]
    wall = sum(medians)
    first = {}
    for r in results:
        first.setdefault(r.capture, r)
    fgas = [first[c.id].fga for c in captures]
    failed = sum(bool(r.problems) for r in results)
    return {
        "wall_s": wall,
        "records_per_s": sum(c.records for c in captures) / wall,
        "capture_p50_s": statistics.median(medians),
        # set-up ran in a child process, so this is the operations' peak
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup.total),
        "fga_mean": statistics.fmean(fgas),
        "fga_min": min(fgas),
        "purity_mean": statistics.fmean(first[c.id].purity for c in captures),
        "ok_share": (len(results) - failed) / len(results),
    }


def machine() -> dict:
    import numpy

    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    for lib in libs:
        try:
            fn = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        threads = fn()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": threads,
        "machine": platform.machine(),
    }


def write_trace(path: Path, tracer, metrics: dict[str, float], passes: dict[str, float]) -> None:
    from tracer import self_seconds

    origin = tracer.spans[0].start if tracer.spans else 0.0
    own = self_seconds(tracer.spans)
    doc = {
        "metrics": metrics,
        "passes": passes,
        "spans": [
            {
                "name": s.name,
                "start": round(s.start - origin, 6),
                "end": round(s.end - origin, 6),
                "parent": s.parent,
                "capture": s.capture,
                "self_s": round(own[i], 6),
                "counted": {k: [v[0], round(v[1], 6)] for k, v in s.counted.items()},
                "info": s.info,
            }
            for i, s in enumerate(tracer.spans)
        ],
        "groups": [vars(g) for g in tracer.groups],
    }
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def traced_run(captures, work, workload, refs, digests, setup):
    """An untraced and a traced operation per capture; returns per-layer metrics.

    Which of the two runs first alternates from one capture to the next.  The
    gap between the two passes goes to trace.json only: back-to-back runs of
    one capture differ by up to a fifth on a shared host, far more than the
    tracer costs, so ``trace.overhead_share`` is the time the wrappers
    measure themselves spending outside the functions they wrap.
    """
    from tracer import Tracer, layer_metrics

    tracer = Tracer()

    def once(capture, wrapped):
        if not wrapped:
            return run_pass([capture], work, workload, refs, digests)
        tracer.install()
        try:
            return run_pass([capture], work, workload, refs, digests, tracer)
        finally:
            tracer.uninstall()

    untraced, traced = [], []
    for index, capture in enumerate(captures):
        for wrapped in (False, True) if index % 2 == 0 else (True, False):
            (traced if wrapped else untraced).extend(once(capture, wrapped))
    for plain, wrapped in zip(untraced, traced):
        if plain.digests != wrapped.digests:
            wrapped.problems.append("traced outputs differ from untraced ones")
    metrics = layer_metrics(tracer)
    metrics["setup.synth_s"] = statistics.median(setup.synth)
    metrics["setup.inject_s"] = statistics.median(setup.inject)
    passes = {"untraced_s": sum(r.seconds for r in untraced),
              "traced_s": sum(r.seconds for r in traced)}
    write_trace(work / "trace.json", tracer, metrics, passes)
    return untraced + traced, metrics


def declared_metrics(trace: bool) -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "apiminer" / "cli.py").is_file():
        print(f"error: no apiminer sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    table = workloads()
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(table)}",
              file=sys.stderr)
        return 2
    workload = table[args.workload]
    units = declared_metrics(bool(args.trace))
    refs, recorded = fga_references(workload.name, args.seed)
    missing = [capture_id(*cell) for cell in workload.cells
               if capture_id(*cell) not in refs]
    if missing:
        print(f"error: baseline.json has no FGA reference for {workload.name} "
              f"captures {missing}", file=sys.stderr)
        return 2
    if not recorded:
        print(f"note: seed {args.seed} is not in baseline.json; FGA is checked against "
              "the lowest FGA recorded for each capture", file=sys.stderr)

    work = WORK / workload.name
    work.mkdir(parents=True, exist_ok=True)
    captures, setup = set_up_apart(workload, args.seed, work)
    digests = Digests(WORK / "digests.json",
                      f"{source_digest()}/{workload.name}/{args.seed}")
    with PROBE.running():
        if args.trace:
            results, metrics = traced_run(captures, work, workload, refs, digests, setup)
        else:
            results = timed_run(captures, work, workload, refs, digests, args.seconds)
            metrics = end_to_end_metrics(results, captures, setup)
    digests.save()

    if set(metrics) != set(units):
        print(f"error: computed metrics {sorted(set(metrics) ^ set(units))} "
              "do not match BENCHMARK.json", file=sys.stderr)
        return 2
    failed = sum(bool(r.problems) for r in results)
    for r in results:
        for problem in r.problems:
            print(f"FAILED {r.capture}: {problem}", file=sys.stderr)
    print(f"# {workload.name} seed={args.seed} captures={len(captures)} "
          f"operations={len(results)} failed={failed} machine={json.dumps(machine())}")
    print(f"# measured operation seconds {sum(r.seconds for r in results):.3f}, "
          f"median probe speed {statistics.median(r.speed for r in results):.3f}")
    for name, unit in units.items():
        note = f"  (median of {len(captures)} per-capture medians, {len(results)} samples)" \
            if name == "capture_p50_s" else ""
        print(f"{name:32s} {metrics[name]:14.6f} {unit}{note}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
