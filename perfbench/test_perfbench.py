"""Self-test of the benchmark on a reduced-size workload.

    python3 -m pytest -q perfbench

Checks that every metric in BENCHMARK.json prints, that the correctness
checks fail on a deliberately broken partition, and that the traced and
untraced runs produce the same documents.
"""

from __future__ import annotations

import json
import os
import sys
import time

import pytest

import run

sys.path.insert(0, str(run.SRC))

from apiminer import cli  # noqa: E402
from apiminer.noise import INTERFERE, LEXIFY  # noqa: E402

TINY = run.Workload(
    "tiny", 6, 12, ((LEXIFY, 0.5, 1), (INTERFERE, 0.5, 1)), dumps=True
)


@pytest.fixture
def tiny(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "workloads", lambda: {"tiny": TINY})
    # the FGA check itself is covered by test_fga_below_reference_fails
    refs = {run.capture_id(*cell): 0.0 for cell in TINY.cells}
    monkeypatch.setattr(run, "fga_references", lambda workload, seed: (refs, True))
    return tmp_path


def _declared(section: str) -> list[str]:
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in doc[section]]


def _run(capsys, trace: int) -> tuple[int, str, dict]:
    code = run.main(["--workload", "tiny", "--seconds", "0", "--trace", str(trace)])
    out = capsys.readouterr().out
    return code, out, json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints(tiny, capsys, trace, section):
    code, out, result = _run(capsys, trace)
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0
    names = _declared(section)
    assert list(result["metrics"]) == names
    printed = {line.split()[0] for line in out.splitlines()[:-1] if not line.startswith("#")}
    assert printed == set(names)


def test_traced_and_untraced_runs_agree(tiny, capsys):
    code, _, _ = _run(capsys, 0)
    assert code == 0
    # the traced run compares its documents with its own untraced pass and,
    # through the digest file, with the untraced run above
    code, _, result = _run(capsys, 1)
    assert code == 0 and result["failed"] == 0
    trace = json.loads((tiny / "tiny" / "trace.json").read_text())
    assert {s["name"] for s in trace["spans"]} >= {
        "capture", "cli.discover", "records.parse", "denoise.filter",
        "templates.mine", "refine.group", "metrics.report",
    }
    assert all(g["path"] for g in trace["groups"])
    assert set(trace["passes"]) == {"untraced_s", "traced_s"}
    assert 0 < result["metrics"]["trace.overhead_share"]["value"] < 1


def _captures(tmp_path):
    captures, _ = run.set_up(TINY, 42, tmp_path, reps=1)
    return captures


def test_broken_partition_fails(tmp_path, monkeypatch):
    capture = _captures(tmp_path)[0]
    assert run.run_operation(capture, tmp_path, True, None).problems == []

    real = cli.discover

    def drop_one_member(*args, **kwargs):
        clusters = real(*args, **kwargs)
        clusters[0].member_ids = clusters[0].member_ids[1:]
        return clusters

    monkeypatch.setattr(cli, "discover", drop_one_member)
    problems = run.run_operation(capture, tmp_path, True, None).problems
    assert any("do not cover the kept ids" in p for p in problems)
    assert any("not the complement" in p for p in problems)


def test_partition_check_catches_repeats_and_strays():
    kept = frozenset({0, 1, 2})
    ok = [{"member_ids": [0, 2], "member_count": 2}, {"member_ids": [1], "member_count": 1}]
    assert run.partition_problems(ok, kept, 3) == []
    repeated = [{"member_ids": [0, 1], "member_count": 2}, {"member_ids": [1, 2], "member_count": 2}]
    assert run.partition_problems(repeated, kept, 3)
    stray = ok + [{"member_ids": [7], "member_count": 1}]
    assert run.partition_problems(stray, kept, 3)


def test_fga_below_reference_fails(tmp_path):
    capture = _captures(tmp_path)[0]
    fga = run.run_operation(capture, tmp_path, True, None).fga
    assert run.run_operation(capture, tmp_path, True, fga).problems == []
    problems = run.run_operation(capture, tmp_path, True, fga + 0.01).problems
    assert any("below the reference" in p for p in problems)


def test_changed_output_fails_the_digest_check(tmp_path):
    digests = run.Digests(tmp_path / "digests.json", "key")
    first = run.OpResult("c", 0.1, digests={"clusters.json": "a"})
    digests.check(first)
    digests.save()
    again = run.Digests(tmp_path / "digests.json", "key")
    changed = run.OpResult("c", 0.1, digests={"clusters.json": "b"})
    again.check(changed)
    assert changed.problems


def test_set_up_in_a_child_matches_set_up_in_process(tmp_path):
    (tmp_path / "apart").mkdir()
    apart, times = run.set_up_apart(TINY, 42, tmp_path / "apart")
    here = _captures(tmp_path)
    assert [(c.id, c.records, c.kept) for c in apart] == [(c.id, c.records, c.kept) for c in here]
    assert len(times.total) == run.SETUP_REPS


def test_workload_without_fga_reference_exits_without_result(tiny, monkeypatch, capsys):
    monkeypatch.setattr(run, "fga_references", lambda workload, seed: ({}, False))
    assert run.main(["--workload", "tiny"]) == 2
    assert capsys.readouterr().out == ""


def test_unrecorded_seed_is_checked_against_the_lowest_recorded_fga():
    seeds = json.loads(run.BASELINE.read_text())["fga_reference"]["sweep"]["seeds"]
    tables = [run.fga_references("sweep", seed) for seed in seeds]
    assert all(exact for _, exact in tables)
    floor, exact = run.fga_references("sweep", 10**6)
    assert not exact
    assert floor == {c: min(t[c] for t, _ in tables) for c in floor}
    # seeds differ on some captures, so the floor is below seed 42's table there
    assert floor != run.fga_references("sweep", 42)[0]


def test_speed_probe_scales_only_while_it_runs():
    probe = run.SpeedProbe()
    assert probe.speed(probe.mark()) == 1.0
    cpus = os.sched_getaffinity(0)
    with probe.running():
        assert len(os.sched_getaffinity(0)) == 1
        mark = probe.mark()
        time.sleep(0.05)
        assert probe.mark() > mark
        assert probe.speed(mark) > 0
        # a stretch with no sample of its own is sampled on the spot
        assert probe.speed(probe.mark() + 10**6) > 0
    assert os.sched_getaffinity(0) == cpus
    assert probe.speed(0) == 1.0


def test_missing_sources_exit_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "sweep"]) == 2
    assert capsys.readouterr().out == ""
