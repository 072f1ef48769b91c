"""Command-line surface: subcommand round-trips, exit codes, determinism."""

import argparse
import io
import json
import re

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from apiminer import cli, denoise, records, refine
from apiminer import normalize as normalize_module
from apiminer.cli import _load_clusters, _load_config_file, _pipeline_settings, main
from apiminer.corpus import CorpusSpec, synth_corpus
from apiminer.denoise import filter_traffic
from apiminer.noise import INTERFERE, LEXIFY, inject
from apiminer.normalize import canonical_path, normalize
from apiminer.records import (
    _CANONICAL_LINE, Dataset, HttpRecord, IngestError, parse_har, parse_jsonl, read_labels,
    write_dataset,
)
from test_records import LINE_RECORDS, jsonl_lines, read_outcome

# the readers compile the line's pattern only as part of a longer one
CANONICAL_LINE = re.compile(_CANONICAL_LINE)


@pytest.fixture
def corpus_file(tmp_path):
    ds = synth_corpus(CorpusSpec(endpoint_count=5, requests_per_endpoint=20))
    path = tmp_path / "corpus.jsonl"
    path.write_text(write_dataset(ds), encoding="utf-8")
    return path


@pytest.fixture
def noisy_file(tmp_path):
    """A capture with non-API traffic that the filter drops."""
    ds = synth_corpus(CorpusSpec(endpoint_count=5, requests_per_endpoint=20))
    path = tmp_path / "noisy.jsonl"
    path.write_text(write_dataset(inject(ds, INTERFERE, 0.5, 1)), encoding="utf-8")
    return path


HAR_DOC = {
    "log": {
        "entries": [
            {
                "request": {
                    "method": "get",
                    "url": "https://x.test/api/v1/items?p=1",
                    "headers": [{"name": "Content-Type", "value": "application/json"}],
                },
                "response": {},
            }
        ]
    }
}


class TestIngest:
    def test_har_to_jsonl(self, tmp_path):
        src = tmp_path / "t.har"
        src.write_text(json.dumps(HAR_DOC), encoding="utf-8")
        out = tmp_path / "t.jsonl"
        rc = main(["ingest", "--in", str(src), "--format", "har", "--out", str(out)])
        assert rc == 0
        ds = parse_jsonl(out.read_text(encoding="utf-8"))
        assert len(ds.records) == 1
        assert ds.records[0].method == "GET"

    def test_missing_file_exits_two(self, tmp_path):
        rc = main(["ingest", "--in", str(tmp_path / "nope.jsonl")])
        assert rc == 2

    def test_malformed_input_exits_two(self, tmp_path):
        src = tmp_path / "bad.har"
        src.write_text("{not json", encoding="utf-8")
        assert main(["ingest", "--in", str(src), "--format", "har"]) == 2


class TestDiscoverAndEvaluate:
    def test_full_round_trip(self, tmp_path, corpus_file):
        clusters = tmp_path / "clusters.json"
        rc = main(["discover", "--in", str(corpus_file), "--out", str(clusters)])
        assert rc == 0
        doc = json.loads(clusters.read_text(encoding="utf-8"))
        assert len(doc) == 5
        for entry in doc:
            assert set(entry) >= {
                "method", "template", "member_count", "provenance",
                "representative_paths", "member_ids",
            }

        report_path = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        rc = main([
            "evaluate", "--in", str(corpus_file), "--clusters", str(clusters),
            "--out", str(report_path), "--csv", str(csv_path),
        ])
        assert rc == 0
        rep = json.loads(report_path.read_text(encoding="utf-8"))
        assert (rep["tp"], rep["fp"], rep["fn"]) == (5, 0, 0)
        assert rep["fga"] == 100.0
        lines = csv_path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0].startswith("dataset,noise_type")
        assert len(lines) == 2

    def test_dump_and_emit_outputs(self, tmp_path, corpus_file):
        templates = tmp_path / "templates.tsv"
        normalized = tmp_path / "norm.tsv"
        dropped = tmp_path / "dropped.tsv"
        rc = main([
            "discover", "--in", str(corpus_file), "--out", str(tmp_path / "c.json"),
            "--dump-templates", str(templates),
            "--dump-normalized", str(normalized),
            "--emit-dropped", str(dropped),
        ])
        assert rc == 0
        tmpl_lines = templates.read_text(encoding="utf-8").strip().splitlines()
        assert tmpl_lines and all("\t/" in line for line in tmpl_lines)
        norm_lines = normalized.read_text(encoding="utf-8").strip().splitlines()
        assert len(norm_lines) == 100
        assert dropped.read_text(encoding="utf-8") == ""

    def test_filter_and_normalize_run_once(self, tmp_path, noisy_file, monkeypatch):
        ds = parse_jsonl(noisy_file.read_text(encoding="utf-8"))
        calls = {"filter": 0, "split": 0, "normalize": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(refine, "filter_traffic", counted("filter", refine.filter_traffic))
        monkeypatch.setattr(refine, "normalize", counted("normalize", refine.normalize))
        split_url = counted("split", normalize_module.split_url)
        # every module that splits a URL
        monkeypatch.setattr(denoise, "split_url", split_url)
        monkeypatch.setattr(normalize_module, "split_url", split_url)
        dropped, normalized = tmp_path / "dropped.tsv", tmp_path / "norm.tsv"
        assert main([
            "discover", "--in", str(noisy_file), "--out", str(tmp_path / "c.json"),
            "--emit-dropped", str(dropped), "--dump-normalized", str(normalized),
        ]) == 0
        monkeypatch.undo()
        outcome = filter_traffic(ds)
        assert outcome.dropped
        # one split per record, but for one whose (method, url, content_type)
        # an earlier record was dropped for; one normalize per kept record
        reasons = dict(outcome.dropped)
        dropped_triples, splits = set(), 0
        for record in ds.records:
            triple = (record.method, record.url, record.content_type)
            if triple not in dropped_triples:
                splits += 1
                if record.id in reasons:
                    dropped_triples.add(triple)
        assert splits < len(ds.records)
        assert calls == {"filter": 1, "split": splits, "normalize": len(outcome.kept)}
        traffic = refine.prepare_traffic(ds)
        assert [nr.record.id for nr in traffic.normalized] == outcome.kept
        assert traffic.dropped == outcome.dropped
        assert dropped.read_text(encoding="utf-8") == "".join(
            f"{rid}\t{reason}\n" for rid, reason in outcome.dropped
        )
        records = {r.id: r for r in ds.records}
        kept = [normalize(records[rid]) for rid in outcome.kept]
        assert traffic.normalized == kept
        assert normalized.read_text(encoding="utf-8").splitlines() == [
            f"{nr.record.method}\t{canonical_path(nr)}" for nr in kept
        ]

    def test_nothing_dropped_without_filter(self, tmp_path, noisy_file):
        dropped = tmp_path / "dropped.tsv"
        assert main([
            "discover", "--in", str(noisy_file), "--out", str(tmp_path / "c.json"),
            "--disable-nf", "--emit-dropped", str(dropped),
        ]) == 0
        assert dropped.read_text(encoding="utf-8") == ""

    def test_force_kmeans_keeps_templates(self, tmp_path, corpus_file):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["discover", "--in", str(corpus_file), "--out", str(a)]) == 0
        assert main([
            "discover", "--in", str(corpus_file), "--out", str(b), "--force-kmeans",
        ]) == 0
        ta = sorted(e["template"] for e in json.loads(a.read_text(encoding="utf-8")))
        tb = sorted(e["template"] for e in json.loads(b.read_text(encoding="utf-8")))
        assert ta == tb

    def test_evaluate_reads_labels_without_parsing_records(self, tmp_path, noisy_file, monkeypatch):
        clusters, before, after = (tmp_path / name for name in ("c.json", "a.json", "b.json"))
        assert main(["discover", "--in", str(noisy_file), "--out", str(clusters)]) == 0
        evaluate = ["evaluate", "--in", str(noisy_file), "--clusters", str(clusters), "--out"]
        assert main([*evaluate, str(before)]) == 0

        def unreachable(*args):
            raise AssertionError("evaluate built the capture's records")

        monkeypatch.setattr(cli, "parse_jsonl", unreachable)
        assert main([*evaluate, str(after)]) == 0
        assert after.read_bytes() == before.read_bytes()

    @pytest.mark.parametrize("har", [json.dumps(HAR_DOC), "{not json", None])
    def test_evaluate_rejects_har_before_reading_it(self, tmp_path, capsys, har):
        # a HAR request has no label field; a valid, a malformed and a missing
        # HAR file all get the same message
        src = tmp_path / "t.har"
        if har is not None:
            src.write_text(har, encoding="utf-8")
        clusters = tmp_path / "c.json"
        clusters.write_text("[]", encoding="utf-8")
        rc = main(["evaluate", "--format", "har", "--in", str(src), "--clusters", str(clusters)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: evaluate reads labels from a JSONL capture; --format har carries none\n"
        )

    def test_evaluate_unlabeled_exits_two(self, tmp_path):
        src = tmp_path / "u.jsonl"
        src.write_text(
            json.dumps({"id": 0, "method": "GET", "url": "/api/x"}) + "\n",
            encoding="utf-8",
        )
        clusters = tmp_path / "c.json"
        clusters.write_text("[]", encoding="utf-8")
        rc = main(["evaluate", "--in", str(src), "--clusters", str(clusters)])
        assert rc == 2


class TestMain:
    def test_successive_calls_share_no_state(self, tmp_path, corpus_file, monkeypatch):
        # main keeps one parser; each call still sees only its own flags
        seen = []

        def record(args):
            seen.append(vars(args))
            return 0

        for command in ("discover", "evaluate", "noise"):
            monkeypatch.setattr(cli, f"cmd_{command}", record)
        config = tmp_path / "config.json"
        config.write_text('{"seed": 5, "force_kmeans": true}', encoding="utf-8")
        capture = str(corpus_file)
        assert main(["--config", str(config), "discover", "--in", capture, "--tau", "0.5",
                     "--disable-nf", "--dump-templates", "t.tsv"]) == 0
        assert main(["discover", "--in", capture]) == 0
        assert main(["evaluate", "--in", capture, "--clusters", "c.json", "--lenient",
                     "--seed", "3"]) == 0
        assert main(["noise", "--in", capture, "--kind", "lexify", "--ratio", "0.5"]) == 0
        first, second, evaluate, noise = seen
        # discover has no seed: the config file's seeds bench's corpus alone
        assert "seed" not in first
        assert (first["force_kmeans"], first["tau"]) == (True, 0.5)
        assert (first["disable_nf"], first["dump_templates"]) == (True, "t.tsv")
        assert second == {
            "config": None, "command": "discover", "input": capture, "format": "jsonl",
            "out": "-", "theta": None, "tau": None, "disable_nf": False,
            "disable_templates": False, "force_kmeans": None, "dump_templates": None,
            "dump_normalized": None, "emit_dropped": None,
        }
        assert (evaluate["lenient"], evaluate["seed"], evaluate["csv"]) == (True, 3, None)
        assert noise["seed"] is None and "lenient" not in noise
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()


class TestNoise:
    def test_interfere_grows_dataset(self, tmp_path, corpus_file):
        out = tmp_path / "noisy.jsonl"
        rc = main([
            "noise", "--in", str(corpus_file), "--kind", "interfere",
            "--ratio", "0.5", "--seed", "3", "--out", str(out),
        ])
        assert rc == 0
        ds = parse_jsonl(out.read_text(encoding="utf-8"))
        assert len(ds.records) == 150
        assert len(ds.ground_truth) == 100

    def test_noise_is_deterministic(self, tmp_path, corpus_file):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        for out in (a, b):
            main([
                "noise", "--in", str(corpus_file), "--kind", "lexify",
                "--ratio", "0.25", "--seed", "9", "--out", str(out),
            ])
        assert a.read_bytes() == b.read_bytes()


class TestBench:
    def test_csv_shape_and_byte_identity(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        argv = [
            "bench", "--endpoints", "5", "--requests", "10",
            "--kind", "lexify", "--ratios", "0.5,0.05", "--seeds", "2,1",
        ]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == (
            "dataset,noise_type,noise_ratio,seed,tp,fp,fn,pga,rga,fga,purity"
        )
        assert len(lines) == 5
        # rows come out sorted by (kind, ratio, seed)
        keys = [tuple(line.split(",")[1:4]) for line in lines[1:]]
        assert keys == sorted(keys)

    def test_ablation_flags_reach_discover(self, tmp_path):
        argv = ["bench", "--endpoints", "5", "--requests", "10", "--kind", "interfere",
                "--ratios", "0.5"]

        def fga(*flags):
            out = tmp_path / "bench.csv"
            assert main([*argv, *flags, "--out", str(out)]) == 0
            return float(out.read_text(encoding="utf-8").splitlines()[1].split(",")[9])

        assert fga() == 100.0
        assert fga("--disable-nf") < 100.0
        assert fga("--disable-templates") < 100.0


class TestConfigPrecedence:
    def test_flag_overrides_config_file(self, tmp_path, corpus_file):
        config = tmp_path / "config.json"
        # absurd tau from the file would drop everything
        config.write_text(json.dumps({"tau": 0.999999}), encoding="utf-8")
        out_cfg = tmp_path / "cfg.json"
        out_flag = tmp_path / "flag.json"
        rc = main([
            "--config", str(config), "discover",
            "--in", str(corpus_file), "--out", str(out_cfg),
        ])
        assert rc == 0
        assert json.loads(out_cfg.read_text(encoding="utf-8")) == []
        rc = main([
            "--config", str(config), "discover",
            "--in", str(corpus_file), "--out", str(out_flag), "--tau", "0.01",
        ])
        assert rc == 0
        assert len(json.loads(out_flag.read_text(encoding="utf-8"))) == 5

    def test_config_seed_seeds_bench_corpus(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 5}), encoding="utf-8")
        argv = ["bench", "--endpoints", "3", "--requests", "4", "--kind", "lexify",
                "--ratios", "0.5"]
        from_file, from_flag = tmp_path / "file.csv", tmp_path / "flag.csv"
        assert main(["--config", str(config), *argv, "--out", str(from_file)]) == 0
        assert main([*argv, "--seed", "5", "--out", str(from_flag)]) == 0
        rows = from_file.read_text(encoding="utf-8").splitlines()[1:]
        assert rows and all(row.startswith("synth-seed5,") for row in rows)
        assert from_file.read_bytes() == from_flag.read_bytes()

    def test_config_seed_leaves_discover_as_it_is(self, tmp_path, corpus_file):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 5, "force_kmeans": True}), encoding="utf-8")
        from_file, from_flag = tmp_path / "file.json", tmp_path / "flag.json"
        capture = str(corpus_file)
        assert main(["--config", str(config), "discover", "--in", capture,
                     "--out", str(from_file)]) == 0
        assert main(["discover", "--in", capture, "--force-kmeans", "--out", str(from_flag)]) == 0
        assert '"provenance": "KMeansFallback"' in from_flag.read_text(encoding="utf-8")
        assert from_file.read_bytes() == from_flag.read_bytes()


class TestMalformedInput:
    """Malformed configs, cluster documents, captures and flags: one line, exit 2."""

    def assert_rejected(self, argv, message, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err, err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("doc, message", [
        ({"tau": "0.5"}, "tau must be a number in (0, 1), got '0.5'"),
        ({"tau": 2}, "tau must be a number in (0, 1)"),
        ({"theta": True}, "theta must be a number in (0, 1)"),
        ({"seed": 1.5}, "config file: seed must be a non-negative integer, got 1.5"),
        ({"seed": -3}, "config file: seed must be a non-negative integer, got -3"),
        ({"force_kmeans": "yes"}, "force_kmeans must be true or false"),
        ({"lam": 0.1}, "unknown key 'lam'"),
        ([1], "config file must hold a single JSON object"),
    ])
    def test_config_file(self, tmp_path, corpus_file, capsys, doc, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["--config", str(config), "discover", "--in", str(corpus_file)]
        self.assert_rejected(argv, message, capsys)

    @pytest.mark.parametrize("field", ["template", "method", "member_ids"])
    def test_cluster_entry_missing_field(self, tmp_path, corpus_file, capsys, field):
        entry = {"template": "/api/x", "method": "GET", "member_ids": [0]}
        broken = {k: v for k, v in entry.items() if k != field}
        clusters = tmp_path / "clusters.json"
        clusters.write_text(json.dumps([entry, broken]), encoding="utf-8")
        argv = ["evaluate", "--in", str(corpus_file), "--clusters", str(clusters)]
        self.assert_rejected(argv, f"cluster entry 1: missing {field}", capsys)

    def test_cluster_member_ids_type(self, tmp_path, corpus_file, capsys):
        clusters = tmp_path / "clusters.json"
        clusters.write_text(
            json.dumps([{"template": "/a", "method": "GET", "member_ids": ["0"]}]),
            encoding="utf-8",
        )
        argv = ["evaluate", "--in", str(corpus_file), "--clusters", str(clusters)]
        self.assert_rejected(argv, "cluster entry 0: member_ids must be a list of integers", capsys)

    @pytest.mark.parametrize("stray", [-1, 100, 10**30])
    def test_cluster_member_id_outside_capture(self, tmp_path, corpus_file, capsys, stray):
        # corpus_file holds requests 0-99; a document from another capture
        # names ids it does not hold
        entries = [
            {"template": "/a", "method": "GET", "member_ids": [0, 1]},
            {"template": "/b", "method": "GET", "member_ids": [2, stray, 3]},
        ]
        clusters = tmp_path / "clusters.json"
        clusters.write_text(json.dumps(entries), encoding="utf-8")
        argv = ["evaluate", "--in", str(corpus_file), "--clusters", str(clusters)]
        message = f"cluster entry 1: member id {stray} is not one of the capture's 100 requests"
        self.assert_rejected(argv, message, capsys)

    def test_jsonl_field(self, tmp_path, capsys):
        src = tmp_path / "bad.jsonl"
        src.write_text('{"method": "GET", "url": "/x", "body_size": "abc"}\n', encoding="utf-8")
        self.assert_rejected(
            ["discover", "--in", str(src)], "line 1: body_size must be an integer", capsys
        )

    @pytest.mark.parametrize("line, message", [
        ('{"method": "GET", "url": null}', "line 1: url must be a string, got None"),
        ('{"method": ["x"], "url": "/x"}', "line 1: method must be a string, got ['x']"),
    ])
    def test_jsonl_method_and_url_must_be_strings(self, tmp_path, capsys, line, message):
        # neither is read as its text form ('GET /none', method "['X']")
        src = tmp_path / "bad.jsonl"
        src.write_text(line + "\n", encoding="utf-8")
        self.assert_rejected(["discover", "--in", str(src)], message, capsys)

    @pytest.mark.parametrize("url", ["http://[::1/api/x", "http://a]b/x"])
    def test_jsonl_malformed_url(self, tmp_path, capsys, url):
        src = tmp_path / "bad.jsonl"
        lines = [{"method": "GET", "url": "/api/x", "content_type": "application/json"},
                 {"method": "GET", "url": url, "content_type": "application/json"}]
        src.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
        self.assert_rejected(
            ["discover", "--in", str(src)], f"record 1: malformed url {url!r}", capsys
        )

    @pytest.mark.parametrize("url", ["http://[::1/x", "http://h＃x/a"])
    @pytest.mark.parametrize("fmt", ["jsonl", "har"])
    def test_lexify_malformed_url(self, tmp_path, capsys, fmt, url):
        src = tmp_path / f"bad.{fmt}"
        if fmt == "jsonl":
            text = write_dataset(Dataset([HttpRecord(0, "GET", url)]))
        else:
            text = json.dumps({"log": {"entries": [
                {"request": {"method": "GET", "url": url, "headers": []}}
            ]}})
        src.write_text(text, encoding="utf-8")
        # noise words the error as discover does
        for command in (["noise", "--kind", "lexify", "--ratio", "1"], ["discover"]):
            self.assert_rejected(
                [*command, "--format", fmt, "--in", str(src)],
                f"record 0: malformed url {url!r}", capsys,
            )

    @pytest.mark.parametrize("field, value", [
        ("headers", ["oops"]),
        ("bodySize", "x"),
        # past 64 bits: no float holds it, and each count becomes a float feature
        pytest.param("bodySize", 10**400, id="bodySize-10**400"),
    ])
    def test_har_field(self, tmp_path, capsys, field, value):
        request = {"method": "GET", "url": "http://h/api/x", "headers": [], field: value}
        src = tmp_path / "bad.har"
        src.write_text(json.dumps({"log": {"entries": [{"request": request}]}}), encoding="utf-8")
        for command in ("ingest", "discover"):
            self.assert_rejected(
                [command, "--format", "har", "--in", str(src)],
                f"entry at index 0: {field} must be", capsys,
            )

    @pytest.mark.parametrize("field", ["body_size", "body_field_count", "body_nesting_depth"])
    def test_jsonl_count_past_64_bits(self, tmp_path, capsys, field):
        # no float holds 10**400, and each count becomes a float feature
        lines = [{"method": "POST", "url": f"/api/v1/items/{i}", "content_type": "application/json",
                  "body_size": 10, "body_field_count": 1, "body_nesting_depth": 1}
                 for i in range(4)]
        lines[0][field] = 10**400
        src = tmp_path / "big.jsonl"
        src.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
        self.assert_rejected(
            ["discover", "--in", str(src)], f"line 1: {field} must be a 64-bit integer", capsys
        )

    @pytest.mark.parametrize("surface", ["jsonl", "har", "config", "clusters"])
    def test_integer_literal_past_digit_limit(self, tmp_path, corpus_file, capsys, surface):
        # json.loads raises a plain ValueError for an integer of more than
        # 4300 digits, not a JSONDecodeError
        digits = "9" * 5000
        doc = tmp_path / "doc"
        argv, message = {
            "jsonl": (["discover", "--in", str(doc)], "line 1: "),
            "har": (["ingest", "--format", "har", "--in", str(doc)], "malformed HAR document: "),
            "config": (["--config", str(doc), "discover", "--in", str(corpus_file)],
                       f"malformed JSON in {doc}: "),
            "clusters": (["evaluate", "--in", str(corpus_file), "--clusters", str(doc)],
                         f"malformed JSON in {doc}: "),
        }[surface]
        doc.write_text({
            "jsonl": '{"method": "GET", "url": "/x", "body_size": %s}\n' % digits,
            "har": '{"log": {"entries": [{"request": {"url": "/x", "bodySize": %s}}]}}' % digits,
            "config": '{"seed": %s}' % digits,
            "clusters": '[{"template": "/x", "method": "GET", "member_ids": [%s]}]' % digits,
        }[surface], encoding="utf-8")
        self.assert_rejected(argv, message + "Exceeds the limit (4300 digits)", capsys)

    @pytest.mark.parametrize("surface", ["jsonl", "har", "config", "clusters"])
    def test_a_byte_past_utf8_is_named(self, tmp_path, corpus_file, capsys, surface):
        doc = tmp_path / "doc"
        argv, name, text = {
            "jsonl": (["discover", "--in", str(doc)], doc, '{"method": "GET", "url": "/'),
            "har": (["ingest", "--format", "har", "--in", str(doc)], "HAR",
                    '{"log": {"entries": [{"request": {"url": "/'),
            "config": (["--config", str(doc), "discover", "--in", str(corpus_file)], doc,
                       '{"seed": "'),
            "clusters": (["evaluate", "--in", str(corpus_file), "--clusters", str(doc)], doc,
                         '[{"template": "/'),
        }[surface]
        doc.write_bytes(text.encode() + b'\xff"}]}}]}\n')
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {name} is not valid UTF-8 at byte {len(text)}\n"

    @pytest.mark.parametrize("dump", ["--dump-normalized", "--dump-templates"])
    def test_lone_surrogate_in_capture(self, tmp_path, corpus_file, capsys, dump):
        # a kept request whose path no UTF-8 dump can write
        src = tmp_path / "surrogate.jsonl"
        line = ('{"id":100,"method":"GET","url":"/api/v1/\\ud800x","headers":[],'
                '"content_type":"application/json","body_size":0}')
        src.write_text(corpus_file.read_text(encoding="utf-8") + line + "\n", encoding="utf-8")
        argv = ["discover", "--in", str(src), "--out", str(tmp_path / "c.json"),
                dump, str(tmp_path / "dump.tsv")]
        message = "line 101: url must be a string without a lone surrogate, got '/api/v1/\\ud800x'"
        self.assert_rejected(argv, message, capsys)

    def test_deeply_nested_capture(self, tmp_path, capsys):
        src = tmp_path / "deep.jsonl"
        src.write_text("[" * 100_000 + "\n", encoding="utf-8")
        self.assert_rejected(["ingest", "--in", str(src)], "line 1: nested too deeply", capsys)

    def test_capture_not_utf8(self, tmp_path, capsys):
        src = tmp_path / "bad.jsonl"
        src.write_bytes(b'{"method": "GET", "url": "/\xff"}\n')
        self.assert_rejected(["ingest", "--in", str(src)], "not valid UTF-8 at byte 27", capsys)

    @pytest.mark.parametrize("flags, message", [
        (["--endpoints", "0"], "--endpoints 0 --requests 50"),
        (["--requests", "0"], "--endpoints 20 --requests 0"),
        (["--ratios", "0.5,x"], "--ratios must be a comma-separated list of floats"),
        (["--ratios", "1.5"], "--ratios must lie in [0, 1]"),
        (["--seeds", "a"], "--seeds must be a comma-separated list of ints"),
        (["--seeds", "1,-1"], "bench --seeds must be non-negative integers, got '1,-1'"),
        (["--seed", "-1"], "bench --seed must be a non-negative integer, got -1"),
    ])
    def test_bench_flags(self, capsys, flags, message):
        self.assert_rejected(["bench", *flags], message, capsys)

    # each command's flags after --in: noise's, and evaluate's --seed, which
    # is checked before the cluster document is read
    @pytest.mark.parametrize("flags, message", [
        (["noise", "--kind", "lexify", "--ratio", "1.5"], "noise --ratio must lie in [0, 1], got 1.5"),
        (["noise", "--kind", "lexify", "--ratio", "-0.1"], "noise --ratio must lie in [0, 1], got -0.1"),
        (["noise", "--kind", "lexify", "--ratio", "nan"], "noise --ratio must lie in [0, 1], got nan"),
        (["noise", "--kind", "lexify", "--ratio", "0.5", "--seed", "-1"],
         "noise --seed must be a non-negative integer, got -1"),
        (["evaluate", "--clusters", "cl.json", "--csv", "e.csv", "--seed", "-5"],
         "evaluate --seed must be a non-negative integer, got -5"),
    ])
    def test_noise_flags(self, corpus_file, capsys, flags, message):
        command, *rest = flags
        self.assert_rejected([command, "--in", str(corpus_file), *rest], message, capsys)

    def test_discover_takes_no_seed(self, corpus_file, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["discover", "--in", str(corpus_file), "--seed", "1"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert sum(line.startswith("usage: ") for line in err) == 1
        assert err[-1] == "apiminer: error: unrecognized arguments: --seed 1"

    @pytest.mark.parametrize("flags", [["--lambda", "0.1"], ["--theta", "2"], ["--tau", "x"]])
    def test_pipeline_flags(self, corpus_file, capsys, flags):
        with pytest.raises(SystemExit) as exit_info:
            main(["discover", "--in", str(corpus_file), *flags])
        assert exit_info.value.code == 2
        assert "error: " in capsys.readouterr().err.splitlines()[-1]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# integers of any size: st.integers() stays within 128 bits, so powers of ten
# up to the 4300 digits json.dumps writes reach past what a float holds
COUNTS = st.integers() | st.builds(
    lambda sign, exponent: sign * 10**exponent, st.sampled_from([1, -1]), st.integers(0, 4299)
)
# an integer literal json.loads does not read: more than 4300 digits
LONG_LITERALS = st.integers(4301, 4400).map(lambda digits: "9" * digits)


def padded(lines):
    """``lines`` with whitespace around some of them."""
    return st.tuples(
        st.sampled_from(["", " ", "\t"]), lines, st.sampled_from(["", " ", "\t "])
    ).map("".join)


# text with what a JSON string escapes (quotes, backslashes, control
# characters, U+2028, which str.splitlines takes for a line end) and text
# past ASCII, but no lone surrogate, which a record refuses (UTF-8 encodes
# none)
WRITTEN_TEXT = st.text(
    alphabet=st.sampled_from('a/_"\\\x00\t\x1f\x7f\u00e9\u2028\U0001f600')
    | st.characters(codec="utf-8"),
    max_size=6,
)
WRITTEN_COUNTS = st.integers(-(2**63), 2**63 - 1)
WRITTEN_RECORDS = st.builds(
    HttpRecord,
    id=st.integers(0, 10**6),
    method=st.sampled_from(["GET", "POST"]) | WRITTEN_TEXT,
    url=st.sampled_from(["/api/v1/items/7"]) | WRITTEN_TEXT,
    headers=st.lists(st.tuples(WRITTEN_TEXT, WRITTEN_TEXT), max_size=2).map(tuple),
    content_type=st.none() | WRITTEN_TEXT,
    body_size=WRITTEN_COUNTS,
    body_field_count=st.none() | WRITTEN_COUNTS,
    body_nesting_depth=st.none() | WRITTEN_COUNTS,
    label=st.none() | st.sampled_from(["EP_A", "EP_B"]) | WRITTEN_TEXT,
)
WRITTEN_KEYS = ("id", "method", "url", "headers", "content_type", "body_size",
                "body_field_count", "body_nesting_depth", "label")
# JSON text to set a count to: -0, which the pattern takes; null, a float, a
# list and 19 digits, which it leaves to the checked path; and a leading zero
# and 20 or 4301 digits, which no reader takes
COUNT_LITERALS = ["-0", "null", "1.5", "[]", "1" * 19, "9" * 19, "-" + "9" * 19, "01", "9" * 20,
                  "9" * 4301]
COUNT_KEYS = ["id", "body_size", "body_field_count", "body_nesting_depth"]
# JSON text to set a string to: null and escapes, which the pattern leaves to
# the checked path in a label; and a raw tab and escapes that JSON does not
# have, which no reader takes
STRING_LITERALS = [
    "null", '"EP_A"', '"EP\\u005fA"', '"EP\\"A"', '"EP\\\\A"', '"\\/"',
    '"\t"', '"\\x41"', '"\\u00zz"', '"\\u12"', '"\\"', '"\\U0041"',
]
STRING_KEYS = ["method", "url", "headers", "content_type", "label"]


def _compact(obj, ascii_only=True) -> str:
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=ascii_only)


def _with(obj, key, literal) -> str:
    """``obj`` in compact JSON with ``key`` set to the JSON text ``literal``,
    or with a header value set to it for ``headers``."""
    if key == "headers":
        literal = f'[["a",{literal}]]'
    # longer than any drawn string, so it stands for nothing else
    return _compact({**obj, key: "\x00literal\x00"}).replace('"\\u0000literal\\u0000"', literal)


@st.composite
def written_lines(draw):
    """A line as ``write_dataset`` writes it, or that line with one edit: a
    count or a string set to other JSON text, the keys reordered, a key
    repeated or added, padding, or text past ASCII left unescaped."""
    line = write_dataset(Dataset([draw(WRITTEN_RECORDS)])).rstrip("\n")
    edit = draw(st.sampled_from(["count", "string", "order", "repeat", "padding", "unescaped", None]))
    obj = json.loads(line)
    if edit == "count":
        return _with(obj, draw(st.sampled_from(COUNT_KEYS)), draw(st.sampled_from(COUNT_LITERALS)))
    if edit == "string":
        return _with(obj, draw(st.sampled_from(STRING_KEYS)), draw(st.sampled_from(STRING_LITERALS)))
    if edit == "order":
        return _compact({key: obj[key] for key in draw(st.permutations(list(obj)))})
    if edit == "repeat":
        key = draw(st.sampled_from(WRITTEN_KEYS + ("extra",)))
        value = draw(st.sampled_from([*COUNT_LITERALS, *STRING_LITERALS, json.dumps(obj.get(key))]))
        return line[:-1] + f',"{key}":{value}}}'
    if edit == "padding":
        return draw(padded(st.just(line)))
    if edit == "unescaped":
        return _compact(obj, ascii_only=False)
    return line


def respaced(text: str) -> str:
    """``text`` with each line that json.loads reads written again by
    json.dumps, which puts a space after each colon and comma."""
    lines = []
    for line in jsonl_lines(text):
        try:
            lines.append(json.dumps(json.loads(line)))
        except (ValueError, RecursionError):
            lines.append(line)
    return "\n".join(lines)


def sharing(dataset: Dataset) -> list[int]:
    """Which of the values a parse shares are one object: for each, the
    first position among them of the same object."""
    values = [v for r in dataset.records for v in (r.method, r.headers, *r.headers,
                                                   r.content_type, r.label)]
    values += dataset.ground_truth.values()
    first: dict[int, int] = {}
    return [first.setdefault(id(v), i) for i, v in enumerate(values)]


RECORD_FIELDS = ("id", "headers", "content_type", "body_size", "body_field_count",
                 "body_nesting_depth", "label")
CAPTURE_LINES = st.one_of(
    st.text(max_size=20),
    LONG_LITERALS,
    JSON_VALUES.map(json.dumps),
    written_lines(),
    st.fixed_dictionaries(
        {"method": JSON_VALUES, "url": JSON_VALUES},
        optional={name: JSON_VALUES | COUNTS for name in RECORD_FIELDS},
    ).map(json.dumps),
)
# request lines that parse, some labeled, for the labels reader to count
LABELED_LINES = st.fixed_dictionaries(
    {"method": st.sampled_from(["GET", "post"]), "url": st.text(max_size=6)},
    optional={
        "label": st.none() | st.sampled_from(["EP_A", "EP_B"]),
        "body_size": st.integers(-(2**63), 2**63 - 1),
    },
).map(json.dumps)


# capture text: request lines (some as write_dataset writes them, or with one
# edit), blank lines and at most one fuzzed capture line, each maybe padded
# with whitespace
CAPTURE_TEXTS = st.builds(
    lambda lines, fuzzed, at: "\n".join(lines[:at] + fuzzed + lines[at:]),
    st.lists(
        padded(LABELED_LINES) | written_lines() | st.sampled_from(["", " ", "\t"]), max_size=6
    ),
    st.lists(padded(CAPTURE_LINES), max_size=1),
    st.integers(0, 6),
)
CLUSTER_ENTRIES = st.fixed_dictionaries({}, optional={
    "template": JSON_VALUES,
    "method": JSON_VALUES,
    "member_ids": JSON_VALUES | st.lists(st.integers(), max_size=3),
    "representative_paths": JSON_VALUES | st.lists(st.text(max_size=4), max_size=2),
    "provenance": JSON_VALUES,
})
CONFIG_DOCS = st.dictionaries(
    st.sampled_from(["tau", "theta", "seed", "force_kmeans", "lam"]) | st.text(max_size=4),
    JSON_VALUES | st.floats(0, 1) | COUNTS,
    max_size=3,
)
# documents read from a file: raw bytes, an over-long integer, or JSON
RAW_DOCS = st.binary(max_size=30) | LONG_LITERALS.map(str.encode)
HAR_REQUESTS = st.fixed_dictionaries({}, optional={
    "method": JSON_VALUES,
    "url": JSON_VALUES | st.text(max_size=12),
    "headers": JSON_VALUES | st.lists(
        st.fixed_dictionaries({}, optional={"name": JSON_VALUES, "value": JSON_VALUES}), max_size=2
    ),
    "bodySize": JSON_VALUES | COUNTS,
    "postData": JSON_VALUES | st.fixed_dictionaries({}, optional={"text": JSON_VALUES}),
})
HAR_DOCS = st.one_of(
    RAW_DOCS,
    JSON_VALUES,
    st.fixed_dictionaries({"log": JSON_VALUES | st.fixed_dictionaries({}, optional={
        "entries": JSON_VALUES | st.lists(
            JSON_VALUES | st.fixed_dictionaries({"request": HAR_REQUESTS | JSON_VALUES}), max_size=3
        ),
    })}),
)
# URL and method text, from pieces that reach every branch of the URL split
URL_PIECES = st.sampled_from([
    "http://", "https://", "//", "/", "[", "]", "::1", "h", ":8080", "@", "%", "%2F", "%7e",
    "%zz", "?", "&", "=", "#", ".", "..", "api", "v1", "12", "ab12cd34ef", "app.js",
    "static", "é", "\uff03", " ", "\t", "\n",
])
URLS = st.text(max_size=20) | st.lists(URL_PIECES, max_size=10).map("".join)
# URLs of two templates, so that mined groups reach refinement
API_URLS = st.builds("/api/v1/{}/{}".format, st.sampled_from(["items", "users"]), st.integers(0, 40))
# body_size, body_field_count and body_nesting_depth within what ingest reads
COUNTS_64 = st.tuples(*[st.integers(-(2**63), 2**63 - 1)] * 3)
METHODS = st.text(max_size=6) | st.sampled_from(["GET", "post", "BREW", "ß"])
FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def as_file(tmp_path, doc) -> str:
    """Write a document (bytes as they are, anything else as JSON) to a file."""
    path = tmp_path / "doc"
    path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    return str(path)


class TestInputFuzz:
    """Each input surface returns a value or raises IngestError, and nothing else."""

    @FUZZ
    @given(lines=st.lists(CAPTURE_LINES, max_size=5))
    def test_parse_jsonl(self, lines):
        try:
            parse_jsonl("\n".join(lines))
        except IngestError:
            pass

    @staticmethod
    def assert_read_alike(text):
        # the same labels in the same order and request count, or the same error
        try:
            dataset = parse_jsonl(text)
        except IngestError as exc:
            with pytest.raises(IngestError) as raised:
                read_labels(text)
            assert str(raised.value) == str(exc)
        else:
            ground_truth, requests = read_labels(text)
            assert list(ground_truth.items()) == list(dataset.ground_truth.items())
            assert requests == len(dataset.records)

    @FUZZ
    @given(text=CAPTURE_TEXTS)
    def test_read_labels_matches_parse_jsonl(self, text):
        self.assert_read_alike(text)

    def test_read_labels_matches_parse_jsonl_on_every_value_edit(self):
        line = write_dataset(Dataset([HttpRecord(
            0, "GET", "/x", (("a", "b"),), "application/json", 5, 1, 1, "EP_A"
        )])).rstrip("\n")
        edits = [(key, literal) for key in COUNT_KEYS for literal in COUNT_LITERALS]
        edits += [(key, literal) for key in STRING_KEYS for literal in STRING_LITERALS]
        for key, literal in edits:
            self.assert_read_alike(f"{line}\n{_with(json.loads(line), key, literal)}\n{line}\n")

    @FUZZ
    @given(text=written_lines() | CAPTURE_LINES)
    def test_a_canonical_match_is_a_checked_request(self, text):
        # of the lines the readers split a text into, one that the pattern
        # matches holds in its groups each field of the request that the
        # checked path reads from the line re-spaced, which it never matches
        for line in jsonl_lines(text):
            match = CANONICAL_LINE.fullmatch(line)
            if match is None:
                continue
            spaced = respaced(line)
            assert CANONICAL_LINE.fullmatch(spaced) is None
            (checked,) = parse_jsonl(spaced).records

            def string(name):
                return None if match[name] is None else json.loads(f'"{match[name]}"')

            def count(name):
                return None if match[name] is None else int(match[name])

            # HttpRecord upper-cases the method and applies the count rule
            assert HttpRecord(
                0,
                string("method"),
                string("url"),
                tuple(map(tuple, json.loads(match["headers"]))),
                string("content_type"),
                count("body_size"),
                count("body_field_count"),
                count("body_nesting_depth"),
                string("label"),
            ) == checked
            assert "\\" not in (match["label"] or "")
            assert parse_jsonl(line).records == [checked]

    @FUZZ
    @given(text=CAPTURE_TEXTS)
    def test_respaced_text_reads_alike(self, text):
        # the same records, ground truth and shared objects, or the same
        # error, whether lines take the pattern's path or the checked one;
        # the text twice over, so that each value repeats
        text = f"{text}\n{text}"
        spaced = respaced(text)
        assert not any(CANONICAL_LINE.fullmatch(line) for line in jsonl_lines(spaced))
        try:
            dataset = parse_jsonl(text)
        except IngestError as exc:
            with pytest.raises(IngestError) as raised:
                parse_jsonl(spaced)
            assert str(raised.value) == str(exc)
            return
        again = parse_jsonl(spaced)
        assert again.records == dataset.records
        assert list(again.ground_truth.items()) == list(dataset.ground_truth.items())
        assert sharing(again) == sharing(dataset)

    @FUZZ
    @given(record=WRITTEN_RECORDS)
    @example(record=HttpRecord(0, "GET", "/x\U0001f600"))
    def test_written_lines_match_the_pattern(self, record):
        # every line write_dataset writes takes the pattern's path, but for
        # one whose label it escapes, that holds a count of 19 digits, or
        # that holds a character past U+FFFF, which it writes as escaped
        # surrogates
        line = write_dataset(Dataset([record])).rstrip("\n")
        escaped = record.label is not None and json.dumps(record.label) != f'"{record.label}"'
        counts = (record.id, record.body_size, record.body_field_count, record.body_nesting_depth)
        long_count = any(abs(count) >= 10**18 for count in counts if count is not None)
        strings = [record.method, record.url, *(t for h in record.headers for t in h),
                   record.content_type, record.label]
        astral = any(ord(ch) > 0xFFFF for text in strings if text is not None for ch in text)
        assert (CANONICAL_LINE.fullmatch(line) is None) == (escaped or long_count or astral)

    def test_written_captures_match_the_pattern(self):
        # a typo in the pattern would send every line to the checked path
        # while the readers still agree
        dataset = synth_corpus(CorpusSpec(endpoint_count=8, requests_per_endpoint=10))
        for capture in (dataset, inject(dataset, LEXIFY, 0.95, 1), inject(dataset, INTERFERE, 0.95, 1)):
            lines = write_dataset(capture).splitlines()
            assert lines and all(CANONICAL_LINE.fullmatch(line) for line in lines)

    @FUZZ
    @given(doc=RAW_DOCS | JSON_VALUES | st.lists(CLUSTER_ENTRIES | JSON_VALUES, max_size=3))
    def test_load_clusters(self, tmp_path, doc):
        try:
            clusters = _load_clusters(as_file(tmp_path, doc))
        except IngestError:
            return
        assert all(isinstance(c, refine.EndpointCluster) for c in clusters)

    @FUZZ
    @given(doc=RAW_DOCS | JSON_VALUES | CONFIG_DOCS)
    def test_load_config_file(self, tmp_path, doc):
        try:
            file_config = _load_config_file(as_file(tmp_path, doc))
        except IngestError:
            return
        # what a config file may hold, main sets as the unset pipeline flags,
        # and the pipeline takes
        unset = dict.fromkeys(("tau", "theta", "seed", "force_kmeans"))
        tau, _ = _pipeline_settings(argparse.Namespace(**{**unset, **file_config}))
        filter_traffic(Dataset(), tau)

    @FUZZ
    @given(doc=HAR_DOCS)
    def test_parse_har(self, doc):
        data = doc if isinstance(doc, bytes) else json.dumps(doc).encode()
        try:
            dataset = parse_har(data)
        except IngestError:
            return
        # what ingest reads, it writes back as canonical JSONL
        assert parse_jsonl(write_dataset(dataset)).records == dataset.records

    @FUZZ
    @given(requests=st.lists(
        st.tuples(METHODS, URLS, COUNTS_64) | st.tuples(st.just("GET"), API_URLS, COUNTS_64),
        min_size=1, max_size=12,
    ))
    # a count no float holds, rejected at ingest
    @example([("GET", f"/api/v1/items/{i}", (10, 10**400, 1)) for i in range(4)])
    def test_discover(self, requests):
        # through parse_jsonl, which reads the counts; drawn within 64 bits so
        # that every example reaches discover, while the reader properties
        # above draw counts of any size
        capture = "".join(
            json.dumps({"method": method, "url": url, "content_type": "application/json",
                        "body_size": size, "body_field_count": fields,
                        "body_nesting_depth": depth}) + "\n"
            for method, url, (size, fields, depth) in requests
        )
        try:
            dataset = parse_jsonl(capture)
            clusters = refine.discover(refine.prepare_traffic(dataset))
        except IngestError:
            return
        members = [i for c in clusters for i in c.member_ids]
        assert sorted(members) == filter_traffic(dataset).kept


BLOCK_SIZES = [1, 2, 7, 64]


@st.composite
def line_ended_captures(draw):
    """Text of ``CAPTURE_TEXTS``, maybe re-spaced, each line ended by '\n',
    '\r\n' or '\r', the last maybe by none."""
    text = draw(CAPTURE_TEXTS)
    if draw(st.booleans()):
        text = respaced(text)
    lines = text.split("\n")
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text.removesuffix(draw(st.sampled_from(["", "\n", "\r"])))


class TestBlocks:
    """A capture file reads as its text, whatever size of block it is read by."""

    @FUZZ
    @given(text=line_ended_captures())
    def test_a_file_reads_as_its_text(self, monkeypatch, text):
        expected = read_outcome(text)
        for size in BLOCK_SIZES:
            monkeypatch.setattr(records, "BLOCK_SIZE", size)
            assert read_outcome(text.encode()) == expected, size

    @pytest.mark.parametrize("size", BLOCK_SIZES)
    def test_line_ends_split_across_blocks(self, monkeypatch, size):
        lines = write_dataset(Dataset(LINE_RECORDS)).splitlines()
        # the first line padded so that its '\r\n' is split between two reads
        first = lines[0] + " " * ((size - 1 - len(lines[0])) % size)
        # a blank line, and the last line re-spaced, with its characters past
        # ASCII raw, and ended by '\r'
        respaced_last = json.dumps(json.loads(lines[2]), ensure_ascii=False)
        text = first + "\r\n" + " \t\r" + lines[1] + "\n" + respaced_last + "\r"
        data = text.encode()
        assert data.index(b"\r\n") % size == size - 1 and not text.isascii()
        assert max(map(len, lines)) > size
        monkeypatch.setattr(records, "BLOCK_SIZE", size)
        labels = {r.id: r.label for r in LINE_RECORDS if r.label is not None}
        assert read_outcome(data) == read_outcome(text) == [LINE_RECORDS, (labels, 3)]
        # a split '\r\n' would end two lines
        message = "malformed JSONL object at line 5: Expecting value"
        assert read_outcome(data + b"not json") == [message, message]

    def test_a_malformed_line_in_a_later_block_names_its_line(self, monkeypatch):
        text = write_dataset(synth_corpus(CorpusSpec(2, 5))) + "not json\n"
        monkeypatch.setattr(records, "BLOCK_SIZE", 64)
        assert len(text) > 8 * 64
        for read in (parse_jsonl, read_labels):
            with pytest.raises(IngestError, match="^malformed JSONL object at line 11: Expecting value"):
                read(io.BytesIO(text.encode()))

    def test_a_byte_past_utf8_in_a_later_block_is_named_by_its_offset(self, monkeypatch, tmp_path, capsys):
        head = write_dataset(synth_corpus(CorpusSpec(2, 5))).encode()
        data = head + b'{"method": "GET", "url": "/\xff"}\n'
        monkeypatch.setattr(records, "BLOCK_SIZE", 64)
        message = f"is not valid UTF-8 at byte {len(head) + 27}"
        for read in (parse_jsonl, read_labels):
            with pytest.raises(IngestError, match=f"^capture {message}$"):
                read(io.BytesIO(data))
        src = tmp_path / "bad.jsonl"
        src.write_bytes(data)
        assert main(["ingest", "--in", str(src), "--out", str(tmp_path / "out.jsonl")]) == 2
        assert capsys.readouterr().err == f"error: {src} {message}\n"

    @pytest.mark.parametrize("size", [7, records.BLOCK_SIZE])
    def test_ingest_writes_the_canonical_bytes(self, tmp_path, monkeypatch, size):
        canonical = write_dataset(inject(synth_corpus(CorpusSpec(20, 80)), LEXIFY, 0.5, 1))
        ends = ["\n", "\r\n", "\r"]
        # canonical and re-spaced lines, each end in turn
        text = "".join(
            (json.dumps(json.loads(line)) if i % 2 else line) + ends[i % 3]
            for i, line in enumerate(canonical.splitlines())
        )
        assert len(text) > 3 * records.BLOCK_SIZE
        src, out = tmp_path / "capture.jsonl", tmp_path / "ingested.jsonl"
        src.write_bytes(text.encode())
        monkeypatch.setattr(records, "BLOCK_SIZE", size)
        assert main(["ingest", "--in", str(src), "--out", str(out)]) == 0
        assert out.read_bytes() == canonical.encode()
