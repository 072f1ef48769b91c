#!/usr/bin/env bash
# The console scripts end to end, run in the directory given as the first
# argument: discover and evaluate as separate processes on a small labeled
# capture of 72 requests; both write the same outputs for the capture
# re-spaced by json.dumps (read line by line, not by the canonical-line
# pattern), for the capture with each line ended by '\r' alone, and for its
# canonical and re-spaced lines interleaved; ingest writes each of the three
# back to the canonical bytes;
# noise writes the bytes the writer gives for the same injection in process,
# also at Lexify ratio 1 on URLs that take each way the noise lab splits and
# rebuilds a URL (relative, a '//' path, an upper-case scheme, userinfo and a
# port, an empty query, an empty fragment);
# bench writes its CSV header and one row per cell; evaluate exits 2 for a
# cluster document that names a request past the capture and for --format
# har, discover for a capture with a lone surrogate in a url, and noise
# --kind lexify for a capture with a url urlsplit rejects; discover mines the
# same templates from a Lexify 0.95 capture and from its lines reversed;
# on a Lexify 0.5 capture of 6,000 requests, discover writes the same
# clusters with a config file that holds only a seed (which seeds bench's
# corpus alone) as with none, and gives the same partition for the capture's
# lines shuffled, on the graph path and under --force-kmeans; so does a
# capture whose one level holds more than MAX_CHILDREN tokens, some of them
# repeated, which collapses to its wildcard; a capture that json.dumps wrote
# with ensure_ascii=False, a raw U+2028 in each label and a raw U+0085 in each
# url, is ingested to the bytes the writer gives in process and discovered;
# a small HAR (a JSON POST with postData, one with postData and a bodySize
# of -1, which reads as its text's UTF-8 length, a GET with a bodySize of -1
# and one with null) is ingested to the bytes the writer gives for parse_har
# in process, and a
# HAR entry with a bodySize of 1.5 makes ingest exit 2 with one line naming
# the entry and the field; the Interfere 0.95 capture, which mixes labelled
# and unlabelled requests with and without a content type, is ingested to the
# lines json.dumps writes for its records' fields in key order, an oracle that
# shares no code with the writer; discover, run as the child of a Python
# step, writes one cluster of every request for a capture of one POST
# endpoint with 16,000 distinct body sizes, and its resident memory peaks
# under 300 MB; on a capture of 35.6 MB (210,600 requests: CorpusSpec(180,
# 600, 42) under Interfere 0.95) discover runs, and evaluate, the one child
# of the Python step after it, peaks under 70 MB resident, since it reads the
# capture in blocks and holds its labels, not its bytes or text (it peaked at
# 97 MB holding both).
#
# Usage: bash .github/scripts/console-e2e.sh DIR   (needs `apiminer` on PATH)
set -e
cd "$1"
python - <<'PY'
import itertools, json, os, random, string
from apiminer.corpus import CorpusSpec, synth_corpus
from apiminer.noise import INTERFERE, LEXIFY, inject
from apiminer.records import Dataset, HttpRecord, parse_har, write_dataset
from apiminer.templates import MAX_CHILDREN


def write_shuffled(name, lines, seed):
    """NAME.jsonl, NAME-shuffled.jsonl with its lines shuffled, and
    NAME-shuffled.json: the line each shuffled one came from, since a JSONL
    request's id is its line number."""
    order = list(range(len(lines)))
    random.Random(seed).shuffle(order)
    with open(f"{name}.jsonl", "w", encoding="utf-8") as out:
        out.writelines(lines)
    with open(f"{name}-shuffled.jsonl", "w", encoding="utf-8") as out:
        out.writelines(lines[i] for i in order)
    with open(f"{name}-shuffled.json", "w", encoding="utf-8") as out:
        json.dump(order, out)


corpus = synth_corpus(CorpusSpec(6, 12))
with open("capture.jsonl", "w", encoding="utf-8") as out:
    out.write(write_dataset(corpus))
with open("sweep.jsonl", "w", encoding="utf-8") as out:
    out.write(write_dataset(synth_corpus(CorpusSpec(20, 50))))
for name, kind, ratio, seed in (("interfere", INTERFERE, 0.95, 1), ("lexify", LEXIFY, 0.5, 3)):
    with open(f"expected-{name}.jsonl", "w", encoding="utf-8") as out:
        out.write(write_dataset(inject(corpus, kind, ratio, seed)))
# each record's set fields in key order, headers as lists, as json.dumps
# writes them with the writer's separators
interfered = inject(corpus, INTERFERE, 0.95, 1).records
assert {(r.label is None, r.content_type is None) for r in interfered} == {
    (False, False), (True, False), (True, True)
}
with open("dumped-interfere.jsonl", "w", encoding="utf-8") as out:
    for record in interfered:
        fields = {k: v for k, v in record._asdict().items() if v is not None}
        fields["headers"] = [list(pair) for pair in record.headers]
        out.write(json.dumps(fields, separators=(",", ":")) + "\n")
urls = ("/api/v1/items?page=2&q=a b", "//h/a", "HTTPS://H/a", "https://u:p@h:8080/a-b/",
        "https://h?", "https://h/a#")
branches = Dataset([HttpRecord(i, "GET", url, label=f"EP_{i % 6}") for i, url in enumerate(urls * 4)])
with open("branches.jsonl", "w", encoding="utf-8") as out:
    out.write(write_dataset(branches))
with open("expected-branches.jsonl", "w", encoding="utf-8") as out:
    out.write(write_dataset(inject(branches, LEXIFY, 1.0, 0)))
write_shuffled(
    "order", write_dataset(inject(synth_corpus(CorpusSpec(20, 300)), LEXIFY, 0.5, 1)).splitlines(True), 1004
)
# letter-pair tokens such as "abab", each at least two edits from any other
pairs = itertools.product(string.ascii_lowercase, repeat=2)
tokens = ["".join(pair) * 2 for pair in itertools.islice(pairs, MAX_CHILDREN + 6)]
collapse = Dataset([
    HttpRecord(i, "GET", f"https://app.example.com/api/{t}/items",
               content_type="application/json", label=f"EP_{t}")
    for i, t in enumerate(tokens + tokens[::5] + tokens[::7])
])
write_shuffled("collapse", write_dataset(collapse).splitlines(True), 7)
breaks = Dataset([
    HttpRecord(i, "GET", f"/api/v1/items\x85/{i}", content_type="application/json",
               label=f"EP\u2028{i % 2}")
    for i in range(12)
])
with open("expected-breaks.jsonl", "w", encoding="utf-8") as out:
    out.write(write_dataset(breaks))
text = "".join(
    json.dumps(json.loads(line), ensure_ascii=False) + "\n"
    for line in write_dataset(breaks).splitlines()
)
assert "\u2028" in text and "\x85" in text
with open("breaks.jsonl", "w", encoding="utf-8") as out:
    out.write(text)
body = json.dumps({"item": 7, "options": {"gift": True}})
unsized = json.dumps({"note": "café", "lines": [{"sku": 3}]}, ensure_ascii=False)
har = json.dumps({"log": {"entries": [
    {"request": {"method": "post", "url": "https://app.example.com/api/v1/orders",
                 "headers": [{"name": "Content-Type", "value": "application/json"}],
                 "bodySize": len(body), "postData": {"mimeType": "application/json", "text": body}}},
    {"request": {"method": "GET", "url": "https://app.example.com/api/v1/orders/7",
                 "headers": [], "bodySize": -1}},
    {"request": {"method": "GET", "url": "https://app.example.com/api/v1/orders/8?page=2",
                 "headers": [{"name": "Accept", "value": "application/json"}], "bodySize": None}},
    {"request": {"method": "POST", "url": "https://app.example.com/api/v1/orders",
                 "headers": [{"name": "Content-Type", "value": "application/json"}],
                 "bodySize": -1, "postData": {"mimeType": "application/json", "text": unsized}}},
]}}).encode()
with open("capture.har", "wb") as out:
    out.write(har)
records = parse_har(har).records
assert [(r.method, r.body_size, r.body_field_count, r.body_nesting_depth) for r in records] == [
    ("POST", len(body), 2, 2), ("GET", 0, None, None), ("GET", 0, None, None),
    ("POST", len(unsized.encode("utf-8")), 2, 3),
]
with open("expected-har.jsonl", "w", encoding="utf-8") as out:
    out.write(write_dataset(parse_har(har)))
with open("capture.jsonl", encoding="utf-8") as src:
    canonical = src.read().splitlines()
forms = {
    "spaced": [json.dumps(json.loads(line)) + "\n" for line in canonical],
    "cr": [line + "\r" for line in canonical],
    "mixed": [(json.dumps(json.loads(line)) if i % 2 else line) + "\n" for i, line in enumerate(canonical)],
}
for form, lines in forms.items():
    os.mkdir(form)
    with open(f"{form}/capture.jsonl", "w", encoding="utf-8", newline="") as out:
        out.writelines(lines)
PY
dumps="--dump-normalized normalized.tsv --dump-templates templates.tsv"
apiminer discover --in capture.jsonl --out clusters.json $dumps
apiminer evaluate --in capture.jsonl --clusters clusters.json --out report.json
for form in spaced cr mixed; do
  (cd "$form" && apiminer discover --in capture.jsonl --out clusters.json $dumps &&
    apiminer evaluate --in capture.jsonl --clusters clusters.json --out report.json)
  for name in clusters.json normalized.tsv templates.tsv report.json; do
    cmp "$name" "$form/$name"
  done
  apiminer ingest --in "$form/capture.jsonl" --out "$form/ingested.jsonl"
  cmp "$form/ingested.jsonl" capture.jsonl
done
apiminer ingest --in breaks.jsonl --out breaks-ingested.jsonl
cmp breaks-ingested.jsonl expected-breaks.jsonl
apiminer discover --in breaks.jsonl --out breaks-clusters.json
apiminer ingest --format har --in capture.har --out har-ingested.jsonl
cmp har-ingested.jsonl expected-har.jsonl
printf '%s\n' '{"log": {"entries": [{"request": {"method": "GET", "url": "/api/v1/x", "bodySize": 1.5}}]}}' > badsize.har
code=0
apiminer ingest --format har --in badsize.har --out badsize.jsonl 2> badsize.err || code=$?
test "$code" -eq 2
test "$(wc -l < badsize.err)" -eq 1
grep -q "^error: malformed HAR entry at index 0: bodySize must be an integer, got 1.5$" badsize.err
apiminer ingest --in expected-interfere.jsonl --out interfere-ingested.jsonl
cmp interfere-ingested.jsonl dumped-interfere.jsonl
apiminer noise --in capture.jsonl --kind interfere --ratio 0.95 --seed 1 --out interfere.jsonl
cmp interfere.jsonl expected-interfere.jsonl
apiminer noise --in capture.jsonl --kind lexify --ratio 0.5 --seed 3 --out lexify.jsonl
cmp lexify.jsonl expected-lexify.jsonl
apiminer noise --in branches.jsonl --kind lexify --ratio 1 --out branches-lexify.jsonl
cmp branches-lexify.jsonl expected-branches.jsonl
apiminer bench --endpoints 6 --requests 12 --ratios 0.5 --seeds 1 --out bench.csv
test "$(head -n 1 bench.csv)" = "dataset,noise_type,noise_ratio,seed,tp,fp,fn,pga,rga,fga,purity"
test "$(grep -c '^synth-seed42,\(Interfere\|Lexify\),0.5,1,' bench.csv)" -eq 2
test "$(wc -l < bench.csv)" -eq 3
echo '[{"template": "/x", "method": "GET", "member_ids": [0, 72]}]' > stray.json
code=0
apiminer evaluate --in capture.jsonl --clusters stray.json || code=$?
test "$code" -eq 2
code=0
apiminer evaluate --format har --in capture.jsonl --clusters clusters.json || code=$?
test "$code" -eq 2
printf '%s\n' '{"id":72,"method":"GET","url":"/api/v1/\ud800x","headers":[],"content_type":"application/json","body_size":0}' |
  cat capture.jsonl - > surrogate.jsonl
code=0
apiminer discover --in surrogate.jsonl --out surrogate.json \
  --dump-normalized surrogate-normalized.tsv --dump-templates surrogate-templates.tsv || code=$?
test "$code" -eq 2
printf '%s\n' '{"id":0,"method":"GET","url":"http://[::1/x","headers":[],"body_size":0}' > badurl.jsonl
code=0
apiminer noise --in badurl.jsonl --kind lexify --ratio 1 --out badurl-noisy.jsonl 2> badurl.err || code=$?
test "$code" -eq 2
test "$(wc -l < badurl.err)" -eq 1
grep -q "^error: record 0: malformed url 'http://\[::1/x'" badurl.err
apiminer noise --in sweep.jsonl --kind lexify --ratio 0.95 --seed 2 --out sweep-lexify.jsonl
tac sweep-lexify.jsonl > sweep-reversed.jsonl
apiminer discover --in sweep-lexify.jsonl --out sweep.json --dump-templates sweep-templates.tsv
apiminer discover --in sweep-reversed.jsonl --out sweep-reversed.json \
  --dump-templates sweep-reversed-templates.tsv
# templates.tsv holds the mined templates only, which refinement cannot move
cmp <(sort sweep-templates.tsv) <(sort sweep-reversed-templates.tsv)
apiminer discover --in order.jsonl --out order-clusters.json
echo '{"seed": 3}' > seed-config.json
apiminer --config seed-config.json discover --in order.jsonl --out order-seed-config.json
cmp order-clusters.json order-seed-config.json
apiminer discover --in order.jsonl --force-kmeans --out order-kmeans.json
apiminer discover --in order-shuffled.jsonl --out order-shuffled-clusters.json
apiminer discover --in order-shuffled.jsonl --force-kmeans --out order-shuffled-kmeans.json
apiminer discover --in collapse.jsonl --out collapse-clusters.json
apiminer discover --in collapse-shuffled.jsonl --out collapse-shuffled-clusters.json
python - <<'PY'
import json

def member_sets(path, original=lambda i: i):
    with open(path, encoding="utf-8") as handle:
        return sorted(sorted(original(i) for i in c["member_ids"]) for c in json.load(handle))

for name, shuffled, expected in (
    ("order", "order-shuffled-clusters.json", "order-clusters.json"),
    ("order", "order-shuffled-kmeans.json", "order-kmeans.json"),
    ("collapse", "collapse-shuffled-clusters.json", "collapse-clusters.json"),
):
    with open(f"{name}-shuffled.json", encoding="utf-8") as handle:
        order = json.load(handle)
    assert member_sets(shuffled, order.__getitem__) == member_sets(expected), shuffled
with open("collapse-clusters.json", encoding="utf-8") as handle:
    assert "/api/{*}/items" in {c["template"] for c in json.load(handle)}
PY
python - <<'PY'
import json, resource, subprocess
from apiminer.records import Dataset, HttpRecord, write_dataset

n = 16000
large = Dataset([
    HttpRecord(i, "POST", "/api/v1/orders", content_type="application/json",
               body_size=100 + i, body_field_count=3, body_nesting_depth=1, label="EP_orders")
    for i in range(n)
])
with open("large.jsonl", "w", encoding="utf-8") as out:
    out.write(write_dataset(large))
subprocess.run(["apiminer", "discover", "--in", "large.jsonl", "--out", "large-clusters.json"], check=True)
# kilobytes on Linux: the peak of the one child this step ran
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
assert peak_mb <= 300, f"discover on {n} distinct rows peaked at {peak_mb:.0f} MB"
with open("large-clusters.json", encoding="utf-8") as handle:
    assert [c["member_count"] for c in json.load(handle)] == [n]
PY
python - <<'PY'
import subprocess
from apiminer.corpus import CorpusSpec, synth_corpus
from apiminer.noise import INTERFERE, inject
from apiminer.records import write_dataset

with open("shared.jsonl", "w", encoding="utf-8") as out:
    out.write(write_dataset(inject(synth_corpus(CorpusSpec(180, 600, 42)), INTERFERE, 0.95, 1)))
subprocess.run(["apiminer", "discover", "--in", "shared.jsonl", "--out", "shared-clusters.json"],
               check=True)
PY
python - <<'PY'
import json, os, resource, subprocess

assert os.path.getsize("shared.jsonl") > 35 * 10**6
subprocess.run(["apiminer", "evaluate", "--in", "shared.jsonl", "--clusters", "shared-clusters.json",
                "--out", "shared-report.json"], check=True)
# kilobytes on Linux: the peak of the one child this step ran
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
assert peak_mb < 70, f"evaluate on a 35.6 MB capture peaked at {peak_mb:.0f} MB"
with open("shared-report.json", encoding="utf-8") as handle:
    assert json.load(handle)["fga"] > 0
PY
