#!/usr/bin/env bash
# The console scripts end to end, run in the directory given as the first
# argument: discover and evaluate as separate processes on a small labeled
# capture of 72 requests; both write the same outputs for the capture
# re-spaced by json.dumps (read line by line, not by the canonical-line
# pattern); evaluate exits 2 for a cluster document that names a request
# past the capture and for --format har, and discover for a capture with a
# lone surrogate in a url.
#
# Usage: bash .github/scripts/console-e2e.sh DIR   (needs `apiminer` on PATH)
set -e
cd "$1"
python - <<'PY'
import json, os
from apiminer.corpus import CorpusSpec, synth_corpus
from apiminer.records import write_dataset
with open("capture.jsonl", "w", encoding="utf-8") as out:
    out.write(write_dataset(synth_corpus(CorpusSpec(6, 12))))
os.mkdir("spaced")
with open("capture.jsonl", encoding="utf-8") as src:
    with open("spaced/capture.jsonl", "w", encoding="utf-8") as out:
        out.writelines(json.dumps(json.loads(line)) + "\n" for line in src)
PY
dumps="--dump-normalized normalized.tsv --dump-templates templates.tsv"
apiminer discover --in capture.jsonl --out clusters.json $dumps
apiminer evaluate --in capture.jsonl --clusters clusters.json --out report.json
(cd spaced && apiminer discover --in capture.jsonl --out clusters.json $dumps &&
  apiminer evaluate --in capture.jsonl --clusters clusters.json --out report.json)
for name in clusters.json normalized.tsv templates.tsv report.json; do
  cmp "$name" "spaced/$name"
done
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
