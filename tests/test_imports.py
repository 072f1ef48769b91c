"""What a one-shot process loads: scoring needs no numpy, and `discover`
leaves out the modules only `bench` or a flagless `np.unique` would load."""

import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import apiminer
from apiminer import refine
from apiminer.corpus import CorpusSpec, synth_corpus
from apiminer.records import write_dataset

SRC = str(Path(apiminer.__file__).resolve().parent.parent)


def loaded_after(code: str, *names: str) -> dict[str, bool]:
    """Whether each module of ``names`` is in ``sys.modules`` once a fresh
    interpreter has run ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    probe = f"{code}\nimport json, sys\nprint(json.dumps({{n: n in sys.modules for n in {names!r}}}))"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_metrics_loads_no_numpy():
    assert loaded_after("import apiminer.metrics", "numpy") == {"numpy": False}


def test_discover_on_the_graph_path_loads_no_masked_arrays(tmp_path):
    corpus = synth_corpus(CorpusSpec(20, 50, 42))
    capture = tmp_path / "capture.jsonl"
    capture.write_text(write_dataset(corpus), encoding="utf-8")
    # some group of the capture is cut into components, so the labels are
    # numbered and counted on the way
    with mock.patch.object(
        refine, "connected_components", wraps=refine.connected_components
    ) as components:
        refine.discover(refine.prepare_traffic(corpus))
    assert components.called
    code = (
        "from apiminer.cli import main\n"
        f"assert main(['discover', '--in', {str(capture)!r}, "
        f"'--out', {str(tmp_path / 'clusters.json')!r}]) == 0"
    )
    assert loaded_after(code, "numpy", "numpy.ma", "apiminer.corpus") == {
        "numpy": True, "numpy.ma": False, "apiminer.corpus": False,
    }
