"""The byte contract, pinned across commits.

Each config under tests/configs is run serially, with two workers, and with
naive greedy in place of its maximizer (all but `stochastic`, whose samples
naive greedy does not draw). Every variant must write the `metrics.csv`,
`selections.jsonl` and `summary.json` whose sha256 digests.json holds for
that config under the running numpy's major.minor. Under a numpy with no
entry, the expected digests are this session's serial run, so there the
variants are checked run against run only.

Each demo under demos/ is run in a subprocess that turns numpy's runtime
and deprecation warnings into errors. It must exit 0, and its stdout must
have the sha256 that the entry's "demos" table holds for it, where the
running numpy has an entry.

`PYTHONPATH=src python tests/test_outputs.py` rewrites the running numpy's
entry. A change that moves a digest names the config or demo and the
reason in CHANGES.md.
"""

import functools
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import streamline
from streamline.cli import run
from streamline.config import config_from_dict

CONFIGS = Path(__file__).parent / "configs"
DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))
DIGESTS = CONFIGS / "digests.json"
NAMES = ("tiny", "stochastic", "churn", "split", "odd", "wide", "tiled", "copies", "all-methods", "desk")
OUTPUTS = ("metrics.csv", "selections.jsonl", "summary.json")
NUMPY = ".".join(np.__version__.split(".")[:2])
VARIANTS = {
    "serial": ({}, 1),
    "workers2": ({}, 2),
    "naive": ({"maximizer": {"algorithm": "naive"}}, 1),
}


def config(name, **overrides):
    return config_from_dict({**json.loads((CONFIGS / f"{name}.json").read_text()), **overrides})


def digests(out_dir):
    return {name: hashlib.sha256((Path(out_dir) / name).read_bytes()).hexdigest() for name in OUTPUTS}


def run_digests(cfg, workers=1):
    with tempfile.TemporaryDirectory() as out:
        assert run(cfg, out, workers=workers) == 0
        return digests(out)


def demo_digest(path):
    """The sha256 of the demo's stdout; the demo must exit 0."""
    src = str(Path(streamline.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    warnings = ["-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning"]
    proc = subprocess.run([sys.executable, *warnings, str(path)], env=env, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    return hashlib.sha256(proc.stdout).hexdigest()


@functools.cache
def pinned(name):
    table = json.loads(DIGESTS.read_text()).get(NUMPY)
    return table[name] if table else run_digests(config(name))


@pytest.mark.parametrize(
    "name, variant",
    [(name, variant) for name in NAMES for variant in VARIANTS if (name, variant) != ("stochastic", "naive")],
)
def test_outputs_match_the_pinned_digests(name, variant):
    overrides, workers = VARIANTS[variant]
    assert run_digests(config(name, **overrides), workers) == pinned(name)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_prints_the_pinned_stdout(demo):
    expected = json.loads(DIGESTS.read_text()).get(NUMPY, {}).get("demos", {}).get(demo.name)
    digest = demo_digest(demo)
    assert expected is None or digest == expected


if __name__ == "__main__":
    table = json.loads(DIGESTS.read_text())
    table[NUMPY] = {name: run_digests(config(name)) for name in NAMES}
    table[NUMPY]["demos"] = {demo.name: demo_digest(demo) for demo in DEMOS}
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
