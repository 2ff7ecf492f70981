"""The byte contract, pinned across commits.

Each config under tests/configs is run serially, with two workers, and with
naive greedy in place of its maximizer (all but `stochastic`, whose samples
naive greedy does not draw). Every variant must write the `metrics.csv`,
`selections.jsonl` and `summary.json` whose sha256 digests.json holds for
that config under the running numpy's major.minor. Under a numpy with no
entry, the expected digests are this session's serial run, so there the
variants are checked run against run only.

`PYTHONPATH=src python tests/test_outputs.py` rewrites the running numpy's
entry. A change that moves a digest names the config and the reason in
CHANGES.md.
"""

import functools
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from streamline.cli import run
from streamline.config import config_from_dict

CONFIGS = Path(__file__).parent / "configs"
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


if __name__ == "__main__":
    table = json.loads(DIGESTS.read_text())
    table[NUMPY] = {name: run_digests(config(name)) for name in NAMES}
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
