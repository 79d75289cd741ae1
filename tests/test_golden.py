"""Seeded CLI outputs against tests/golden.json, by digest where the
environment key matches and number by number elsewhere. A change that
moves outputs on purpose reruns tests/golden.py with --write and names
the moved outputs in CHANGES.md. The child inherits the environment's
BLAS settings: piavae pins OpenBLAS to one thread itself, which this
checks too."""

import json
import os
import subprocess
import sys

import pytest

from tests import golden


@pytest.fixture(scope="module")
def records():
    env = dict(os.environ, PYTHONPATH=str(golden.GOLDEN.parents[1] / "src"))
    out = subprocess.run([sys.executable, golden.__file__], env=env, check=True,
                         capture_output=True, text=True, timeout=600)
    return json.loads(out.stdout), json.loads(golden.GOLDEN.read_text())


def test_outputs_match_golden(records):
    assert golden.compare(*records) == []


def test_numbers_match_golden_and_a_moved_number_is_named(records):
    # The comparison for a differing key runs everywhere, so it stays tested.
    got, want = records
    assert golden.close(got, want) == []
    digest = got["digests"]["on/train_log.jsonl"]
    moved = [x * (1 + 10 * golden.REL_TOL) + 1e-6 for x in got["numbers"][digest]]
    assert golden.close({**got, "numbers": {**got["numbers"], digest: moved}},
                        want) == [f"on/train_log.jsonl: numbers differ beyond "
                                  f"rel_tol {golden.REL_TOL}"]
