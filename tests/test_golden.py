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


def test_comparison_names_digests_or_numbers(records):
    # Both branches, whatever core this machine runs: the record's key as
    # recorded, then an OpenBLAS string golden.json does not hold.
    got, want = records
    core = got["key"]["openblas"]
    assert golden.comparison(got, {**want, "key": got["key"]}) == (
        f"SHA-256 digests (key matches, {core})")
    other = {**got, "key": {**got["key"], "openblas": "OpenBLAS Katmai"}}
    assert golden.comparison(other, want) == (
        f"numbers within rel_tol {golden.REL_TOL}, abs_tol {golden.ABS_TOL} "
        "(key not recorded, OpenBLAS Katmai)")


def test_verdict_counts_matches_or_problems(records):
    # The record against itself and against itself with one digest moved,
    # so both lines hold on any core.
    got, want = records[0], records[0]
    by = f"by SHA-256 digests (key matches, {got['key']['openblas']})"
    assert golden.verdict(got, want, golden.compare(got, want)) == (
        f"golden: {len(got['digests'])} outputs match {by}")
    moved = {**got, "digests": {**got["digests"], "on/model.ckpt": "0" * 64}}
    problems = golden.compare(moved, want)
    assert problems == ["on/model.ckpt: SHA-256 moved"]
    assert golden.verdict(moved, want, problems) == f"golden: 1 problems {by}"
