"""Seeded outputs of every CLI command, for the same-bits gate.

Runs preprocess, synth, train --pia on/off, evaluate on val and test,
export and every geometry suite at seeds 0 and 1 (thm3, which takes no
seed, at 0 only) through `cli.dispatch`, with paths relative to a
temporary directory (manifests record paths as given), and prints a
record: the environment key, each output's SHA-256 (a manifest's without
`versions`) and every number of the metrics, train logs and geometry
reports. `--write` stores it as tests/golden.json and `--check` compares
it with that file and says whether it compared digests or numbers.
piavae pins OpenBLAS to one thread, so OPENBLAS_NUM_THREADS does not
move the digests.
"""

import contextlib
import hashlib
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from piavae import cli, numerics
from piavae.suites import SUITE_NAMES, takes_seed

GOLDEN = Path(__file__).with_name("golden.json")
REL_TOL, ABS_TOL = 1e-6, 1e-9  # for numbers, where the keys differ


def env_key() -> dict:
    """Library versions and the OpenBLAS kernel in use, as
    numerics.blas_core() names it for the manifests."""
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "openblas": numerics.blas_core()}


def commands():
    """Write the inputs into the current directory, then yield each run."""
    rng = np.random.default_rng(0)
    Path("ratings.csv").write_text("user,item,rating\n" + "".join(
        f"u{u},i{i},{rng.integers(1, 6)}\n"
        for u in range(40) for i in rng.choice(20, size=8, replace=False)))
    Path("spec.cfg").write_text(
        "cohort_sizes = 25,25\ncohort_support_sizes = 5,14\nn_items = 30\n"
        "noise_rate = 0.05\nn_val_users = 6\nn_test_users = 6\n")
    Path("train.cfg").write_text(
        "batch_size = 16\nepochs = 3\nlr = 0.01\nhidden_dim = 12\nlatent_dim = 5\n")
    yield "preprocess --input ratings.csv --val 4 --test 4 --threshold 3 --out prep"
    yield "synth --spec spec.cfg --out data"
    for pia in ("on", "off"):
        yield f"train --data data --config train.cfg --pia {pia} --out {pia}"
        for part in ("val", "test"):
            yield (f"evaluate --model {pia}/model.ckpt --data data --part {part}"
                   f" --out {pia}/{part}")
        yield f"export --model {pia}/model.ckpt --data data --out {pia}/latents.csv"
    for suite in SUITE_NAMES:
        for seed in (0, 1) if takes_seed(suite) else (0,):
            yield f"geometry --suite {suite} --seed {seed} --out geometry{seed}"


def record() -> dict:
    """Number lists are keyed by digest, so identical files share one."""
    digests, values, home = {}, {}, os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for argv in commands():
                # The record goes to stdout; the commands' summaries do not.
                with contextlib.redirect_stdout(sys.stderr):
                    if cli.dispatch(argv.split()) != 0:
                        sys.exit(f"golden: `{argv}` failed")
            for path in sorted(p for p in Path().rglob("*") if p.is_file()):
                data = path.read_bytes()
                if path.name.endswith("manifest.json"):
                    manifest = json.loads(data)
                    del manifest["versions"]
                    data = json.dumps(manifest, sort_keys=True).encode()
                digest = digests[str(path)] = hashlib.sha256(data).hexdigest()
                if path.suffix == ".jsonl" or path.name == "metrics.json":
                    found = []  # every number, in document order
                    for doc in data.splitlines() if path.suffix == ".jsonl" else [data]:
                        json.loads(doc, parse_int=found.append,
                                   parse_float=found.append,
                                   parse_constant=found.append)
                    values[digest] = [float(f"{float(x):.9g}") for x in found]
        finally:
            os.chdir(home)
    return {"key": env_key(), "digests": digests, "numbers": values}


def close(got: dict, want: dict) -> list[str]:
    """Outputs whose numbers differ from the golden ones beyond tolerance."""
    def same(a, b):
        return len(a) == len(b) and all(math.isclose(
            x, y, rel_tol=REL_TOL, abs_tol=ABS_TOL) for x, y in zip(a, b))
    return [f"{path}: numbers differ beyond rel_tol {REL_TOL}"
            for path, digest in want["digests"].items() if digest in want["numbers"]
            and not same(got["numbers"][got["digests"][path]], want["numbers"][digest])]


def comparison(got: dict, want: dict) -> str:
    """Which comparison `compare` runs, named with this key's OpenBLAS
    string, for the --check line."""
    core = got["key"]["openblas"]
    if got["key"] == want["key"]:
        return f"SHA-256 digests (key matches, {core})"
    return (f"numbers within rel_tol {REL_TOL}, abs_tol {ABS_TOL} "
            f"(key not recorded, {core})")


def verdict(got: dict, want: dict, problems: list[str]) -> str:
    """--check's last line: the outputs matched or the problems found,
    and by which comparison."""
    result = (f"{len(problems)} problems" if problems
              else f"{len(got['digests'])} outputs match")
    return f"golden: {result} by {comparison(got, want)}"


def compare(got: dict, want: dict) -> list[str]:
    """Every digest where the environment keys match, else every number."""
    if got["digests"].keys() != want["digests"].keys():
        return [f"outputs differ: {sorted(got['digests'].keys() ^ want['digests'].keys())}"]
    if got["key"] != want["key"]:
        return close(got, want)
    return [f"{path}: SHA-256 moved" for path, digest in want["digests"].items()
            if got["digests"][path] != digest]


if __name__ == "__main__":
    got = record()
    if sys.argv[1:] == ["--write"]:  # one line per digest and per number list
        GOLDEN.write_text("{" + ",\n".join(f"{json.dumps(k)}: {{\n" + ",\n".join(
            f" {json.dumps(n)}: {json.dumps(v)}" for n, v in sorted(got[k].items()))
            + "}" for k in ("key", "digests", "numbers")) + "}\n")
    elif sys.argv[1:] == ["--check"]:
        want = json.loads(GOLDEN.read_text())
        problems = compare(got, want)
        print("\n".join(problems + [
            f"{verdict(got, want, problems)}, "
            f"piavae from {Path(cli.__file__).parent}"]))
        sys.exit(1 if problems else 0)
    else:
        json.dump(got, sys.stdout)
