"""Self-tests of the benchmark, on tiny versions of its workloads.

Run with the repository's tests: PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
# Large enough that three epochs learn: the loss falls and val_ndcg100
# rises every epoch, and it clears the bar, as the training checks require.
TINY_DATA = wl.DataSpec(n_users=600, n_items=200, median_len=40.0, len_sigma=0.3,
                        zipf_a=0.8, negative_share=0.1, n_val=50, n_test=20)
TINY = {
    "train-ref": replace(wl.WORKLOADS["train-ref"], data=TINY_DATA, hidden=32,
                         latent=8, batch_size=32, epochs=3),
    "eval-ref": replace(wl.WORKLOADS["eval-ref"], data=TINY_DATA, hidden=16,
                        latent=8),
    "train-dense": replace(wl.WORKLOADS["train-dense"], data=TINY_DATA, hidden=32,
                           latent=8, batch_size=32, epochs=3),
    "geometry": replace(wl.WORKLOADS["geometry"], suite_names=("prop2", "probe")),
}
COMMON = {"setup_s": "s", "peak_rss_mb": "MiB", "fail_share": "ratio"}
NAMED = {
    "train": {**COMMON, "train_users_per_s": "users/s", "train_loss": "nats/user",
              "val_ndcg100": "ratio"},
    "eval": {**COMMON, "eval_users_per_s": "users/s"},
    "geometry": {**COMMON, "geometry_checks_per_s": "checks/s"},
}


def tiny_run(name, trace, workdir, seed=3):
    workdir.mkdir(parents=True, exist_ok=True)
    run = wl.Run(TINY[name], seed, 0.0, workdir)
    metrics = run.trace()[0] if trace else run.measure()
    return run, metrics


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS)
    assert set(TINY) == set(wl.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    run, metrics = tiny_run(name, trace, tmp_path)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: unit for k, (_, unit) in metrics.items()}
    assert all(math.isfinite(value) for value, _ in metrics.values())
    if not trace:
        assert all(value > 0 for value, _ in metrics.values())
        assert {k: unit for k, (_, unit) in run.named.items()} == NAMED[TINY[name].kind]
    assert not run.mismatch and run.failures == [] and run.attempted >= 1


@pytest.mark.parametrize("name", ["train-ref", "train-dense"])
def test_tracing_changes_no_result_and_counts_repeat(name, tmp_path):
    plain, _ = tiny_run(name, 0, tmp_path / "plain")
    traced, first = tiny_run(name, 1, tmp_path / "traced")
    _, second = tiny_run(name, 1, tmp_path / "again")
    for key in ("train_loss", "val_ndcg100"):
        assert traced.summary[key] == plain.summary[key]
    counts = {k: v for k, (v, unit) in first.items() if unit in ("count", "B", "flop")}
    assert counts == {k: second[k][0] for k in counts}
    assert counts["model.fit.calls"] == 1 and counts["numerics.adam_step.calls"] > 0


def test_csv_depends_on_the_seed_only(tmp_path):
    paths = [tmp_path / f"{n}.csv" for n in range(3)]
    for path, seed in zip(paths, (1, 1, 2)):
        wl.write_ratings_csv(path, TINY_DATA, seed)
    first, same, other = (p.read_bytes() for p in paths)
    assert first == same and first != other


@pytest.mark.parametrize("losses, ndcgs, bar, failed", [
    ([3.0, 2.0, 1.0], [0.1, 0.2, 0.3], 0.25, False),
    ([3.0, 2.0, 2.5], [0.1, 0.2, 0.3], 0.25, True),
    ([3.0, 2.0, 1.0], [0.1, 0.3, 0.2], 0.25, True),
    ([3.0, 2.0, 1.0], [0.1, 0.2, 0.3], 0.35, True),
])
def test_a_fit_that_did_not_learn_fails(losses, ndcgs, bar, failed):
    log = [{"epoch": e, "loss": x, "val_ndcg100": n}
           for e, (x, n) in enumerate(zip(losses, ndcgs), 1)]
    assert (wl.learning_failure(log, bar) is not None) == failed


def test_tracer_patches_every_binding_restores_it_and_skips_absent_names():
    original = wl.model.fit
    tracer = wl.Tracer()
    with tracer.installed({"model.fit": "piavae.model:fit",
                           "model.gone": "piavae.model:no_such_function"}):
        assert wl.suites.fit is wl.model.fit is not original
    assert wl.suites.fit is wl.model.fit is original
    assert tracer.absent == ["model.gone"]


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "geometry",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_the_same_arguments_do_the_same_work(tmp_path):
    assert [wl.WORKLOADS["geometry"].units(s) for s in (0, 1, 20)] == [1, 1, 6]
    tiny = replace(TINY["geometry"], unit_seconds=1.0)
    runs = [wl.Run(tiny, 3, 2.0, tmp_path) for _ in range(2)]
    for run in runs:
        run.repeat_units()
    assert runs[0].attempted == runs[1].attempted == 2 * 104
    assert runs[0].failures == runs[1].failures
