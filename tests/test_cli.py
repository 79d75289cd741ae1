import csv
import errno
import json
import math
import os
import platform
import re
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy

import piavae
from piavae import events, numerics, suites
from piavae.cli import SPLIT_OUTPUTS, dispatch
from piavae.corpus import (SynthSpec, matrix_from_rows, save_split,
                           split_dataset, synth_block_dataset)
from piavae.model import save_checkpoint
from piavae.suites import SUITE_NAMES, run_suite, takes_seed
from tests import golden
from tests.test_model import faulty_temporary_file, no_space, tiny_params


RUN_SPEC = SynthSpec(cohort_sizes=(20, 20), cohort_support_sizes=(4, 12),
                     n_items=24, noise_rate=0.05, seed=0)


@pytest.fixture
def run_dir(tmp_path):
    save_split(split_dataset(synth_block_dataset(RUN_SPEC), 6, 6, 0.8, seed=0),
               tmp_path / "data")
    save_checkpoint(tiny_params(seed=30, n_items=24, with_anchors=True),
                    tmp_path / "model.ckpt")
    return tmp_path


def _evaluate(run_dir):
    return dispatch(["evaluate", "--model", str(run_dir / "model.ckpt"),
                     "--data", str(run_dir / "data"), "--k", "5,10",
                     "--out", str(run_dir / "eval")])


def _truncate(path, cut):
    path.write_bytes(path.read_bytes()[:cut])


class TestEvaluateExitCodes:
    def test_intact_files_exit_0(self, run_dir):
        assert _evaluate(run_dir) == 0
        assert (run_dir / "eval" / "metrics.json").exists()
        # The manifest digests everything the metrics were computed from.
        manifest = json.loads((run_dir / "eval" / "manifest.json").read_text())
        assert sorted(manifest["inputs"]) == sorted(
            str(path) for path in (run_dir / "model.ckpt",
                                   run_dir / "data" / "test_fold.csr",
                                   run_dir / "data" / "test_hold.csr"))

    # Header fields after the magic: n_items, hidden, latent, flags (u8).
    HEADER_DAMAGE = {"zero-items": (4, 0), "zero-hidden": (12, 0),
                     "zero-latent": (20, 0), "unknown-flags": (28, 6),
                     "zero-flags": (28, 0)}

    @pytest.mark.parametrize("damage", [
        "magic", "trailing-section", "old-magic", *HEADER_DAMAGE,
        "nan-enc_w1", "inf-anchors"])
    def test_malformed_checkpoint_exits_2(self, run_dir, damage, capsys):
        path = run_dir / "model.ckpt"
        blob = bytearray(path.read_bytes())
        if damage in ("magic", "old-magic"):
            # PIAM files hold enc_w1 row-major; read as they are, it would
            # come back transposed.
            blob[:4] = b"XXXX" if damage == "magic" else b"PIAM"
        elif damage == "trailing-section":
            # Without anchors, anything after dec_b must be an anchor section.
            save_checkpoint(tiny_params(seed=30, n_items=24), path)
            blob = bytearray(path.read_bytes() + b"JUNK")
        elif damage == "nan-enc_w1":
            blob[44:52] = struct.pack("<d", math.nan)  # its second entry
        elif damage == "inf-anchors":
            blob[-8:] = struct.pack("<d", math.inf)  # the last anchor entry
        else:
            at, value = self.HEADER_DAMAGE[damage]
            blob[at:at + 8] = value.to_bytes(8, "little")
        path.write_bytes(bytes(blob))
        assert _evaluate(run_dir) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert {"magic": "magic", "old-magic": "magic",
                "trailing-section": "trailing section",
                "nan-enc_w1": "non-finite value in enc_w1",
                "inf-anchors": "non-finite value in anchors"}.get(
                    damage, "bad header") in err
        assert not (run_dir / "eval").exists()

    @pytest.mark.parametrize("cut", [20, 100, -3])
    def test_truncated_checkpoint_exits_2(self, run_dir, cut, capsys):
        _truncate(run_dir / "model.ckpt", cut)
        assert _evaluate(run_dir) == 2
        err = capsys.readouterr().err
        assert "model.ckpt" in err and "byte" in err
        assert not (run_dir / "eval").exists()

    @pytest.mark.parametrize("cut", [10, -4])
    def test_truncated_csr_exits_2(self, run_dir, cut, capsys):
        _truncate(run_dir / "data" / "test_hold.csr", cut)
        assert _evaluate(run_dir) == 2
        err = capsys.readouterr().err
        assert "test_hold.csr" in err and "byte" in err
        assert not (run_dir / "eval").exists()

    def test_invalid_csr_contents_exit_2(self, run_dir, capsys):
        # Lengths agree with the header, but the last item index is out of range.
        path = run_dir / "data" / "test_hold.csr"
        blob = bytearray(path.read_bytes())
        blob[-8:] = (999).to_bytes(8, "little")
        path.write_bytes(bytes(blob))
        assert _evaluate(run_dir) == 2
        err = capsys.readouterr().err
        assert "test_hold.csr" in err and "out of range" in err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("flag, value", [("--k", "0"), ("--k", "20,20,5"),
                                             ("--strata", "5")])
    def test_bad_evaluate_arguments_exit_1(self, run_dir, flag, value, capsys):
        argv = ["evaluate", "--model", str(run_dir / "model.ckpt"),
                "--data", str(run_dir / "data"), "--out", str(run_dir / "eval"),
                flag, value]
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert flag in err and len(err.strip().splitlines()) == 1
        assert not (run_dir / "eval").exists()

    @pytest.mark.parametrize("flag, value", [("--k", "20,,5"), ("--k", "20,"),
                                             ("--strata", "5,,10")])
    def test_empty_list_entry_exits_1_before_reading(self, tmp_path, flag,
                                                     value, capsys):
        # Neither the checkpoint nor the split exists, so a refusal made
        # after reading them would exit 2.
        argv = ["evaluate", "--model", str(tmp_path / "absent.ckpt"),
                "--data", str(tmp_path / "absent"),
                "--out", str(tmp_path / "eval"), flag, value]
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert f"argument {flag}: invalid int_list value: '{value}'" in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "eval").exists()

    # Offsets run from byte 28, after the magic and the three counts; the
    # 6 test users have 7 of them.
    @pytest.mark.parametrize("damage, message", [
        ("first", "indptr must start at 0 and end at nnz"),
        ("last", "indptr must start at 0 and end at nnz"),
        ("falls", "indptr must be non-decreasing")])
    def test_csr_offsets_out_of_order_exit_2(self, run_dir, damage, message,
                                             capsys):
        path = run_dir / "data" / "test_hold.csr"
        blob = bytearray(path.read_bytes())
        indptr = np.frombuffer(blob, "<u8", 7, 28).copy()
        if damage == "first":
            indptr[0] = 1
        elif damage == "last":
            indptr[-1] -= 1
        else:
            indptr[1] = indptr[-1]
        blob[28:28 + indptr.nbytes] = indptr.tobytes()
        path.write_bytes(bytes(blob))
        assert _evaluate(run_dir) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "test_hold.csr" in err
        assert message in err and len(err.strip().splitlines()) == 1
        assert not (run_dir / "eval").exists()

    def test_blank_idmap_lines_are_skipped(self, run_dir):
        assert _evaluate(run_dir) == 0
        metrics = (run_dir / "eval" / "metrics.csv").read_bytes()
        path = run_dir / "data" / "idmap.tsv"
        lines = path.read_text().splitlines(keepends=True)
        lines.insert(3, "\n")
        path.write_text("".join(lines) + "\n")
        assert _evaluate(run_dir) == 0
        assert (run_dir / "eval" / "metrics.csv").read_bytes() == metrics


class TestModelAndSplitMismatch:
    @pytest.mark.parametrize("command", ["evaluate", "export"])
    def test_item_count_mismatch_exits_2(self, run_dir, command, capsys):
        # A 20-item checkpoint on the 24-item split.
        save_checkpoint(tiny_params(seed=31, n_items=20), run_dir / "m20.ckpt")
        out = run_dir / f"{command}-out"
        assert dispatch([command, "--model", str(run_dir / "m20.ckpt"),
                         "--data", str(run_dir / "data"),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "20 items" in err and "24" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "export"])
    def test_part_without_users_exits_2(self, run_dir, command, capsys):
        save_split(split_dataset(synth_block_dataset(RUN_SPEC), 0, 6, 0.8,
                                 seed=0), run_dir / "no-val")
        out = run_dir / f"{command}-out"
        assert dispatch([command, "--model", str(run_dir / "model.ckpt"),
                         "--data", str(run_dir / "no-val"), "--part", "val",
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "no users" in err and "Traceback" not in err
        assert not out.exists()


CUSTOM_CONFIG = """\
beta = 0.3
keep_prob = 0.6
batch_size = 8
epochs = 2
lr = 0.01
seed = 3
hidden_dim = 12
latent_dim = 5
lambda_a = 2
lambda_scale = 3
patience = 2
"""

DEFAULT_TRAIN_CONFIG = {
    "batch_size": 500, "beta": 0.2, "epochs": 1,
    "hidden_dim": 600, "keep_prob": 0.5,
    "lambda_a": 8.0, "lambda_scale": 2.0, "latent_dim": 200, "lr": 0.001,
    "patience": 5, "seed": 0}

CUSTOM_TRAIN_CONFIG = {
    "batch_size": 8, "beta": 0.3, "epochs": 2,
    "hidden_dim": 12, "keep_prob": 0.6,
    "lambda_a": 2.0, "lambda_scale": 3.0, "latent_dim": 5, "lr": 0.01,
    "patience": 2, "seed": 3}


def _train(run_dir, pia, *extra):
    out = run_dir / f"train-{pia}"
    code = dispatch(["train", "--data", str(run_dir / "data"), "--pia", pia,
                     "--out", str(out), *extra])
    return code, out


class TestTrainManifest:
    # The resolved config and its hash, pinned so that where the defaults
    # are kept can change without changing what a run records. The ids
    # leave the hash out, so a changed pin keeps the test's name.
    @pytest.mark.parametrize("pia, sha", [
        ("on", "4766d98d94ae41aefd30e149a7dc93b6411793dab78ac9dd6c88f045406eca92"),
        ("off", "fc7f0ebb307d7c1d6f9af9956877b73ef8ffec8b2e3f85d4744f3dec51171fc5")],
        ids=["on", "off"])
    def test_default_config(self, run_dir, pia, sha):
        code, out = _train(run_dir, pia, "--epochs", "1")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"] == {**DEFAULT_TRAIN_CONFIG, "pia": pia}
        assert manifest["config_sha256"] == sha

    @pytest.mark.parametrize("pia, sha", [
        ("on", "5aa213eee914b8bbb9653590361c1497811ae02082a412eceaed02ab19b253cc"),
        ("off", "3cc665239c8d3e9051cfac9471fce9d1ff9aefdee6c5013b7a42e73ee2629513")],
        ids=["on", "off"])
    def test_custom_config(self, run_dir, pia, sha):
        (run_dir / "train.cfg").write_text(CUSTOM_CONFIG)
        code, out = _train(run_dir, pia, "--config", str(run_dir / "train.cfg"))
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"] == {**CUSTOM_TRAIN_CONFIG, "pia": pia}
        assert manifest["config_sha256"] == sha

    def test_versions_record_what_seeded_outputs_depend_on(self, run_dir,
                                                           monkeypatch):
        # The BLAS build, the thread settings asked for, the OpenBLAS
        # kernel and thread count in use (pinned to 1) and the split's
        # worker count are recorded beside the library versions; they stay
        # out of the config and its hash.
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        (run_dir / "train.cfg").write_text(CUSTOM_CONFIG)
        code, out = _train(run_dir, "off", "--config", str(run_dir / "train.cfg"))
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        versions = manifest["versions"]
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert versions == {
            "piavae": piavae.__version__, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": {"name": blas["name"], "version": blas["version"]},
            "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None,
            "cpu_count": os.cpu_count(), "blas_core": numerics.blas_core(),
            "blas_threads": 1, "split_workers": numerics.WORKERS}
        assert versions["blas_core"] in golden.env_key()["openblas"].split()
        assert manifest["config_sha256"] == (
            "3cc665239c8d3e9051cfac9471fce9d1ff9aefdee6c5013b7a42e73ee2629513")

    @pytest.mark.skipif(platform.machine() != "x86_64",
                        reason="OpenBLAS's x86_64 kernels")
    def test_versions_name_the_kernel_openblas_coretype_forces(self, tmp_path):
        # The variable, set on the child interpreter only, picks the kernel
        # of this DYNAMIC_ARCH build: Prescott loads Katmai.
        env = dict(os.environ, OPENBLAS_CORETYPE="Prescott",
                   PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        subprocess.run([sys.executable, "-m", "piavae.cli", "geometry",
                        "--suite", "probe", "--out", str(tmp_path)], env=env,
                       check=True, capture_output=True, timeout=120)
        manifest = json.loads((tmp_path / "probe.manifest.json").read_text())
        assert manifest["versions"]["blas_core"] == "Katmai"


def test_pyproject_version_is_the_package_version():
    # Manifests record piavae.__version__; it marks the checkpoint format.
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    if sys.version_info >= (3, 11):
        import tomllib
        version = tomllib.loads(text)["project"]["version"]
    else:
        version = re.search(r'^version = "([^"]+)"', text, re.M).group(1)
    assert version == piavae.__version__


class TestTrainUsageErrors:
    # Every bound is written so that NaN fails it too.
    @pytest.mark.parametrize("pia, setting", [
        ("off", b"beta = -1"), ("on", b"lambda_a = 0"), ("off", b"seed = -1"),
        ("off", b"beta = 0.\xb2"), ("off", b"beta = nan"), ("off", b"beta = inf"),
        ("off", b"lr = 0"), ("off", b"lr = -0.001"), ("off", b"lr = nan"),
        ("off", b"lr = inf"), ("on", b"lambda_a = nan"), ("on", b"lambda_a = inf"),
        ("on", b"lambda_scale = 1"), ("on", b"lambda_scale = nan"),
        ("on", b"lambda_scale = inf"), ("off", b"hidden_dim = 0"),
        ("off", b"latent_dim = 0"), ("off", b"hidden_dim = -3"),
        ("on", b"latent_dim = -3"), ("off", b"keep_prob = 0"),
        ("off", b"batch_size = 0"), ("on", b"epochs = 0"),
        # PiaConfig is built, and so checked, with --pia off too.
        ("off", b"lambda_a = nan"), ("off", b"lambda_a = -1"),
        ("off", b"patience = 0")])
    def test_invalid_config_exits_1(self, run_dir, pia, setting, capsys):
        (run_dir / "bad.cfg").write_bytes(setting + b"\n")
        code, out = _train(run_dir, pia, "--config", str(run_dir / "bad.cfg"))
        assert code == 1
        err = capsys.readouterr().err
        assert "bad.cfg" in err and len(err.strip().splitlines()) == 1
        assert not out.exists()


class TestTrainConfigFile:
    @pytest.mark.parametrize("text, message", [
        ("# lr = 1\ncolour = blue\n", "unknown config keys ['colour']"),
        ("beta 0.3\n", "bad.cfg:1: expected `key = value`"),
        ("= 0.3\n", "bad.cfg:1: empty key"),
        ("beta = 0.1\nbeta = 0.2\n", "bad.cfg:2: duplicate key 'beta'"),
        # Inputs are always L2-normalized; the old key is unknown.
        ("input_normalize = on\n", "unknown config keys ['input_normalize']")])
    def test_malformed_config_file_exits_1(self, run_dir, text, message,
                                           capsys):
        (run_dir / "bad.cfg").write_text(text)
        code, out = _train(run_dir, "off", "--config", str(run_dir / "bad.cfg"))
        assert code == 1
        err = capsys.readouterr().err
        assert message in err and len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_seed_flag_overrides_the_config(self, run_dir):
        (run_dir / "train.cfg").write_text(CUSTOM_CONFIG)
        code, out = _train(run_dir, "off", "--config",
                           str(run_dir / "train.cfg"), "--seed", "7")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == manifest["config"]["seed"] == 7


def test_no_subcommand_prints_usage_and_exits_1(capsys):
    assert dispatch([]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: piavae") and len(err.strip().splitlines()) == 1


class TestNegativeSeed:
    # np.random.default_rng rejects a negative seed, so the flag rejects
    # it first, as a usage error.
    @pytest.mark.parametrize("argv", [["train", "--data", "data"],
                                      ["geometry", "--suite", "t1"]])
    def test_seed_flag_exits_1(self, run_dir, argv, capsys):
        code = dispatch([*argv, "--seed", "-1", "--out", str(run_dir / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "--seed" in err and len(err.strip().splitlines()) == 1
        assert not (run_dir / "out").exists()


class TestEpochsFlag:
    # The flag is checked as the flag, so a refused value is blamed on it
    # and not on the config file or the defaults.
    @pytest.mark.parametrize("config", [None, "epochs = 2\n", "lr = 0.01\n"],
                             ids=["defaults", "config-sets-epochs",
                                  "config-without-epochs"])
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_refused_value_names_the_flag(self, run_dir, config, value,
                                          capsys):
        extra = []
        if config is not None:
            (run_dir / "e.cfg").write_text(config)
            extra = ["--config", str(run_dir / "e.cfg")]
        code, out = _train(run_dir, "off", *extra, "--epochs", value)
        assert code == 1
        err = capsys.readouterr().err
        assert "--epochs" in err and "e.cfg" not in err
        assert "<defaults>" not in err and len(err.strip().splitlines()) == 1
        assert not out.exists()


class TestTrainDataErrors:
    def test_no_validation_users_exits_2(self, tmp_path, capsys):
        # synth's default n_val_users is 0.
        (tmp_path / "spec.cfg").write_text(
            SYNTH_SPEC.replace("n_val_users = 6\n", ""))
        assert dispatch(["synth", "--spec", str(tmp_path / "spec.cfg"),
                         "--out", str(tmp_path / "data")]) == 0
        code, out = _train(tmp_path, "on", "--epochs", "1")
        assert code == 2
        err = capsys.readouterr().err
        assert "n_val_users >= 1" in err and "Traceback" not in err
        assert not out.exists()

    def test_no_training_users_exits_2(self, run_dir, capsys):
        split = split_dataset(synth_block_dataset(RUN_SPEC), 6, 6, 0.8, seed=0)
        save_split(replace(split, train=matrix_from_rows([], 24)),
                   run_dir / "data")
        code, out = _train(run_dir, "off", "--epochs", "1")
        assert code == 2
        err = capsys.readouterr().err
        assert "no training users" in err and "Traceback" not in err
        assert not out.exists()

    def test_full_disk_for_the_best_epoch_exits_2(self, run_dir, monkeypatch,
                                                  capsys):
        # fit writes its best epoch to a temporary file; a full disk there
        # is a data error, and no checkpoint is written.
        faulty_temporary_file(monkeypatch, write=no_space)
        code, out = _train(run_dir, "on", "--epochs", "2")
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert os.strerror(errno.ENOSPC) in err[0]
        assert not (out / "model.ckpt").exists()

    # At lr 1e300 the first Adam step wrecks the weights, so the second
    # batch's forward pass overflows. The run is under pytest's
    # error::RuntimeWarning, so an overflow warning would end it first.
    def test_numeric_abort_exits_2_after_writing_the_run(self, run_dir, capsys):
        (run_dir / "bad.cfg").write_text(
            "lr = 1e300\nhidden_dim = 8\nlatent_dim = 4\nbatch_size = 8\n")
        code, out = _train(run_dir, "off", "--config", str(run_dir / "bad.cfg"))
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1] == ("error: training aborted at epoch 1, batch 2, row 0: "
                           "non-finite loss at batch row 0")
        log = [json.loads(line) for line in
               (out / "train_log.jsonl").read_text().splitlines()]
        assert log[-1]["event"] == "aborted"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == ["model.ckpt", "train_log.jsonl"]

    @pytest.mark.parametrize("name, content", [
        ("seed.txt", b"zero\n"),
        ("seed.txt", b"\xff\n"),
        ("idmap.tsv", b"item\t0\t\xff\n")])
    def test_corrupt_split_file_exits_2(self, run_dir, name, content, capsys):
        (run_dir / "data" / name).write_bytes(content)
        assert _evaluate(run_dir) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1

    # Each idmap row has 3 fields, a known kind, and an index that is the
    # running count of its kind; a part with users but no idmap rows is an
    # id map that misses them.
    @pytest.mark.parametrize("damage", ["swap", "banana", "gap", "two-fields",
                                        "kind", "no-val"])
    def test_damaged_idmap_exits_2(self, run_dir, damage, capsys):
        path = run_dir / "data" / "idmap.tsv"
        lines = path.read_text().splitlines(keepends=True)
        first = next(k for k, line in enumerate(lines) if line.startswith("item\t"))
        want = f"line {first + 1}: {path}: "
        if damage == "swap":
            lines[first], lines[first + 1] = lines[first + 1], lines[first]
        elif damage == "banana":
            lines[first] = lines[first].replace("\t0\t", "\tbanana\t")
        elif damage == "gap":
            del lines[first + 1]
            want = f"line {first + 2}: {path}: "
        elif damage == "two-fields":
            lines[first] = "item\t0\n"
            want += "rows need 3 tab-separated fields"
        elif damage == "kind":
            lines[first] = lines[first].replace("item", "shop")
            want += "unknown kind 'shop'"
        else:
            lines = [line for line in lines if not line.startswith("user:val\t")]
            want = "id maps must cover every dense index"
        path.write_text("".join(lines))
        assert _evaluate(run_dir) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and want in err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1

    def test_idmap_error_names_the_line(self, run_dir, capsys):
        path = run_dir / "data" / "idmap.tsv"
        lines = path.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2].replace(b"\t", b"\t\xe9", 1)
        path.write_bytes(b"".join(lines))
        assert _evaluate(run_dir) == 2
        assert "line 3:" in capsys.readouterr().err


class TestExportManifest:
    def test_sidecar_manifest_leaves_train_manifest_alone(self, run_dir):
        (run_dir / "train.cfg").write_text(CUSTOM_CONFIG)
        code, out = _train(run_dir, "on", "--config", str(run_dir / "train.cfg"))
        assert code == 0
        train_manifest = (out / "manifest.json").read_bytes()
        csv = out / "latents.csv"
        assert dispatch(["export", "--model", str(out / "model.ckpt"),
                         "--data", str(run_dir / "data"), "--part", "val",
                         "--out", str(csv)]) == 0
        assert (out / "manifest.json").read_bytes() == train_manifest
        manifest = json.loads((out / "latents.csv.manifest.json").read_text())
        assert manifest["command"] == "export"
        assert manifest["config"] == {"part": "val"}
        assert sorted(manifest["inputs"]) == sorted(
            [str(out / "model.ckpt"), str(run_dir / "data" / "val_fold.csr")])
        assert manifest["outputs"] == ["latents.csv"]
        assert csv.exists()


def _write_events(path, n_users=30, n_items=12):
    rng = np.random.default_rng(0)
    lines = ["user,item,rating"]
    for u in range(n_users):
        for i in rng.choice(n_items, size=6, replace=False):
            lines.append(f"u{u},i{i},{rng.integers(3, 6)}")
    path.write_text("\n".join(lines) + "\n")
    return path


def _preprocess(tmp_path, events, *extra):
    return dispatch(["preprocess", "--input", str(events), "--val", "4",
                     "--test", "4", "--threshold", "3", "--min-item", "2",
                     "--out", str(tmp_path / "split"), *extra])


class TestPreprocessExitCodes:
    def test_success_exits_0(self, tmp_path):
        assert _preprocess(tmp_path, _write_events(tmp_path / "e.csv")) == 0
        assert (tmp_path / "split" / "manifest.json").exists()
        assert (tmp_path / "split" / "train.csr").exists()

    @pytest.mark.parametrize("extra", [["--val", "many"], ["--min-user", "-1"],
                                       ["--bogus"], ["--seed", "-1"],
                                       ["--val", "-1"], ["--test", "-1"],
                                       # 0.8 is a constant, not a flag.
                                       ["--fold-in", "0.8"],
                                       ["--threshold=-inf"], ["--threshold=inf"],
                                       ["--threshold=nan"], ["--threshold=1e999"]])
    def test_usage_error_exits_1(self, tmp_path, extra, capsys):
        events = _write_events(tmp_path / "e.csv")
        assert _preprocess(tmp_path, events, *extra) == 1
        err = capsys.readouterr().err
        assert extra[0].split("=")[0] in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "split").exists()

    @pytest.mark.parametrize("text", [b"user,item,rating\nu1,i1,good\n",
                                      b"user,item,rating\nu1,i1\n",
                                      b"user,item,rating\nu1,i1,5\n",
                                      b"user,item,rating\nu\xfc1,i1,5\n"])
    def test_bad_input_data_exits_2(self, tmp_path, text, capsys):
        (tmp_path / "e.csv").write_bytes(text)
        assert _preprocess(tmp_path, tmp_path / "e.csv") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not (tmp_path / "split").exists()

    @pytest.mark.parametrize("bad", ["\t", "\r", "\n"])
    def test_id_the_idmap_cannot_hold_exits_2(self, tmp_path, bad, capsys):
        # Every other line would ingest and split: without the check the
        # run exits 0 and leaves an idmap.tsv that load_split rejects.
        events = _write_events(tmp_path / "e.csv")
        text = events.read_text().replace("\nu0,", f'\n"u{bad}0",')
        events.write_text(text)
        assert _preprocess(tmp_path, events) == 2
        assert "tab or a line break" in capsys.readouterr().err
        assert not (tmp_path / "split").exists()

    def test_empty_input_exits_2(self, tmp_path, capsys):
        (tmp_path / "e.csv").write_bytes(b"")
        assert _preprocess(tmp_path, tmp_path / "e.csv") == 2
        assert capsys.readouterr().err == "error: line 1: missing header\n"
        assert not (tmp_path / "split").exists()

    def test_missing_input_exits_2(self, tmp_path):
        assert _preprocess(tmp_path, tmp_path / "absent.csv") == 2
        assert not (tmp_path / "split").exists()

    @pytest.mark.parametrize("in_header", [False, True])
    def test_field_over_the_csv_field_limit_exits_2(self, tmp_path, in_header,
                                                    capsys):
        events = _write_events(tmp_path / "e.csv")
        text = events.read_text()
        if in_header:
            line_no, text = 1, "u" * 140_000 + text
        else:
            line_no = len(text.splitlines()) + 1
            text += "u" * 140_000 + ",i1,5\n"
        events.write_text(text)
        assert _preprocess(tmp_path, events) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {line_no}: field larger than "
                              f"field limit ({csv.field_size_limit()})")
        assert "Traceback" not in err
        assert not (tmp_path / "split").exists()


class TestPreprocessOutputs:
    def test_lf_crlf_and_quoted_events_give_identical_splits(self, tmp_path):
        # The first two take the byte reader, the quoted file the csv loop.
        rows = [line.split(",") for line in
                _write_events(tmp_path / "e.csv").read_text().splitlines()]
        texts = {"lf": "\n".join(map(",".join, rows)) + "\n",
                 "crlf": "\r\n".join(map(",".join, rows)) + "\r\n",
                 "quoted": "".join(",".join(f'"{f}"' for f in row) + "\n"
                                   for row in rows)}
        outputs = {}
        for name, text in texts.items():
            path = tmp_path / name / "events.csv"
            path.parent.mkdir()
            path.write_bytes(text.encode())
            assert ((events._code_events_bytes(path, 3) is None)
                    == (name == "quoted"))
            assert _preprocess(path.parent, path) == 0
            outputs[name] = {f: (path.parent / "split" / f).read_bytes()
                             for f in SPLIT_OUTPUTS}
        assert outputs["lf"] == outputs["crlf"] == outputs["quoted"]


SYNTH_SPEC = """\
cohort_sizes = 20,20
cohort_support_sizes = 4,12
n_items = 24
noise_rate = 0.05
n_val_users = 6
n_test_users = 6
"""


class TestSynthExitCodes:
    def _synth(self, tmp_path, spec):
        (tmp_path / "spec.cfg").write_text(spec)
        return dispatch(["synth", "--spec", str(tmp_path / "spec.cfg"),
                         "--out", str(tmp_path / "split")])

    def test_success_exits_0(self, tmp_path):
        assert self._synth(tmp_path, SYNTH_SPEC) == 0
        assert (tmp_path / "split" / "manifest.json").exists()

    @pytest.mark.parametrize("spec", [SYNTH_SPEC + "colour = blue\n",
                                      SYNTH_SPEC.replace("n_items = 24\n", ""),
                                      SYNTH_SPEC.replace("= 24", "= many"),
                                      SYNTH_SPEC + "seed = -2\n",
                                      SYNTH_SPEC.replace("= 20,20", "= 20,x"),
                                      SYNTH_SPEC.replace("n_val_users = 6",
                                                         "n_val_users = -1"),
                                      SYNTH_SPEC.replace("n_test_users = 6",
                                                         "n_test_users = -1"),
                                      SYNTH_SPEC + "fold_in_fraction = 0.8\n",
                                      SYNTH_SPEC.replace("= 20,20", "= 20,,20"),
                                      SYNTH_SPEC.replace("= 20,20", "= 20,20,"),
                                      SYNTH_SPEC.replace("= 20,20", "="),
                                      # supports not increasing
                                      SYNTH_SPEC.replace("4,12", "12,4"),
                                      # cohorts misaligned
                                      SYNTH_SPEC.replace("= 20,20", "= 20,20,20"),
                                      SYNTH_SPEC.replace("= 20,20", "= 0,20"),
                                      SYNTH_SPEC.replace("= 4,12", "= 0,12"),
                                      SYNTH_SPEC.replace("= 0.05", "= 1"),
                                      SYNTH_SPEC.replace("= 0.05", "= nan"),
                                      # largest support over n_items
                                      SYNTH_SPEC.replace("n_items = 24",
                                                         "n_items = 10")])
    def test_usage_error_exits_1(self, tmp_path, spec, capsys):
        assert self._synth(tmp_path, spec) == 1
        assert "spec.cfg" in capsys.readouterr().err
        assert not (tmp_path / "split").exists()

    # What only the generated data can refute exits 2.
    @pytest.mark.parametrize("spec", [
        SYNTH_SPEC.replace("n_val_users = 6", "n_val_users = 60")])
    def test_bad_spec_data_exits_2(self, tmp_path, spec, capsys):
        assert self._synth(tmp_path, spec) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "split").exists()

    def test_missing_spec_exits_2(self, tmp_path):
        assert dispatch(["synth", "--spec", str(tmp_path / "absent.cfg"),
                         "--out", str(tmp_path / "split")]) == 2
        assert not (tmp_path / "split").exists()


class TestGeometryGate:
    # Every shipped suite runs here at two seeds (thm3, which takes none,
    # once) and every report must pass.
    # Each suite passed at every seed of 0-199; prop1's Monte-Carlo part
    # fails correct code at a seed with probability at most 1e-3
    # (suites.PROP1_ALPHA). eq4's kl-direction-in-beta check trains on seeds
    # 0-4 whatever --seed says, so its second seed repeats one draw (see
    # ROADMAP.md item 1); it passes since the mask is drawn on the nonzeros
    # only, in training and in the KL it measures (medians 0.598, 0.547,
    # 0.414 at beta 0, 0.2, 1; with a dense mask in training, 0.482, 0.562,
    # 0.387 failed). Seeds 5s..5s+4 would fail it at 16 of s = 0..199,
    # s = 1 among them (worst increase 0.045), so they stay fixed until
    # the gate is reworked. The report counts are pinned so that no check
    # is dropped unnoticed.
    CHECKS = {"thm3": 3070, "t1": 401, "eq3": 23, "prop1": 101, "prop2": 102,
              "eq4": 21, "probe": 2}

    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_suite_exit_code_and_failures(self, tmp_path, suite):
        for seed in ("0", "1") if takes_seed(suite) else ("0",):
            code = dispatch(["geometry", "--suite", suite, "--seed", seed,
                             "--out", str(tmp_path / seed)])
            lines = (tmp_path / seed / f"{suite}.jsonl").read_text().splitlines()
            failed = [r["name"] for r in map(json.loads, lines) if not r["pass"]]
            assert (seed, code, failed, len(lines)) == (seed, 0, [],
                                                        self.CHECKS[suite])

    def test_suites_sharing_an_out_keep_their_manifests(self, tmp_path):
        # Each suite's manifest sits next to its report, so a second suite
        # run into the same --out leaves the first one's in place.
        for suite in ("t1", "probe"):
            assert dispatch(["geometry", "--suite", suite,
                             "--out", str(tmp_path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "probe.jsonl", "probe.manifest.json", "t1.jsonl",
            "t1.manifest.json"]
        for suite in ("t1", "probe"):
            manifest = json.loads(
                (tmp_path / f"{suite}.manifest.json").read_text())
            assert manifest["outputs"] == [f"{suite}.jsonl"]
            assert manifest["config"] == {"suite": suite, "seed": 0}

    def test_thm3_reads_no_seed_and_records_none(self, tmp_path):
        want = [r.to_dict() for r in suites.suite_thm3()]
        assert [r.to_dict() for r in run_suite("thm3", seed=5)] == want
        assert dispatch(["geometry", "--suite", "thm3", "--seed", "5",
                         "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "thm3.manifest.json").read_text())
        assert manifest["seed"] is None
        assert manifest["config"] == {"suite": "thm3", "seed": None}
        assert [takes_seed(s) for s in SUITE_NAMES] == [
            s != "thm3" for s in SUITE_NAMES]


def test_every_manifest_is_strict_json(run_dir):
    # json.dumps writes NaN and +-Infinity, which strict JSON parsers refuse:
    # a non-finite value must be refused before any manifest is written.
    def refuse(constant):
        raise ValueError(f"{constant} in a manifest")

    (run_dir / "spec.cfg").write_text(SYNTH_SPEC)
    events = str(_write_events(run_dir / "e.csv"))
    assert _preprocess(run_dir, events) == 0
    assert dispatch(["synth", "--spec", str(run_dir / "spec.cfg"),
                     "--out", str(run_dir / "synth")]) == 0
    for pia in ("on", "off"):
        assert _train(run_dir, pia, "--epochs", "1")[0] == 0
    assert _evaluate(run_dir) == 0
    assert dispatch(["export", "--model", str(run_dir / "model.ckpt"), "--data",
                     str(run_dir / "data"), "--out", str(run_dir / "z.csv")]) == 0
    assert dispatch(["geometry", "--suite", "probe", "--out",
                     str(run_dir / "geometry")]) == 0
    # Each would overwrite a manifest above with a non-finite value.
    (run_dir / "nan.cfg").write_text("lambda_a = nan\n")
    _train(run_dir, "off", "--config", str(run_dir / "nan.cfg"), "--epochs", "1")
    _preprocess(run_dir, events, "--threshold=-inf")
    manifests = sorted(run_dir.rglob("*manifest.json"))
    assert [str(p.relative_to(run_dir)) for p in manifests] == [
        "eval/manifest.json", "geometry/probe.manifest.json",
        "split/manifest.json",
        "synth/manifest.json", "train-off/manifest.json",
        "train-on/manifest.json", "z.csv.manifest.json"]
    for path in manifests:
        json.loads(path.read_text(), parse_constant=refuse)
