import json
from dataclasses import replace

import numpy as np
import pytest

from piavae.cli import dispatch
from piavae.corpus import (SynthSpec, matrix_from_rows, save_split,
                           split_dataset, synth_block_dataset)
from piavae.model import save_checkpoint
from piavae.suites import SUITE_NAMES
from tests.test_model import tiny_params


RUN_SPEC = SynthSpec(cohort_sizes=(20, 20), cohort_support_sizes=(4, 12),
                     n_items=24, noise_rate=0.05, seed=0)


@pytest.fixture
def run_dir(tmp_path):
    save_split(split_dataset(synth_block_dataset(RUN_SPEC), 6, 6, 0.8, seed=0),
               tmp_path / "data")
    save_checkpoint(tiny_params(seed=30, n_items=24, normalize=True,
                                with_anchors=True), tmp_path / "model.ckpt")
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

    @pytest.mark.parametrize("damage", ["magic", "trailing-section"])
    def test_malformed_checkpoint_exits_2(self, run_dir, damage, capsys):
        path = run_dir / "model.ckpt"
        if damage == "magic":
            path.write_bytes(b"XXXX" + path.read_bytes()[4:])
        else:
            # Without anchors, anything after dec_b must be an anchor section.
            save_checkpoint(tiny_params(seed=30, n_items=24), path)
            path.write_bytes(path.read_bytes() + b"JUNK")
        assert _evaluate(run_dir) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert ("magic" if damage == "magic" else "trailing section") in err
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

    @pytest.mark.parametrize("flag, value", [("--k", "0"), ("--strata", "5")])
    def test_bad_evaluate_arguments_exit_1(self, run_dir, flag, value, capsys):
        argv = ["evaluate", "--model", str(run_dir / "model.ckpt"),
                "--data", str(run_dir / "data"), "--out", str(run_dir / "eval"),
                flag, value]
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert flag in err and len(err.strip().splitlines()) == 1


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
input_normalize = off
hidden_dim = 12
latent_dim = 5
lambda_a = 2
lambda_scale = 3
patience = 2
"""

DEFAULT_TRAIN_CONFIG = {
    "batch_size": 500, "beta": 0.2, "epochs": 1,
    "hidden_dim": 600, "input_normalize": True, "keep_prob": 0.5,
    "lambda_a": 8.0, "lambda_scale": 2.0, "latent_dim": 200, "lr": 0.001,
    "patience": 5, "seed": 0}

CUSTOM_TRAIN_CONFIG = {
    "batch_size": 8, "beta": 0.3, "epochs": 2,
    "hidden_dim": 12, "input_normalize": False, "keep_prob": 0.6,
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
        ("on", "4af815d0af2d191e4deffbc2ad205d42f4ee7bdabee5548983d6d36ee1462bf4"),
        ("off", "f81d4ab4f9dbb68d6d13db38640d41a4bbb13d3e3eed072218da67665531049e")],
        ids=["on", "off"])
    def test_default_config(self, run_dir, pia, sha):
        code, out = _train(run_dir, pia, "--epochs", "1")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"] == {**DEFAULT_TRAIN_CONFIG, "pia": pia}
        assert manifest["config_sha256"] == sha

    @pytest.mark.parametrize("pia, sha", [
        ("on", "086fe4d6e141239ca2f86aae108e19ec94c0376838b94d7a1b56f238232aee20"),
        ("off", "30b5aa2f9a6c9d034da55659b77331dcf696f986120beda5f2ac9d39237243d8")],
        ids=["on", "off"])
    def test_custom_config(self, run_dir, pia, sha):
        (run_dir / "train.cfg").write_text(CUSTOM_CONFIG)
        code, out = _train(run_dir, pia, "--config", str(run_dir / "train.cfg"))
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"] == {**CUSTOM_TRAIN_CONFIG, "pia": pia}
        assert manifest["config_sha256"] == sha


class TestTrainUsageErrors:
    # Every bound is written so that NaN fails it too.
    @pytest.mark.parametrize("pia, setting", [
        ("off", b"beta = -1"), ("on", b"lambda_a = 0"), ("off", b"seed = -1"),
        ("off", b"beta = 0.\xb2"), ("off", b"beta = nan"), ("off", b"beta = inf"),
        ("off", b"lr = 0"), ("off", b"lr = -0.001"), ("off", b"lr = nan"),
        ("off", b"lr = inf"), ("on", b"lambda_a = nan"), ("on", b"lambda_a = inf"),
        ("on", b"lambda_scale = 1"), ("on", b"lambda_scale = nan"),
        ("on", b"lambda_scale = inf")])
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
        ("input_normalize = maybe\n",
         "bad.cfg: bad value for input_normalize: 'maybe'")])
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

    # At lr 1e300 the first Adam step wrecks the weights, so the second
    # batch's forward pass overflows; numpy warns on the way.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
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
                                       ["--bogus"], ["--seed", "-1"]])
    def test_usage_error_exits_1(self, tmp_path, extra, capsys):
        events = _write_events(tmp_path / "e.csv")
        assert _preprocess(tmp_path, events, *extra) == 1
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

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

    def test_missing_input_exits_2(self, tmp_path):
        assert _preprocess(tmp_path, tmp_path / "absent.csv") == 2
        assert not (tmp_path / "split").exists()


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
                                      SYNTH_SPEC.replace("= 20,20", "= 20,x")])
    def test_usage_error_exits_1(self, tmp_path, spec, capsys):
        assert self._synth(tmp_path, spec) == 1
        assert "spec.cfg" in capsys.readouterr().err
        assert not (tmp_path / "split").exists()

    @pytest.mark.parametrize("spec", [
        SYNTH_SPEC.replace("4,12", "12,4"),          # supports not nested
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
    # Every shipped suite runs here and every report must pass. eq4's
    # kl-direction-in-beta check trains with `fit`; it passes at seed 0
    # since the mask is drawn on the nonzeros only, in training and in the
    # KL it measures (medians 0.598, 0.547, 0.414 at beta 0, 0.2, 1; with
    # a dense mask in training, 0.482, 0.562, 0.387 failed). The random
    # draws moved, not the protocol: see ROADMAP.md item 1. The report
    # counts are pinned so that no check is dropped unnoticed.
    CHECKS = {"thm3": 3070, "t1": 401, "eq3": 23, "prop1": 101, "prop2": 102,
              "eq4": 21, "probe": 2}

    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_suite_exit_code_and_failures(self, tmp_path, suite):
        code = dispatch(["geometry", "--suite", suite, "--seed", "0",
                         "--out", str(tmp_path)])
        lines = (tmp_path / f"{suite}.jsonl").read_text().splitlines()
        failed = [r["name"] for r in map(json.loads, lines) if not r["pass"]]
        assert (code, failed, len(lines)) == (0, [], self.CHECKS[suite])
