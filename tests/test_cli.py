import numpy as np
import pytest

from piavae.cli import dispatch
from piavae.corpus import SynthSpec, save_split, split_dataset, synth_block_dataset
from piavae.model import save_checkpoint
from tests.test_model import tiny_params


@pytest.fixture
def run_dir(tmp_path):
    spec = SynthSpec(cohort_sizes=(20, 20), cohort_support_sizes=(4, 12),
                     n_items=24, noise_rate=0.05, seed=0)
    save_split(split_dataset(synth_block_dataset(spec), 6, 6, 0.8, seed=0),
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

    @pytest.mark.parametrize("cut", [20, 100, -3])
    def test_truncated_checkpoint_exits_2(self, run_dir, cut, capsys):
        _truncate(run_dir / "model.ckpt", cut)
        assert _evaluate(run_dir) == 2
        err = capsys.readouterr().err
        assert "model.ckpt" in err and "byte" in err

    @pytest.mark.parametrize("cut", [10, -4])
    def test_truncated_csr_exits_2(self, run_dir, cut, capsys):
        _truncate(run_dir / "data" / "test_hold.csr", cut)
        assert _evaluate(run_dir) == 2
        err = capsys.readouterr().err
        assert "test_hold.csr" in err and "byte" in err
