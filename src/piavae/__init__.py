"""Masked VAE collaborative filtering with personalized item alignment,
plus a numerical lab that verifies the masking/latent-geometry theory."""

__version__ = "0.1.0"

from .corpus import (InteractionMatrix, SplitDataset, SynthSpec,
                     ingest_events, split_dataset, synth_block_dataset)
from .evaluate import MetricReport, ndcg_at_k, recall_at_k, stratified_report
from .model import ModelParams, TrainConfig, encode, fit, predict_scores
from .numerics import (AdamState, GaussianPosterior, adam_step,
                       finite_diff_check, kl_diag_gaussian,
                       multinomial_loglik, reparameterize)
from .pia import (AnchorTable, LambdaSchedule, PiaConfig, alignment_closed_form,
                  alignment_mc_standard_error, anchor_centroid,
                  schedule_update)

__all__ = [
    "__version__",
    "InteractionMatrix", "SplitDataset", "SynthSpec",
    "ingest_events", "split_dataset", "synth_block_dataset",
    "MetricReport", "ndcg_at_k", "recall_at_k", "stratified_report",
    "ModelParams", "TrainConfig", "encode", "fit", "predict_scores",
    "AdamState", "GaussianPosterior", "adam_step", "finite_diff_check",
    "kl_diag_gaussian", "multinomial_loglik", "reparameterize",
    "AnchorTable", "LambdaSchedule", "PiaConfig", "alignment_closed_form",
    "alignment_mc_standard_error", "anchor_centroid", "schedule_update",
]
