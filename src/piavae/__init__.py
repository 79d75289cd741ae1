"""Masked VAE collaborative filtering with personalized item alignment,
plus a numerical lab that verifies the masking/latent-geometry theory."""

__version__ = "0.2.0"

from .corpus import (InteractionMatrix, SplitDataset, SynthSpec,
                     ingest_events, split_dataset, synth_block_dataset)
from .evaluate import stratified_report
from .model import ModelParams, TrainConfig, fit
from .numerics import GaussianPosterior, kl_diag_gaussian
from .pia import PiaConfig, alignment_closed_form, alignment_mc_standard_error

__all__ = [
    "__version__",
    "InteractionMatrix", "SplitDataset", "SynthSpec",
    "ingest_events", "split_dataset", "synth_block_dataset",
    "stratified_report",
    "ModelParams", "TrainConfig", "fit",
    "GaussianPosterior", "kl_diag_gaussian",
    "PiaConfig", "alignment_closed_form", "alignment_mc_standard_error",
]
