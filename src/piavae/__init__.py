"""Masked VAE collaborative filtering with personalized item alignment,
plus a numerical lab that verifies the masking/latent-geometry theory.

Each public name lives in one module and is imported from there
(`piavae.model.fit`, `piavae.evaluate.stratified_report`, ...)."""

__version__ = "0.2.0"
