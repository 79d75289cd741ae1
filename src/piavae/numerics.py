"""Distribution math, the Adam optimizer, and a finite-difference gradient checker.

Everything here operates on 64-bit numpy arrays and is deterministic:
identical inputs give bit-identical outputs. Every function is pure
except adam_step, which updates the parameters and both moment vectors
in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ShapeError

LOGVAR_MIN = -20.0
LOGVAR_MAX = 20.0
# Entries per block of an in-place Adam update: a block's slices of the
# four vectors and its two temporaries (6 x 256 KiB) stay in a 2 MiB L2.
ADAM_BLOCK = 1 << 15
# Adam's moment decays and denominator guard (Kingma & Ba, arXiv:1412.6980).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Central-difference step of finite_diff_check.
FD_STEP = 1e-5


@dataclass(frozen=True)
class GaussianPosterior:
    """Diagonal Gaussian given by its mean and log-variance vectors; a
    batch of posteriors holds one row per posterior.

    Log-variances are clipped into [LOGVAR_MIN, LOGVAR_MAX] so exp() can
    never overflow, except -inf entries: they denote an exactly degenerate
    (zero-variance) component, which several closed-form checks rely on.
    """

    mean: np.ndarray
    logvar: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        logvar = np.asarray(self.logvar, dtype=np.float64)
        logvar = np.where(np.isneginf(logvar), logvar,
                          np.clip(logvar, LOGVAR_MIN, LOGVAR_MAX))
        if mean.shape != logvar.shape:
            raise ShapeError(f"mean {mean.shape} vs logvar {logvar.shape}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "logvar", logvar)

    @property
    def dim(self) -> int:
        return self.mean.shape[-1]

    @property
    def std(self) -> np.ndarray:
        return np.exp(0.5 * self.logvar)

    @property
    def var(self) -> np.ndarray:
        return np.exp(self.logvar)


def kl_diag_gaussian(q: GaussianPosterior,
                     prior_var: float = 1.0) -> float | np.ndarray:
    """KL(q || N(0, C I)) for C = prior_var: 1/2 sum((mu^2 + sigma^2) / C
    - 1 - (log sigma^2 - log C)); one value per row when q holds a batch
    of posteriors. At C = 1 the division and log C are exact no-ops."""
    if prior_var <= 0:
        raise ValueError("prior_var must be positive")
    kl = 0.5 * np.sum((q.mean**2 + q.var) / prior_var - 1.0
                      - (q.logvar - np.log(prior_var)), axis=-1)
    return float(kl) if kl.ndim == 0 else kl


@dataclass
class AdamState:
    """Adam moments matched to a flat parameter vector, and the step size."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0
    lr: float = 1e-3

    @classmethod
    def init(cls, n_params: int, lr: float = 1e-3) -> "AdamState":
        """Zero moments."""
        return cls(first_moment=np.zeros(n_params, dtype=np.float64),
                   second_moment=np.zeros(n_params, dtype=np.float64), lr=lr)


def adam_step(state: AdamState, params: np.ndarray,
              grads: np.ndarray) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update of params and both moments, in place.

    Every entry is updated, including those with a zero gradient (dense
    Adam). The arithmetic is that of the textbook expression
    `params - lr * m_hat / (sqrt(v_hat) + eps)`, operation for operation,
    so the result is bit-identical to it; it runs ADAM_BLOCK entries at a
    time so the temporaries stay in cache. Returns params and state, both
    updated.
    """
    if not (isinstance(params, np.ndarray) and params.dtype == np.float64):
        raise TypeError("params must be a float64 array, updated in place")
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape or params.shape != state.first_moment.shape:
        raise ShapeError(
            f"params {params.shape}, grads {grads.shape}, "
            f"moments {state.first_moment.shape}"
        )
    t = state.step_count + 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    m_scale, v_scale = 1.0 - b1**t, 1.0 - b2**t
    buf = np.empty(min(ADAM_BLOCK, params.size))
    den = np.empty_like(buf)
    for start in range(0, params.size, ADAM_BLOCK):
        stop = min(start + ADAM_BLOCK, params.size)
        g = grads[start:stop]
        m = state.first_moment[start:stop]
        v = state.second_moment[start:stop]
        tmp, d = buf[:stop - start], den[:stop - start]
        # m = b1 * m + (1 - b1) * g
        m *= b1
        np.multiply(1.0 - b1, g, out=tmp)
        m += tmp
        # v = b2 * v + (1 - b2) * g**2
        v *= b2
        np.square(g, out=tmp)
        tmp *= 1.0 - b2
        v += tmp
        # params -= lr * (m / m_scale) / (sqrt(v / v_scale) + eps)
        np.divide(v, v_scale, out=d)
        np.sqrt(d, out=d)
        d += ADAM_EPS
        np.divide(m, m_scale, out=tmp)
        tmp *= state.lr
        tmp /= d
        params[start:stop] -= tmp
    state.step_count = t
    return params, state


def finite_diff_check(loss_fn, params: np.ndarray,
                      analytic_grads: np.ndarray) -> float:
    """Max relative error between analytic_grads and central differences.

    Per coordinate j, with h = FD_STEP: fd_j = (f(p + h e_j) - f(p - h e_j))
    / (2h) and the error is |fd_j - g_j| / max(1, |fd_j|, |g_j|).
    """
    h = FD_STEP
    params = np.asarray(params, dtype=np.float64)
    analytic_grads = np.asarray(analytic_grads, dtype=np.float64)
    if params.shape != analytic_grads.shape:
        raise ShapeError(f"params {params.shape} vs grads {analytic_grads.shape}")
    worst = 0.0
    probe = params.copy()
    for j in range(params.size):
        orig = probe[j]
        probe[j] = orig + h
        up = float(loss_fn(probe))
        probe[j] = orig - h
        down = float(loss_fn(probe))
        probe[j] = orig
        if not (np.isfinite(up) and np.isfinite(down)):
            raise NumericalError(f"non-finite loss while probing coordinate {j}")
        fd = (up - down) / (2.0 * h)
        g = analytic_grads[j]
        err = abs(fd - g) / max(1.0, abs(fd), abs(g))
        worst = max(worst, err)
    return worst
