"""Distribution math, the Adam optimizer, a finite-difference gradient
checker, and `split`, which spreads large work over WORKERS threads.

Everything here operates on 64-bit numpy arrays and is deterministic:
identical inputs give bit-identical outputs. Every function is pure
except adam_step, which updates the parameters and both moment vectors
in place. Split work keeps the bits: a dense product is cut over its
output columns only, never its reduction, into parts that are
multiples of SPLIT_ALIGN wide (the last at least that wide); a CSR
product, whose output rows each sum their own stored entries in order,
and an elementwise walk are cut between rows or blocks; independent
tasks run one per range; work under SPLIT_FLOOR stays here; outputs
are fresh per call; every range runs under the caller's np.errstate.
Importing this module pins OpenBLAS to one thread, so outputs do not
depend on OPENBLAS_NUM_THREADS; where that fails, nothing is split.

A split range should make a few long numpy calls, not many short ones:
two threads overlap only inside calls that release the GIL, and the
Python between calls runs one thread at a time. A loop of np.sqrt calls
over 2**23 entries in all, on a 2-core x86_64 machine, ran 1.02x faster
on two threads in calls of 128 entries, 0.56x in calls of 1,024 (slower),
1.24x in calls of 4,096, and 1.98x in calls of 32,768. So
`evaluate.per_user_metrics` ranks blocks of RANK_ROWS rows, each a few
calls over the whole block, where a row alone makes about ten short ones.
"""

from __future__ import annotations

import contextvars
import ctypes
import os
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NumericalError, ShapeError

LOGVAR_MIN = -20.0
LOGVAR_MAX = 20.0
# Entries per block of an in-place Adam update: a block's params, moments,
# gradient and two temporaries (6 x 256 KiB) stay in a 2 MiB L2.
ADAM_BLOCK = 1 << 15
# Adam's moment decays and denominator guard (Kingma & Ba, arXiv:1412.6980).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Central-difference step of finite_diff_check.
FD_STEP = 1e-5
# Ranges split runs at once: the caller's and WORKERS - 1 pool threads'.
WORKERS = 2
# split_matmul's column cuts fall at multiples of this, each part this
# wide at least: OpenBLAS tiles an output from where a call starts, and a
# part whose tiles do not line up with the one call's takes other bits
# from edge kernels. On OpenBLAS 0.3.31 (Sapphire Rapids) column cuts
# needed multiples of 8 and no part a few columns wide; multiples of 192
# kept the bits in all 140 random shapes swept, row and column cuts alike.
SPLIT_ALIGN = 192
# Multiply-adds of a large product that take as long as one entry of an
# elementwise walk: about 5 ns for decode_loss's passes, 16 ns for Adam's,
# 0.05 ns for a multiply-add.
ENTRY_WORK = 100
# Dense multiply-adds that take as long as one of a CSR product's, a
# stored entry times one column of a dense operand read from memory:
# x @ enc_w1.T with its bias and tanh ran about 1.1 ns each on one thread
# with a 96 MB enc_w1 (256 users of 20k items into hidden 600: 13.6 ms
# for 12.5M), against 0.05 ns dense.
SPARSE_WORK = 20
# Bytes of a dense operand that stay in cache, whose CSR product is not
# split: with a 3.2 MB enc_w1 (500 rows of 2,000 items into hidden 200)
# the product ran 0.66 ns each, and splitting it made perfbench
# train-dense 6% slower (2 wins in 10 fresh-process pairs). The bound
# lies between the 3.2 and 96 MB operands measured.
SPARSE_CACHED = 32 << 20
# Work under which split stays on the calling thread: a training step at
# 2,000 items, hidden 200, latent 64, batch 500 (work up to 1e8) took as
# long split as not; one at 5,000 items, hidden 300, latent 100 (2.5e8
# and up) 10-25% less. The geometry lab's tiny fits stay far below.
SPLIT_FLOOR = 2 * 10**8


def _openblas():
    """(set threads, get threads, get core name) of the OpenBLAS numpy's
    wheel bundles, or None where there is none."""
    for path in sorted((Path(np.__file__).parents[1] / "numpy.libs")
                       .glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for prefix in ("scipy_openblas", "openblas"):
            fns = [getattr(lib, f"{prefix}_{op}64_", None) for op in (
                "set_num_threads", "get_num_threads", "get_corename")]
            if None not in fns:
                fns[0].argtypes, fns[0].restype = [ctypes.c_int], None
                fns[1].argtypes, fns[1].restype = [], ctypes.c_int
                fns[2].argtypes, fns[2].restype = [], ctypes.c_char_p
                return fns
    return None


_BLAS = _openblas()
if _BLAS is not None:
    _BLAS[0](1)
_POOL, _POOL_LOCK = None, threading.Lock()
# A forked child has none of the pool's threads; it starts its own.
os.register_at_fork(after_in_child=lambda: globals().update(_POOL=None))


def blas_threads() -> int | None:
    """numpy's OpenBLAS thread count, or None where it is unknown."""
    return None if _BLAS is None else _BLAS[1]()


def blas_core() -> str | None:
    """numpy's OpenBLAS kernel in use, or None where it is unknown."""
    return None if _BLAS is None else _BLAS[2]().decode()


def split_workers() -> int:
    """Ranges split runs at once: 1 where OpenBLAS is not pinned."""
    return 1 if _BLAS is None else WORKERS


def _start_pool():
    """The split pool, whose thread first steps off this thread's core and
    then allows every core again. Linux wakes a thread where it last ran,
    and a new one often starts on its creator's core: left there, both
    ranges shared one core in every call of 7 fresh processes."""
    from concurrent.futures import ThreadPoolExecutor

    libc = ctypes.CDLL(None) if hasattr(os, "sched_setaffinity") else None
    core = libc.sched_getcpu() if hasattr(libc, "sched_getcpu") else -1

    def step_off():
        allowed = os.sched_getaffinity(0)
        if core >= 0 and allowed - {core}:
            os.sched_setaffinity(0, allowed - {core})
            os.sched_setaffinity(0, allowed)

    return ThreadPoolExecutor(WORKERS - 1, "piavae-split", step_off)


def split(fn, n: int, work: int, align: int = 1) -> None:
    """Run fn(lo, hi) over ranges tiling range(n), cut at multiples of
    align (rows, blocks and tasks cut anywhere), none narrower: the first
    range on this thread, the others on pool threads under this thread's
    np.errstate, which they do not inherit. work is a dense product's
    multiply-adds, a CSR product's x SPARSE_WORK (0 for an operand under
    SPARSE_CACHED bytes) or a walk's entries x ENTRY_WORK; under
    SPLIT_FLOOR fn(0, n) runs alone. fn must write disjoint outputs and
    not split. Re-raises a pool thread's exception."""
    global _POOL
    workers = split_workers() if work >= SPLIT_FLOOR else 1
    cuts = {align * round(k * n / (workers * align)) for k in range(1, workers)}
    bounds = [0, *sorted(c for c in cuts if align <= c <= n - align), n]
    if len(bounds) == 2:
        return fn(0, n)
    from concurrent.futures import wait

    with _POOL_LOCK:
        if _POOL is None:
            _POOL = _start_pool()
    futures = [_POOL.submit(contextvars.copy_context().run, fn, lo, hi)
               for lo, hi in zip(bounds[1:-1], bounds[2:])]
    try:
        fn(0, bounds[1])
    finally:
        wait(futures)
    for future in futures:
        future.result()


def split_matmul(a: np.ndarray, b: np.ndarray,
                 bias: np.ndarray | None = None) -> np.ndarray:
    """A fresh a @ b of 2-D a and b, split over its columns: each range's
    product takes the whole reduction. A bias of b's width is then added
    to every row, range by range."""
    out = np.empty((a.shape[0], b.shape[1]), dtype=np.result_type(a, b))

    def part(lo, hi):
        np.matmul(a, b[:, lo:hi], out=out[:, lo:hi])
        if bias is not None:
            out[:, lo:hi] += bias[lo:hi]

    split(part, out.shape[1], out.size * a.shape[1], SPLIT_ALIGN)
    return out


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
    if not 0.0 < prior_var < np.inf:  # written so that NaN fails too
        raise ValueError("prior_var must be finite and > 0")
    kl = 0.5 * np.sum((q.mean**2 + q.var) / prior_var - 1.0
                      - (q.logvar - np.log(prior_var)), axis=-1)
    return float(kl) if kl.ndim == 0 else kl


@dataclass
class AdamState:
    """Adam moments matched to a flat parameter vector, and the step size
    (`fit` passes TrainConfig.lr, the one default)."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int
    lr: float

    @classmethod
    def init(cls, n_params: int, lr: float) -> "AdamState":
        """Zero moments, before the first step."""
        return cls(first_moment=np.zeros(n_params, dtype=np.float64),
                   second_moment=np.zeros(n_params, dtype=np.float64),
                   step_count=0, lr=lr)


def adam_step(state: AdamState, params: np.ndarray,
              grads) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update of params and both moments, in place.

    grads is a sequence of pieces that tile params in order: a dense
    array, whose C-order ravel is its part, or (present, rows) for a
    C-ordered part, rows giving in order the rows the boolean mask present
    marks; every other row's gradient is 0. Every entry is updated (dense
    Adam), operation for operation as in the textbook expression
    `params - lr * m_hat / (sqrt(v_hat) + eps)`, so bit-identical to it.
    A plan fills blocks of at most ADAM_BLOCK entries with whole rows
    of consecutive parts (a longer row is a block of its own), so
    temporaries stay in cache and a small model is one block; the walk
    over the blocks is split, each range with its own scratch. Each
    block's gradient is built in scratch (a dense piece's rows, or zeros
    and then the marked rows) and the same 14 operations run on it once,
    so pieces give their zero-filled flat gradient's bits, zero moments'
    signs included. Returns params and state, both updated.
    """
    if not (isinstance(params, np.ndarray) and params.dtype == np.float64):
        raise TypeError("params must be a float64 array, updated in place")
    parts = []
    for piece in grads:
        mark, rows = piece if isinstance(piece, tuple) else (None, piece)
        if mark is None:
            rows = np.reshape(rows, (len(rows), -1))
        elif not (np.asarray(mark).dtype == bool
                  and np.count_nonzero(mark) == len(rows)):
            raise ShapeError("a piece's mask must be boolean, one per row")
        parts.append((mark, rows, len(rows if mark is None else mark)))
    size = sum(n_rows * rows.shape[1] for _, rows, n_rows in parts)
    if not params.shape == state.first_moment.shape == (size,):
        raise ShapeError(f"params {params.shape}, grads of {size} entries, "
                         f"moments {state.first_moment.shape}")
    t = state.step_count + 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    m_scale, v_scale = 1.0 - b1**t, 1.0 - b2**t
    scratch = min(size, max([ADAM_BLOCK]
                            + [rows.shape[1] for _, rows, _ in parts]))

    def update(grad, buf, den, start, stop):
        g, tmp, d = grad[:stop - start], buf[:stop - start], den[:stop - start]
        m = state.first_moment[start:stop]
        v = state.second_moment[start:stop]
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

    # The plan: each block's start, stop and fills, a fill writing a run
    # of a part's rows (with their mask, if the part has one) to an
    # offset of the block's gradient.
    blocks, fills, start, fill = [], [], 0, 0
    for mark, rows, n_rows in parts:
        width, r0, given = rows.shape[1], 0, 0
        while r0 < n_rows:
            if fill and fill + width > ADAM_BLOCK:
                blocks.append((start, start + fill, fills))
                fills, start, fill = [], start + fill, 0
            r1 = min(r0 + max(1, (ADAM_BLOCK - fill) // width), n_rows)
            if mark is None:
                fills.append((fill, None, rows[r0:r1]))
            else:
                k = np.count_nonzero(mark[r0:r1])
                fills.append((fill, mark[r0:r1], rows[given:given + k]))
                given += k
            fill += (r1 - r0) * width
            r0 = r1
    blocks.append((start, start + fill, fills))

    def walk(lo, hi):
        grad, buf, den = np.empty((3, scratch))
        for start, stop, fills in blocks[lo:hi]:
            for at, mark, rows in fills:
                n_rows = len(rows) if mark is None else len(mark)
                block = grad[at:at + n_rows * rows.shape[1]].reshape(n_rows, -1)
                if mark is None:
                    block[...] = rows
                else:
                    block.fill(0.0)
                    block[mark] = rows
            update(grad, buf, den, start, stop)

    # Each entry's 14 operations are its own, so blocks split anywhere.
    split(walk, len(blocks), size * ENTRY_WORK)
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
