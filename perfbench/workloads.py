"""The benchmark's workloads: seeded inputs, set-up, timed phase and checks.

Every workload drives piavae through its public functions, looked up on
their modules at call time so that a traced run sees the same calls. The
program only ever receives the ratings CSV this module generates (and, on
eval-ref, the checkpoint it writes and reads back).
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from piavae import corpus, evaluate, model, pia, suites

from tracer import Tracer

# Ratings at or above the threshold are positives; the generator also
# writes sub-threshold rows so the filter has work to do.
INGEST = {"min_user_interactions": 5, "min_item_users": 2, "rating_threshold": 3.5}
FOLD_IN_FRACTION = 0.8
SETUP_REPEATS = 3
IMPORT_SAMPLES = 5      # fresh interpreters per geometry set-up
K_LIST = (20, 50, 100)
# The oracle probes these top-K prefixes, so misordering near the head of
# the list shows as well as a wrong top-100 set.
ORACLE_K = (1, 2, 5, 10, *K_LIST)
ORACLE_USERS = 32

# Span name -> "module:qualname" of the function it wraps.
TRACED = {
    "corpus.ingest_events": "piavae.corpus:ingest_events",
    "corpus.split_dataset": "piavae.corpus:split_dataset",
    "corpus.dense_rows": "piavae.corpus:InteractionMatrix.dense_rows",
    "model.fit": "piavae.model:fit",
    "model.loss_and_grads": "piavae.model:loss_and_grads",
    "model.unpack_params": "piavae.model:unpack_params",
    "model.draw_mask_and_noise": "piavae.model:draw_mask_and_noise",
    "model.loss_and_grads_fixed": "piavae.model:loss_and_grads_fixed",
    "model.score_matrix": "piavae.model:score_matrix",
    "model.predict_scores": "piavae.model:predict_scores",
    "model.encode": "piavae.model:encode",
    "model.load_checkpoint": "piavae.model:load_checkpoint",
    "numerics.adam_step": "piavae.numerics:adam_step",
    "pia.alignment_mc_standard_error": "piavae.pia:alignment_mc_standard_error",
    "evaluate.stratified_report": "piavae.evaluate:stratified_report",
    "evaluate.per_user_metrics": "piavae.evaluate:per_user_metrics",
    "evaluate.ndcg_at_k": "piavae.evaluate:ndcg_at_k",
    "evaluate.recall_at_k": "piavae.evaluate:recall_at_k",
}

END_TO_END_UNITS = {"setup_s": "s", "throughput": "1/s", "peak_rss_mb": "MiB"}

# Per-layer metric -> unit. "<span>.s", ".self_s" and ".calls" come from
# the spans; the rest are computed or counted as noted in NOTES.md.
PER_LAYER_UNITS = {
    "corpus.ingest_events.s": "s",
    "corpus.split_dataset.s": "s",
    "corpus.dense_rows.s": "s",
    "corpus.dense_rows.calls": "count",
    "corpus.batch_dense_bytes": "B",
    "corpus.batch_nnz": "count",
    "model.fit.s": "s",
    "model.fit.self_s": "s",
    "model.fit.calls": "count",
    "model.loss_and_grads.self_s": "s",
    "model.unpack_params.s": "s",
    "model.draw_mask_and_noise.s": "s",
    "model.loss_and_grads_fixed.s": "s",
    "model.loss_and_grads_fixed.calls": "count",
    "model.step_flops": "flop",
    "model.score_matrix.s": "s",
    "model.predict_scores.calls": "count",
    "model.encode.calls": "count",
    "model.load_checkpoint.s": "s",
    "numerics.adam_step.s": "s",
    "numerics.adam_step.calls": "count",
    "numerics.adam_bytes": "B",
    "pia.lambda_changes": "count",
    "pia.alignment_mc_standard_error.s": "s",
    "evaluate.stratified_report.self_s": "s",
    "evaluate.per_user_metrics.s": "s",
    "evaluate.ndcg_at_k.s": "s",
    "evaluate.ndcg_at_k.calls": "count",
    "evaluate.recall_at_k.s": "s",
    "evaluate.recall_at_k.calls": "count",
    **{f"suites.{name}.s": "s" for name in suites.SUITE_NAMES},
    "suites.checks": "count",
    "suites.checks_failed": "count",
    "trace.absent_targets": "count",
    "trace.overhead_share": "ratio",
}
COMPUTED = ("corpus.batch_dense_bytes", "corpus.batch_nnz", "model.step_flops",
            "numerics.adam_bytes")


@dataclass(frozen=True)
class DataSpec:
    """Shape of a generated ratings file and of its split."""

    n_users: int
    n_items: int
    median_len: float   # lognormal median of items drawn per user
    len_sigma: float
    zipf_a: float       # item popularity ~ rank ** -zipf_a
    negative_share: float  # extra sub-threshold rows per positive row
    n_val: int
    n_test: int


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                      # "train", "eval" or "geometry"
    data: DataSpec | None = None
    hidden: int = 600
    latent: int = 200
    batch_size: int = 500
    epochs: int = 1
    pia: bool = True
    # Share of the popularity ranking's validation NDCG@100 that the best
    # epoch must reach (see learning_failure).
    popularity_share: float = 0.0
    suite_names: tuple[str, ...] = suites.SUITE_NAMES
    # Seconds one unit of work takes on a 2-core x86_64 machine. A run of
    # `seconds` does round(seconds / unit_seconds) units, at least one, so
    # the same arguments always do the same work and make the same checks.
    unit_seconds: float = 20.0

    def units(self, seconds: float) -> int:
        return max(1, round(seconds / self.unit_seconds))


REFERENCE_DATA = DataSpec(n_users=4200, n_items=20000, median_len=80.0,
                          len_sigma=0.5, zipf_a=0.7, negative_share=0.15,
                          n_val=100, n_test=100)
DENSE_DATA = DataSpec(n_users=4000, n_items=2000, median_len=230.0,
                      len_sigma=0.3, zipf_a=0.5, negative_share=0.15,
                      n_val=200, n_test=100)

WORKLOADS = {w.name: w for w in (
    Workload("train-ref", "train", REFERENCE_DATA, unit_seconds=20.0),
    Workload("eval-ref", "eval", replace(REFERENCE_DATA, n_test=600),
             unit_seconds=15.0),
    Workload("train-dense", "train", DENSE_DATA, hidden=200, latent=64,
             epochs=3, pia=False, popularity_share=0.45, unit_seconds=2.5),
    Workload("geometry", "geometry", unit_seconds=3.2),
)}


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def write_ratings_csv(path: Path, spec: DataSpec, seed: int) -> None:
    """Seeded `user,item,rating` events: lognormal user lengths, Zipf items."""
    rng = np.random.default_rng(seed)
    lengths = np.rint(rng.lognormal(math.log(spec.median_len), spec.len_sigma,
                                    spec.n_users))
    lengths = np.clip(lengths, 8, spec.n_items // 4).astype(np.int64)
    rank = rng.permutation(spec.n_items)
    weights = (rank + 1.0) ** -spec.zipf_a
    users = np.repeat(np.arange(spec.n_users), lengths)
    items = rng.choice(spec.n_items, size=users.size, p=weights / weights.sum())
    keys = np.unique(users * spec.n_items + items)
    positives = np.column_stack([keys // spec.n_items, keys % spec.n_items,
                                 rng.integers(4, 6, keys.size)])
    n_neg = int(spec.negative_share * keys.size)
    negatives = np.column_stack([rng.integers(0, spec.n_users, n_neg),
                                 rng.integers(0, spec.n_items, n_neg),
                                 rng.integers(1, 4, n_neg)])
    rows = np.concatenate([positives, negatives])[rng.permutation(keys.size + n_neg)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("user,item,rating\n")
        fh.write("".join(map("u{},i{},{}\n".format, *rows.T.tolist())))


def reference_checkpoint(n_items: int, hidden: int, latent: int,
                         seed: int) -> model.ModelParams:
    """Seeded scaled-normal weights with an anchor table (benchmark time)."""
    rng = np.random.default_rng([seed, 1])

    def layer(out_dim, in_dim):
        return rng.standard_normal((out_dim, in_dim)) / math.sqrt(in_dim)

    return model.ModelParams(
        enc_w1=layer(hidden, n_items), enc_b1=0.1 * rng.standard_normal(hidden),
        enc_w_mu=layer(latent, hidden), enc_b_mu=np.zeros(latent),
        enc_w_lv=layer(latent, hidden), enc_b_lv=np.zeros(latent),
        dec_w=layer(n_items, latent), dec_b=0.1 * rng.standard_normal(n_items),
        input_normalize=True, anchors=layer(n_items, latent))


def computed_counts(w: Workload, split) -> dict[str, float]:
    """Dense-equivalent work per full training batch, from shapes and data."""
    if w.kind != "train":
        return {name: 0.0 for name in COMPUTED}
    n_train = split.train.n_users
    b, i, h, d = min(w.batch_size, n_train), split.n_items, w.hidden, w.latent
    forward = 2 * b * i * h + 2 * 2 * b * h * d + 2 * b * d * i
    backward = 2 * i * b * d + 2 * b * i * d + 2 * 2 * d * b * h \
        + 2 * 2 * b * d * h + 2 * h * b * i
    n_params = h * i + h + 2 * (d * h + d) + i * d + i
    if w.pia:
        forward += 2 * b * i * d
        backward += 2 * i * b * d
        n_params += i * d
    return {
        "corpus.batch_dense_bytes": float(8 * b * i),
        "corpus.batch_nnz": split.train.nnz * b / n_train,
        "model.step_flops": float(forward + backward),
        # Read params, grads and both moments; write params and moments.
        "numerics.adam_bytes": float(7 * 8 * n_params),
    }


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _arrays(params) -> list[np.ndarray]:
    return [v for v in vars(params).values() if isinstance(v, np.ndarray)]


def fit_failure(params, log: list[dict]) -> str | None:
    """Why a fit counts as failed, or None."""
    if any(rec.get("event") == "aborted" for rec in log):
        return "fit log has an aborted record"
    losses = [rec["loss"] for rec in log if "loss" in rec]
    if not losses or not all(math.isfinite(x) for x in losses):
        return "fit log has no loss or a non-finite loss"
    if not all(np.all(np.isfinite(a)) for a in _arrays(params)):
        return "fit returned non-finite parameters"
    return None


DISCOUNTS = 1.0 / np.log2(np.arange(2, 102))  # NDCG@100 position weights


def random_ndcg100(split) -> float:
    """Expected validation NDCG@100 of a uniformly random ranking of each
    validation user's candidate items (everything but the fold-in)."""
    fold, hold = split.val_fold_in, split.val_holdout
    hits = hold.row_lengths() / (split.n_items - fold.row_lengths())
    ideal = np.cumsum(DISCOUNTS)[np.minimum(hold.row_lengths(), 100) - 1]
    return float(np.mean(hits * DISCOUNTS.sum() / ideal))


def popularity_ndcg100(split) -> float:
    """Validation NDCG@100 of ranking items by their training-user count,
    fold-in items excluded, ties to the lower item index."""
    counts = np.bincount(split.train.indices, minlength=split.n_items)
    fold, hold = split.val_fold_in, split.val_holdout
    values = []
    for u in range(fold.n_users):
        scores = counts.astype(float)
        scores[fold.row(u)] = -np.inf
        top = np.argsort(-scores, kind="stable")[:100]
        held = hold.row(u)
        dcg = DISCOUNTS[np.isin(top, held)].sum()
        values.append(dcg / DISCOUNTS[:min(100, held.size)].sum())
    return float(np.mean(values))


def learning_failure(log: list[dict], bar: float) -> str | None:
    """Why a finite fit still counts as failed: every epoch must lower the
    mean batch loss and raise validation NDCG@100, and the best NDCG@100
    must beat `bar`."""
    epochs = [rec for rec in log if "loss" in rec]
    losses = [rec["loss"] for rec in epochs]
    if any(b >= a for a, b in zip(losses, losses[1:])):
        return f"epoch loss did not fall: {losses}"
    ndcgs = [rec["val_ndcg100"] for rec in epochs]
    if any(b <= a for a, b in zip(ndcgs, ndcgs[1:])):
        return f"epoch val_ndcg100 did not rise: {ndcgs}"
    best = max(ndcgs)
    if not best > bar:
        return f"best val_ndcg100 {best:.4g} does not beat the bar {bar:.4g}"
    return None


def oracle_top(params, rows: list[np.ndarray], k: int) -> list[np.ndarray]:
    """Top-k items per fold-in row from a plain numpy forward pass.

    Posterior-mean decode of the clean fold-in, fold-in items excluded,
    stable argsort on the negated scores so ties go to the lower index.
    """
    x = np.zeros((len(rows), params.enc_w1.shape[1]))
    for r, row in enumerate(rows):
        x[r, row] = 1.0
    if params.input_normalize:
        x = x / np.linalg.norm(x, axis=1, keepdims=True)
    h1 = np.tanh(x @ params.enc_w1.T + params.enc_b1)
    scores = (h1 @ params.enc_w_mu.T + params.enc_b_mu) @ params.dec_w.T + params.dec_b
    scores[x > 0] = -np.inf
    return [np.argsort(-s, kind="stable")[:k] for s in scores]


def program_matches(params, split, fold_row: np.ndarray, top: np.ndarray) -> bool:
    """Whether the program ranks the same top-K sets as the oracle list.

    The user is evaluated through `stratified_report` once per K in
    ORACLE_K, each copy holding out the oracle's top-K items. Recall@K of
    every copy at every K is then exactly 1 if and only if the program's
    top-K set equals the oracle's for every K in ORACLE_K.
    """
    n = len(ORACLE_K)
    item_ids = split.test_fold_in.item_ids
    fold = corpus.InteractionMatrix(
        n_users=n, n_items=split.n_items,
        indptr=np.arange(n + 1) * fold_row.size, indices=np.tile(fold_row, n),
        user_ids=tuple(str(c) for c in range(n)), item_ids=item_ids)
    held = [np.sort(top[:k]) for k in ORACLE_K]
    hold = corpus.InteractionMatrix(
        n_users=n, n_items=split.n_items,
        indptr=np.concatenate([[0], np.cumsum([h.size for h in held])]),
        indices=np.concatenate(held),
        user_ids=fold.user_ids, item_ids=item_ids)
    probe = corpus.SplitDataset(
        train=split.train, val_fold_in=split.val_fold_in,
        val_holdout=split.val_holdout, test_fold_in=fold, test_holdout=hold,
        seed=split.seed)
    report = evaluate.stratified_report(params, probe, list(ORACLE_K))
    return all(report.recall[k] == 1.0 for k in ORACLE_K)


def report_failure(report, n_users: int) -> str | None:
    if report.n_users != n_users:
        return f"report covers {report.n_users} users, expected {n_users}"
    values = [*report.recall.values(), *report.ndcg.values()]
    if sorted(report.recall) != list(K_LIST) or not all(0.0 <= v <= 1.0 for v in values):
        return "report metrics missing or outside [0, 1]"
    return None


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------

class Run:
    """One invocation: set-up, timed phase, checks and metrics."""

    def __init__(self, w: Workload, seed: int, seconds: float, workdir: Path):
        self.w = w
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.attempted = 0
        self.failures: list[str] = []
        self.mismatch = False   # a verifiable output was wrong
        self.named: dict[str, tuple[float, str]] = {}
        self.csv: Path | None = None
        self.split = None
        self.ndcg_bar = math.nan  # train-*: what the best val_ndcg100 must beat
        self.params = None      # eval-ref: the checkpoint as read back
        self.summary = None     # what the last unit returned, for comparison
        self.checks = (0, 0)    # geometry: reports and failed reports per unit

    # -- set-up -----------------------------------------------------------

    def prepare_inputs(self) -> None:
        """Benchmark time: write the seeded ratings CSV."""
        if self.w.kind == "geometry":
            return
        self.csv = self.workdir / "ratings.csv"
        write_ratings_csv(self.csv, self.w.data, self.seed)

    def setup_once(self) -> float:
        if self.w.kind == "geometry":
            return statistics.median(self._import_time()
                                     for _ in range(IMPORT_SAMPLES))
        # Never hold two set-ups at once. On eval-ref the checkpoint read
        # back last time is written again: the same values, one copy.
        checkpoint, self.split, self.params = self.params, None, None
        t0 = time.perf_counter()
        matrix = corpus.ingest_events(self.csv, **INGEST)
        self.split = corpus.split_dataset(matrix, self.w.data.n_val,
                                          self.w.data.n_test, FOLD_IN_FRACTION,
                                          self.seed)
        elapsed = time.perf_counter() - t0
        if self.w.kind == "train":
            # A random ranking, or a share of the popularity ranking.
            self.ndcg_bar = max(random_ndcg100(self.split), self.w.popularity_share
                                * popularity_ndcg100(self.split))
        if self.w.kind == "eval":
            if checkpoint is None:
                checkpoint = reference_checkpoint(
                    self.split.n_items, self.w.hidden, self.w.latent, self.seed)
            path = self.workdir / "model.ckpt"
            t0 = time.perf_counter()
            model.save_checkpoint(checkpoint, path)
            elapsed += time.perf_counter() - t0
            del checkpoint
            t0 = time.perf_counter()
            self.params = model.load_checkpoint(path)
            elapsed += time.perf_counter() - t0
            path.unlink()
        return elapsed

    def _import_time(self) -> float:
        """Fresh-interpreter import of the geometry lab: its only set-up.
        numpy and scipy.special are imported before the clock starts, so
        the time is the program's own modules."""
        code = ("import numpy, scipy.special, time; t = time.perf_counter(); "
                "import piavae.suites; print(time.perf_counter() - t)")
        src = str(Path(corpus.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        return float(out.stdout.strip())

    # -- timed phase ------------------------------------------------------

    def unit(self) -> tuple[dict[str, float], float, object]:
        """One unit of work: (seconds of each timed part, work done, summary
        to compare)."""
        return getattr(self, f"_unit_{self.w.kind}")()

    def _unit_train(self):
        w = self.w
        cfg = model.TrainConfig(epochs=w.epochs, batch_size=w.batch_size,
                                hidden_dim=w.hidden, latent_dim=w.latent,
                                seed=self.seed)
        pia_cfg = pia.PiaConfig() if w.pia else None
        t0 = time.perf_counter()
        params, log = model.fit(self.split, cfg, pia_cfg)
        elapsed = time.perf_counter() - t0
        self.attempted += 1
        failure = fit_failure(params, log) or learning_failure(log, self.ndcg_bar)
        if failure:
            self.failures.append(failure)
            self.mismatch = True
        epochs = [rec for rec in log if "loss" in rec]
        lambdas = [rec["lambda_a"] for rec in epochs]
        summary = {
            "train_loss": epochs[-1]["loss"] if epochs else math.nan,
            "val_ndcg100": max((rec["val_ndcg100"] for rec in epochs), default=math.nan),
            "lambda_changes": sum(a != b for a, b in zip(lambdas, lambdas[1:])),
        }
        work = self.split.train.n_users * len(epochs)
        return {"fit": elapsed}, work, summary

    def _unit_eval(self):
        t0 = time.perf_counter()
        report = evaluate.stratified_report(self.params, self.split, list(K_LIST))
        elapsed = time.perf_counter() - t0
        self.attempted += 1
        failure = report_failure(report, self.split.test_fold_in.n_users)
        if failure:
            self.failures.append(failure)
            self.mismatch = True
        return ({"stratified_report": elapsed}, self.split.test_fold_in.n_users,
                report.to_dict())

    def _unit_geometry(self, tracer: Tracer | None = None):
        """Every suite, each timed on its own."""
        reports, times = [], {}
        for name in self.w.suite_names:
            t0 = time.perf_counter()
            if tracer is None:
                reports += suites.run_suite(name, seed=self.seed)
            else:
                with tracer.span(f"suites.{name}"):
                    reports += suites.run_suite(name, seed=self.seed)
            times[name] = time.perf_counter() - t0
        self.attempted += len(reports)
        failed = [r.name for r in reports if not r.passed]
        self.failures += [f"geometry check failed: {n}" for n in failed]
        summary = [(r.name, bool(r.passed)) for r in reports]
        self.checks = (len(reports), len(failed))
        return times, len(reports), summary

    def oracle(self) -> None:
        """eval-ref: compare sampled users' top-K sets with the oracle."""
        fold = self.split.test_fold_in
        rng = np.random.default_rng([self.seed, 2])
        users = np.sort(rng.choice(fold.n_users, size=min(ORACLE_USERS, fold.n_users),
                                   replace=False))
        rows = [fold.row(int(u)) for u in users]
        tops = oracle_top(self.params, rows, max(K_LIST))
        for u, row, top in zip(users, rows, tops):
            self.attempted += 1
            if not program_matches(self.params, self.split, row, top):
                self.failures.append(f"test user {int(u)}: top-K differs from oracle")
                self.mismatch = True

    # -- runs -------------------------------------------------------------

    def repeat_units(self) -> float:
        """Untraced units, `Workload.units(seconds)` of them. Returns the work
        of one unit over the sum of its timed parts' medians, so that a
        slow moment in one part of one unit does not move the rate. Every
        unit must give the same result."""
        parts: dict[str, list[float]] = {}
        for _ in range(self.w.units(self.seconds)):
            times, work, summary = self.unit()
            for name, elapsed in times.items():
                parts.setdefault(name, []).append(elapsed)
            if self.summary is not None and summary != self.summary:
                self.failures.append("repeated units disagree")
                self.mismatch = True
            self.summary = summary
        return work / sum(statistics.median(ts) for ts in parts.values())

    def measure(self) -> dict[str, tuple[float, str]]:
        """Untraced run: set-up, the timed units, then the rest of the set-up
        repeats, so that the set-up samples span the run."""
        self.prepare_inputs()
        setups = [self.setup_once()]
        throughput = self.repeat_units()
        if self.w.kind == "eval":
            self.oracle()
        setups += [self.setup_once() for _ in range(SETUP_REPEATS - 1)]
        setup_s = statistics.median(setups)
        self._name_metrics(setup_s, throughput, self.summary)
        values = {"setup_s": setup_s, "throughput": throughput,
                  "peak_rss_mb": peak_rss_mb()}
        return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}

    def trace(self) -> tuple[dict[str, tuple[float, str]], Tracer]:
        """Traced run: one traced set-up, the untraced units as in `measure`,
        then one traced unit, which must give the same result. The overhead
        compares the traced unit with the untraced median."""
        self.prepare_inputs()
        tracer = Tracer()
        with tracer.installed(TRACED):
            self.setup_once()
        rate = self.repeat_units()
        expected = self.summary
        with tracer.installed(TRACED):
            if self.w.kind == "geometry":
                times, work, got = self._unit_geometry(tracer)
            else:
                times, work, got = self.unit()
        if got != expected:
            self.failures.append("traced run changed the results")
            self.mismatch = True
        if self.w.kind == "eval":
            self.oracle()
        metrics = self._layer_metrics(tracer, got)
        traced = sum(times.values())
        metrics["trace.overhead_share"] = (traced * rate / work - 1.0, "ratio")
        return metrics, tracer

    def _name_metrics(self, setup_s: float, throughput: float, summary) -> None:
        named = {"setup_s": (setup_s, "s")}
        if self.w.kind == "train":
            named["train_users_per_s"] = (throughput, "users/s")
            named["train_loss"] = (summary["train_loss"], "nats/user")
            named["val_ndcg100"] = (summary["val_ndcg100"], "ratio")
        elif self.w.kind == "eval":
            named["eval_users_per_s"] = (throughput, "users/s")
        else:
            named["geometry_checks_per_s"] = (throughput, "checks/s")
        named["peak_rss_mb"] = (peak_rss_mb(), "MiB")
        named["fail_share"] = (len(self.failures) / self.attempted, "ratio")
        self.named = named

    def _layer_metrics(self, tracer: Tracer, summary) -> dict[str, tuple[float, str]]:
        stats = tracer.stats()
        values: dict[str, float] = dict(computed_counts(self.w, self.split))
        values["pia.lambda_changes"] = (summary["lambda_changes"]
                                        if self.w.kind == "train" else 0)
        values["suites.checks"], values["suites.checks_failed"] = self.checks
        values["trace.absent_targets"] = len(tracer.absent)
        metrics = {}
        for name, unit in PER_LAYER_UNITS.items():
            if name in values:
                value = values[name]
            elif name == "trace.overhead_share":
                continue
            else:
                span, stat = name.rsplit(".", 1)
                value = stats.get(span, {}).get(stat, 0)
            metrics[name] = (float(value), unit)
        return metrics


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
