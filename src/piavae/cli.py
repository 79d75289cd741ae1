"""Command-line front door: preprocess, synth, train, evaluate, geometry, export.

Every run writes a manifest recording the resolved configuration, a
config hash, input digests, the seed, and library versions, so outputs
are reproducible from the manifest alone. Commands that write a directory
put it at --out/manifest.json; `geometry` puts <suite>.manifest.json
beside <suite>.jsonl in --out, which suites may share, and `export`
<out>.manifest.json beside the CSV file at --out. Exit codes: 0 success,
1 usage error, 2 data or numeric error. `train` keeps its best epoch in
a parameter-sized temporary file under TMPDIR.

Each flag and config value is checked by the parser of its kind
(count, positive, finite, int_list, or plain int and float) before any
data file or checkpoint is read, the PIA keys with --pia off too; a value
it refuses exits 1 with one stderr line naming the flag or the config file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import scipy

from . import __version__, numerics
from .corpus import (FOLD_IN_FRACTION, SPLIT_FILES, SynthSpec, ingest_events,
                     load_split, save_split, split_dataset, synth_block_dataset)
from .errors import PiaVaeError
from .evaluate import DEFAULT_STRATA_EDGES, stratified_report
from .geometry import export_latents
from .model import (TrainConfig, fit, load_checkpoint, save_checkpoint)
from .pia import PiaConfig
from .suites import SUITE_NAMES, run_suite


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        raise UsageError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# Flat key=value config files
# ---------------------------------------------------------------------------

def parse_kv_file(path: str | Path) -> dict[str, str]:
    """Parse `key = value` lines; blank lines and # comments are skipped."""
    out: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise UsageError(f"{path}: not UTF-8 text") from None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{line_no}: expected `key = value`")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise UsageError(f"{path}:{line_no}: empty key")
        if key in out:
            raise UsageError(f"{path}:{line_no}: duplicate key {key!r}")
        out[key] = value
    return out


# One parser per value kind, used as argparse `type=` for flags and by
# resolve_config for config values. Each raises ValueError on a value it
# refuses; argparse reports that as `invalid <kind> value`.

def count(text: str) -> int:
    """An integer >= 0, in decimal digits."""
    if not text.strip().isdecimal():
        raise ValueError(text)
    return int(text)


def positive(text: str) -> int:
    """An integer >= 1, in decimal digits."""
    if count(text) < 1:
        raise ValueError(text)
    return int(text)


def finite(text: str) -> float:
    """A float other than inf, -inf and NaN."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def int_list(text: str) -> tuple[int, ...]:
    """Comma-separated ints; an empty entry fails."""
    return tuple(int(v) for v in text.split(","))


# Kinds are the field annotations, which stay strings under
# `from __future__ import annotations`, or a parser's name; a field
# without a default (MISSING) is a required key.
KIND_PARSERS = {"int": int, "float": float, "tuple[int, ...]": int_list,
                "count": count}
TRAIN_KEYS = {f.name: (f.type, f.default)
              for cls in (TrainConfig, PiaConfig) for f in fields(cls)}
SYNTH_KEYS = {**{f.name: (f.type, f.default) for f in fields(SynthSpec)},
              "n_val_users": ("count", 0), "n_test_users": ("count", 0)}


def resolve_config(raw: dict[str, str], schema: dict, source: str) -> dict:
    """Parse raw key=value pairs by their schema kinds; unknown keys fail."""
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise UsageError(f"{source}: unknown config keys {unknown}")
    resolved = {}
    for key, (kind, default) in schema.items():
        if key not in raw:
            if default is MISSING:
                raise UsageError(f"{source}: missing required key {key!r}")
            resolved[key] = default
            continue
        try:
            resolved[key] = KIND_PARSERS[kind](raw[key])
        except ValueError:
            raise UsageError(f"{source}: bad value for {key}: {raw[key]!r}") from None
    return resolved


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def write_manifest(path: Path, command: str, config: dict, seed,
                   inputs: list[Path], outputs: list[str]) -> None:
    # Seeded outputs depend on the BLAS build. piavae pins OpenBLAS to one
    # thread, whatever OPENBLAS_NUM_THREADS asks; blas_threads records the
    # count in use (null where it cannot be read; then nothing is split).
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    manifest = {
        "command": command,
        "config": config,
        "config_sha256": hashlib.sha256(_dump_json(config).encode()).hexdigest(),
        "seed": seed,
        "inputs": {str(p): _sha256_file(p) for p in inputs if p.is_file()},
        "outputs": sorted(outputs),
        "versions": {
            "piavae": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "cpu_count": os.cpu_count(),
            "blas_threads": numerics.blas_threads(),
            "split_workers": numerics.split_workers(),
        },
    }
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

SPLIT_OUTPUTS = [*SPLIT_FILES.values(), "idmap.tsv", "seed.txt"]


def _cmd_preprocess(args) -> int:
    out = Path(args.out)
    matrix = ingest_events(args.input, args.min_user, args.min_item,
                           args.threshold)
    split = split_dataset(matrix, args.val, args.test, FOLD_IN_FRACTION,
                          args.seed)
    save_split(split, out)
    config = {"input": args.input, "min_user": args.min_user,
              "min_item": args.min_item, "threshold": args.threshold,
              "val": args.val, "test": args.test, "seed": args.seed}
    write_manifest(out / "manifest.json", "preprocess", config, args.seed,
                   [Path(args.input)], SPLIT_OUTPUTS)
    print(f"preprocess: {matrix.n_users} users x {matrix.n_items} items "
          f"({matrix.nnz} interactions) -> {out}")
    return 0


def _cmd_synth(args) -> int:
    out = Path(args.out)
    config = resolve_config(parse_kv_file(args.spec), SYNTH_KEYS, args.spec)
    spec = _from_config(SynthSpec, config, args.spec)
    matrix = synth_block_dataset(spec)
    split = split_dataset(matrix, config["n_val_users"], config["n_test_users"],
                          FOLD_IN_FRACTION, config["seed"])
    save_split(split, out)
    write_manifest(out / "manifest.json", "synth", config, config["seed"],
                   [Path(args.spec)], SPLIT_OUTPUTS)
    print(f"synth: {matrix.n_users} users x {matrix.n_items} items -> {out}")
    return 0


def _from_config(cls, config: dict, source: str):
    """cls built from its fields' config values; a value cls refuses is a
    UsageError that names the config source."""
    try:
        return cls(**{f.name: config[f.name] for f in fields(cls)})
    except ValueError as exc:
        raise UsageError(f"{source}: {exc}") from None


def _cmd_train(args) -> int:
    source = args.config or "<defaults>"
    raw = parse_kv_file(args.config) if args.config else {}
    config = resolve_config(raw, TRAIN_KEYS, source)
    if args.seed is not None:
        config["seed"] = args.seed
    if args.epochs is not None:
        config["epochs"] = args.epochs
    config["pia"] = args.pia
    cfg = _from_config(TrainConfig, config, source)
    pia_cfg = _from_config(PiaConfig, config, source)
    split = load_split(args.data)
    params, log = fit(split, cfg, pia_cfg if args.pia == "on" else None)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(params, out / "model.ckpt")
    with open(out / "train_log.jsonl", "w", encoding="utf-8") as fh:
        for record in log:
            fh.write(_dump_json(record) + "\n")
    inputs = [Path(args.data) / SPLIT_FILES[part]
              for part in ("train", "val_fold_in", "val_holdout")]
    if args.config:
        inputs.append(Path(args.config))
    write_manifest(out / "manifest.json", "train", config, config["seed"],
                   inputs, ["model.ckpt", "train_log.jsonl"])
    if log and log[-1].get("event") == "aborted":
        print("error: training aborted at epoch {epoch}, batch {batch}, row "
              "{row_index}: {error}".format(**log[-1]), file=sys.stderr)
        return 2
    best = max((r for r in log if "val_ndcg100" in r),
               key=lambda r: r["val_ndcg100"], default=None)
    if best is not None:
        print(f"train: best val NDCG@100 {best['val_ndcg100']:.4f} "
              f"at epoch {best['epoch']} -> {out}")
    return 0


def _cmd_evaluate(args) -> int:
    k_list, edges = args.k, args.strata
    if min(k_list) < 1:
        raise UsageError("--k: every K must be >= 1")
    if len(set(k_list)) < len(k_list):
        raise UsageError("--k: each K may appear once")
    if len(edges) < 2:
        raise UsageError("--strata: need at least two edges")
    params = load_checkpoint(args.model)
    split = load_split(args.data)
    report = stratified_report(params, split, k_list, bucket_edges=edges,
                               part=args.part)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "metrics.json").write_text(
        json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n",
        encoding="utf-8")
    with open(out / "metrics.csv", "w", encoding="utf-8") as fh:
        cols = [f"recall@{k}" for k in k_list] + [f"ndcg@{k}" for k in k_list]
        fh.write(",".join(["group", "n_users"] + cols) + "\n")
        rows = [("all", report)] + sorted((report.strata or {}).items())
        for label, rep in rows:
            cells = [f"{rep.recall[k]:.6f}" for k in k_list]
            cells += [f"{rep.ndcg[k]:.6f}" for k in k_list]
            fh.write(",".join([label, str(rep.n_users)] + cells) + "\n")
    config = {"model": args.model, "data": args.data, "k": k_list,
              "strata": edges, "part": args.part}
    inputs = [Path(args.model)] + [
        Path(args.data) / SPLIT_FILES[f"{args.part}_{kind}"]
        for kind in ("fold_in", "holdout")]
    write_manifest(out / "manifest.json", "evaluate", config, None, inputs,
                   ["metrics.json", "metrics.csv"])
    summary = ", ".join(f"ndcg@{k}={report.ndcg[k]:.4f}" for k in k_list)
    print(f"evaluate: {report.n_users} users; {summary}")
    return 0


def _cmd_geometry(args) -> int:
    reports = run_suite(args.suite, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fname = f"{args.suite}.jsonl"
    with open(out / fname, "w", encoding="utf-8") as fh:
        for report in reports:
            fh.write(_dump_json(report.to_dict()) + "\n")
    n_pass = sum(1 for r in reports if r.passed)
    write_manifest(out / f"{args.suite}.manifest.json", "geometry",
                   {"suite": args.suite, "seed": args.seed}, args.seed, [],
                   [fname])
    print(f"geometry[{args.suite}]: {n_pass}/{len(reports)} checks passed -> {out / fname}")
    return 0 if n_pass == len(reports) else 2


EXPORT_PARTS = {"train": "train", "val": "val_fold_in", "test": "test_fold_in"}


def _cmd_export(args) -> int:
    params = load_checkpoint(args.model)
    split = load_split(args.data)
    part = EXPORT_PARTS[args.part]
    matrix = getattr(split, part)
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    export_latents(params, matrix, out_path)
    inputs = [Path(args.model), Path(args.data) / SPLIT_FILES[part]]
    write_manifest(out_path.with_name(out_path.name + ".manifest.json"),
                   "export", {"part": args.part}, None, inputs, [out_path.name])
    print(f"export: {matrix.n_users} users x {params.latent_dim} dims -> {out_path}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="piavae",
                     description="Masked VAE recommender with item alignment")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("preprocess", help="ingest a ratings CSV and split users")
    p.add_argument("--input", required=True)
    p.add_argument("--min-user", type=count, default=5, dest="min_user")
    p.add_argument("--min-item", type=count, default=1, dest="min_item")
    p.add_argument("--threshold", type=finite, default=4.0)
    p.add_argument("--val", type=count, required=True)
    p.add_argument("--test", type=count, required=True)
    p.add_argument("--seed", type=count, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("synth", help="generate a planted nested-cohort dataset")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train the model on a split directory")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--pia", choices=("on", "off"), default="off")
    p.add_argument("--seed", type=count, default=None)
    p.add_argument("--epochs", type=positive, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="ranking metrics on held-out users")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=int_list, default=(20, 50, 100))
    p.add_argument("--strata", type=int_list, default=DEFAULT_STRATA_EDGES)
    p.add_argument("--part", choices=("val", "test"), default="test")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("geometry", help="run a theory-check suite")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p.add_argument("--seed", type=count, default=0,
                   help="seed of the suite's random draws; thm3 is a fixed "
                        "grid that reads none, and eq4's kl-direction check "
                        "always trains on seeds 0-4")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_geometry)

    p = sub.add_parser("export", help="write posterior means to CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--part", choices=("train", "val", "test"), default="train")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export)
    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return 1
        return args.func(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (PiaVaeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
