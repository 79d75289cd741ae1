"""Command-line front door: preprocess, synth, train, evaluate, geometry, export.

Every run writes a manifest recording the resolved configuration, a
config hash, input digests, the seed, and library versions, so outputs
are reproducible from the manifest alone. Commands that write a directory
put it at --out/manifest.json; `export`, which writes one CSV file at
--out, puts it next to that file as <out>.manifest.json. Exit codes:
0 success, 1 usage error, 2 data or numeric error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from . import __version__
from .corpus import (SPLIT_FILES, SynthSpec, ingest_events, load_split,
                     save_split, split_dataset, synth_block_dataset)
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


def _parse_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("1", "true", "on", "yes"):
        return True
    if lowered in ("0", "false", "off", "no"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _seed(text: str) -> int:
    """argparse type of --seed: an integer >= 0."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _parse_int_list(value: str, key: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in value.split(",") if v.strip())
    except ValueError:
        raise UsageError(f"config key {key}: expected comma-separated ints") from None


# Kinds are the field annotations, which stay strings under
# `from __future__ import annotations`; a field without a default
# (MISSING) is a required key.
TRAIN_KEYS = {f.name: (f.type, f.default)
              for cls in (TrainConfig, PiaConfig) for f in fields(cls)}
SYNTH_KEYS = {**{f.name: (f.type, f.default) for f in fields(SynthSpec)},
              "n_val_users": ("int", 0), "n_test_users": ("int", 0),
              "fold_in_fraction": ("float", 0.8)}


def resolve_config(raw: dict[str, str], schema: dict, source: str) -> dict:
    """Type-check raw key=value pairs against a schema; unknown keys fail."""
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
        value = raw[key]
        try:
            if kind == "int":
                resolved[key] = int(value)
            elif kind == "float":
                resolved[key] = float(value)
            elif kind == "bool":
                resolved[key] = _parse_bool(value)
            elif kind == "tuple[int, ...]":
                resolved[key] = _parse_int_list(value, key)
            else:  # pragma: no cover
                raise AssertionError(kind)
        except (ValueError, UsageError):
            raise UsageError(f"{source}: bad value for {key}: {value!r}") from None
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
        },
    }
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

SPLIT_OUTPUTS = [*SPLIT_FILES.values(), "idmap.tsv", "seed.txt"]


def _cmd_preprocess(args) -> int:
    if args.min_user < 0 or args.min_item < 0:
        raise UsageError("--min-user and --min-item must be >= 0")
    out = Path(args.out)
    matrix = ingest_events(args.input, args.min_user, args.min_item,
                           args.threshold)
    split = split_dataset(matrix, args.val, args.test, args.fold_in, args.seed)
    save_split(split, out)
    config = {"input": args.input, "min_user": args.min_user,
              "min_item": args.min_item, "threshold": args.threshold,
              "val": args.val, "test": args.test,
              "fold_in": args.fold_in, "seed": args.seed}
    write_manifest(out / "manifest.json", "preprocess", config, args.seed,
                   [Path(args.input)], SPLIT_OUTPUTS)
    print(f"preprocess: {matrix.n_users} users x {matrix.n_items} items "
          f"({matrix.nnz} interactions) -> {out}")
    return 0


def _cmd_synth(args) -> int:
    out = Path(args.out)
    config = resolve_config(parse_kv_file(args.spec), SYNTH_KEYS, args.spec)
    try:
        spec = _from_config(SynthSpec, config)
    except ValueError as exc:
        raise UsageError(f"{args.spec}: {exc}") from None
    matrix = synth_block_dataset(spec)
    split = split_dataset(matrix, config["n_val_users"], config["n_test_users"],
                          config["fold_in_fraction"], config["seed"])
    save_split(split, out)
    write_manifest(out / "manifest.json", "synth", config, config["seed"],
                   [Path(args.spec)], SPLIT_OUTPUTS)
    print(f"synth: {matrix.n_users} users x {matrix.n_items} items -> {out}")
    return 0


def _from_config(cls, config: dict):
    return cls(**{f.name: config[f.name] for f in fields(cls)})


def _cmd_train(args) -> int:
    raw = parse_kv_file(args.config) if args.config else {}
    config = resolve_config(raw, TRAIN_KEYS, args.config or "<defaults>")
    if args.seed is not None:
        config["seed"] = args.seed
    if args.epochs is not None:
        config["epochs"] = args.epochs
    config["pia"] = args.pia
    try:
        cfg = _from_config(TrainConfig, config)
        pia_cfg = _from_config(PiaConfig, config) if args.pia == "on" else None
    except ValueError as exc:
        raise UsageError(f"{args.config or '<defaults>'}: {exc}") from None
    split = load_split(args.data)
    params, log = fit(split, cfg, pia_cfg)
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
    k_list = list(_parse_int_list(args.k, "--k"))
    edges = _parse_int_list(args.strata, "--strata")
    if not k_list or min(k_list) < 1:
        raise UsageError(f"--k {args.k!r}: every K must be >= 1")
    if len(edges) < 2:
        raise UsageError(f"--strata {args.strata!r}: need at least two edges")
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
              "strata": list(edges), "part": args.part}
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
    write_manifest(out / "manifest.json", "geometry",
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
    if out_path.parent != Path("."):
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
    p.add_argument("--min-user", type=int, default=5, dest="min_user")
    p.add_argument("--min-item", type=int, default=1, dest="min_item")
    p.add_argument("--threshold", type=float, default=4.0)
    p.add_argument("--val", type=int, required=True)
    p.add_argument("--test", type=int, required=True)
    p.add_argument("--fold-in", type=float, default=0.8, dest="fold_in")
    p.add_argument("--seed", type=_seed, default=0)
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
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="ranking metrics on held-out users")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--k", default="20,50,100")
    p.add_argument("--strata", default=",".join(str(e) for e in DEFAULT_STRATA_EDGES))
    p.add_argument("--part", choices=("val", "test"), default="test")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("geometry", help="run a theory-check suite")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p.add_argument("--seed", type=_seed, default=0)
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
