"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-ref --seed 1 --seconds 20 --trace 0

Run from the repository root. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The lines above it repeat every metric with its unit, the metrics named
after what each workload measures, and the run's provenance. A full
record, spans included, goes to .bench_results/.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# One BLAS thread: the reference training step spreads by about a quarter
# between runs with two threads and by a few percent with one.
BLAS_THREADS = 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def load_package():
    """Import piavae from this checkout's src/ with the BLAS thread count
    fixed, or exit with an error."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    try:
        import piavae
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import piavae from {SRC}: {exc}")
    if not Path(piavae.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: piavae resolved to {piavae.__file__}, not {SRC}")
    return piavae


def blas_info() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"),
            "threads_requested": BLAS_THREADS, "threads": None}
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def git_commit() -> str:
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        return "unknown"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, timeout=30)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(args) -> dict:
    import numpy
    import scipy

    return {
        "commit": git_commit(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas_info(),
        "nproc": os.cpu_count(), "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    load_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    prov = provenance(args)
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        run = workloads.Run(w, args.seed, args.seconds, Path(tmp))
        if args.trace:
            metrics, tracer = run.trace()
            spans = [[s.name, s.start, s.end, s.parent] for s in tracer.spans]
            absent = tracer.absent
        else:
            metrics, spans, absent = run.measure(), [], []

    result = {
        "correct": not run.mismatch,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"provenance": prov, "result": result, "named": run.named,
              "failures": run.failures, "absent": absent, "spans": spans}
    results_dir = ROOT / ".bench_results"
    results_dir.mkdir(exist_ok=True)
    out_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record))

    print(f"provenance {json.dumps(prov)}")
    for name, (value, unit) in metrics.items():
        label = " (computed)" if name in workloads.COMPUTED else ""
        print(f"metric {name} = {value:.6g} {unit}{label}")
    for name, (value, unit) in run.named.items():
        print(f"named {name} = {value:.6g} {unit}")
    for name in absent:
        print(f"absent {name}")
    for failure in sorted(set(run.failures)):
        print(f"failure {failure} (x{run.failures.count(failure)})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
