"""sparsescene benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload clip-mu --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload, one table each
    python3 perfbench/run.py --workload campaign --smoke     # seconds-long smoke run

Each run prints its facts and a table of metrics (unit, sample count), then,
as its last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` holding the metrics that ``BENCHMARK.json`` names: its
``end_to_end`` metrics with ``--trace 0`` and its ``per_layer`` metrics with
``--trace 1``.  The full record (and, when traced, every span) is written
under ``.bench_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
CONFIG = ROOT / "BENCHMARK.json"


def _import_package() -> None:
    """Put the checkout's ``src`` first on the path; fail if the package is absent."""
    if not (ROOT / "src" / "sparsescene" / "__init__.py").is_file():
        sys.exit(f"error: no sparsescene package under {ROOT / 'src'}; run from a checkout")
    sys.path.insert(0, str(ROOT / "src"))


def blas_facts() -> dict:
    """BLAS library name, version and thread count as NumPy's build reports them."""
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return {"blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads}


def facts(args) -> dict:
    import numpy as np
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": len(os.sched_getaffinity(0)),
        **blas_facts(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def print_table(title: str, metrics: dict) -> None:
    print(f"== {title}")
    print(f"  {'metric':34s} {'value':>14s} {'unit':10s} {'n':>5s}")
    for name, m in metrics.items():
        v = m["value"]
        text = "-" if v is None else f"{v:.6g}"
        print(f"  {name:34s} {text:>14s} {m['unit']:10s} {m['n']:5d}")


def run_all(args, workloads) -> int:
    """Run every workload in its own process, one after another, printing each table."""
    status = 0
    for name in workloads:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs; checks the harness, not speed")
    args = parser.parse_args(argv)

    _import_package()
    if not CONFIG.is_file():
        sys.exit(f"error: {CONFIG} is missing")
    from bench import WORKLOADS, metric, run_workload  # noqa: E402 - needs the path set above

    if args.workload == "all":
        return run_all(args, WORKLOADS)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be 'all' or one of {sorted(WORKLOADS)}")

    config = json.loads(CONFIG.read_text())
    run_facts = facts(args)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}{'_smoke' if args.smoke else ''}"
    try:
        result = run_workload(args, workdir, OUT / f"{tag}_spans.json")
    except Exception:  # noqa: BLE001 - report, then fail without a result line
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["metrics"]["peak_rss_mb"] = metric("peak_rss_mb", peak_rss_mb(), 1)
    run_facts.update(result["counts"])

    wanted = config["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    record = {"facts": run_facts, **result}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print("facts: " + json.dumps(run_facts, sort_keys=True))
    print_table(f"{args.workload} seed {args.seed} trace {args.trace}", result["metrics"])
    for p in result["problems"]:
        print(f"  FAILED {p}")
    correct = result["failed"] == 0
    line = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
            for m in wanted
        },
    }
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
