"""Tests of the benchmark itself.  Run from the repository root with

    python3 -m pytest perfbench/test_perfbench.py

Each workload runs once untraced and once traced in smoke mode (tiny
inputs), so the harness cannot rot without a failing test.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import sparsescene as ss  # noqa: E402
from bench import UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402
from spans import POST, Span, Tracer, self_times  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())

#: every end-to-end metric the benchmark defines; each run prints all of them
END_TO_END = (
    "setup_s",
    "rtf",
    "runs_per_s",
    "error_rate",
    "noise_acc",
    "speaker_acc",
    "switch_err_s",
    "sdr_gain_db",
    "peak_rss_mb",
)
#: every per-layer metric the benchmark defines; each traced run prints all of them
PER_LAYER = (
    "solvers.mu.self_s",
    "solvers.mu.frames",
    "solvers.mu.us_per_frame",
    "solvers.asna.self_s",
    "solvers.asna.frames",
    "solvers.asna.ms_per_frame",
    "solvers.asna.nnz_per_frame",
    "solvers.mu.final_kl",
    "solvers.asna.final_kl",
    "solvers.mu.subnormal_frac",
    "solvers.code_calls_per_clip",
    "solvers.frames_coded_ratio",
    "features.self_s",
    "vad.self_s",
    "classify.noise.self_s",
    "classify.speakers.self_s",
    "separate.self_s",
    "training.learn_bank.s",
    "bank.io_s",
    "dictionary.learn.calls",
    "dictionary.learn.self_s",
    "scenario.render.s",
    "metrics.self_s",
    "report.self_s",
    "evaluate.run_manifest.self_s",
    "regimes.self_s",
    *(f"regimes.{r}.s" for r in ss.ALL_REGIMES),
    "evaluate.analyze_signal.s",
    "evaluate.resume.s",
    "evaluate.pool2_ratio",
    "trace.overhead_frac",
)


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def table_rows(stdout: str) -> dict[str, tuple[str, int]]:
    """``metric -> (unit, n)`` from the printed table."""
    rows = {}
    for line in stdout.splitlines():
        parts = line.split()
        if line.startswith("  ") and len(parts) == 4 and parts[3].isdigit():
            rows[parts[0]] = (parts[2], int(parts[3]))
    return rows


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = run_bench(
        ROOT, "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke"
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1

    wanted = {m["name"]: m["unit"] for m in CONFIG["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())

    table = table_rows(proc.stdout)
    for name in PER_LAYER if trace else END_TO_END:
        assert name in table, name
        assert table[name][0] == UNITS[name], name
    assert "nproc" in proc.stdout and "blas_threads" in proc.stdout


def test_benchmark_config_names_only_defined_metrics():
    for group in ("end_to_end", "per_layer"):
        for m in CONFIG[group]:
            assert UNITS[m["name"]] == m["unit"], m["name"]
    bounds = {m["name"]: m["bound"] for m in CONFIG["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "--workload", "clip-mu", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_what_children_cover():
    spans = [
        Span(0, None, 0, "a", 0.0, 10.0),
        Span(1, 0, 0, "b", 1.0, 4.0),
        Span(2, 1, 0, "c", 2.0, 3.0),
        Span(3, 0, 0, "d", 6.0, 7.5),
    ]
    assert self_times(spans) == pytest.approx({0: 5.5, 1: 2.0, 2: 1.0, 3: 1.5})


def test_wrappers_nest_inside_an_operation_and_are_restored():
    import sparsescene.classify as classify
    import sparsescene.solvers as solvers

    originals = (classify.code_frames, solvers.solve_mu, ss.DictionaryBank.__dict__["load"])
    rng = np.random.default_rng(0)
    D = rng.random((6, 3))
    Y = rng.random((6, 4))
    tracer = Tracer()
    with tracer.installed():
        assert classify.code_frames is not originals[0]
        solvers.code_frames(Y, D, solver="mu", n_iter=5)  # outside an operation: not recorded
        with tracer.op("clip"):
            classify.code_frames(Y, D, solver="mu", n_iter=5)
    assert (classify.code_frames, solvers.solve_mu, ss.DictionaryBank.__dict__["load"]) == originals

    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("solvers.code_frames", None), ("solvers.mu", 0), (POST, 0)]
    mu = tracer.spans[1]
    assert mu.attrs["columns"] == 4 and mu.attrs["weights"] == 12
    assert mu.attrs["final_kl"] > 0
    assert all(s.op == 0 for s in tracer.spans)
