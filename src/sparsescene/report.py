"""Report writing: per-run rows (CSV) and aggregate tables (JSON).

Rows carry every measured quantity for one (scenario, regime, SNR, method)
run in a fixed column order, with deterministic float formatting and no
timestamps, so identical evaluations produce byte-identical files.  The
aggregate mirrors the summary tables of a typical evaluation campaign:
classification accuracy by method, transition-error statistics, separation
quality by regime, and detector miss/false-alarm rates by cluster count.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, fields
from pathlib import Path
from statistics import fmean, pstdev

from .regimes import RunResult

__all__ = [
    "SCHEMA_VERSION",
    "ROW_COLUMNS",
    "result_to_json",
    "format_row",
    "write_csv",
    "aggregate_rows",
    "write_aggregate",
]

SCHEMA_VERSION = 1

ROW_COLUMNS = ["schema_version", "run_key", *(f.name for f in fields(RunResult))]


def _clean(value):
    """Replace non-finite floats with None so rows stay valid JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def result_to_json(result: RunResult, run_key: str) -> dict:
    """Typed row dictionary for one run (stored under ``rows/<key>.json``)."""
    row = asdict(result)
    row["speaker_rank"] = list(result.speaker_rank)
    row["vad_rates"] = {
        str(k): [_clean(v[0]), _clean(v[1])] for k, v in sorted(result.vad_rates.items())
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "run_key": run_key,
        **{name: _clean(value) for name, value in row.items()},
    }


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6f}"
    if isinstance(value, list):
        return "|".join(str(v) for v in value)
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return str(value)


def format_row(row: dict) -> dict[str, str]:
    """Render a typed row dictionary to the CSV string representation."""
    return {col: _fmt(row.get(col)) for col in ROW_COLUMNS}


def write_csv(rows: list[dict], path: Path | str) -> None:
    """Write typed rows (already sorted by the caller) as the report CSV."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=ROW_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(format_row(row))


def _mean_or_none(values: list[float]) -> float | None:
    return fmean(values) if values else None


def aggregate_rows(rows: list[dict]) -> dict:
    """Summary tables computed from typed rows.

    Accuracies are plain means of the row-level booleans; rows where a
    quantity does not apply (``None``) are excluded from that statistic.
    """
    ok_rows = [r for r in rows if not r.get("failure_stage")]

    def groups(keys):
        out: dict[tuple, list[dict]] = {}
        for r in ok_rows:
            out.setdefault(tuple(r[k] for k in keys), []).append(r)
        return dict(sorted(out.items()))

    accuracy: dict[str, dict[str, dict]] = {}
    for (method, regime), rs in groups(["method", "regime"]).items():
        noise = [r["noise_correct"] for r in rs if r["noise_correct"] is not None]
        top1 = [r["speaker_correct"] for r in rs if r["speaker_correct"] is not None]
        top3 = [
            r["speaker_top3_correct"] for r in rs if r["speaker_top3_correct"] is not None
        ]
        accuracy.setdefault(method, {})[regime] = {
            "n": len(rs),
            "noise_accuracy": _mean_or_none([float(b) for b in noise]),
            "speaker_top1_accuracy": _mean_or_none([float(b) for b in top1]),
            "speaker_top3_accuracy": _mean_or_none([float(b) for b in top3]),
        }

    transition: dict[str, dict[str, dict]] = {}
    for (method, regime), rs in groups(["method", "regime"]).items():
        errs = [
            r["transition_abs_error_s"]
            for r in rs
            if r["transition_abs_error_s"] is not None
        ]
        if errs:
            transition.setdefault(method, {})[regime] = {
                "n": len(errs),
                "mean_abs_error_s": fmean(errs),
                "std_abs_error_s": pstdev(errs) if len(errs) > 1 else 0.0,
            }

    sdr: dict[str, dict[str, dict]] = {}
    for (regime, method), rs in groups(["regime", "method"]).items():
        vals = [r["sdr_db"] for r in rs if r["sdr_db"] is not None]
        gains = [r["sdr_gain_db"] for r in rs if r["sdr_gain_db"] is not None]
        snre = [abs(r["snr_error_db"]) for r in rs if r["snr_error_db"] is not None]
        sdr.setdefault(regime, {})[method] = {
            "n": len(rs),
            "mean_sdr_db": _mean_or_none(vals),
            "mean_sdr_gain_db": _mean_or_none(gains),
            "mean_abs_snr_error_db": _mean_or_none(snre),
        }

    # Detector rates do not depend on regime or method; deduplicate so each
    # rendered mixture is counted once.
    seen: dict[tuple, dict] = {}
    for r in ok_rows:
        seen.setdefault((r["scenario_id"], r["snr_nominal_db"]), r)
    by_k: dict[str, dict[str, list[float]]] = {}
    for r in seen.values():
        for k, (mr, far) in r.get("vad_rates", {}).items():
            if mr is None or far is None:
                continue
            slot = by_k.setdefault(str(k), {"mr": [], "far": []})
            slot["mr"].append(mr)
            slot["far"].append(far)
    vad = {
        k: {
            "n": len(v["mr"]),
            "mean_miss_rate_pct": _mean_or_none(v["mr"]),
            "mean_false_alarm_rate_pct": _mean_or_none(v["far"]),
        }
        for k, v in sorted(by_k.items())
    }

    return {
        "schema_version": SCHEMA_VERSION,
        "n_rows": len(rows),
        "n_failed": len(rows) - len(ok_rows),
        "accuracy_by_method": accuracy,
        "transition_error_by_method": transition,
        "separation_by_regime": sdr,
        "vad_rates_by_k": vad,
    }


def write_aggregate(rows: list[dict], path: Path | str) -> dict:
    """Compute the aggregate for ``rows`` and write it as pretty JSON."""
    agg = aggregate_rows(rows)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(agg, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return agg
