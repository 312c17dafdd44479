"""Campaign files: per-run rows (JSON), the report (CSV) and aggregate tables (JSON).

Rows carry every measured quantity for one (scenario, regime, SNR, method)
run in a fixed column order, with deterministic float formatting and no
timestamps, so identical evaluations produce byte-identical files.  The
aggregate mirrors the summary tables of a typical evaluation campaign:
classification accuracy by method, transition-error statistics, separation
quality by regime, and detector miss/false-alarm rates by cluster count.
Every file is written to a temporary file that then replaces it, so a write
that fails part-way keeps the previous file whole.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import math
import os
from dataclasses import asdict, fields
from pathlib import Path
from statistics import fmean, pstdev

from .regimes import EvalParams, RunResult
from .scenario import MixScenario

__all__ = [
    "SCHEMA_VERSION",
    "ROW_COLUMNS",
    "run_key",
    "result_to_json",
    "format_row",
    "write_json",
    "read_row",
    "write_csv",
    "aggregate_rows",
    "write_aggregate",
]

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1

ROW_COLUMNS = ["schema_version", "run_key", *(f.name for f in fields(RunResult))]


def _clean(value):
    """Replace non-finite floats with None so rows stay valid JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def run_key(
    scenario: MixScenario,
    regime: str,
    snr_db: float,
    bank_hash: str,
    params: EvalParams,
    method: str,
) -> str:
    """Content address of one run (stable across resumes and row ordering).

    ``method`` is the bank's learning method: only a ``ksvd`` key records
    K-SVD's schedule, with which that campaign relearns.
    """
    payload = json.dumps(
        {
            "scenario": scenario.to_dict(),
            "regime": regime,
            "snr_db": snr_db,
            "bank": bank_hash,
            "eval": params.to_dict(method),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:20]


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


def _replace(path: Path | str, text: str) -> None:
    """Replace ``path`` with ``text`` through ``<name>.tmp``, which no ``*.json`` glob sees."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8", newline="")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_json(data: dict, path: Path | str) -> None:
    """Write ``data`` as indented JSON with sorted keys."""
    _replace(path, json.dumps(data, indent=2, sort_keys=True) + "\n")


def read_row(path: Path, key: str) -> dict | None:
    """The row stored at ``path`` if it is run ``key``'s, else None (logged, to recompute)."""
    try:
        row = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, not JSON
        log.warning("cannot reuse row %s (%s); recomputing", path, exc)
        return None
    if isinstance(row, dict) and row.get("run_key") == key:
        return row
    log.warning("row %s has a mismatched key; recomputing", path)
    return None


def write_csv(rows: list[dict], path: Path | str) -> None:
    """Write typed rows (already sorted by the caller) as the report CSV."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=ROW_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(format_row(row))
    _replace(path, buf.getvalue())


def _mean_or_none(values: list[float]) -> float | None:
    return fmean(values) if values else None


def aggregate_rows(rows: list[dict]) -> dict:
    """Summary tables computed from typed rows.

    Accuracies are plain means of the row-level booleans; rows where a
    quantity does not apply (``None``) are excluded from that statistic.
    """
    ok_rows = [r for r in rows if not r.get("failure_stage")]
    groups: dict[tuple[str, str], list[dict]] = {}
    for r in ok_rows:
        groups.setdefault((r["method"], r["regime"]), []).append(r)

    def present(rs: list[dict], key: str) -> list:
        return [r[key] for r in rs if r[key] is not None]

    accuracy: dict[str, dict[str, dict]] = {}
    transition: dict[str, dict[str, dict]] = {}
    sdr: dict[str, dict[str, dict]] = {}
    for (method, regime), rs in groups.items():
        accuracy.setdefault(method, {})[regime] = {
            "n": len(rs),
            "noise_accuracy": _mean_or_none(present(rs, "noise_correct")),
            "speaker_top1_accuracy": _mean_or_none(present(rs, "speaker_correct")),
            "speaker_top3_accuracy": _mean_or_none(present(rs, "speaker_top3_correct")),
        }
        errs = present(rs, "transition_abs_error_s")
        if errs:
            transition.setdefault(method, {})[regime] = {
                "n": len(errs),
                "mean_abs_error_s": fmean(errs),
                "std_abs_error_s": pstdev(errs) if len(errs) > 1 else 0.0,
            }
        sdr.setdefault(regime, {})[method] = {
            "n": len(rs),
            "mean_sdr_db": _mean_or_none(present(rs, "sdr_db")),
            "mean_sdr_gain_db": _mean_or_none(present(rs, "sdr_gain_db")),
            "mean_abs_snr_error_db": _mean_or_none([abs(v) for v in present(rs, "snr_error_db")]),
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
    write_json(agg, path)
    return agg
