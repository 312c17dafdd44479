"""Campaign driver: scenarios × regimes × SNRs × methods → report files.

Each run is content-addressed by a hash of the scenario, regime, SNR, bank
and pipeline parameters; completed rows are stored as ``rows/<key>.json``
and skipped on resume.  Scenario runs are independent and may execute in a
thread pool; all files are written by the coordinating thread only.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from concurrent.futures import ThreadPoolExecutor, as_completed
from pathlib import Path

import numpy as np

from .bank import DictionaryBank
from .corpus import Corpus, generate_corpus, write_wav
from .errors import DataError
from .manifest import Manifest
from .features import frame_energies
from .regimes import VAD_PRIMARY_K, EvalParams, RegimeContext, analyze, run_regime
from .report import result_to_json, write_aggregate, write_csv
from .scenario import MixScenario, generate_scenarios, render_scenario
from .separate import SeparationResult, estimate_snr_db
from .training import learn_bank
from .vad import detect_speech_frames

__all__ = ["run_manifest", "simulate_manifest", "prepare_corpus", "analyze_signal"]

log = logging.getLogger(__name__)


def prepare_corpus(manifest: Manifest) -> Corpus:
    """Load the manifest's corpus, synthesising it first when requested."""
    root = manifest.corpus_dir
    if manifest.generate_corpus_seed is not None and not (root / "corpus.json").exists():
        log.info("synthesising corpus at %s (seed %d)", root, manifest.generate_corpus_seed)
        generate_corpus(
            root,
            seed=manifest.generate_corpus_seed,
            noise_seconds=manifest.corpus_noise_seconds,
        )
    return Corpus.from_dir(root)


def _corpus_and_scenarios(manifest: Manifest, out_dir: Path) -> tuple[Corpus, list[MixScenario]]:
    """The manifest's corpus and scenarios; the scenarios are written to ``scenarios.json``."""
    corpus = prepare_corpus(manifest)
    scenarios = generate_scenarios(
        corpus,
        manifest.n_scenarios,
        seed=manifest.seed,
        half_duration_s=manifest.half_duration_s,
        utterances_per_half=manifest.utterances_per_half,
    )
    _write_json_atomic(
        out_dir / "scenarios.json", {"scenarios": [s.to_dict() for s in scenarios]}
    )
    return corpus, scenarios


def _bank_for(
    manifest: Manifest, corpus: Corpus, method: str, out_dir: Path, resume: bool
) -> DictionaryBank:
    """Learn (or reload) the dictionary bank for one method."""
    recipe = dict(
        n_atoms=manifest.n_atoms, tw=manifest.tw, tb=manifest.tb, seed=manifest.bank_seed
    )
    path = out_dir / "banks" / f"{method}.npz"
    if resume and path.exists():
        try:
            bank = DictionaryBank.load(path)
            if bank.method == method and bank.params == recipe:
                log.info("reusing bank %s", path)
                return bank
            log.warning("bank %s does not match the manifest; relearning", path)
        except DataError as exc:
            log.warning("cannot reuse bank %s (%s); relearning", path, exc)
    bank = learn_bank(corpus, method, **recipe)
    path.parent.mkdir(parents=True, exist_ok=True)
    bank.save(path)
    return bank


def run_key(
    scenario: MixScenario, regime: str, snr_db: float, bank_hash: str, params: EvalParams
) -> str:
    """Content address of one run (stable across resumes and row ordering)."""
    payload = json.dumps(
        {
            "scenario": scenario.to_dict(),
            "regime": regime,
            "snr_db": snr_db,
            "bank": bank_hash,
            "eval": params.to_dict(),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:20]


def _write_json_atomic(path: Path, data: dict) -> None:
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def run_manifest(
    manifest: Manifest,
    out_dir: Path | str,
    *,
    resume: bool = True,
    banks: dict[str, DictionaryBank] | None = None,
) -> dict:
    """Execute a whole campaign and write ``report.csv`` / ``aggregate.json``.

    ``banks`` optionally maps method names to prebuilt banks, bypassing
    dictionary learning for those methods.  Returns a summary dictionary;
    its ``n_stale`` counts the files in ``rows/`` whose name is none of this
    campaign's run keys (rows of an earlier manifest or bank), which are
    kept and logged.
    Raises :class:`DataError` when the campaign yields no rows at all.
    """
    out_dir = Path(out_dir)
    rows_dir = out_dir / "rows"
    rows_dir.mkdir(parents=True, exist_ok=True)

    corpus, scenarios = _corpus_and_scenarios(manifest, out_dir)

    contexts: dict[str, RegimeContext] = {}
    for method in manifest.methods:
        if banks is not None and method in banks:
            bank = banks[method]
        else:
            bank = _bank_for(manifest, corpus, method, out_dir, resume)
        contexts[method] = RegimeContext(bank, corpus, manifest.eval_params)

    jobs: list[tuple[str, MixScenario, str, float, str]] = []
    skipped_rows: list[dict] = []
    seen_keys: set[str] = set()
    for method, ctx in contexts.items():
        bank_hash = ctx.bank.content_hash()
        for scenario in scenarios:
            for regime in manifest.regimes:
                for snr in manifest.snrs_db:
                    key = run_key(scenario, regime, snr, bank_hash, manifest.eval_params)
                    if key in seen_keys:
                        continue
                    seen_keys.add(key)
                    row_path = rows_dir / f"{key}.json"
                    if resume and row_path.exists():
                        try:
                            with open(row_path) as fh:
                                row = json.load(fh)
                            if row.get("run_key") == key:
                                skipped_rows.append(row)
                                continue
                            log.warning("row %s has a mismatched key; recomputing", row_path)
                        except (OSError, json.JSONDecodeError) as exc:
                            log.warning("cannot reuse row %s (%s); recomputing", row_path, exc)
                    jobs.append((key, scenario, regime, snr, method))

    n_stale = sum(1 for path in rows_dir.glob("*.json") if path.stem not in seen_keys)
    if n_stale:
        log.warning(
            "%d rows in %s belong to no run of this campaign; keeping them", n_stale, rows_dir
        )

    for method in dict.fromkeys(job[4] for job in jobs if job[2] == "updated_speaker"):
        contexts[method].updated_speaker_bank()  # learn once, before any threads share ctx

    def execute(job: tuple[str, MixScenario, str, float, str]) -> dict:
        key, scenario, regime, snr, method = job
        ctx = contexts[method]
        rendered = render_scenario(corpus, scenario, snr)
        result = run_regime(rendered, regime, ctx)
        return result_to_json(result, key)

    computed_rows: list[dict] = []
    n_failed = 0
    if jobs:
        log.info(
            "running %d jobs (%d already complete) with parallelism %d",
            len(jobs),
            len(skipped_rows),
            manifest.parallelism,
        )
    if manifest.parallelism == 1:
        produced = map(execute, jobs)
        for row in produced:
            _write_json_atomic(rows_dir / f"{row['run_key']}.json", row)
            computed_rows.append(row)
            n_failed += 1 if row.get("failure_stage") else 0
    else:
        with ThreadPoolExecutor(max_workers=manifest.parallelism) as pool:
            futures = [pool.submit(execute, job) for job in jobs]
            for fut in as_completed(futures):
                row = fut.result()
                _write_json_atomic(rows_dir / f"{row['run_key']}.json", row)
                computed_rows.append(row)
                n_failed += 1 if row.get("failure_stage") else 0

    rows = skipped_rows + computed_rows
    if not rows:
        raise DataError("evaluation produced no result rows")
    rows.sort(
        key=lambda r: (
            r["scenario_id"],
            r["regime"],
            r["snr_nominal_db"],
            r["method"],
        )
    )
    report_csv = out_dir / "report.csv"
    aggregate_json = out_dir / "aggregate.json"
    write_csv(rows, report_csv)
    write_aggregate(rows, aggregate_json)
    return {
        "n_rows": len(rows),
        "n_computed": len(computed_rows),
        "n_skipped": len(skipped_rows),
        "n_failed": n_failed,
        "n_stale": n_stale,
        "report_csv": str(report_csv),
        "aggregate_json": str(aggregate_json),
    }


def simulate_manifest(manifest: Manifest, out_dir: Path | str) -> dict:
    """Render every scenario × SNR of a manifest to WAV files.

    Writes ``scenarios.json`` plus ``audio/<scenario>_<snr>dB_{mixture,
    speech,noise}.wav`` and returns a summary.
    """
    out_dir = Path(out_dir)
    audio_dir = out_dir / "audio"
    audio_dir.mkdir(parents=True, exist_ok=True)
    corpus, scenarios = _corpus_and_scenarios(manifest, out_dir)
    n_files = 0
    for scenario in scenarios:
        for snr in manifest.snrs_db:
            rendered = render_scenario(corpus, scenario, snr)
            tag = f"{scenario.scenario_id}_{snr:+.0f}dB"
            for name, samples in (
                ("mixture", rendered.mixture),
                ("speech", rendered.speech),
                ("noise", rendered.noise),
            ):
                write_wav(audio_dir / f"{tag}_{name}.wav", samples, corpus.sample_rate)
                n_files += 1
    return {"n_scenarios": len(scenarios), "n_files": n_files, "audio_dir": str(audio_dir)}


def analyze_signal(
    bank: DictionaryBank,
    samples: np.ndarray,
    params: EvalParams | None = None,
) -> tuple[dict, SeparationResult]:
    """Blind pipeline for a single signal against a bank.

    Returns a JSON-friendly analysis (speech spans, noise types, switch
    point, speaker ranking, estimated SNR) plus the separated components.
    """
    config = bank.stft_config
    x = np.asarray(samples, dtype=np.float64)
    if x.size < config.n_fft:
        raise DataError(f"signal has {x.size} samples; analysis needs at least {config.n_fft}")
    if not np.all(np.isfinite(x)):
        raise DataError("signal holds non-finite samples (NaN or Inf)")
    speech_mask = detect_speech_frames(frame_energies(x, config), VAD_PRIMARY_K)
    found = analyze(x, speech_mask, bank, params or EvalParams())
    sep = found.separation
    est_snr = estimate_snr_db(sep, found.speech_spans or None, config)
    analysis = {
        "speech_spans_s": [[round(a, 4), round(b, 4)] for a, b in found.speech_spans],
        "noise_first": found.noise.noise_first,
        "noise_second": found.noise.noise_second,
        "noise_transition_s": round(found.noise.transition_s, 4),
        "speaker_ranking": list(found.speaker_ranking),
        "speaker": found.speaker_ranking[0],
        "estimated_snr_db": round(est_snr, 3) if np.isfinite(est_snr) else None,
    }
    return analysis, sep
