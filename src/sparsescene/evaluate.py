"""Campaign driver: scenarios × regimes × SNRs × methods → report files.

Each run is content-addressed (:func:`~.report.run_key`) by a hash of the
scenario, regime, SNR, bank and pipeline parameters; completed rows are
stored as ``rows/<key>.json`` and skipped on resume.  A campaign's bank is
the one it is given or the one it learns from its own corpus on this run,
written to ``banks/<method>.npz`` and never read back, so the bank hash in
every run key is that of the bank the run is coded with.  The runs of one
(method, scenario, SNR) share a mixture: it is rendered once, and its
regimes read one :class:`~.regimes.FrontEnd`, so its frame energies,
detector passes and STFT are computed once between them.  Such groups are independent and may
execute in a thread pool; the coordinating thread alone reads and writes
files, all through :mod:`.report` but for the banks it saves.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .bank import DictionaryBank
from .corpus import Corpus, write_wav
from .errors import DataError
from .manifest import Manifest
from .regimes import EvalParams, FrontEnd, RegimeContext, analyze, run_regime
from .report import read_row, result_to_json, run_key, write_aggregate, write_csv, write_json
from .scenario import MixScenario, generate_scenarios, render_scenario
from .separate import SeparationResult, estimate_snr_db
from .training import learn_bank

__all__ = ["run_manifest", "simulate_manifest", "analyze_signal"]

log = logging.getLogger(__name__)


def _corpus_and_scenarios(manifest: Manifest, out_dir: Path) -> tuple[Corpus, list[MixScenario]]:
    """The manifest's corpus and scenarios; the scenarios are written to ``scenarios.json``."""
    corpus = Corpus.from_dir(manifest.corpus_dir)
    scenarios = generate_scenarios(
        corpus,
        manifest.n_scenarios,
        seed=manifest.seed,
        half_duration_s=manifest.half_duration_s,
        utterances_per_half=manifest.utterances_per_half,
    )
    write_json({"scenarios": [s.to_dict() for s in scenarios]}, out_dir / "scenarios.json")
    return corpus, scenarios


def run_manifest(
    manifest: Manifest,
    out_dir: Path | str,
    *,
    resume: bool = True,
    banks: dict[str, DictionaryBank] | None = None,
) -> dict:
    """Execute a whole campaign and write ``report.csv`` / ``aggregate.json``.

    ``banks`` optionally maps method names to prebuilt banks, bypassing
    dictionary learning for those methods.  Every other method's bank is
    learned from the manifest's corpus on each call, resumed or not, and
    saved to ``banks/<method>.npz``; no bank file is ever loaded, so a
    directory that holds another corpus's campaign cannot lend it its bank.
    Returns a summary dictionary; its ``n_stale`` counts the files in
    ``rows/`` whose name is none of this campaign's run keys (rows of an
    earlier manifest or bank), which are kept and logged.
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
            bank = learn_bank(corpus, method, **manifest.recipe)
            bank.save(out_dir / "banks" / f"{method}.npz")
        contexts[method] = RegimeContext(bank, corpus, manifest.eval_params)

    # one group per rendered mixture: (method, scenario, SNR) -> its runs as (key, regime)
    groups: dict[tuple[str, int, float], list[tuple[str, str]]] = {}
    skipped_rows: list[dict] = []
    seen_keys: set[str] = set()
    for method, ctx in contexts.items():
        bank_hash = ctx.bank.content_hash()
        for i, scenario in enumerate(scenarios):
            for regime in manifest.regimes:
                for snr in manifest.snrs_db:
                    key = run_key(
                        scenario, regime, snr, bank_hash, manifest.eval_params, ctx.bank.method
                    )
                    if key in seen_keys:
                        continue
                    seen_keys.add(key)
                    row_path = rows_dir / f"{key}.json"
                    row = read_row(row_path, key) if resume and row_path.exists() else None
                    if row is not None:
                        skipped_rows.append(row)
                        continue
                    groups.setdefault((method, i, snr), []).append((key, regime))

    n_stale = sum(1 for path in rows_dir.glob("*.json") if path.stem not in seen_keys)
    if n_stale:
        log.warning(
            "%d rows in %s belong to no run of this campaign; keeping them", n_stale, rows_dir
        )

    for (method, _, _), runs in groups.items():
        if any(regime == "updated_speaker" for _, regime in runs):
            contexts[method].updated_speaker_bank()  # learn once, before any threads share ctx

    def execute(group: tuple[tuple[str, int, float], list[tuple[str, str]]]) -> list[dict]:
        """Render one mixture and run each of its regimes on one shared front end."""
        (method, i, snr), runs = group
        ctx = contexts[method]
        rendered = render_scenario(corpus, scenarios[i], snr)
        front = FrontEnd(rendered.mixture, ctx.bank.stft_config)
        return [
            result_to_json(run_regime(rendered, regime, ctx, front), key) for key, regime in runs
        ]

    computed_rows: list[dict] = []
    if groups:
        log.info(
            "running %d jobs on %d mixtures (%d already complete) with parallelism %d",
            sum(len(runs) for runs in groups.values()),
            len(groups),
            len(skipped_rows),
            manifest.parallelism,
        )
    with ThreadPoolExecutor(max_workers=manifest.parallelism) as pool:
        work = groups.items()
        produced = map(execute, work) if manifest.parallelism == 1 else pool.map(execute, work)
        for rows in produced:
            for row in rows:
                write_json(row, rows_dir / f"{row['run_key']}.json")
                computed_rows.append(row)
    n_failed = sum(1 for row in computed_rows if row.get("failure_stage"))

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
    if x.ndim != 1:
        raise DataError(f"signal has shape {x.shape}; analysis needs a one-dimensional signal")
    if x.size < config.n_fft:
        raise DataError(f"signal has {x.size} samples; analysis needs at least {config.n_fft}")
    if not np.all(np.isfinite(x)):
        raise DataError("signal holds non-finite samples (NaN or Inf)")
    found = analyze(FrontEnd(x, config), bank, params or EvalParams())
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
