"""Inputs, set-up, operations and output checks of the benchmark workloads.

Every input comes from the workload seed: the scenario recipes (with their
noise crops) and the bank seed.  The corpus is the bundled synthetic corpus at its fixed seed
0; the clip geometry (3-s halves for ``clip-asna``) is chosen against its
longest test utterance.  Only ``sparsescene``'s public API is called, and it
is looked up on the package at call time so a traced run sees its wrappers.
"""

from __future__ import annotations

import contextlib
import json
import math
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import sparsescene as ss

CORPUS_SEED = 0
N_ATOMS = 20
#: a run sets up at least ``SETUP_REPEATS`` times and until ``SETUP_SECONDS`` have
#: passed (at most ``SETUP_MAX``); ``setup_s`` is the median
SETUP_REPEATS = 3
SETUP_SECONDS = 3.0
SETUP_MAX = 15
#: SNR of clip ``i`` is ``SNR_CYCLE[i % 3]``; a one-clip run sees 0 dB
SNR_CYCLE = (0.0, -5.0, 5.0)
#: recipes generated per clip run; a run cycles through them
CLIP_POOL = 12
ANALYSIS_KEYS = frozenset(
    {
        "speech_spans_s",
        "noise_first",
        "noise_second",
        "noise_transition_s",
        "speaker_ranking",
        "speaker",
        "estimated_snr_db",
    }
)
#: relative bound on ``speech + noise - mixture`` away from the STFT edges
SUM_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "clip" or "campaign"
    method: str
    solver: str = "mu"
    half_s: float = 10.0


#: why each workload was chosen: perfbench/README.md and BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload("clip-mu", "clip", "kmeans", "mu", 10.0),
        Workload("campaign", "campaign", "ksvd", "mu", 10.0),
        # 3-s halves: the shortest half the corpus's longest test utterance fits
        Workload("clip-asna", "clip", "kmeans", "asna", 3.0),
    )
}


@dataclass
class Smoke:
    """Shrinks a run to seconds for the benchmark's own test."""

    clip_s: float = 0.5  # clips are cropped to this many seconds around the switch
    half_s: float = 3.0
    coding_iters: int = 20
    method: str = "kmeans"


class Tally:
    """Attempted and failed operations; every failure is kept with its reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str], count: int = 1) -> bool:
        self.attempted += count
        if problems:
            self.failed += count
            self.problems.extend(f"{what}: {p}" for p in problems)
        return not problems


def make_corpus(workdir: Path) -> ss.Corpus:
    return ss.Corpus.from_dir(ss.generate_corpus(workdir / "corpus", seed=CORPUS_SEED))


def set_up(corpus: ss.Corpus, method: str, bank_seed: int, path: Path, tally: Tally, repeats: int, seconds: float):
    """Learn the workload's bank and round-trip it through a file.

    Repeats ``repeats`` times, then more while the repeats so far took less
    than ``seconds`` (up to ``SETUP_MAX``).  Returns the loaded bank and the
    seconds of each repeat.
    """
    times = []
    loaded = None
    while len(times) < repeats or (sum(times) < seconds and len(times) < SETUP_MAX):
        t0 = time.perf_counter()
        bank = ss.learn_bank(corpus, method, N_ATOMS, seed=bank_seed)
        bank.save(path)
        loaded = ss.DictionaryBank.load(path)
        times.append(time.perf_counter() - t0)
        same = loaded.content_hash() == bank.content_hash()
        tally.record("set-up", [] if same else ["loaded bank differs from the learned bank"])
    return loaded, times


# -- clip workloads -----------------------------------------------------------


@dataclass
class Clip:
    index: int
    rendered: ss.RenderedScenario
    samples: np.ndarray  # what analyze_signal receives
    offset: int  # first sample of ``samples`` within the rendered scene

    @property
    def seconds(self) -> float:
        return len(self.samples) / self.rendered.sample_rate


class ClipSource:
    """Clip ``i`` of a seed: recipe ``i % CLIP_POOL`` rendered at ``SNR_CYCLE[i % 3]``."""

    def __init__(self, corpus: ss.Corpus, workload: Workload, seed: int, smoke: Smoke | None):
        self.corpus = corpus
        self.smoke = smoke
        half = smoke.half_s if smoke else workload.half_s
        self.recipes = ss.generate_scenarios(corpus, CLIP_POOL, seed=seed, half_duration_s=half)

    def clip(self, i: int) -> Clip:
        rendered = ss.render_scenario(
            self.corpus, self.recipes[i % CLIP_POOL], SNR_CYCLE[i % len(SNR_CYCLE)]
        )
        mixture = rendered.mixture
        offset = 0
        if self.smoke:
            n = int(self.smoke.clip_s * rendered.sample_rate)
            offset = int(rendered.transition_s * rendered.sample_rate) - n // 2
            mixture = mixture[offset : offset + n]
        return Clip(i, rendered, mixture, offset)


def stft_config(bank: ss.DictionaryBank) -> ss.StftConfig:
    fp = bank.feature_params
    return ss.StftConfig(sample_rate=int(fp["sample_rate"]), n_fft=int(fp["n_fft"]), hop=int(fp["hop"]))


def check_analysis(analysis: dict, sep, clip: Clip, bank: ss.DictionaryBank) -> list[str]:
    """Documented keys and types, labels from the bank, parts that sum to the mixture."""
    problems = []
    if set(analysis) != ANALYSIS_KEYS:
        problems.append(f"analysis keys {sorted(analysis)}")
        return problems
    duration = clip.seconds
    if sorted(analysis["speaker_ranking"]) != sorted(bank.speaker_labels):
        problems.append("speaker ranking is not a permutation of the bank's speakers")
    elif analysis["speaker"] != analysis["speaker_ranking"][0]:
        problems.append("speaker is not the top of the ranking")
    for key in ("noise_first", "noise_second"):
        if analysis[key] not in bank.noise_labels:
            problems.append(f"{key} {analysis[key]!r} is not a bank noise")
    t = analysis["noise_transition_s"]
    if not (isinstance(t, float) and 0.0 <= t <= duration):
        problems.append(f"noise_transition_s {t!r} outside the clip")
    for span in analysis["speech_spans_s"]:
        if not (len(span) == 2 and 0.0 <= span[0] <= span[1] <= duration + 1e-9):
            problems.append(f"speech span {span!r} malformed")
            break
    snr = analysis["estimated_snr_db"]
    if snr is not None and not math.isfinite(float(snr)):
        problems.append(f"estimated_snr_db {snr!r} not finite")

    x = np.asarray(clip.samples, dtype=np.float64)
    if sep.speech.shape != x.shape or sep.noise.shape != x.shape:
        problems.append("separated parts do not match the mixture's length")
        return problems
    config = stft_config(bank)
    interior = slice(config.n_fft, (config.n_frames(x.size) - 1) * config.hop)
    resid = np.max(np.abs(sep.speech[interior] + sep.noise[interior] - x[interior]), initial=0.0)
    if not resid <= SUM_TOL * max(1.0, float(np.max(np.abs(x)))):
        problems.append(f"speech + noise differs from the mixture by {resid:.3g}")
    return problems


def clip_quality(analysis: dict, sep, clip: Clip) -> dict:
    """Answers compared with the rendered ground truth of the clip."""
    r = clip.rendered
    sc = r.scenario
    sr = r.sample_rate
    start = clip.offset / sr
    end = start + clip.seconds
    spans = [
        (max(a, start) - start, min(b, end) - start)
        for a, b in r.speech_spans
        if min(b, end) > max(a, start)
    ]
    lo, hi = clip.offset, clip.offset + len(clip.samples)
    ref = ss.metrics.restrict_to_spans(r.speech[lo:hi], spans, sr)
    ref_noise = ss.metrics.restrict_to_spans(r.noise[lo:hi], spans, sr)
    est = ss.metrics.restrict_to_spans(sep.speech, spans, sr)
    gain = None
    if ref.size and float(np.sum(np.square(ref, dtype=np.float64))) > 0:
        gain = ss.si_sdr_db(ref, est) - ss.snr_db(ref, ref_noise)
    return {
        "noise_ok": analysis["noise_first"] == sc.noise_first
        and analysis["noise_second"] == sc.noise_second,
        "speaker_ok": analysis["speaker"] == sc.speaker,
        "switch_err_s": abs(analysis["noise_transition_s"] - (r.transition_s - start)),
        "sdr_gain_db": gain,
    }


def run_clip(bank, clip: Clip, params: ss.EvalParams, tally: Tally, op=None):
    """Analyse one clip and check it; returns (seconds, quality or None).

    ``op`` optionally opens a traced operation around the call alone.
    """
    try:
        with op() if op else contextlib.nullcontext():
            t0 = time.perf_counter()
            analysis, sep = ss.analyze_signal(bank, clip.samples, params)
            seconds = time.perf_counter() - t0
    except Exception as exc:  # noqa: BLE001 - a failed clip is counted, not fatal
        tally.record(f"clip {clip.index}", [f"{type(exc).__name__}: {exc}"])
        return None, None
    if not tally.record(f"clip {clip.index}", check_analysis(analysis, sep, clip, bank)):
        return seconds, None
    return seconds, clip_quality(analysis, sep, clip)


# -- campaign workload --------------------------------------------------------

REPORT_FILES = ("report.csv", "aggregate.json")


def campaign_manifest(
    corpus: ss.Corpus, seed: int, j: int, method: str, smoke: Smoke | None, parallelism: int = 1
) -> ss.Manifest:
    """Campaign ``j`` of a seed: its own two scenarios, the bank learned from ``seed``."""
    return ss.Manifest(
        corpus_dir=corpus.root,
        seed=int(np.random.SeedSequence([seed, j]).generate_state(1)[0]),
        n_scenarios=1 if smoke else 2,
        half_duration_s=smoke.half_s if smoke else 10.0,
        methods=(method,),
        n_atoms=N_ATOMS,
        bank_seed=seed,
        snrs_db=(0.0,),
        regimes=ss.ALL_REGIMES,
        eval_params=ss.EvalParams(coding_iters=smoke.coding_iters if smoke else 400),
        parallelism=parallelism,
    )


def expected_rows(manifest: ss.Manifest) -> int:
    return manifest.n_scenarios * len(manifest.regimes) * len(manifest.snrs_db) * len(manifest.methods)


def report_bytes(out_dir: Path) -> dict[str, bytes]:
    return {name: (out_dir / name).read_bytes() for name in REPORT_FILES}


def run_campaign(manifest, bank, out_dir: Path, tally: Tally, reference: dict | None, *, op=None, resume_of=False):
    """One ``run_manifest`` call and its checks.

    A fresh run (``resume_of`` false) must compute every row without a
    ``failure_stage``; a resumed run over a finished directory must skip every
    row.  Either way its report files must equal ``reference`` byte for byte
    when one is given.  ``op`` optionally opens a traced operation around the
    call alone.  Returns (seconds, rows, report bytes); rows and bytes
    are None when the run failed.
    """
    n = expected_rows(manifest)
    what = f"campaign {'resume' if resume_of else 'run'} {out_dir.name}"
    if not resume_of:
        shutil.rmtree(out_dir, ignore_errors=True)
    try:
        with op() if op else contextlib.nullcontext():
            t0 = time.perf_counter()
            summary = ss.run_manifest(manifest, out_dir, resume=True, banks={bank.method: bank})
            seconds = time.perf_counter() - t0
    except Exception as exc:  # noqa: BLE001 - a failed campaign is counted, not fatal
        tally.record(what, [f"{type(exc).__name__}: {exc}"], count=n)
        return None, None, None

    problems = []
    want = (0, n) if resume_of else (n, 0)
    got = (summary["n_computed"], summary["n_skipped"])
    if got != want or summary["n_rows"] != n:
        problems.append(f"computed/skipped {got}, expected {want} of {n} rows")
    rows = [json.loads(p.read_text()) for p in sorted((out_dir / "rows").glob("*.json"))]
    failed_rows = sum(1 for r in rows if r.get("failure_stage"))
    if len(rows) != n:
        problems.append(f"{len(rows)} row files, expected {n}")
    files = report_bytes(out_dir)
    if reference is not None:
        for name in REPORT_FILES:
            if files[name] != reference[name]:
                problems.append(f"{name} differs from the set's first run")
    if problems:
        tally.record(what, problems, count=n)
        return seconds, None, None
    tally.record(what, [], count=n - failed_rows)
    if failed_rows:
        tally.record(what, [f"{failed_rows} rows with a failure_stage"], count=failed_rows)
    return seconds, rows, files


def row_quality(rows: list[dict]) -> list[dict]:
    """The clip-quality fields of each row (None where the regime leaves one undefined)."""
    return [
        {
            "noise_ok": r["noise_correct"],
            "speaker_ok": r["speaker_correct"],
            "switch_err_s": r["transition_abs_error_s"],
            "sdr_gain_db": r["sdr_gain_db"],
        }
        for r in rows
    ]


# -- summaries ----------------------------------------------------------------


def quality_metrics(quality: list[dict]) -> dict[str, tuple[float | None, int]]:
    """Mean of each quality field over the items where it is defined, with the count."""
    out = {}
    for name, field_name in (
        ("noise_acc", "noise_ok"),
        ("speaker_acc", "speaker_ok"),
        ("switch_err_s", "switch_err_s"),
        ("sdr_gain_db", "sdr_gain_db"),
    ):
        values = [float(q[field_name]) for q in quality if q[field_name] is not None]
        out[name] = (float(np.mean(values)) if values else None, len(values))
    return out
