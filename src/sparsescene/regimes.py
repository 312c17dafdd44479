"""Evaluation regimes: what the system is allowed to know about a mixture.

Every regime runs the same blind pipeline, :func:`analyze`, which codes each
frame in two stages: a short screen against a bank view's whole
``[speakers | noises]``, then a full coding against the screen's atoms of
only the speakers it shortlisted and the one noise it detected on that
frame's side of the switch.  A *regime* only fixes which
bank view that pipeline sees and which ground-truth facts replace its
answers when a rendered scenario is scored:

``ground_truth``
    Oracle conditions — a view holding only the true speaker and noise
    dictionaries, the true labels, and the true speech spans for the SNR
    estimate.  Upper bound for separation quality.
``complete``
    Fully blind, but every source in the mixture has a dictionary in the
    bank.  Speech spans come from the energy-clustering detector; noise
    types, the switch point and the speaker are all inferred.
``out_of_set_noise`` / ``out_of_set_speaker``
    Blind, and the true noise types (resp. the true speaker) have been
    removed from the bank, so the pipeline must fall back to the closest
    remaining dictionaries.  Removal is enforced through a restricted bank
    view whose access counters prove the removed entries are never read.
``updated_noise``
    The bank's noise dictionaries are replaced by two learned from the
    noise-only frames, in the mixture's own spectrogram, on each side of its
    switch (the switch and the ground-truth utterance spans are assumed
    known).
``updated_speaker``
    The speaker dictionaries are relearned with the bank's own method,
    parameters and STFT settings on additional speaker enrollment material
    (the corpus's ``train`` and ``update`` splits) before the otherwise blind
    pipeline runs; the bank's noise dictionaries are kept as they are, also
    for a bank learned from another corpus.

The regimes of one rendered mixture can share one :class:`FrontEnd`, which
keeps the mixture's frame energies, detector masks and STFT once computed;
a row is the same whether its run shares one or makes its own.

Each run yields a :class:`RunResult`; failures on bad data (package errors,
``ValueError``, ``KeyError``) are captured per run with the stage at which
they occurred rather than aborting a whole evaluation.  Any other exception
is a bug and propagates.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .bank import DictionaryBank
from .classify import SCREEN_ITERS, Coding, NoiseDecision, classify_noise, rank_speakers
from .corpus import Corpus
from .dictionary import LearnedDictionary, learn_dictionary
from .errors import DataError, SparseSceneError
from .features import StftConfig, frame_energies, frame_times, stft
from .metrics import restrict_to_spans, si_sdr_db, snr_db
from .scenario import RenderedScenario
from .separate import SeparationResult, estimate_snr_db, separate
from .solvers import CHECK_EVERY, code_frames
from .training import _gate_silence, relearn_speakers
from .vad import (
    detect_speech_frames,
    frames_to_intervals,
    intervals_to_frame_mask,
    miss_false_rates,
)

__all__ = [
    "ALL_REGIMES",
    "Analysis",
    "EvalParams",
    "FrontEnd",
    "RegimeContext",
    "RunResult",
    "analyze",
    "run_regime",
]

log = logging.getLogger(__name__)

ALL_REGIMES = (
    "ground_truth",
    "complete",
    "out_of_set_noise",
    "out_of_set_speaker",
    "updated_noise",
    "updated_speaker",
)


#: cluster counts whose detector miss/false-alarm rates each run reports
VAD_KS = (2, 3, 4)
#: the cluster count of the detector whose spans the pipeline uses
VAD_PRIMARY_K = 2
#: shortest detected speech span, in frames
MIN_SPEECH_FRAMES = 3
#: how many of the screen's top-ranked speakers the pipeline codes again
SHORTLIST = 2
#: the shortlist's ``mu`` settle test: a frame stops at the first check, every
#: ``CHECK_EVERY`` (5) sweeps, where its block shares moved by at most this
SETTLE_TOL = 2e-4


@dataclass(frozen=True)
class EvalParams:
    """How every run of an evaluation codes its frames.

    Each frame is first screened against the whole bank view
    (:func:`classify_noise`); each side of the switch is then coded against
    the :data:`SHORTLIST` speakers that score highest there and that side's
    detected noise with ``solver`` (``mu`` or ``asna``), where
    ``coding_iters`` is the ``mu`` sweep budget.  A ``mu`` frame stops
    earlier, at the first check every :data:`~sparsescene.solvers.CHECK_EVERY`
    (5) sweeps where its block shares moved by at most :data:`SETTLE_TOL`
    (2e-4), that is 4e-5 per sweep.  ``to_dict()``, which also records the
    screen's budget, the shortlist length, that the noises are coded per
    side and that settle rule, is part of every campaign run key.
    """

    solver: str = "mu"
    coding_iters: int = 400

    def __post_init__(self) -> None:
        if self.solver not in ("mu", "asna"):
            raise DataError(f"solver must be 'mu' or 'asna', not {self.solver!r}")
        if self.coding_iters < 1:
            raise DataError("coding_iters must be at least 1")

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "screen_iters": SCREEN_ITERS,
            "shortlist": SHORTLIST,
            "shortlist_noise": "per_side",
            "settle": {"every": CHECK_EVERY, "tol": SETTLE_TOL},
        }

    def solver_kwargs(self) -> dict:
        """Extra arguments for the shortlist's batch coder implied by these parameters."""
        if self.solver == "mu":
            return {"n_iter": self.coding_iters, "tol": SETTLE_TOL}
        return {}


class FrontEnd:
    """One signal's front end: what every stage before the coding reads.

    These are the float64 samples, the frame energies, the detector's speech
    mask and speech spans per cluster count, the STFT and its magnitude, each
    taken with ``config`` on first use and then kept.  The regimes of one
    rendered mixture share one front end, so they frame, cluster and
    transform the mixture once between them.  A piece whose computation raises is not
    kept: each regime that needs it computes it again and fails at its own
    stage, as it would alone.  The kept arrays are shared; readers must not
    write to them.
    """

    def __init__(self, samples: np.ndarray, config: StftConfig):
        self.samples = np.asarray(samples, dtype=np.float64)
        self.config = config
        self._kept: dict = {}

    def _once(self, key, compute: Callable):
        if key not in self._kept:
            self._kept[key] = compute()
        return self._kept[key]

    def energies(self) -> np.ndarray:
        return self._once("energies", lambda: frame_energies(self.samples, self.config))

    def speech_mask(self, k: int = VAD_PRIMARY_K) -> np.ndarray:
        """The detected speech frames with ``k`` clusters."""
        return self._once(("mask", k), lambda: detect_speech_frames(self.energies(), k))

    def speech_spans(self, k: int = VAD_PRIMARY_K) -> list[tuple[float, float]]:
        """The speech mask's runs of at least :data:`MIN_SPEECH_FRAMES` frames, in seconds."""
        return self._once(
            ("spans", k),
            lambda: frames_to_intervals(self.speech_mask(k), self.config, MIN_SPEECH_FRAMES),
        )

    def spectrogram(self) -> np.ndarray:
        return self._once("spectrogram", lambda: stft(self.samples, self.config))

    def magnitude(self) -> np.ndarray:
        """The STFT's magnitude, the features every coding reads."""
        return self._once("magnitude", lambda: np.abs(self.spectrogram()))


class RegimeContext:
    """Bank, corpus and parameters shared by the runs of one evaluation."""

    def __init__(self, bank: DictionaryBank, corpus: Corpus, params: EvalParams | None = None):
        self.bank = bank
        self.corpus = corpus
        sample_rate = bank.stft_config.sample_rate
        if sample_rate != corpus.sample_rate:
            raise DataError(
                f"the bank was learned at {sample_rate} Hz "
                f"but the corpus is at {corpus.sample_rate} Hz"
            )
        self.params = params or EvalParams()
        self._updated_speaker_bank: DictionaryBank | None = None

    def updated_speaker_bank(self) -> DictionaryBank:
        """This bank's noises plus speakers relearned with its recipe on train + update.

        Learned once and cached; it does not depend on any scenario.
        """
        if self._updated_speaker_bank is None:
            log.info("relearning speaker dictionaries with update split (%s)", self.bank.method)
            self._updated_speaker_bank = relearn_speakers(self.bank, self.corpus)
        return self._updated_speaker_bank

    def bank_for(
        self, regime: str, rendered: RenderedScenario, front: FrontEnd
    ) -> DictionaryBank:
        """The bank view the pipeline codes against under ``regime``.

        ``updated_noise`` learns its noises from ``front``, the front end of
        ``rendered``'s mixture.
        """
        sc = rendered.scenario
        if regime == "ground_truth":
            speakers, noises = {sc.speaker}, {sc.noise_first, sc.noise_second}
            missing = (speakers - set(self.bank.speaker_labels)) | (
                noises - set(self.bank.noise_labels)
            )
            if missing:
                raise KeyError(f"bank lacks the true sources {sorted(missing)}")
            return self.bank.restricted(
                exclude_speakers=set(self.bank.speaker_labels) - speakers,
                exclude_noises=set(self.bank.noise_labels) - noises,
            )
        if regime == "updated_noise":
            first, second = _adapted_noises(rendered, front, self)
            view = self.bank.restricted(exclude_noises=self.bank.noise_labels)
            return view.with_replaced("noise", "adapted_first", first).with_replaced(
                "noise", "adapted_second", second
            )
        if regime == "out_of_set_noise":
            return self.bank.restricted(exclude_noises={sc.noise_first, sc.noise_second})
        if regime == "out_of_set_speaker":
            return self.bank.restricted(exclude_speakers={sc.speaker})
        if regime == "updated_speaker":
            return self.updated_speaker_bank()
        return self.bank


@dataclass
class RunResult:
    """Everything measured for one (scenario, regime, SNR) run.

    The field order is the column order of ``report.csv``.
    """

    scenario_id: str
    regime: str
    method: str
    snr_nominal_db: float
    speaker_true: str
    noise_first_true: str
    noise_second_true: str
    transition_true_s: float
    speaker_pred: str | None = None
    speaker_rank: tuple[str, ...] = ()
    speaker_correct: bool | None = None
    speaker_top3_correct: bool | None = None
    noise_first_pred: str | None = None
    noise_second_pred: str | None = None
    noise_correct: bool | None = None
    transition_pred_s: float | None = None
    transition_abs_error_s: float | None = None
    input_snr_db: float | None = None
    sdr_db: float | None = None
    sdr_gain_db: float | None = None
    est_snr_db: float | None = None
    snr_error_db: float | None = None
    vad_rates: dict[int, tuple[float, float]] = field(default_factory=dict)
    failure_stage: str | None = None
    error: str | None = None


def _adapted_noises(
    rendered: RenderedScenario, front: FrontEnd, ctx: RegimeContext
) -> tuple[LearnedDictionary, LearnedDictionary]:
    """Learn one noise dictionary per side of the scenario's switch from its noise-only frames.

    ``front`` is the front end of ``rendered``'s mixture; its magnitude is
    the feature matrix.
    """
    config = ctx.bank.stft_config
    mag = front.magnitude()
    n_frames = mag.shape[1]
    speech_mask = intervals_to_frame_mask(rendered.speech_spans, n_frames, config)
    first_half = frame_times(n_frames, config) < rendered.transition_s
    p = ctx.bank.params
    out = []
    for half, in_half in enumerate((first_half, ~first_half)):
        feats = _gate_silence(mag[:, in_half & ~speech_mask])
        if feats.shape[1] == 0:
            feats = mag[:, in_half]
        rng = np.random.default_rng(np.random.SeedSequence([rendered.scenario.seed, half]))
        out.append(
            learn_dictionary(
                feats, ctx.bank.method, p["n_atoms"], tw=p["tw"], tb=p["tb"], rng=rng
            )
        )
    return out[0], out[1]


@dataclass
class Analysis:
    """What the blind pipeline finds in one signal.

    ``noise`` is read off ``screen``; the ranking and separation read ``coding``.
    """

    speech_spans: list[tuple[float, float]]
    noise: NoiseDecision
    screen: Coding
    coding: Coding
    speaker_ranking: list[str]
    separation: SeparationResult


def analyze(
    front: FrontEnd,
    bank: DictionaryBank,
    params: EvalParams,
    on_stage: Callable[[str], None] = lambda stage: None,
) -> Analysis:
    """The blind pipeline: screen every frame of one STFT, then code each side of the switch.

    ``front`` holds the signal, its detected speech frames (with
    :data:`VAD_PRIMARY_K` clusters) and its STFT, taken with the bank's own
    settings.  The STFT's magnitude is screened against ``bank``'s whole
    ``[speakers | noises]`` (:func:`classify_noise`), which gives the noise
    pair, the switch and a first speaker ranking over detected speech.  The
    second coding keeps the screen's atoms (:meth:`Coding.only`) of the
    :data:`SHORTLIST` top-ranked speakers and both detected noises.  It codes
    the frames before the switch as ``params`` says against the shortlist and
    ``noise_first``, those after it against the shortlist and
    ``noise_second``, each from (for ``mu``) the screen's weights on those
    atoms and frames; a side's weights on the other side's noise are 0, and a
    side without frames (a one-noise bank switches at frame 0) is not coded.
    The ranking is the shortlist in its second-coding order, then the other
    speakers in screen order; the Wiener mask, applied to the same STFT, is
    the top speaker's block of the second model over that model.
    ``on_stage`` is told each stage's name as it starts.
    """
    config = bank.stft_config
    if front.config != config:
        raise ValueError(f"the front end's {front.config} is not the bank's {config}")
    speech_mask = front.speech_mask()
    on_stage("features")
    spectrogram = front.spectrogram()
    mag = front.magnitude()
    on_stage("noise_id")
    noise, screen = classify_noise(mag, bank)
    on_stage("speaker_id")
    screened = rank_speakers(mag, screen, speech_mask)
    shortlist = {("speaker", label) for label in screened[:SHORTLIST]}
    sides = (
        (slice(0, noise.split), noise.noise_first),
        (slice(noise.split, mag.shape[1]), noise.noise_second),
    )
    coding = screen.only(shortlist | {("noise", label) for _, label in sides})
    for frames, label in sides:
        if frames.start == frames.stop:
            continue
        side = coding.only(shortlist | {("noise", label)})
        coded = code_frames(
            mag[:, frames],
            side.dictionary,
            solver=params.solver,
            blocks=[g[2].start for g in side.groups],
            **params.solver_kwargs(),
            **({"init": side.weights[:, frames]} if params.solver == "mu" else {}),
        )
        coding.weights[:, frames] = 0.0  # the other side's noise is not coded here
        for kind, source, rows in side.groups:
            coding.weights[coding.block(kind, source), frames] = coded[rows]
    ranking = rank_speakers(mag, coding, speech_mask) + screened[SHORTLIST:]
    on_stage("separation")
    top = coding.block("speaker", ranking[0])
    sep = separate(spectrogram, front.samples, coding.dictionary, coding.weights, top, config)
    return Analysis(front.speech_spans(), noise, screen, coding, ranking, sep)


def run_regime(
    rendered: RenderedScenario,
    regime: str,
    ctx: RegimeContext,
    front: FrontEnd | None = None,
) -> RunResult:
    """Run the full pipeline on one rendered scenario under one regime.

    ``front`` is the front end of ``rendered``'s mixture with the bank's STFT
    settings; the regimes of one mixture pass the same one so that they share
    its work.  It is made here when not given.
    """
    if regime not in ALL_REGIMES:
        raise ValueError(f"unknown regime {regime!r}; choose from {ALL_REGIMES}")
    sc = rendered.scenario
    config = ctx.bank.stft_config
    front = front or FrontEnd(rendered.mixture, config)
    res = RunResult(
        scenario_id=sc.scenario_id,
        regime=regime,
        method=ctx.bank.method,
        snr_nominal_db=float(rendered.snr_db),
        speaker_true=sc.speaker,
        noise_first_true=sc.noise_first,
        noise_second_true=sc.noise_second,
        transition_true_s=sc.transition_s,
    )
    stage = ["features"]
    try:
        front.energies()

        stage.append("vad")
        for k in VAD_KS:
            res.vad_rates[k] = miss_false_rates(sc.speech_spans, front.speech_spans(k))

        stage.append("noise_id")
        view = ctx.bank_for(regime, rendered, front)
        found = analyze(front, view, ctx.params, stage.append)

        decision = found.noise
        if regime == "ground_truth":
            res.noise_first_pred = sc.noise_first
            res.noise_second_pred = sc.noise_second
            res.noise_correct = True
            others = sorted(set(ctx.bank.speaker_labels) - {sc.speaker})
            rank = (sc.speaker, *others)
        else:
            if regime != "updated_noise":
                res.noise_first_pred = decision.noise_first
                res.noise_second_pred = decision.noise_second
                res.noise_correct = (
                    decision.noise_first == sc.noise_first
                    and decision.noise_second == sc.noise_second
                )
                res.transition_pred_s = decision.transition_s
                res.transition_abs_error_s = abs(decision.transition_s - sc.transition_s)
            rank = tuple(found.speaker_ranking)
        res.speaker_rank = rank
        res.speaker_pred = rank[0]
        res.speaker_correct = rank[0] == sc.speaker
        res.speaker_top3_correct = sc.speaker in rank[:3]

        stage.append("metrics")
        sep = found.separation
        gt_spans = rendered.speech_spans
        ref_speech = restrict_to_spans(rendered.speech, gt_spans, config.sample_rate)
        ref_noise = restrict_to_spans(rendered.noise, gt_spans, config.sample_rate)
        est_speech = restrict_to_spans(sep.speech, gt_spans, config.sample_rate)
        res.input_snr_db = snr_db(ref_speech, ref_noise)
        res.sdr_db = si_sdr_db(ref_speech, est_speech)
        res.sdr_gain_db = res.sdr_db - res.input_snr_db
        known_spans = (
            gt_spans if regime in ("ground_truth", "updated_noise") else found.speech_spans
        )
        res.est_snr_db = estimate_snr_db(sep, known_spans, config)
        res.snr_error_db = res.est_snr_db - res.input_snr_db
    except (SparseSceneError, ValueError, KeyError) as exc:
        # the errors the stages raise on bad data; anything else is a bug and propagates
        log.warning("run %s/%s failed at %s: %s", sc.scenario_id, regime, stage[-1], exc)
        res.failure_stage = stage[-1]
        res.error = f"{type(exc).__name__}: {exc}"
    return res
