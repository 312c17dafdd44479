"""Noise-switching mixture scenarios: specification, generation, and rendering.

A scenario is a list of ``(duration_s, noise)`` segments that run back to
back from 0 s, adjacent ones with different noise types.  Utterances of a
single speaker, drawn from the corpus's ``test`` split, lie inside the
segments, at least one in each.  The noise level is scaled per segment to
hit a target signal-to-noise ratio measured over the segment's
speech-active span.  :func:`generate_scenarios` draws two equal segments.

Rendering stores the clean speech track and the scaled noise track alongside
the mixture; all three are float32 and the mixture is computed as their
float32 sum, so the stored components add up to the mixture bit-exactly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import accumulate

import numpy as np

from .corpus import Corpus
from .errors import DataError
from .metrics import spans_to_sample_mask

__all__ = [
    "UtterancePlacement",
    "MixScenario",
    "RenderedScenario",
    "generate_scenarios",
    "render_scenario",
    "segment_bounds",
]

#: shortest gap between a generated utterance and the edge of its segment, in seconds
MARGIN_S = 0.25
#: the generator's default scene: two segments of this length (s), this many utterances in each
HALF_DURATION_S = 10.0
UTTERANCES_PER_HALF = 2


def segment_bounds(segments: tuple[tuple[float, str], ...]) -> list[tuple[float, float]]:
    """Each ``(duration_s, noise)`` segment's ``(start_s, end_s)``, back to back from 0 s."""
    ends = list(accumulate(duration for duration, _ in segments))
    return list(zip([0.0, *ends], ends))


@dataclass(frozen=True)
class UtterancePlacement:
    """One utterance inserted into the mixture; it belongs to the segment its span lies in."""

    utterance: str  # a Corpus.load_utterance name, relative to the corpus "speaker" directory
    start_s: float
    duration_s: float

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


@dataclass(frozen=True)
class MixScenario:
    """Complete recipe for one mixture; validated on construction.

    ``segments`` holds ``(duration_s, noise)`` pairs that run back to back from 0 s.
    """

    scenario_id: str
    speaker: str
    segments: tuple[tuple[float, str], ...]
    utterances: tuple[UtterancePlacement, ...]
    seed: int

    def __post_init__(self) -> None:
        self.validate()

    @property
    def noise_first(self) -> str:
        return self.segments[0][1]

    @property
    def noise_second(self) -> str:
        """The last segment's noise: the second of a two-segment scene."""
        return self.segments[-1][1]

    @property
    def transition_s(self) -> float:
        """The end of the first segment: the switch of a two-segment scene."""
        return self.segments[0][0]

    @property
    def speech_spans(self) -> list[tuple[float, float]]:
        return [(u.start_s, u.end_s) for u in self.utterances]

    def validate(self) -> None:
        if not self.scenario_id or not self.speaker:
            raise ValueError("scenario_id and speaker must be non-empty")
        if not self.segments or not all(
            noise and np.isfinite(duration) and duration > 0 for duration, noise in self.segments
        ):
            raise ValueError("every segment needs a finite positive duration and a noise label")
        if any(a[1] == b[1] for a, b in zip(self.segments, self.segments[1:])):
            raise ValueError("adjacent segments must carry different noise types")
        bounds = segment_bounds(self.segments)
        spans = sorted(self.utterances, key=lambda u: u.start_s)
        for u in spans:
            if u.duration_s <= 0 or not any(lo <= u.start_s and u.end_s <= hi for lo, hi in bounds):
                raise ValueError(
                    f"utterance {u.utterance} ({u.start_s:.2f}-{u.end_s:.2f}s) "
                    "needs a positive duration inside one segment"
                )
        for a, b in zip(spans, spans[1:]):
            if b.start_s < a.end_s:
                raise ValueError("utterance placements overlap")
        if not all(any(lo <= u.start_s < hi for u in spans) for lo, hi in bounds):
            raise ValueError("each segment needs at least one utterance")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "MixScenario":
        """The scenario of a :meth:`to_dict` dictionary, also one read back from JSON."""
        segments = tuple((duration, noise) for duration, noise in d["segments"])
        utterances = tuple(UtterancePlacement(**u) for u in d["utterances"])
        return cls(**{**d, "segments": segments, "utterances": utterances})


def _place_utterances(
    rng: np.random.Generator,
    pool: list[tuple[str, float]],
    start_s: float,
    end_s: float,
    count: int,
) -> list[UtterancePlacement]:
    placements: list[UtterancePlacement] = []
    for _ in range(count):
        rel, dur = pool[int(rng.integers(len(pool)))]
        lo = start_s + MARGIN_S
        hi = end_s - MARGIN_S - dur
        if hi <= lo:
            raise DataError(
                f"utterance {rel} ({dur:.2f}s) does not fit a {end_s - start_s:.2f}s segment"
            )
        for _attempt in range(200):
            start = float(rng.uniform(lo, hi))
            candidate = UtterancePlacement(rel, round(start, 4), round(dur, 4))
            if all(
                candidate.end_s <= p.start_s or candidate.start_s >= p.end_s
                for p in placements
            ):
                placements.append(candidate)
                break
        else:
            # the segment is too crowded; accept fewer utterances here
            break
    return placements


def generate_scenarios(
    corpus: Corpus,
    count: int,
    *,
    seed: int = 0,
    half_duration_s: float = HALF_DURATION_S,
    utterances_per_half: int = UTTERANCES_PER_HALF,
) -> list[MixScenario]:
    """Deterministically generate scenario recipes of two ``half_duration_s`` segments.

    The pairing scheme is fixed and seed-driven: speakers cycle through the
    sorted speaker list; noise pairs cycle through a seed-shuffled list of
    all ordered pairs of distinct noise types; ``utterances_per_half``
    utterances are drawn from the speaker's ``test`` files and placed
    uniformly at random without overlap, entirely inside each segment.  The
    ``train`` and ``update`` splits are left to the dictionaries, so no
    scenario scores the system on its own training audio.
    """
    if not (np.isfinite(half_duration_s) and half_duration_s > 0):
        raise DataError(f"half_duration_s must be finite and positive, not {half_duration_s}")
    speakers = sorted(corpus.speakers)
    noise_labels = sorted(corpus.noises)
    if len(noise_labels) < 2:
        raise DataError("need at least two noise types for two-noise scenarios")
    pairs = [(a, b) for a in noise_labels for b in noise_labels if a != b]
    root = np.random.SeedSequence(seed)
    pair_rng = np.random.default_rng(root.spawn(1)[0])
    pair_order = [pairs[i] for i in pair_rng.permutation(len(pairs))]

    pools: dict[str, list[tuple[str, float]]] = {}
    for spk in speakers:
        pool = [
            (name, len(corpus.load_utterance(name)) / corpus.sample_rate)
            for name in corpus.utterances(spk, "test")
        ]
        if not pool:
            raise DataError(f"speaker {spk!r} has no 'test' utterances")
        pools[spk] = pool

    scenarios: list[MixScenario] = []
    children = root.spawn(count + 1)[1:]
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        speaker = speakers[i % len(speakers)]
        segments = tuple((half_duration_s, noise) for noise in pair_order[i % len(pair_order)])
        placements: list[UtterancePlacement] = []
        for start, end in segment_bounds(segments):
            placed = _place_utterances(rng, pools[speaker], start, end, utterances_per_half)
            if not placed:
                raise DataError("could not place any utterance in a segment; shorten utterances")
            placements.extend(placed)
        scenarios.append(
            MixScenario(
                scenario_id=f"s{i:04d}",
                speaker=speaker,
                segments=segments,
                utterances=tuple(sorted(placements, key=lambda u: u.start_s)),
                seed=int(rng.integers(2**31 - 1)),
            )
        )
    return scenarios


@dataclass
class RenderedScenario:
    """A scenario realised as audio, with ground-truth bookkeeping."""

    scenario: MixScenario
    snr_db: float
    sample_rate: int
    mixture: np.ndarray = field(repr=False)
    speech: np.ndarray = field(repr=False)
    noise: np.ndarray = field(repr=False)

    @property
    def speech_spans(self) -> list[tuple[float, float]]:
        return self.scenario.speech_spans

    @property
    def transition_s(self) -> float:
        return self.scenario.transition_s


def render_scenario(corpus: Corpus, scenario: MixScenario, snr_db: float) -> RenderedScenario:
    """Mix a scenario at the requested SNR.

    Each segment's noise is a random crop (seeded by the scenario) of that
    noise type's evaluation region, scaled so the segment's speech-to-noise
    energy ratio over its speech-active samples equals ``snr_db``.
    """
    sr = corpus.sample_rate
    edges = [0, *accumulate(int(round(duration * sr)) for duration, _ in scenario.segments)]
    n_total = edges[-1]

    speech = np.zeros(n_total, dtype=np.float64)
    for u in scenario.utterances:
        samples = corpus.load_utterance(u.utterance)
        start = int(round(u.start_s * sr))
        stop = min(start + len(samples), n_total)
        speech[start:stop] += samples[: stop - start]

    rng = np.random.default_rng(np.random.SeedSequence(scenario.seed))
    noise = np.zeros(n_total, dtype=np.float64)
    speech_mask = spans_to_sample_mask(scenario.speech_spans, n_total, sr)
    for k, ((_, label), lo, hi) in enumerate(zip(scenario.segments, edges, edges[1:])):
        region = corpus.noise_eval_segment(label)
        if len(region) < hi - lo:
            raise DataError(f"noise {label!r} evaluation region is shorter than segment {k}")
        offset = int(rng.integers(0, len(region) - (hi - lo) + 1))
        crop = region[offset : offset + hi - lo]
        span_mask = speech_mask[lo:hi]
        p_speech = float(np.sum(speech[lo:hi][span_mask] ** 2))
        p_noise = float(np.sum(crop[span_mask] ** 2))
        if p_speech <= 0 or p_noise <= 0:
            raise DataError(f"degenerate energy in segment {k} of {scenario.scenario_id}")
        with np.errstate(all="ignore"):  # an SNR float32 cannot hold is caught below
            try:
                scale = np.sqrt(p_speech / (p_noise * 10.0 ** (snr_db / 10.0)))
            except OverflowError:  # 10 ** (snr_db / 10) exceeds float64: no noise is left
                scale = 0.0
            except ZeroDivisionError:  # the scaled noise energy underflows to zero
                scale = np.inf
            segment_noise = (scale * crop).astype(np.float32)
        if not (np.all(np.isfinite(segment_noise)) and np.any(segment_noise[span_mask])):
            raise DataError(
                f"snr_db {snr_db} cannot be rendered in float32: segment {k} of "
                f"{scenario.scenario_id} would hold no finite noise energy over its speech"
            )
        noise[lo:hi] = segment_noise

    speech32 = speech.astype(np.float32)
    noise32 = noise.astype(np.float32)
    mixture = speech32 + noise32  # float32 sum: components add up bit-exactly
    return RenderedScenario(
        scenario=scenario,
        snr_db=snr_db,
        sample_rate=sr,
        mixture=mixture,
        speech=speech32,
        noise=noise32,
    )
