"""Two-noise mixture scenarios: specification, generation, and rendering.

A scenario is a 2x10-second (configurable) mixture: the first half carries
one noise type, the second half a different one, and utterances of a single
speaker, drawn from the corpus's ``test`` split, are inserted at randomly
selected locations inside each half.  The noise level is scaled per half to
hit a target signal-to-noise ratio measured over the half's speech-active
span.

Rendering stores the clean speech track and the scaled noise track alongside
the mixture; all three are float32 and the mixture is computed as their
float32 sum, so the stored components add up to the mixture bit-exactly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

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
]

#: shortest gap between an utterance and the edge of its half, in seconds
MARGIN_S = 0.25
#: default scene: the length of each half (s) and the utterances placed in it
HALF_DURATION_S = 10.0
UTTERANCES_PER_HALF = 2


@dataclass(frozen=True)
class UtterancePlacement:
    """One utterance inserted into the mixture."""

    utterance: str  # a Corpus.load_utterance name, relative to the corpus "speaker" directory
    start_s: float
    duration_s: float
    half: int  # 0 = first half, 1 = second half

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


@dataclass(frozen=True)
class MixScenario:
    """Complete recipe for one mixture; validated on construction."""

    scenario_id: str
    speaker: str
    noise_first: str
    noise_second: str
    half_duration_s: float
    utterances: tuple[UtterancePlacement, ...]
    seed: int

    def __post_init__(self) -> None:
        self.validate()

    @property
    def transition_s(self) -> float:
        return self.half_duration_s

    @property
    def speech_spans(self) -> list[tuple[float, float]]:
        return [(u.start_s, u.end_s) for u in self.utterances]

    def validate(self) -> None:
        if not self.scenario_id or not self.speaker:
            raise ValueError("scenario_id and speaker must be non-empty")
        if not self.noise_first or not self.noise_second:
            raise ValueError("noise labels must be non-empty")
        if self.noise_first == self.noise_second:
            raise ValueError("the two halves must carry different noise types")
        if not self.half_duration_s > 0:
            raise ValueError("half_duration_s must be positive")
        halves_seen = set()
        spans = sorted(self.utterances, key=lambda u: u.start_s)
        for u in spans:
            if u.half not in (0, 1):
                raise ValueError("utterance half must be 0 or 1")
            lo = u.half * self.half_duration_s
            hi = lo + self.half_duration_s
            if not (lo <= u.start_s and u.end_s <= hi):
                raise ValueError(
                    f"utterance {u.utterance} ({u.start_s:.2f}-{u.end_s:.2f}s) "
                    f"crosses its half boundary [{lo:.2f}, {hi:.2f}]"
                )
            if u.duration_s <= 0:
                raise ValueError("utterance duration must be positive")
            halves_seen.add(u.half)
        for a, b in zip(spans, spans[1:]):
            if b.start_s < a.end_s:
                raise ValueError("utterance placements overlap")
        if halves_seen != {0, 1}:
            raise ValueError("each half needs at least one utterance")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "MixScenario":
        utterances = tuple(UtterancePlacement(**u) for u in d["utterances"])
        return cls(**{**d, "utterances": utterances})


def _place_utterances(
    rng: np.random.Generator,
    pool: list[tuple[str, float]],
    half: int,
    half_duration: float,
    count: int,
) -> list[UtterancePlacement]:
    placements: list[UtterancePlacement] = []
    base = half * half_duration
    for _ in range(count):
        rel, dur = pool[int(rng.integers(len(pool)))]
        lo = base + MARGIN_S
        hi = base + half_duration - MARGIN_S - dur
        if hi <= lo:
            raise DataError(
                f"utterance {rel} ({dur:.2f}s) does not fit a {half_duration:.2f}s half"
            )
        for _attempt in range(200):
            start = float(rng.uniform(lo, hi))
            candidate = UtterancePlacement(rel, round(start, 4), round(dur, 4), half)
            if all(
                candidate.end_s <= p.start_s or candidate.start_s >= p.end_s
                for p in placements
            ):
                placements.append(candidate)
                break
        else:
            # the half is too crowded; accept fewer utterances here
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
    """Deterministically generate scenario recipes.

    The pairing scheme is fixed and seed-driven: speakers cycle through the
    sorted speaker list; noise pairs cycle through a seed-shuffled list of
    all ordered pairs of distinct noise types; utterances are drawn from the
    speaker's ``test`` files and placed uniformly at random without overlap,
    entirely inside their half.  The ``train`` and ``update`` splits are left
    to the dictionaries, so no scenario scores the system on its own
    training audio.
    """
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
        noise_first, noise_second = pair_order[i % len(pair_order)]
        placements: list[UtterancePlacement] = []
        for half in (0, 1):
            placed = _place_utterances(
                rng, pools[speaker], half, half_duration_s, utterances_per_half
            )
            if not placed:
                raise DataError("could not place any utterance in a half; shorten utterances")
            placements.extend(placed)
        scenarios.append(
            MixScenario(
                scenario_id=f"s{i:04d}",
                speaker=speaker,
                noise_first=noise_first,
                noise_second=noise_second,
                half_duration_s=half_duration_s,
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

    The noise for each half is a random crop (seeded by the scenario) of that
    noise type's evaluation region, scaled so the half's speech-to-noise
    energy ratio over its speech-active samples equals ``snr_db``.
    """
    sr = corpus.sample_rate
    n_half = int(round(scenario.half_duration_s * sr))
    n_total = 2 * n_half

    speech = np.zeros(n_total, dtype=np.float64)
    for u in scenario.utterances:
        samples = corpus.load_utterance(u.utterance)
        start = int(round(u.start_s * sr))
        stop = min(start + len(samples), n_total)
        speech[start:stop] += samples[: stop - start]

    rng = np.random.default_rng(np.random.SeedSequence(scenario.seed))
    noise = np.zeros(n_total, dtype=np.float64)
    for half, label in ((0, scenario.noise_first), (1, scenario.noise_second)):
        segment = corpus.noise_eval_segment(label)
        if len(segment) < n_half:
            raise DataError(
                f"noise {label!r} evaluation region is shorter than a mixture half"
            )
        offset = int(rng.integers(0, len(segment) - n_half + 1))
        crop = segment[offset : offset + n_half]
        lo, hi = half * n_half, (half + 1) * n_half
        span_mask = spans_to_sample_mask(
            [(u.start_s, u.end_s) for u in scenario.utterances if u.half == half],
            n_total,
            sr,
        )[lo:hi]
        p_speech = float(np.sum(speech[lo:hi][span_mask] ** 2))
        p_noise = float(np.sum(crop[span_mask] ** 2))
        if p_speech <= 0 or p_noise <= 0:
            raise DataError(f"degenerate energy in half {half} of {scenario.scenario_id}")
        with np.errstate(all="ignore"):  # an SNR float32 cannot hold is caught below
            try:
                scale = np.sqrt(p_speech / (p_noise * 10.0 ** (snr_db / 10.0)))
            except OverflowError:  # 10 ** (snr_db / 10) exceeds float64: no noise is left
                scale = 0.0
            except ZeroDivisionError:  # the scaled noise energy underflows to zero
                scale = np.inf
            half_noise = (scale * crop).astype(np.float32)
        if not (np.all(np.isfinite(half_noise)) and np.any(half_noise[span_mask])):
            raise DataError(
                f"snr_db {snr_db} cannot be rendered in float32: half {half} of "
                f"{scenario.scenario_id} would hold no finite noise energy over its speech"
            )
        noise[lo:hi] = half_noise

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
