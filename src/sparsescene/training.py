"""Building dictionary banks from a corpus."""

from __future__ import annotations

import logging
from dataclasses import asdict
from typing import Mapping

import numpy as np

from .bank import DictionaryBank
from .corpus import Corpus
from .dictionary import (
    METHODS,
    RECIPE,
    LearnedDictionary,
    learn_dictionary,
    live_frames,
    recipe_problem,
)
from .errors import DataError
from .features import StftConfig, magnitudes

__all__ = [
    "noise_training_features",
    "speaker_training_features",
    "learn_bank",
    "relearn_speakers",
]

log = logging.getLogger(__name__)

#: frames quieter than this fraction of the loudest frame are dropped as silence
_GATE_FRACTION = 1e-4


def _gate_silence(feats: np.ndarray) -> np.ndarray:
    energy = np.sum(feats * feats, axis=0)
    if energy.size == 0:
        return feats
    return feats[:, energy > _GATE_FRACTION * float(energy.max())]


def noise_training_features(corpus: Corpus, label: str, config: StftConfig) -> np.ndarray:
    """Magnitude frames of the noise recording's training region."""
    return _gate_silence(magnitudes(corpus.noise_train_segment(label), config))


def speaker_training_features(
    corpus: Corpus,
    label: str,
    config: StftConfig,
    splits: tuple[str, ...] = ("train",),
) -> np.ndarray:
    """Energy-gated magnitude frames pooled over the speaker's utterances."""
    parts = []
    for split in splits:
        for name in corpus.utterances(label, split):
            parts.append(magnitudes(corpus.load_utterance(name), config))
    if not parts:
        raise DataError(f"speaker {label!r} has no utterances in splits {splits}")
    return _gate_silence(np.concatenate(parts, axis=1))


def learn_bank(
    corpus: Corpus,
    method: str,
    n_atoms: int,
    *,
    tw: float = RECIPE["tw"],
    tb: float = RECIPE["tb"],
    seed: int = RECIPE["seed"],
) -> DictionaryBank:
    """Learn one dictionary per noise type and per speaker.

    Features use the default STFT settings at the corpus's sample rate; the
    bank records them and the learning arguments.  Sources are processed in
    a fixed order (noises sorted by label, then speakers sorted by label);
    each takes the next child of ``SeedSequence(seed)``, and the threshold
    method's between-source test compares each candidate against all atoms
    accepted for earlier sources.
    """
    recipe = {"n_atoms": n_atoms, "tw": tw, "tb": tb, "seed": seed}
    config = StftConfig(sample_rate=corpus.sample_rate)
    return _learn_sources(corpus, method, recipe, config, ("train",), None)


def relearn_speakers(bank: DictionaryBank, corpus: Corpus) -> DictionaryBank:
    """``bank``'s noise dictionaries plus the corpus's speakers learned on ``train`` + ``update``.

    Each speaker is learned with the bank's method, ``params`` and STFT
    settings exactly as :func:`learn_bank` learns it: the same child seed
    and, as the earlier sources, the bank's noises in label order.  For a
    bank learned from ``corpus`` the result is what :func:`learn_bank` gives
    when every speaker also trains on ``update``.  Each noise is read once
    through :meth:`~.bank.DictionaryBank.get`.
    """
    noises = {label: bank.get("noise", label) for label in bank.noise_labels}
    return _learn_sources(
        corpus, bank.method, bank.params, bank.stft_config, ("train", "update"), noises
    )


def _learn_sources(
    corpus: Corpus,
    method: str,
    recipe: dict,
    config: StftConfig,
    speaker_splits: tuple[str, ...],
    noises: Mapping[str, LearnedDictionary] | None,
) -> DictionaryBank:
    """Learn the corpus's noises, or keep ``noises`` in their place, then its speakers.

    Every source's frames are read and checked before any is learned, so a
    listed source that cannot be read, or has no non-silent frame, fails
    first.  Kept noises still take their child seeds.
    """
    if method not in METHODS:
        raise DataError(f"unknown dictionary method {method!r}; choose from {METHODS}")
    problem = recipe_problem(recipe)
    if problem:
        raise DataError(problem)
    sources = {("noise", label): noises[label] for label in sorted(noises or {})}
    frames: dict[tuple[str, str], np.ndarray] = {}
    if noises is None:
        for label in sorted(corpus.noises):
            frames["noise", label] = noise_training_features(corpus, label, config)
    for label in sorted(corpus.speakers):
        frames["speaker", label] = speaker_training_features(corpus, label, config, speaker_splits)
    for (kind, label), feats in frames.items():
        if not live_frames(feats).any():
            raise DataError(f"{kind} {label!r}: no non-silent frames to learn from")
    children = np.random.SeedSequence(recipe["seed"]).spawn(len(sources) + len(frames))

    prior = [learned.atoms for learned in sources.values()]
    for (kind, label), child in zip(frames, children[len(sources) :]):
        learned = learn_dictionary(
            frames[kind, label],
            method,
            recipe["n_atoms"],
            tw=recipe["tw"],
            tb=recipe["tb"],
            prior_atoms=np.concatenate(prior, axis=1) if prior else None,
            rng=np.random.default_rng(child),
        )
        log.debug("learned %s/%s: %d atoms", kind, label, learned.atoms.shape[1])
        prior.append(learned.atoms)
        sources[kind, label] = learned

    return DictionaryBank(
        sources,
        method=method,
        params=recipe,
        feature_params=asdict(config),
    )
