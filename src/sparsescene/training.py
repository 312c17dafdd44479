"""Building dictionary banks from a corpus."""

from __future__ import annotations

import logging
from dataclasses import asdict
from typing import Mapping

import numpy as np

from .bank import RECIPE_KEYS, DictionaryBank
from .corpus import Corpus
from .dictionary import METHODS, LearnedDictionary, learn_dictionary
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
        for path in corpus.utterances(label, split):
            parts.append(magnitudes(corpus.load_utterance(path), config))
    if not parts:
        raise DataError(f"speaker {label!r} has no utterances in splits {splits}")
    return _gate_silence(np.concatenate(parts, axis=1))


def learn_bank(
    corpus: Corpus,
    method: str,
    n_atoms: int,
    *,
    tw: float = 0.8,
    tb: float = 0.8,
    seed: int = 0,
    speaker_splits: tuple[str, ...] = ("train",),
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
    return _learn_sources(corpus, method, recipe, config, speaker_splits, None)


def relearn_speakers(
    bank: DictionaryBank, corpus: Corpus, speaker_splits: tuple[str, ...]
) -> DictionaryBank:
    """``bank``'s noise dictionaries plus the corpus's speakers learned on ``speaker_splits``.

    Each speaker is learned with the bank's method, ``params`` and STFT
    settings exactly as :func:`learn_bank` learns it: the same child seed
    and, as the earlier sources, the bank's noises in label order.  For a
    bank learned from ``corpus`` the result equals ``learn_bank`` on
    ``speaker_splits``.  Reading the noises counts no access on ``bank``.
    """
    missing = [key for key in RECIPE_KEYS if key not in bank.params]
    if missing:
        raise DataError(f"cannot relearn the bank: its params lack the recipe keys {missing}")
    recipe = {key: bank.params[key] for key in RECIPE_KEYS}
    noises = bank.noise_dictionaries()
    return _learn_sources(corpus, bank.method, recipe, bank.stft_config, speaker_splits, noises)


def _learn_sources(
    corpus: Corpus,
    method: str,
    recipe: dict,
    config: StftConfig,
    speaker_splits: tuple[str, ...],
    noises: Mapping[str, LearnedDictionary] | None,
) -> DictionaryBank:
    """Learn the corpus's noises, or keep ``noises`` in their place, then its speakers."""
    if method not in METHODS:
        raise DataError(f"unknown dictionary method {method!r}; choose from {METHODS}")
    if recipe["n_atoms"] < 1:
        raise DataError(f"n_atoms must be at least 1, not {recipe['n_atoms']}")
    if recipe["seed"] < 0:
        raise DataError(f"seed must be a non-negative integer, not {recipe['seed']}")
    order = [("noise", label) for label in sorted(corpus.noises if noises is None else noises)]
    order += [("speaker", label) for label in sorted(corpus.speakers)]
    children = np.random.SeedSequence(recipe["seed"]).spawn(len(order))

    prior: list[np.ndarray] = []
    tables: dict[str, dict[str, LearnedDictionary]] = {"noise": {}, "speaker": {}}
    for (kind, label), child in zip(order, children):
        if kind == "noise" and noises is not None:
            learned = noises[label]
        else:
            feats = (
                noise_training_features(corpus, label, config)
                if kind == "noise"
                else speaker_training_features(corpus, label, config, speaker_splits)
            )
            try:
                learned = learn_dictionary(
                    feats,
                    method,
                    recipe["n_atoms"],
                    tw=recipe["tw"],
                    tb=recipe["tb"],
                    prior_atoms=np.concatenate(prior, axis=1) if prior else None,
                    rng=np.random.default_rng(child),
                )
            except DataError as exc:
                raise DataError(f"{kind} {label!r}: {exc}") from None
            log.debug("learned %s/%s: %d atoms", kind, label, learned.atoms.shape[1])
        prior.append(learned.atoms)
        tables[kind][label] = learned

    return DictionaryBank(
        tables["speaker"],
        tables["noise"],
        method=method,
        params=recipe,
        feature_params=asdict(config),
    )
