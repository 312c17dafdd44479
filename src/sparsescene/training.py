"""Building dictionary banks from a corpus."""

from __future__ import annotations

import logging
from dataclasses import asdict

import numpy as np

from .bank import DictionaryBank
from .corpus import Corpus
from .dictionary import METHODS, LearnedDictionary, learn_dictionary
from .errors import DataError
from .features import StftConfig, magnitudes

__all__ = ["noise_training_features", "speaker_training_features", "learn_bank"]

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
    the threshold method's between-source test compares each candidate
    against all atoms accepted for earlier sources.
    """
    if method not in METHODS:
        raise DataError(f"unknown dictionary method {method!r}; choose from {METHODS}")
    if n_atoms < 1:
        raise DataError(f"n_atoms must be at least 1, not {n_atoms}")
    config = StftConfig(sample_rate=corpus.sample_rate)
    root = np.random.SeedSequence(seed)
    order = [("noise", label) for label in sorted(corpus.noises)] + [
        ("speaker", label) for label in sorted(corpus.speakers)
    ]
    children = root.spawn(len(order))

    prior: list[np.ndarray] = []
    speakers: dict[str, LearnedDictionary] = {}
    noises: dict[str, LearnedDictionary] = {}
    for (kind, label), child in zip(order, children):
        feats = (
            noise_training_features(corpus, label, config)
            if kind == "noise"
            else speaker_training_features(corpus, label, config, speaker_splits)
        )
        try:
            learned = learn_dictionary(
                feats,
                method,
                n_atoms,
                tw=tw,
                tb=tb,
                prior_atoms=np.concatenate(prior, axis=1) if prior else None,
                rng=np.random.default_rng(child),
            )
        except DataError as exc:
            raise DataError(f"{kind} {label!r}: {exc}") from None
        log.debug("learned %s/%s: %d atoms", kind, label, learned.atoms.shape[1])
        prior.append(learned.atoms)
        (noises if kind == "noise" else speakers)[label] = learned

    return DictionaryBank(
        speakers,
        noises,
        method=method,
        params={"n_atoms": n_atoms, "tw": tw, "tb": tb, "seed": seed},
        feature_params=asdict(config),
    )
