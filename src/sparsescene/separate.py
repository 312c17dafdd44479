"""Source separation by spectral Wiener masking.

Separation reuses the coding of the whole mixture against
``[speaker atoms | noise atoms]`` that noise typing made: the ratio of the
speech atoms' part of the model to the whole model gives a soft mask that is
applied to the complex mixture spectrogram.  The noise estimate uses the
complementary mask so the two resynthesized signals sum (up to windowing at
the edges) back to the mixture.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import StftConfig, istft, stft
from .metrics import restrict_to_spans, snr_db
from .solvers import EPS

__all__ = ["SeparationResult", "separate", "estimate_snr_db"]


@dataclass
class SeparationResult:
    """Separated components and the mask that produced them."""

    speech: np.ndarray
    noise: np.ndarray
    mask: np.ndarray


def separate(
    mixture: np.ndarray,
    dictionary: np.ndarray,
    weights: np.ndarray,
    speech_atoms: slice,
    config: StftConfig,
) -> SeparationResult:
    """Split ``mixture`` into speech and noise estimates.

    ``weights`` codes every frame of the mixture's magnitude spectrogram
    against ``dictionary``; ``speech_atoms`` selects the dictionary columns
    (and weight rows) that model speech.
    """
    X = stft(mixture, config)
    if weights.shape[1] != X.shape[1]:
        raise ValueError("separation needs a weight column for every frame")
    speech_model = dictionary[:, speech_atoms] @ weights[speech_atoms, :]
    mask = speech_model / (dictionary @ weights + EPS)
    np.clip(mask, 0.0, 1.0, out=mask)

    n = mixture.shape[0]
    speech = istft(mask * X, config, n_samples=n)
    noise = istft((1.0 - mask) * X, config, n_samples=n)
    return SeparationResult(speech=speech, noise=noise, mask=mask)


def estimate_snr_db(
    result: SeparationResult,
    spans: list[tuple[float, float]] | None,
    config: StftConfig,
) -> float:
    """Speech-to-noise ratio of the separated components, in dB.

    When ``spans`` is given the ratio is computed over those time spans only
    (the speech-active region); otherwise the whole signal is used.
    """
    speech, noise = result.speech, result.noise
    if spans:
        speech = restrict_to_spans(speech, spans, config.sample_rate)
        noise = restrict_to_spans(noise, spans, config.sample_rate)
        if speech.size == 0:
            speech, noise = result.speech, result.noise
    return snr_db(speech, noise)
