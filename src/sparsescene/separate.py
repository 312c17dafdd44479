"""Source separation by spectral Wiener masking.

Separation reuses the mixture's spectrogram and the pipeline's final coding
of its magnitude, against the shortlisted speakers and each side's detected
noise: the ratio of the speech atoms' part of the model to the whole model
gives a soft mask that is applied to that complex spectrogram.  The noise
estimate is the mixture minus the resynthesized speech, so the two parts sum
back to the mixture at every sample, edges included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import StftConfig, istft
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
    spectrogram: np.ndarray,
    mixture: np.ndarray,
    dictionary: np.ndarray,
    weights: np.ndarray,
    speech_atoms: slice,
    config: StftConfig,
) -> SeparationResult:
    """Split the time signal ``mixture`` into speech and noise estimates.

    ``spectrogram`` is the mixture's complex :func:`~.features.stft`;
    ``weights`` codes every frame of its magnitude against ``dictionary``, and
    ``speech_atoms`` selects the dictionary columns (and weight rows) that
    model speech.  The speech estimate is the masked spectrogram's inverse
    STFT and the noise estimate is ``mixture - speech``.
    """
    if weights.shape[1] != spectrogram.shape[1]:
        raise ValueError("separation needs a weight column for every frame")
    speech_model = dictionary[:, speech_atoms] @ weights[speech_atoms, :]
    mask = dictionary @ weights
    mask += EPS
    np.divide(speech_model, mask, out=mask)
    np.clip(mask, 0.0, 1.0, out=mask)

    # istft masks one block of frames at a time; the masked spectrogram is never formed whole
    speech = istft(spectrogram, config, n_samples=len(mixture), mask=mask)
    return SeparationResult(speech=speech, noise=mixture - speech, mask=mask)


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
