"""Source separation by spectral Wiener masking.

Separation reuses the mixture's spectrogram and the pipeline's final coding
of its magnitude, against the shortlisted speakers and the detected noises:
the ratio of the speech atoms' part of the model to the whole model gives a
soft mask that is applied to that complex spectrogram.  The noise estimate uses the
complementary mask so the two resynthesized signals sum (up to windowing at
the edges) back to the mixture.
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
    n_samples: int,
    dictionary: np.ndarray,
    weights: np.ndarray,
    speech_atoms: slice,
    config: StftConfig,
) -> SeparationResult:
    """Split a mixture of ``n_samples`` samples into speech and noise estimates.

    ``spectrogram`` is the mixture's complex :func:`~.features.stft`;
    ``weights`` codes every frame of its magnitude against ``dictionary``, and
    ``speech_atoms`` selects the dictionary columns (and weight rows) that
    model speech.
    """
    if weights.shape[1] != spectrogram.shape[1]:
        raise ValueError("separation needs a weight column for every frame")
    speech_model = dictionary[:, speech_atoms] @ weights[speech_atoms, :]
    mask = speech_model / (dictionary @ weights + EPS)
    np.clip(mask, 0.0, 1.0, out=mask)

    speech = istft(mask * spectrogram, config, n_samples=n_samples)
    noise = istft((1.0 - mask) * spectrogram, config, n_samples=n_samples)
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
