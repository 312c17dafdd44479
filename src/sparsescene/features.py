"""Short-time spectral analysis and resynthesis.

Signals are analysed with a square-root Hann window at 50% overlap.  Using the
same window for analysis and synthesis makes the analysis-synthesis cascade an
identity for the interior of the signal (the first and last frame's worth of
samples see an incomplete overlap sum), which the separation stage relies on:
masked spectra are resynthesised with the mixture phase and the masked
components add up to the original mixture.

All spectral processing happens in float64 regardless of the input dtype.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["StftConfig", "stft", "istft", "magnitudes", "frame_times", "frame_energies"]


@dataclass(frozen=True)
class StftConfig:
    """Parameters of the short-time transform.

    Attributes
    ----------
    sample_rate : int
        Sampling rate of the audio in Hz.
    n_fft : int
        Window and FFT length in samples.
    hop : int
        Hop between successive frames in samples.  Must divide ``n_fft``
        such that the squared window overlap-adds to a constant; the default
        50% overlap with a square-root Hann window satisfies this.
    """

    sample_rate: int = 8000
    n_fft: int = 256
    hop: int = 128

    @property
    def n_bins(self) -> int:
        return self.n_fft // 2 + 1

    def window(self) -> np.ndarray:
        # Periodic Hann; its square overlap-adds to a constant at 50% overlap.
        n = np.arange(self.n_fft)
        hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * n / self.n_fft)
        return np.sqrt(hann)

    def n_frames(self, n_samples: int) -> int:
        if n_samples < self.n_fft:
            return 0
        return 1 + (n_samples - self.n_fft) // self.hop


def _frames(signal: np.ndarray, config: StftConfig) -> np.ndarray:
    """The signal's frames as rows, ``(n_frames, n_fft)``; a trailing partial frame is dropped.

    The frames are a read-only strided view of the float64 signal, not a copy.
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("expected a one-dimensional signal")
    if config.n_frames(x.shape[0]) == 0:
        return np.empty((0, config.n_fft))
    return sliding_window_view(x, config.n_fft)[:: config.hop]


def _spectra(signal: np.ndarray, config: StftConfig) -> np.ndarray:
    """The windowed frames' complex spectra as rows, ``(n_frames, n_bins)``."""
    return np.fft.rfft(_frames(signal, config) * config.window()[None, :], axis=1)


def stft(signal: np.ndarray, config: StftConfig) -> np.ndarray:
    """Complex spectrogram of shape ``(n_bins, n_frames)``.

    Frames start at multiples of ``config.hop``; no padding is applied, so a
    trailing partial frame is dropped.  The result is the FFT's frame-major
    array seen through its transpose, so it is Fortran-ordered: each frame's
    bins are contiguous, and :func:`istft` reads them without a copy.
    """
    return _spectra(signal, config).T


def istft(spec: np.ndarray, config: StftConfig, n_samples: int | None = None) -> np.ndarray:
    """Overlap-add resynthesis; inverse of :func:`stft` on the signal interior.

    Parameters
    ----------
    spec : np.ndarray
        Complex spectrogram ``(n_bins, n_frames)``.
    n_samples : int, optional
        Length to trim or zero-pad the output to.  Defaults to the natural
        length ``(n_frames - 1) * hop + n_fft``.
    """
    spec = np.asarray(spec)
    if spec.ndim != 2 or spec.shape[0] != config.n_bins:
        raise ValueError("spectrogram shape does not match the configuration")
    n_frames = spec.shape[1]
    hop, n_fft = config.hop, config.n_fft
    window = config.window()
    natural = (n_frames - 1) * hop + n_fft if n_frames else 0
    # irfft over contiguous rows runs several times faster than over spec.T's
    # strides; a spectrogram from stft is already frame-major, so nothing is copied
    frames = np.fft.irfft(np.ascontiguousarray(spec.T), n=n_fft, axis=1)
    frames *= window
    wsq = window * window
    # Overlap-add one frame phase at a time: phase j adds samples
    # [j*hop, (j+1)*hop) of every frame, and within a phase the frames do not
    # overlap.  Phases go in descending order so that each output sample sums
    # its frames in ascending frame order, bit for bit as a per-frame loop.
    n_phases = -(-n_fft // hop)
    out = np.zeros((n_frames + n_phases - 1, hop), dtype=np.float64)
    norm = np.zeros_like(out)
    for j in reversed(range(n_phases)):
        part = slice(j * hop, min((j + 1) * hop, n_fft))
        width = part.stop - part.start
        out[j:j + n_frames, :width] += frames[:, part]
        norm[j:j + n_frames, :width] += wsq[part]
    out, norm = out.reshape(-1)[:natural], norm.reshape(-1)[:natural]
    np.divide(out, norm, out=out, where=norm > 1e-12)
    if n_samples is not None:
        if n_samples <= natural:
            out = out[:n_samples]
        else:
            out = np.concatenate([out, np.zeros(n_samples - natural)])
    return out


def magnitudes(signal: np.ndarray, config: StftConfig) -> np.ndarray:
    """Magnitude spectrogram ``(n_bins, n_frames)`` used as the feature representation.

    Equal bit for bit to ``np.abs(stft(signal, config))``, but the magnitudes
    are taken on the spectra's rows and only the float64 result is transposed
    into C order, so the complex spectrogram is never copied.
    """
    return np.abs(_spectra(signal, config)).T.copy()


def frame_times(n_frames: int, config: StftConfig) -> np.ndarray:
    """Centre times in seconds for ``n_frames`` consecutive frames."""
    return (np.arange(n_frames) * config.hop + config.n_fft / 2) / config.sample_rate


def frame_energies(signal: np.ndarray, config: StftConfig) -> np.ndarray:
    """Per-frame signal energy (sum of squares over each windowed frame span)."""
    frames = _frames(signal, config)
    return np.sum(frames * frames, axis=1)
