"""Short-time spectral analysis and resynthesis.

Signals are analysed with a square-root Hann window at 50% overlap.  Using the
same window for analysis and synthesis makes the analysis-synthesis cascade an
identity for the interior of the signal (the first and last frame's worth of
samples see an incomplete overlap sum), which the separation stage relies on:
masked spectra are resynthesised with the mixture phase and the masked
components add up to the original mixture.

All spectral processing happens in float64 regardless of the input dtype.
The transforms work :data:`BLOCK_FRAMES` frames at a time in small reused
buffers and write straight into their results, which equal the full-matrix
transforms bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .corpus import SAMPLE_RATE

__all__ = ["StftConfig", "stft", "istft", "magnitudes", "frame_times", "frame_energies"]

#: frames per block of the transforms' work buffers
BLOCK_FRAMES = 128


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

    sample_rate: int = SAMPLE_RATE
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


def _blocks(n_frames: int, width: int, dtype=np.float64):
    """Yield ``(rows, buf)`` per block of at most :data:`BLOCK_FRAMES` frames, in order:
    ``rows`` slices ``range(n_frames)``, ``buf`` is ``len(rows)`` rows of one reused buffer."""
    buffer = np.empty((min(BLOCK_FRAMES, n_frames), width), dtype=dtype)
    for start in range(0, n_frames, BLOCK_FRAMES):
        rows = slice(start, min(start + BLOCK_FRAMES, n_frames))
        yield rows, buffer[: rows.stop - start]


def _spectra(frames: np.ndarray, config: StftConfig):
    """Yield ``(rows, spectra)``: each block's windowed frames' complex spectra as rows."""
    window = config.window()
    for rows, buf in _blocks(len(frames), config.n_fft):
        yield rows, np.fft.rfft(np.multiply(frames[rows], window, out=buf), axis=1)


def stft(signal: np.ndarray, config: StftConfig) -> np.ndarray:
    """Complex spectrogram of shape ``(n_bins, n_frames)``.

    Frames start at multiples of ``config.hop``; no padding is applied, so a
    trailing partial frame is dropped.  The result is a frame-major array
    seen through its transpose, so it is Fortran-ordered: each frame's bins
    are contiguous, and :func:`istft` reads them without a copy.
    """
    frames = _frames(signal, config)
    out = np.empty((len(frames), config.n_bins), dtype=np.complex128)
    for rows, spectra in _spectra(frames, config):
        out[rows] = spectra
    return out.T


def _overlap_add(out: np.ndarray, frames: np.ndarray, hop: int) -> np.ndarray:
    """Add ``frames``, rows ``hop`` samples apart, into ``out``, a ``(rows, hop)`` signal.

    Phase j adds samples [j*hop, (j+1)*hop) of every frame, which do not overlap;
    phases go in descending order so that each output sample sums its frames in
    ascending frame order, bit for bit as a per-frame loop.
    """
    n_fft = frames.shape[1]
    for j in reversed(range(-(-n_fft // hop))):
        part = slice(j * hop, min((j + 1) * hop, n_fft))
        out[j : j + len(frames), : part.stop - part.start] += frames[:, part]
    return out


def istft(spec: np.ndarray, config: StftConfig, n_samples: int | None = None, *,
          mask: np.ndarray | None = None) -> np.ndarray:
    """Overlap-add resynthesis; inverse of :func:`stft` on the signal interior.

    Parameters
    ----------
    spec : np.ndarray
        Complex spectrogram ``(n_bins, n_frames)``.
    n_samples : int, optional
        Length to trim or zero-pad the output to.  Defaults to the natural
        length ``(n_frames - 1) * hop + n_fft``.
    mask : np.ndarray, optional
        Real gains of ``spec``'s shape: resynthesise ``mask * spec`` a block at a time.
    """
    spec = np.asarray(spec)
    if spec.ndim != 2 or spec.shape[0] != config.n_bins:
        raise ValueError("spectrogram shape does not match the configuration")
    if mask is not None and np.shape(mask) != spec.shape:
        raise ValueError("mask shape does not match the spectrogram")
    n_frames = spec.shape[1]
    hop, n_fft, window = config.hop, config.n_fft, config.window()
    natural = (n_frames - 1) * hop + n_fft if n_frames else 0
    n_phases = -(-n_fft // hop)
    n_rows, edge = n_frames + n_phases - 1, n_phases - 1
    length = natural if n_samples is None else n_samples
    out = np.zeros(max(n_rows * hop, length))
    rows_out = out[: n_rows * hop].reshape(n_rows, hop)
    for rows, spectra in _blocks(n_frames, config.n_bins, complex):
        # irfft over contiguous rows runs several times faster than over strides
        if mask is None:
            np.copyto(spectra, spec[:, rows].T)
        else:
            np.multiply(mask[:, rows].T, spec[:, rows].T, out=spectra)
        frames = np.fft.irfft(spectra, n=n_fft, axis=1)
        frames *= window
        _overlap_add(rows_out[rows.start : rows.stop + edge], frames, hop)
    # The overlap-added squared window of n_phases frames holds both edges and,
    # in its middle row, the sum every interior row of a longer signal shares.
    m = min(n_frames, n_phases)
    norm = _overlap_add(np.zeros((m + edge, hop)), np.tile(window * window, (m, 1)), hop)
    parts = [(rows_out, norm)]
    if n_frames > n_phases:
        parts = [(rows_out[:edge], norm[:edge]), (rows_out[edge:n_frames], norm[edge]),
                 (rows_out[n_frames:], norm[edge + 1 :])]
    for part, weight in parts:
        np.divide(part, weight, out=part, where=weight > 1e-12)
    return out[:length]


def magnitudes(signal: np.ndarray, config: StftConfig) -> np.ndarray:
    """Magnitude spectrogram ``(n_bins, n_frames)`` used as the feature representation.

    Equal bit for bit to ``np.abs(stft(signal, config))``, but C-ordered, and
    no complex spectrogram is formed beyond one block's.
    """
    frames = _frames(signal, config)
    out = np.empty((config.n_bins, len(frames)))
    for rows, spectra in _spectra(frames, config):
        np.abs(spectra.T, out=out[:, rows])
    return out


def frame_times(n_frames: int, config: StftConfig) -> np.ndarray:
    """Centre times in seconds for ``n_frames`` consecutive frames."""
    return (np.arange(n_frames) * config.hop + config.n_fft / 2) / config.sample_rate


def frame_energies(signal: np.ndarray, config: StftConfig) -> np.ndarray:
    """Per-frame signal energy (sum of squares over each windowed frame span)."""
    frames = _frames(signal, config)
    out = np.empty(len(frames))
    for rows, buf in _blocks(len(frames), config.n_fft):
        np.sum(np.multiply(frames[rows], frames[rows], out=buf), axis=1, out=out[rows])
    return out
