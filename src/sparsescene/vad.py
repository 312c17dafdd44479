"""Energy-clustering voice activity detection and event-level error rates.

Frame energies are clustered (k-means on log energy, configurable number of
clusters); clusters whose centre lies in the upper half of the centre range
are treated as speech.  Event-level quality is summarised by a miss rate
(fraction of true utterances with no overlapping detection) and a false-alarm
rate (fraction of detected events overlapping no true utterance), both in
percent.
"""

from __future__ import annotations

import numpy as np

from .features import StftConfig, frame_times

__all__ = [
    "detect_speech_frames",
    "frames_to_intervals",
    "intervals_to_frame_mask",
    "miss_false_rates",
]

_LOG_FLOOR = 1e-20


def _kmeans_1d(values: np.ndarray, k: int, n_iter: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Plain Lloyd iteration on scalars; returns (labels, centers)."""
    v = np.asarray(values, dtype=np.float64)
    uniq = np.unique(v)
    k = min(k, uniq.size)
    # spread initial centers over the value range via quantiles for stability
    centers = np.quantile(uniq, np.linspace(0, 1, k)) if k > 1 else np.array([v.mean()])
    for _ in range(n_iter):
        labels = np.argmin(np.abs(v[:, None] - centers[None, :]), axis=1)
        new = centers.copy()
        for c in range(k):
            members = v[labels == c]
            if members.size:
                new[c] = members.mean()
        if np.allclose(new, centers):
            break
        centers = new
    labels = np.argmin(np.abs(v[:, None] - centers[None, :]), axis=1)
    return labels, centers


def detect_speech_frames(energies: np.ndarray, k: int = 2) -> np.ndarray:
    """Boolean speech mask per frame from k-way clustering of log energies."""
    if k < 2:
        raise ValueError("need at least two clusters to separate speech from background")
    loge = np.log(np.maximum(np.asarray(energies, dtype=np.float64), _LOG_FLOOR))
    if loge.size == 0:
        return np.zeros(0, dtype=bool)
    labels, centers = _kmeans_1d(loge, k)
    threshold = 0.5 * (centers.max() + centers.min())
    speech_clusters = np.flatnonzero(centers >= threshold)
    return np.isin(labels, speech_clusters)


def frames_to_intervals(
    mask: np.ndarray, config: StftConfig, min_frames: int = 3
) -> list[tuple[float, float]]:
    """Contiguous True runs as (start_s, end_s) spans; runs shorter than
    ``min_frames`` are discarded as blips."""
    mask = np.asarray(mask, dtype=bool)
    intervals: list[tuple[float, float]] = []
    start = None
    for i, on in enumerate(np.append(mask, False)):
        if on and start is None:
            start = i
        elif not on and start is not None:
            if i - start >= min_frames:
                t0 = start * config.hop / config.sample_rate
                t1 = ((i - 1) * config.hop + config.n_fft) / config.sample_rate
                intervals.append((t0, t1))
            start = None
    return intervals


def intervals_to_frame_mask(
    intervals: list[tuple[float, float]], n_frames: int, config: StftConfig
) -> np.ndarray:
    """Frame mask marking frames whose centre falls inside any interval."""
    centers = frame_times(n_frames, config)
    mask = np.zeros(n_frames, dtype=bool)
    for t0, t1 in intervals:
        mask |= (centers >= t0) & (centers <= t1)
    return mask


def _overlaps(a: tuple[float, float], b: tuple[float, float]) -> bool:
    return min(a[1], b[1]) > max(a[0], b[0])


def miss_false_rates(
    true_spans: list[tuple[float, float]],
    detected_spans: list[tuple[float, float]],
) -> tuple[float, float]:
    """(miss rate %, false-alarm rate %) for event detection.

    A true span with no overlapping detection counts as a miss; a detected
    span overlapping no true span counts as a false alarm.  With no true
    spans the miss rate is 0; with no detections the false-alarm rate is 0.
    """
    misses = sum(1 for t in true_spans if not any(_overlaps(t, d) for d in detected_spans))
    false_alarms = sum(1 for d in detected_spans if not any(_overlaps(d, t) for t in true_spans))
    mr = 100.0 * misses / len(true_spans) if true_spans else 0.0
    far = 100.0 * false_alarms / len(detected_spans) if detected_spans else 0.0
    return mr, far
