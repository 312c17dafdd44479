"""Block-sparse classification: which noise types, where they switch, who speaks.

All decisions share one mechanism: frames are coded against a concatenation
of per-source dictionaries (a :class:`Coding`) and each source is scored by
the sum of its atoms' weights (its "block" of the weight vector).
:func:`classify_noise` screens the frames against ``[all speakers | all
noises]`` with a fixed, short ``mu`` sweep budget — speech energy is absorbed
by the speaker blocks, so the per-frame winner among the noise blocks stays
reliable even where speech is present.  The switch between the two noise
types is the change point that makes the per-frame noise decisions before
and after it maximally consistent.  It returns its decision and the screen's
coding apart, and :func:`rank_speakers` reads block scores off a coding
instead of coding the frames again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection

import numpy as np

from .bank import DictionaryBank
from .features import frame_times
from .solvers import code_frames

__all__ = ["Coding", "NoiseDecision", "classify_noise", "rank_speakers"]

#: ``mu`` sweeps, at ``tol = 0``, of the screen that :func:`classify_noise` runs
SCREEN_ITERS = 50


@dataclass
class Coding:
    """``weights[:, j]`` codes frame ``j`` against ``dictionary``.

    ``groups`` lists the dictionary's contiguous column blocks in order, one
    per source, as ``(kind, label, slice)``.
    """

    dictionary: np.ndarray
    groups: list[tuple[str, str, slice]]
    weights: np.ndarray

    def block(self, kind: str, label: str) -> slice:
        """Columns of ``dictionary`` (rows of ``weights``) holding one source."""
        return next(g[2] for g in self.groups if g[:2] == (kind, label))

    def scores(self, kind: str) -> tuple[list[str], np.ndarray]:
        """The labels of ``kind`` in order, and their block sums ``(n_labels, n_frames)``."""
        kept = [g for g in self.groups if g[0] == kind]
        sums = [np.sum(self.weights[g[2], :], axis=0) for g in kept]
        return [g[1] for g in kept], np.reshape(sums, (len(kept), self.weights.shape[1]))

    def only(self, sources: Collection[tuple[str, str]]) -> Coding:
        """This coding of the ``(kind, label)`` sources given, in its own order, blocks from 0."""
        kept = [g for g in self.groups if g[:2] in sources]
        cols = [i for _, _, block in kept for i in range(block.start, block.stop)]
        edges = np.cumsum([0] + [g[2].stop - g[2].start for g in kept]).tolist()
        groups = [(k, label, slice(a, b)) for (k, label, _), a, b in zip(kept, edges, edges[1:])]
        return Coding(self.dictionary[:, cols], groups, self.weights[cols, :])


@dataclass
class NoiseDecision:
    """Outcome of noise typing: the noise of each side of the switch and where it is.

    Frames ``[0, split)`` lie before the switch and ``[split, n_frames)``
    after it; ``transition_s`` is the same switch in seconds.
    ``frame_labels`` holds each frame's winning noise in the screen.
    """

    noise_first: str
    noise_second: str
    transition_s: float
    split: int
    frame_labels: list[str]


def _best_changepoint(votes: np.ndarray, n_labels: int) -> tuple[int, int, int]:
    """(first_idx, second_idx, split) maximising prefix/suffix vote agreement.

    Ties go to the first maximum in (split, first, second) order.
    """
    left = np.zeros((votes.size + 1, n_labels), dtype=np.int64)
    np.cumsum(votes[:, None] == np.arange(n_labels), axis=0, out=left[1:])
    right = left[-1] - left
    agreement = left[:, :, None] + right[:, None, :]
    diagonal = np.arange(n_labels)
    agreement[:, diagonal, diagonal] = -1
    split, a, b = np.unravel_index(np.argmax(agreement), agreement.shape)
    return int(a), int(b), int(split)


def classify_noise(mag: np.ndarray, bank: DictionaryBank) -> tuple[NoiseDecision, Coding]:
    """Identify the noise type of each side of the switch and locate it.

    Parameters
    ----------
    mag : np.ndarray
        Magnitude spectrogram of the whole mixture, ``(P, N)``, taken with
        ``bank.stft_config``.  Every frame is screened against every source of
        ``bank`` with ``mu`` for :data:`SCREEN_ITERS` sweeps.  A spectrogram
        with no frame, or with a NaN or infinite entry, is a ``ValueError``.

    Returns the decision and the screen's coding, from which it was read.
    """
    if not bank.noise_labels:
        raise ValueError("bank holds no noise dictionaries")
    D, groups = bank.concatenated()
    screen = Coding(D, groups, code_frames(mag, D, solver="mu", n_iter=SCREEN_ITERS, tol=0.0))
    labels, scores = screen.scores("noise")
    frame_label_idx = np.argmax(scores, axis=0)

    a_idx, b_idx, split = _best_changepoint(frame_label_idx, len(labels))

    times = frame_times(mag.shape[1], bank.stft_config)
    if split <= 0:
        transition = float(times[0])
    elif split >= times.size:
        transition = float(times[-1])
    else:
        transition = float(0.5 * (times[split - 1] + times[split]))

    decision = NoiseDecision(
        noise_first=labels[a_idx],
        noise_second=labels[b_idx],
        transition_s=transition,
        split=split,
        frame_labels=[labels[i] for i in frame_label_idx],
    )
    return decision, screen


def rank_speakers(mag: np.ndarray, coding: Coding, speech_mask: np.ndarray) -> list[str]:
    """Rank ``coding``'s speakers by their block scores summed over speech frames.

    When ``speech_mask`` marks no frame, the 20 loudest frames stand in.
    """
    labels, scores = coding.scores("speaker")
    if not labels:
        raise ValueError("the coding holds no speaker dictionaries")
    columns = np.flatnonzero(speech_mask)
    if columns.size == 0:
        energy = np.sum(mag**2, axis=0)
        columns = np.argsort(energy)[::-1][:20]
    totals = np.sum(scores[:, columns], axis=1)
    order = np.argsort(-totals, kind="stable")
    return [labels[i] for i in order]
