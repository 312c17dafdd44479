"""Block-sparse classification: which noise types, where they switch, who speaks.

All decisions share one mechanism: frames are coded against a concatenation
of per-source dictionaries (a :class:`Coding`) and each source is scored by
the sum of its atoms' weights (its "block" of the weight vector).
:func:`classify_noise` screens the frames against ``[all speakers | all
noises]`` with a fixed, short budget of over-relaxed ``mu`` sweeps (each
update raised to the power 1.5) — speech energy is absorbed by the speaker
blocks, so the per-frame winner among the noise blocks stays
reliable even where speech is present.  The switch between the two noise
types is the change point that makes the per-frame noise decisions before
and after it maximally consistent; the decision hands the clip on as its
non-empty segments, runs of frames that each carry one noise.  It returns
its decision and the screen's coding apart, and :func:`rank_speakers` reads
block scores off a coding instead of coding the frames again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection

import numpy as np

from .bank import DictionaryBank
from .features import frame_times
from .solvers import code_frames

__all__ = ["Coding", "NoiseDecision", "classify_noise", "rank_speakers"]

#: over-relaxed ``mu`` sweeps, at ``tol = 0``, of the screen that
#: :func:`classify_noise` runs.  On 36 clips of the bundled corpus they fit
#: every clip more closely than 50 plain sweeps, with each of the five
#: learners; 34 do too by a thinner margin, 33 do not in the median.
SCREEN_ITERS = 35


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
        """Columns of ``dictionary`` (rows of ``weights``) holding one source.

        A source the coding does not hold is a ``KeyError``.
        """
        for g in self.groups:
            if g[:2] == (kind, label):
                return g[2]
        raise KeyError(f"the coding holds no {kind} {label!r}")

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
    """Outcome of noise typing: the clip's segments and the switch between them.

    ``segments`` are the clip's non-empty runs of frames in order, as
    ``(frames, noise label)`` pairs that cover every frame once: the frames
    before the switch carry ``noise_first`` and those after it
    ``noise_second``, and ``transition_s`` is the switch in seconds.  A
    switch at the first frame or after the last leaves one segment, and one
    of ``noise_first``/``noise_second`` then names a noise that has no
    frames.
    """

    noise_first: str
    noise_second: str
    transition_s: float
    segments: list[tuple[slice, str]]


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
        ``bank`` with :data:`SCREEN_ITERS` over-relaxed ``mu`` sweeps
        (``relaxed=True``).  A spectrogram
        with no frame, or with a NaN or infinite entry, is a ``ValueError``.

    Returns the decision and the screen's coding, from which it was read.
    """
    if not bank.noise_labels:
        raise ValueError("bank holds no noise dictionaries")
    D, groups = bank.concatenated()
    weights = code_frames(mag, D, solver="mu", n_iter=SCREEN_ITERS, tol=0.0, relaxed=True)
    screen = Coding(D, groups, weights)
    labels, scores = screen.scores("noise")
    a_idx, b_idx, split = _best_changepoint(np.argmax(scores, axis=0), len(labels))
    n_frames = mag.shape[1]
    # a switch at either edge sits on the edge frame's own time
    t = np.pad(frame_times(n_frames, bank.stft_config), 1, mode="edge")
    runs = ((slice(0, split), labels[a_idx]), (slice(split, n_frames), labels[b_idx]))
    decision = NoiseDecision(
        noise_first=labels[a_idx],
        noise_second=labels[b_idx],
        transition_s=float(0.5 * (t[split] + t[split + 1])),
        segments=[(frames, label) for frames, label in runs if frames.stop > frames.start],
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
