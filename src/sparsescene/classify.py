"""Block-sparse classification: which noise types, where they switch, who speaks.

All decisions share one mechanism: frames are coded against a concatenation
of per-source dictionaries and each source is scored by the sum of its atoms'
weights (its "block" of the weight vector).  :func:`classify_noise` screens
the frames against ``[all speakers | all noises]`` with a fixed, short ``mu``
sweep budget — speech energy is absorbed by the speaker blocks, so the
per-frame winner among the noise blocks stays reliable even where speech is
present.  The switch between the two noise types is the change point that
makes the per-frame noise decisions before and after it maximally
consistent.  The returned decision carries the weight matrix and the frame
index of the switch, so :func:`rank_speakers` reads its block scores off a
coding instead of coding the frames again; the pipeline
(``regimes.analyze``) ranks the screen's speakers, then codes the frames on
each side of the switch once more against the shortlisted speakers and that
side's noise only, and ranks again on that coding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bank import DictionaryBank
from .features import frame_times
from .solvers import code_frames

__all__ = ["NoiseDecision", "classify_noise", "rank_speakers", "block_score_matrix"]

#: ``mu`` sweeps, at ``tol = 0``, of the screen that :func:`classify_noise` runs
SCREEN_ITERS = 50


def block_score_matrix(
    weights: np.ndarray, groups: list[tuple[str, str, slice]]
) -> np.ndarray:
    """Per-group weight sums, shape ``(n_groups, n_frames)``."""
    return np.stack([np.sum(weights[g[2], :], axis=0) for g in groups], axis=0)


@dataclass
class NoiseDecision:
    """Outcome of noise typing, with a coding that decisions are read from.

    ``weights[:, j]`` codes frame ``j`` against ``dictionary``, whose column
    blocks ``groups`` lists as ``(kind, label, slice)``.  From
    :func:`classify_noise` that is the screen the noise fields were read
    from; ``regimes.analyze`` returns it with the shortlist's coding.
    Frames ``[0, split)`` lie before the switch and ``[split, n_frames)``
    after it; ``transition_s`` is the same switch in seconds.
    """

    noise_first: str
    noise_second: str
    transition_s: float
    split: int
    frame_labels: list[str]
    dictionary: np.ndarray
    groups: list[tuple[str, str, slice]]
    weights: np.ndarray

    def block(self, kind: str, label: str) -> slice:
        """Columns of ``dictionary`` (rows of ``weights``) holding one source."""
        return next(g[2] for g in self.groups if g[:2] == (kind, label))


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


def classify_noise(mag: np.ndarray, bank: DictionaryBank) -> NoiseDecision:
    """Identify the noise type of each side of the switch and locate it.

    Parameters
    ----------
    mag : np.ndarray
        Magnitude spectrogram of the whole mixture, ``(P, N)``, taken with
        ``bank.stft_config``.  Every frame is screened against every source of
        ``bank`` with ``mu`` for :data:`SCREEN_ITERS` sweeps.
    """
    labels = list(bank.noise_labels)
    if not labels:
        raise ValueError("bank holds no noise dictionaries")
    D, groups = bank.concatenated()
    noise_groups = [g for g in groups if g[0] == "noise"]
    W = code_frames(mag, D, solver="mu", n_iter=SCREEN_ITERS, tol=0.0)
    scores = block_score_matrix(W, noise_groups)
    frame_label_idx = np.argmax(scores, axis=0)

    a_idx, b_idx, split = _best_changepoint(frame_label_idx, len(labels))

    times = frame_times(mag.shape[1], bank.stft_config)
    if split <= 0:
        transition = float(times[0])
    elif split >= times.size:
        transition = float(times[-1])
    else:
        transition = float(0.5 * (times[split - 1] + times[split]))

    return NoiseDecision(
        noise_first=labels[a_idx],
        noise_second=labels[b_idx],
        transition_s=transition,
        split=split,
        frame_labels=[labels[i] for i in frame_label_idx],
        dictionary=D,
        groups=groups,
        weights=W,
    )


def rank_speakers(
    mag: np.ndarray, decision: NoiseDecision, speech_mask: np.ndarray
) -> list[str]:
    """Rank speaker labels by their block scores summed over speech frames.

    The scores come from ``decision``'s weights.  When ``speech_mask`` marks
    no frame, the 20 loudest frames stand in for speech.
    """
    speakers = [g for g in decision.groups if g[0] == "speaker"]
    if not speakers:
        raise ValueError("bank holds no speaker dictionaries")
    columns = np.flatnonzero(speech_mask)
    if columns.size == 0:
        energy = np.sum(mag**2, axis=0)
        columns = np.argsort(energy)[::-1][:20]
    totals = np.sum(block_score_matrix(decision.weights[:, columns], speakers), axis=1)
    order = np.argsort(-totals, kind="stable")
    return [speakers[i][1] for i in order]
