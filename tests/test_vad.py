import numpy as np
import pytest

from sparsescene.features import StftConfig
from sparsescene.vad import (
    detect_speech_frames,
    frames_to_intervals,
    intervals_to_frame_mask,
    miss_false_rates,
)

CFG = StftConfig()


def test_bimodal_energies_split_cleanly():
    energies = np.array([1e-6] * 20 + [1.0] * 15 + [1e-6] * 20)
    mask = detect_speech_frames(energies, k=2)
    assert np.array_equal(mask, np.array([False] * 20 + [True] * 15 + [False] * 20))


def test_more_clusters_still_find_the_loud_frames():
    energies = np.concatenate(
        [np.full(20, 1e-6), np.full(10, 1e-3), np.full(10, 1.0)]
    )
    mask = detect_speech_frames(energies, k=3)
    assert np.all(mask[-10:])
    assert not np.any(mask[:20])


def test_single_cluster_is_rejected():
    with pytest.raises(ValueError):
        detect_speech_frames(np.ones(10), k=1)


def test_empty_input_yields_empty_mask():
    assert detect_speech_frames(np.zeros(0), k=2).shape == (0,)


def test_short_runs_are_discarded():
    mask = np.array([False, True, False, True, True, True, False])
    spans = frames_to_intervals(mask, CFG, min_frames=3)
    assert len(spans) == 1
    t0, t1 = spans[0]
    assert t0 == pytest.approx(3 * CFG.hop / CFG.sample_rate)
    assert t1 == pytest.approx((5 * CFG.hop + CFG.n_fft) / CFG.sample_rate)


def _intervals_frame_by_frame(mask, config, min_frames):
    """``frames_to_intervals`` as a loop over the frames, which the run search replaced."""
    intervals, start = [], None
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


@pytest.mark.parametrize("min_frames", [0, 1, 3, 5])
def test_runs_match_the_frame_by_frame_loop_float_for_float(min_frames):
    rng = np.random.default_rng(min_frames)
    masks = [np.zeros(0, dtype=bool), np.ones(7, dtype=bool), np.array([True, False, True])]
    for _ in range(300):
        n = int(rng.integers(0, 400))
        # runs of random length, so long runs and runs at both edges are common
        mask = np.repeat(rng.random(n) < 0.5, rng.integers(1, 12, size=n))[:n]
        masks.append(mask)
    config = StftConfig(sample_rate=16000, n_fft=400, hop=160)
    for mask in masks:
        for cfg in (CFG, config):
            got = frames_to_intervals(mask, cfg, min_frames)
            assert got == _intervals_frame_by_frame(mask, cfg, min_frames)
            assert all(type(t) is float for span in got for t in span)


def test_intervals_round_trip_through_frame_mask():
    mask = np.zeros(40, dtype=bool)
    mask[5:12] = True
    mask[20:28] = True
    spans = frames_to_intervals(mask, CFG, min_frames=3)
    back = intervals_to_frame_mask(spans, 40, CFG)
    # Interval edges extend by the window, so the recovered mask may be a
    # slightly dilated superset but must contain every original frame.
    assert np.all(back[mask])


def test_no_detections_and_no_truths_edge_cases():
    assert miss_false_rates([], []) == (0.0, 0.0)
    assert miss_false_rates([(0.0, 1.0)], []) == (100.0, 0.0)
    assert miss_false_rates([], [(0.0, 1.0)]) == (0.0, 100.0)


def test_rates_use_any_overlap_rule():
    true = [(0.0, 1.0), (2.0, 3.0)]
    detected = [(0.9, 1.5), (5.0, 6.0)]
    mr, far = miss_false_rates(true, detected)
    assert mr == 50.0
    assert far == 50.0


def test_touching_spans_do_not_count_as_overlap():
    mr, far = miss_false_rates([(0.0, 1.0)], [(1.0, 2.0)])
    assert mr == 100.0
    assert far == 100.0
