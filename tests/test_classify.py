import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import sparsescene as ss
from sparsescene import classify
from sparsescene.bank import DictionaryBank
from sparsescene.classify import Coding, _best_changepoint
from sparsescene.dictionary import LearnedDictionary
from sparsescene.features import frame_times


def _unit_columns(rows, cols):
    """Atoms supported on the given rows: one per (row, mix) combination."""
    P = 8
    atoms = np.zeros((P, len(cols)))
    for j, weights in enumerate(cols):
        for r, w in zip(rows, weights):
            atoms[r, j] = w
    return atoms / np.linalg.norm(atoms, axis=0)


@pytest.fixture()
def toy_bank():
    """Sources with disjoint spectral support, so coding is unambiguous.

    Bins 0-1: noise 'alpha'; bins 2-3: noise 'beta';
    bins 4-5: speaker 'sA'; bins 6-7: speaker 'sB'.
    """
    mk = lambda rows: LearnedDictionary(
        _unit_columns(rows, [(1.0, 0.2), (0.2, 1.0)]), "random"
    )
    return DictionaryBank(
        {
            ("speaker", "sA"): mk((4, 5)),
            ("speaker", "sB"): mk((6, 7)),
            ("noise", "alpha"): mk((0, 1)),
            ("noise", "beta"): mk((2, 3)),
        },
        method="random",
    )


def _toy_mag(n_frames=40, switch=20, speech_frames=()):
    mag = np.zeros((8, n_frames))
    mag[0:2, :switch] = 1.0
    mag[2:4, switch:] = 1.0
    for f in speech_frames:
        mag[4:6, f] = 3.0  # strong speaker-'sA' energy on top of the noise
    return mag


def _coding():
    """Five atoms in three blocks: speaker 's' (0-1), noise 'x' (2), noise 'y' (3-4)."""
    groups = [
        ("speaker", "s", slice(0, 2)),
        ("noise", "x", slice(2, 3)),
        ("noise", "y", slice(3, 5)),
    ]
    dictionary = np.arange(15, dtype=float).reshape(3, 5)
    return Coding(dictionary, groups, np.arange(20, dtype=float).reshape(5, 4))


def test_scores_sum_each_block_of_one_kind():
    coding = _coding()
    labels, scores = coding.scores("noise")
    assert labels == ["x", "y"]
    assert scores.shape == (2, 4)
    assert np.array_equal(scores[0], coding.weights[2])
    assert np.array_equal(scores[1], coding.weights[3:].sum(axis=0))
    labels, scores = coding.scores("speaker")
    assert labels == ["s"] and np.array_equal(scores[0], coding.weights[:2].sum(axis=0))
    labels, scores = coding.only({("noise", "x")}).scores("speaker")
    assert labels == [] and scores.shape == (0, 4)


def test_only_keeps_the_coding_order_and_rebases_the_blocks():
    coding = _coding()
    # the sources come in another order, and one the coding lacks is ignored
    kept = coding.only({("noise", "y"), ("speaker", "s"), ("speaker", "absent")})
    assert kept.groups == [("speaker", "s", slice(0, 2)), ("noise", "y", slice(2, 4))]
    assert np.array_equal(kept.dictionary, coding.dictionary[:, [0, 1, 3, 4]])
    assert np.array_equal(kept.weights, coding.weights[[0, 1, 3, 4]])
    assert kept.block("noise", "y") == slice(2, 4)
    with pytest.raises(KeyError, match="noise 'x'"):
        kept.block("noise", "x")
    noise = coding.only({("noise", "y")}).only({("noise", "y")})
    assert noise.groups == [("noise", "y", slice(0, 2))]
    assert np.array_equal(noise.weights, coding.weights[3:])
    empty = coding.only(set())
    assert empty.groups == [] and empty.dictionary.shape == (3, 0) and empty.weights.shape == (0, 4)


def test_classify_noise_finds_labels_and_switch(toy_bank, stft_config):
    mag = _toy_mag(speech_frames=(3, 4, 5, 24, 25))
    decision, screen = ss.classify_noise(mag, toy_bank)
    assert decision.noise_first == "alpha"
    assert decision.noise_second == "beta"
    times = frame_times(40, stft_config)
    expected = 0.5 * (times[19] + times[20])
    assert decision.transition_s == pytest.approx(expected, abs=1e-9)
    assert _votes(screen) == ["alpha"] * 20 + ["beta"] * 20
    assert decision.segments == [(slice(0, 20), "alpha"), (slice(20, 40), "beta")]
    # the coding behind the votes covers every frame against [speakers | noises]
    assert [g[:2] for g in screen.groups] == [
        ("speaker", "sA"),
        ("speaker", "sB"),
        ("noise", "alpha"),
        ("noise", "beta"),
    ]
    assert screen.dictionary.shape == (8, 8)
    assert screen.weights.shape == (8, 40)
    assert screen.block("noise", "beta") == slice(6, 8)


def _votes(screen):
    """Each frame's winning noise in the screen."""
    labels, scores = screen.scores("noise")
    return [labels[i] for i in np.argmax(scores, axis=0)]


def _brute_force_changepoint(votes, n_labels):
    """Reference search: every split, every ordered label pair, first maximum wins."""
    best = (-1, 0, min(1, n_labels - 1), 0)
    for split in range(votes.size + 1):
        for a in range(n_labels):
            for b in range(n_labels):
                if a == b:
                    continue
                agree = int(np.sum(votes[:split] == a) + np.sum(votes[split:] == b))
                if agree > best[0]:
                    best = (agree, a, b, split)
    return best[1], best[2], best[3]


@given(
    st.integers(1, 6).flatmap(
        lambda n_labels: st.tuples(
            st.just(n_labels),
            st.lists(st.integers(0, n_labels - 1), min_size=0, max_size=300),
        )
    )
)
def test_changepoint_matches_brute_force_search(case):
    n_labels, votes = case
    votes = np.asarray(votes, dtype=np.int64)
    assert _best_changepoint(votes, n_labels) == _brute_force_changepoint(votes, n_labels)


def test_speech_energy_does_not_flip_noise_votes(toy_bank):
    # Heavy speaker energy on half the frames; votes among noise blocks
    # must still follow the noise support because the speaker blocks
    # absorb the speech bins.
    mag = _toy_mag(speech_frames=range(0, 40, 2))
    decision, _ = ss.classify_noise(mag, toy_bank)
    assert decision.noise_first == "alpha"
    assert decision.noise_second == "beta"


def test_uniform_signal_degenerates_to_edge_transition(toy_bank, stft_config):
    mag = np.zeros((8, 30))
    mag[0:2, :] = 1.0  # pure 'alpha' throughout
    decision, screen = ss.classify_noise(mag, toy_bank)
    # With no real switch the best split is at an edge; the one segment
    # must carry the true label and the transition sits at that edge.
    assert "alpha" in (decision.noise_first, decision.noise_second)
    times = frame_times(30, stft_config)
    assert decision.transition_s in (pytest.approx(times[0]), pytest.approx(times[-1]))
    assert _votes(screen) == ["alpha"] * 30
    assert decision.segments == [(slice(0, 30), "alpha")]


@pytest.mark.parametrize("pair", [(0, 1), (1, 0), (0, 0)], ids=["ab", "ba", "one_noise"])
@pytest.mark.parametrize("at", [0, 1, -1, None], ids=["0", "1", "n-1", "n"])
def test_the_segments_cover_the_frames_once_on_each_side_of_any_split(
    pair, at, toy_bank, stft_config, monkeypatch
):
    n_frames = 30
    split = n_frames if at is None else at % n_frames
    monkeypatch.setattr(classify, "_best_changepoint", lambda votes, n_labels: (*pair, split))
    bank = toy_bank.restricted([("noise", "beta")]) if pair == (0, 0) else toy_bank
    decision, _ = ss.classify_noise(_toy_mag(n_frames, switch=15), bank)
    first, second = (bank.noise_labels[i] for i in pair)
    assert (decision.noise_first, decision.noise_second) == (first, second)
    covered = [f for frames, _ in decision.segments for f in range(frames.start, frames.stop)]
    assert covered == list(range(n_frames))
    assert all(frames.stop > frames.start for frames, _ in decision.segments)
    for frames, label in decision.segments:
        assert label == (first if frames.stop <= split else second)
        assert frames.start >= split or frames.stop <= split
    times = frame_times(n_frames, stft_config)
    if split <= 0:
        expected = float(times[0])
    elif split >= times.size:
        expected = float(times[-1])
    else:
        expected = float(0.5 * (times[split - 1] + times[split]))
    assert decision.transition_s == expected


def test_classify_noise_requires_noise_dictionaries(toy_bank):
    only_speakers = toy_bank.restricted([("noise", "alpha"), ("noise", "beta")])
    with pytest.raises(ValueError):
        ss.classify_noise(np.ones((8, 4)), only_speakers)


def _speech_mask(frames, n_frames=40):
    mask = np.zeros(n_frames, dtype=bool)
    mask[list(frames)] = True
    return mask


def test_rank_speakers_orders_by_block_energy(toy_bank):
    mag = _toy_mag(speech_frames=(3, 4, 5, 24, 25))
    _, screen = ss.classify_noise(mag, toy_bank)
    ranking = ss.rank_speakers(mag, screen, _speech_mask((3, 4, 5, 24, 25)))
    assert ranking == ["sA", "sB"]
    assert sorted(ranking) == sorted(toy_bank.speaker_labels)


def test_rank_speakers_reads_the_noise_typing_weights(toy_bank, monkeypatch):
    # Ranking sums the speaker blocks of the weights noise typing coded; it
    # never codes again, so moving weight between blocks moves the ranking.
    mag = _toy_mag(speech_frames=(3, 4, 26, 27))
    _, screen = ss.classify_noise(mag, toy_bank)

    def no_coding(*args, **kwargs):
        raise AssertionError("rank_speakers must not code frames")

    monkeypatch.setattr(classify, "code_frames", no_coding)
    mask = _speech_mask((3, 4, 26, 27))
    assert ss.rank_speakers(mag, screen, mask)[0] == "sA"
    spk_a, spk_b = screen.block("speaker", "sA"), screen.block("speaker", "sB")
    screen.weights[spk_b, :] = 2.0 * screen.weights[spk_a, :]
    assert ss.rank_speakers(mag, screen, mask) == ["sB", "sA"]


def test_rank_speakers_falls_back_to_loud_frames(toy_bank):
    mag = _toy_mag(speech_frames=(10, 11))
    empty = np.zeros(40, dtype=bool)
    _, screen = ss.classify_noise(mag, toy_bank)
    ranking = ss.rank_speakers(mag, screen, empty)
    assert ranking[0] == "sA"

    no_speakers = toy_bank.restricted([("speaker", "sA"), ("speaker", "sB")])
    _, screen = ss.classify_noise(mag, no_speakers)
    with pytest.raises(ValueError):
        ss.rank_speakers(mag, screen, empty)


@pytest.mark.parametrize("bad", [np.nan, np.inf, None], ids=["nan", "inf", "no_frames"])
def test_classify_noise_rejects_a_spectrogram_it_cannot_code(toy_bank, bad):
    # The error is raised before any arithmetic, so no RuntimeWarning is emitted
    # (the suite turns one into an error).
    mag = _toy_mag()
    if bad is None:
        mag = mag[:, :0]
    else:
        mag[3, 7] = bad
    with pytest.raises(ValueError):
        ss.classify_noise(mag, toy_bank)
    if bad is not None:
        with pytest.raises(ValueError):
            ss.classify_noise(np.full_like(mag, bad), toy_bank)


def test_the_relaxed_screen_fits_no_worse_than_50_plain_sweeps(corpus, kmeans_bank):
    scenario = ss.generate_scenarios(corpus, 1, seed=3, half_duration_s=6.0)[0]
    mixture = ss.render_scenario(corpus, scenario, snr_db=0.0).mixture
    mag = np.abs(ss.stft(mixture, kmeans_bank.stft_config))
    _, screen = classify.classify_noise(mag, kmeans_bank)
    D = screen.dictionary
    plain = ss.solve_mu(mag, D, n_iter=50)
    assert classify.SCREEN_ITERS == 35
    assert np.array_equal(screen.weights, ss.solve_mu(mag, D, n_iter=35, relaxed=True))
    assert ss.generalized_kl(mag, D @ screen.weights) <= ss.generalized_kl(mag, D @ plain)
