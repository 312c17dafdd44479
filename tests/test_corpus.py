import logging

import numpy as np
import pytest

import sparsescene as ss
from sparsescene.corpus import read_wav, write_wav
from sparsescene.errors import DataError


def test_generated_layout(corpus_root):
    assert (corpus_root / "corpus.json").exists()
    for label in ("am", "band", "bursts", "hum"):
        assert (corpus_root / "noise" / f"{label}.wav").exists()
    for spk in ("spk1", "spk2", "spk3", "spk4"):
        d = corpus_root / "speaker" / spk
        assert len(list(d.glob("utt*.wav"))) == 12
        for split in ("train", "update", "test"):
            assert (d / f"{split}.txt").exists()


def test_index_exposes_sources_and_splits(corpus):
    assert sorted(corpus.noises) == ["am", "band", "bursts", "hum"]
    assert sorted(corpus.speakers) == ["spk1", "spk2", "spk3", "spk4"]
    assert len(corpus.utterances("spk1", "train")) == 6
    assert len(corpus.utterances("spk1", "update")) == 3
    assert len(corpus.utterances("spk1", "test")) == 3
    with pytest.raises(DataError):
        corpus.utterances("spk1", "dev")


def test_generation_is_deterministic(tmp_path):
    a = ss.generate_corpus(tmp_path / "a", seed=123)
    b = ss.generate_corpus(tmp_path / "b", seed=123)
    fa = (a / "noise" / "hum.wav").read_bytes()
    fb = (b / "noise" / "hum.wav").read_bytes()
    assert fa == fb
    ua = (a / "speaker" / "spk2" / "utt05.wav").read_bytes()
    ub = (b / "speaker" / "spk2" / "utt05.wav").read_bytes()
    assert ua == ub


def test_different_seeds_differ(tmp_path):
    a = ss.generate_corpus(tmp_path / "a", seed=1)
    b = ss.generate_corpus(tmp_path / "b", seed=2)
    assert (a / "noise" / "am.wav").read_bytes() != (b / "noise" / "am.wav").read_bytes()


def test_noise_training_and_evaluation_regions_do_not_overlap(corpus):
    full = corpus.load_noise("band")
    train = corpus.noise_train_segment("band")
    evl = corpus.noise_eval_segment("band")
    assert len(train) + len(evl) == len(full)
    assert np.array_equal(np.concatenate([train, evl]), full)


def test_audio_round_trips_through_wav(tmp_path):
    x = np.random.default_rng(0).uniform(-0.5, 0.5, 1600).astype(np.float32)
    path = tmp_path / "x.wav"
    write_wav(path, x, 8000)
    sr, y = read_wav(path)
    assert sr == 8000
    assert np.allclose(x, y, atol=1e-7)


def test_sample_rate_mismatch_is_a_data_error(tmp_path):
    path = tmp_path / "x.wav"
    write_wav(path, np.zeros(100, dtype=np.float32), 8000)
    with pytest.raises(DataError):
        read_wav(path, expect_sr=16000)


def test_unreadable_entries_are_skipped_with_a_warning(tmp_path, caplog):
    root = ss.generate_corpus(tmp_path / "c", seed=0)
    (root / "noise" / "band.wav").write_bytes(b"ruined")
    with caplog.at_level(logging.WARNING):
        corpus = ss.Corpus.from_dir(root)
    assert "band" not in corpus.noises
    assert sorted(corpus.noises) == ["am", "bursts", "hum"]
    assert any("band" in r.getMessage() for r in caplog.records)


def test_empty_directory_is_a_data_error(tmp_path):
    with pytest.raises(DataError):
        ss.Corpus.from_dir(tmp_path / "missing")


@pytest.fixture
def minimal_root(tmp_path):
    """One noise and one speaker utterance at 8000 Hz, without ``corpus.json``."""
    (tmp_path / "noise").mkdir()
    spk = tmp_path / "speaker" / "spk1"
    spk.mkdir(parents=True)
    tone = np.full(800, 0.1, dtype=np.float32)
    write_wav(tmp_path / "noise" / "hum.wav", tone, 8000)
    write_wav(spk / "utt01.wav", tone, 8000)
    (spk / "train.txt").write_text("utt01.wav\n")
    return tmp_path


def test_missing_corpus_json_keeps_the_defaults(minimal_root):
    corpus = ss.Corpus.from_dir(minimal_root)
    assert corpus.sample_rate == 8000
    assert corpus.noise_train_seconds == 20.0


@pytest.mark.parametrize(
    "text",
    [
        "[1, 2]",
        "{not json",
        '{"sample_rate": "fast"}',
        '{"sample_rate": null}',
        '{"sample_rate": 0}',
        '{"noise_train_seconds": "long"}',
        '{"noise_train_seconds": NaN}',
        '{"noise_train_seconds": -1}',
    ],
)
def test_malformed_corpus_json_is_a_data_error(minimal_root, text):
    (minimal_root / "corpus.json").write_text(text)
    with pytest.raises(DataError, match=r"corpus\.json"):
        ss.Corpus.from_dir(minimal_root)
