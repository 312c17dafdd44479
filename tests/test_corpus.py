import json
import re
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

import sparsescene as ss
from sparsescene import training
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


@pytest.fixture(scope="module")
def wav_file(tmp_path_factory):
    """A path and the bytes of a valid 64-sample WAV written there."""
    path = tmp_path_factory.mktemp("wav") / "x.wav"
    write_wav(path, np.random.default_rng(0).uniform(-0.5, 0.5, 64), 8000)
    return path, path.read_bytes()


@pytest.mark.filterwarnings("ignore::scipy.io.wavfile.WavFileWarning")
@settings(max_examples=300)
@given(data=st.data())
def test_a_cut_or_flipped_wav_reads_as_finite_samples_or_a_data_error(wav_file, data):
    path, valid = wav_file
    damaged = bytearray(valid[: data.draw(st.integers(0, len(valid)), label="cut")])
    flips = st.tuples(st.integers(0, len(valid) - 1), st.integers(1, 255))
    for i, mask in data.draw(st.lists(flips, max_size=4), label="flips"):
        if i < len(damaged):
            damaged[i] ^= mask
    path.write_bytes(bytes(damaged))
    try:
        _, x = read_wav(path)
    except DataError as exc:
        assert str(path) in str(exc)
    else:
        assert np.all(np.isfinite(x))


def test_sample_rate_mismatch_is_a_data_error(tmp_path):
    path = tmp_path / "x.wav"
    write_wav(path, np.zeros(100, dtype=np.float32), 8000)
    with pytest.raises(DataError):
        read_wav(path, expect_sr=16000)


def test_opening_a_corpus_reads_no_wav(corpus_root, monkeypatch):
    reads = []
    real_read = wavfile.read
    monkeypatch.setattr(wavfile, "read", lambda path: reads.append(path) or real_read(path))
    corpus = ss.Corpus.from_dir(corpus_root)
    utterances = [p for splits in corpus.speakers.values() for ps in splits.values() for p in ps]
    assert len(corpus.noises) + len(utterances) == 52 and reads == []
    corpus.load_noise("am")
    assert reads == [corpus.noises["am"]]


@pytest.fixture
def copied_root(corpus_root, tmp_path):
    """A copy of the bundled corpus that a test may damage."""
    return shutil.copytree(corpus_root, tmp_path / "c")


def test_a_damaged_noise_stays_listed_and_is_a_data_error_when_loaded(copied_root):
    noise = copied_root / "noise"
    (noise / "band.wav").write_bytes(b"ruined")
    hum = noise / "hum.wav"
    hum.write_bytes(hum.read_bytes()[:7])  # cut inside the RIFF header
    write_wav(noise / "bursts.wav", np.zeros(1600), 16000)
    corpus = ss.Corpus.from_dir(copied_root)
    assert sorted(corpus.noises) == ["am", "band", "bursts", "hum"]
    problems = {"band": "cannot read", "hum": "cannot read", "bursts": "sample rate 16000"}
    for label, problem in problems.items():
        wav = str(noise / f"{label}.wav")
        with pytest.raises(DataError, match=re.escape(wav)) as caught:
            corpus.load_noise(label)
        assert problem in str(caught.value)


def test_a_truncated_training_utterance_is_a_data_error_in_learn_bank(copied_root):
    wav = copied_root / "speaker" / "spk2" / "utt03.wav"
    assert "utt03.wav" in (wav.parent / "train.txt").read_text().split()
    wav.write_bytes(wav.read_bytes()[:30])
    corpus = ss.Corpus.from_dir(copied_root)
    with pytest.raises(DataError, match=re.escape(f"cannot read {wav}")):
        ss.learn_bank(corpus, "random", 2, seed=0)


def test_a_split_file_that_is_not_utf8_is_a_data_error_naming_it(copied_root):
    split_file = copied_root / "speaker" / "spk1" / "train.txt"
    split_file.write_bytes(b"\xff\xfe utt01.wav\n")
    with pytest.raises(DataError, match=re.escape(f"cannot read {split_file}")):
        ss.Corpus.from_dir(copied_root)


def test_empty_directory_is_a_data_error(tmp_path):
    with pytest.raises(DataError):
        ss.Corpus.from_dir(tmp_path / "missing")


@pytest.fixture
def minimal_root(tmp_path):
    """One noise and one speaker utterance at 8000 Hz, with a complete ``corpus.json``."""
    (tmp_path / "noise").mkdir()
    spk = tmp_path / "speaker" / "spk1"
    spk.mkdir(parents=True)
    tone = np.full(800, 0.1, dtype=np.float32)
    write_wav(tmp_path / "noise" / "hum.wav", tone, 8000)
    write_wav(spk / "utt01.wav", tone, 8000)
    (spk / "train.txt").write_text("utt01.wav\n")
    meta = {"sample_rate": 8000, "noise_train_seconds": 0.05, "noises": ["hum"]}
    (tmp_path / "corpus.json").write_text(json.dumps({**meta, "speakers": ["spk1"]}))
    return tmp_path


def test_missing_corpus_json_is_a_data_error_naming_it(minimal_root):
    corpus = ss.Corpus.from_dir(minimal_root)
    assert (corpus.sample_rate, corpus.noise_train_seconds) == (8000, 0.05)
    assert corpus.utterances("spk1", "train") == ["spk1/utt01.wav"]
    (minimal_root / "corpus.json").unlink()
    with pytest.raises(DataError, match=re.escape(f"cannot read {minimal_root / 'corpus.json'}")):
        ss.Corpus.from_dir(minimal_root)


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
        '{"sample_rate": 8000.5}',
        '{"sample_rate": "8000"}',
        '{"sample_rate": true}',
        '{"noise_train_seconds": true}',
        '{"noises": []}',
        '{"speakers": "spk1"}',
        '{"noises": ["../x"]}',
        '{"noises": ["a/b"]}',
        '{"speakers": [".."]}',
        '{"noises": [1]}',
    ],
)
def test_malformed_corpus_json_is_a_data_error(minimal_root, text):
    meta_file = minimal_root / "corpus.json"
    if text.startswith('{"'):  # one key overridden in the otherwise complete file
        text = json.dumps({**json.loads(meta_file.read_text()), **json.loads(text)})
    meta_file.write_text(text)
    with pytest.raises(DataError, match=r"corpus\.json"):
        ss.Corpus.from_dir(minimal_root)


@pytest.mark.parametrize("key", ["sample_rate", "noise_train_seconds", "noises", "speakers"])
def test_corpus_json_without_a_key_is_a_data_error(minimal_root, key):
    meta_file = minimal_root / "corpus.json"
    meta = json.loads(meta_file.read_text())
    del meta[key]
    meta_file.write_text(json.dumps(meta))
    with pytest.raises(DataError, match=rf"corpus\.json: {key} must be"):
        ss.Corpus.from_dir(minimal_root)


def test_a_deleted_listed_noise_is_a_data_error_naming_it_in_learn_bank(copied_root):
    wav = copied_root / "noise" / "am.wav"
    wav.unlink()
    corpus = ss.Corpus.from_dir(copied_root)
    assert sorted(corpus.noises) == ["am", "band", "bursts", "hum"]
    with pytest.raises(DataError, match=re.escape(f"cannot read {wav}")):
        ss.learn_bank(corpus, "random", 2, seed=0)


def test_a_deleted_listed_speaker_is_a_data_error_naming_it(copied_root):
    shutil.rmtree(copied_root / "speaker" / "spk4")
    corpus = ss.Corpus.from_dir(copied_root)
    assert sorted(corpus.speakers) == ["spk1", "spk2", "spk3", "spk4"]
    with pytest.raises(DataError, match="'spk4'"):
        ss.learn_bank(corpus, "random", 2, seed=0)
    with pytest.raises(DataError, match="'spk4'"):
        ss.generate_scenarios(corpus, 4, seed=0)


def _cut(wav):
    wav.write_bytes(wav.read_bytes()[:7])


def _silence(wav):
    sample_rate, samples = read_wav(wav)
    write_wav(wav, np.zeros_like(samples), sample_rate)


@pytest.mark.parametrize(
    "damage, named, relearn",
    [
        (lambda root: shutil.rmtree(root / "speaker" / "spk4"), "speaker 'spk4'", False),
        (lambda root: _cut(root / "noise" / "hum.wav"), "noise/hum.wav", False),
        (lambda root: _cut(root / "speaker" / "spk4" / "utt07.wav"), "spk4/utt07.wav", True),
        (
            lambda root: _silence(root / "noise" / "hum.wav"),
            "noise 'hum': no non-silent frames to learn from",
            False,
        ),
    ],
    ids=[
        "learn_bank_without_spk4",
        "learn_bank_with_a_cut_noise",
        "relearn_with_a_cut_update",
        "learn_bank_with_a_silent_noise",
    ],
)
def test_every_listed_source_is_read_before_any_is_learned(
    copied_root, monkeypatch, damage, named, relearn
):
    bank = ss.learn_bank(ss.Corpus.from_dir(copied_root), "random", 2) if relearn else None
    assert "utt07.wav" in (copied_root / "speaker" / "spk4" / "update.txt").read_text().split()
    damage(copied_root)
    corpus = ss.Corpus.from_dir(copied_root)
    learned = []
    learn = training.learn_dictionary
    monkeypatch.setattr(
        training, "learn_dictionary", lambda *a, **k: learned.append(a[1]) or learn(*a, **k)
    )
    with pytest.raises(DataError, match=re.escape(named)):
        if relearn:
            training.relearn_speakers(bank, corpus)
        else:
            ss.learn_bank(corpus, "random", 2, seed=0)
    assert learned == []


def test_an_unlisted_wav_is_no_source(copied_root):
    shutil.copy(copied_root / "noise" / "hum.wav", copied_root / "noise" / "babble.wav")
    shutil.copytree(copied_root / "speaker" / "spk1", copied_root / "speaker" / "spk5")
    corpus = ss.Corpus.from_dir(copied_root)
    assert sorted(corpus.noises) == ["am", "band", "bursts", "hum"]
    assert sorted(corpus.speakers) == ["spk1", "spk2", "spk3", "spk4"]


@pytest.mark.parametrize("entry", ["../spk2/utt01.wav", "sub/../../spk2/utt01.wav", "/x/utt01.wav"])
def test_a_split_entry_that_leaves_its_speaker_is_a_data_error_naming_the_file(copied_root, entry):
    split_file = copied_root / "speaker" / "spk1" / "train.txt"
    split_file.write_text(split_file.read_text() + entry + "\n")
    with pytest.raises(DataError, match=re.escape(f"{split_file}: entry {entry}")):
        ss.Corpus.from_dir(copied_root)


def test_split_entries_in_a_subdirectory_are_recorded_and_rendered_from_there(
    copied_root, monkeypatch
):
    spk = copied_root / "speaker" / "spk1"
    names = (spk / "test.txt").read_text().split()
    (spk / "sub").mkdir()
    for name in names:
        (spk / name).rename(spk / "sub" / name)
    (spk / "test.txt").write_text("".join(f"sub/{name}\n" for name in names))
    corpus = ss.Corpus.from_dir(copied_root)
    scenario = ss.generate_scenarios(corpus, 1, seed=0)[0]
    assert scenario.speaker == "spk1"
    recorded = [u.utterance for u in scenario.utterances]
    assert set(recorded) <= {f"spk1/sub/{name}" for name in names}
    reads = []
    real_read = wavfile.read
    monkeypatch.setattr(wavfile, "read", lambda path: reads.append(path) or real_read(path))
    ss.render_scenario(corpus, scenario, snr_db=0.0)
    utterance_reads = [path for path in reads if "speaker" in path.parts]
    assert utterance_reads == [copied_root / "speaker" / name for name in recorded]
