import numpy as np
import pytest

from sparsescene.bank import DictionaryBank
from sparsescene.dictionary import LearnedDictionary
from sparsescene.errors import DataError


def _unit(cols):
    a = np.asarray(cols, dtype=np.float64)
    return a / np.linalg.norm(a, axis=0)


@pytest.fixture()
def bank():
    rng = np.random.default_rng(0)
    mk = lambda: LearnedDictionary(_unit(np.abs(rng.standard_normal((6, 3))) + 0.1), "random")
    return DictionaryBank(
        {"alice": mk(), "bob": mk()},
        {"hiss": mk(), "thump": mk()},
        method="random",
        params={"n_atoms": 3, "tw": 0.8, "tb": 0.8, "seed": 0},
        feature_params={"sample_rate": 8000, "n_fft": 10, "hop": 5},  # 6-row atoms
    )


def test_labels_are_sorted(bank):
    assert bank.speaker_labels == ("alice", "bob")
    assert bank.noise_labels == ("hiss", "thump")


def test_access_counters_track_reads(bank):
    # Every label starts with an explicit zero so "never read" is provable.
    assert set(bank.access_counts) == {
        ("speaker", "alice"),
        ("speaker", "bob"),
        ("noise", "hiss"),
        ("noise", "thump"),
    }
    assert all(v == 0 for v in bank.access_counts.values())
    bank.get_speaker("alice")
    bank.get_noise("hiss")
    bank.get_noise("hiss")
    assert bank.access_counts[("speaker", "alice")] == 1
    assert bank.access_counts[("noise", "hiss")] == 2


def test_missing_label_raises(bank):
    with pytest.raises(KeyError):
        bank.get_speaker("nobody")
    with pytest.raises(KeyError):
        bank.get_noise("silence")


def test_concatenated_blocks_and_slices(bank):
    D, groups = bank.concatenated(speaker_labels=["bob"], noise_labels=["hiss", "thump"])
    assert D.shape == (6, 9)
    assert [(k, l) for k, l, _ in groups] == [
        ("speaker", "bob"),
        ("noise", "hiss"),
        ("noise", "thump"),
    ]
    for kind, label, sl in groups:
        d = bank.get_speaker(label) if kind == "speaker" else bank.get_noise(label)
        assert np.array_equal(D[:, sl], d.atoms)


def test_restricted_view_hides_sources_and_shares_counters(bank):
    view = bank.restricted(exclude_speakers=["alice"], exclude_noises=["thump"])
    assert view.speaker_labels == ("bob",)
    assert view.noise_labels == ("hiss",)
    with pytest.raises(KeyError):
        view.get_speaker("alice")
    view.get_speaker("bob")
    assert bank.access_counts[("speaker", "bob")] == 1
    assert bank.access_counts[("speaker", "alice")] == 0


def test_replacement_creates_an_updated_copy(bank):
    rng = np.random.default_rng(9)
    repl = LearnedDictionary(_unit(np.abs(rng.standard_normal((6, 2))) + 0.1), "kmeans")
    updated = bank.with_replaced("noise", "hiss", repl)
    assert updated.get_noise("hiss").atoms.shape == (6, 2)
    assert bank.get_noise("hiss").atoms.shape == (6, 3)
    with pytest.raises(ValueError):
        bank.with_replaced("weather", "hiss", repl)


def test_save_load_round_trip(bank, tmp_path):
    path = tmp_path / "bank.npz"
    bank.save(path)
    loaded = DictionaryBank.load(path)
    assert loaded.method == bank.method
    assert loaded.params == bank.params
    assert loaded.feature_params == bank.feature_params
    assert loaded.speaker_labels == bank.speaker_labels
    assert loaded.noise_labels == bank.noise_labels
    for label in bank.noise_labels:
        a, b = bank.get_noise(label), loaded.get_noise(label)
        assert np.array_equal(a.atoms, b.atoms)
        assert np.array_equal(a.appended, b.appended)
        assert a.method == b.method


def test_loading_garbage_raises_data_error(tmp_path):
    path = tmp_path / "bad.npz"
    path.write_bytes(b"not a bank at all")
    with pytest.raises(DataError):
        DictionaryBank.load(path)
    np.savez(tmp_path / "wrong.npz", other=np.zeros(3))
    with pytest.raises(DataError):
        DictionaryBank.load(tmp_path / "wrong.npz")
    np.savez(tmp_path / "list.npz", meta=np.frombuffer(b"[]", dtype=np.uint8))
    with pytest.raises(DataError):
        DictionaryBank.load(tmp_path / "list.npz")


def test_content_hash_is_stable_and_sensitive(bank, tmp_path):
    h = bank.content_hash()
    assert h == bank.content_hash()
    path = tmp_path / "bank.npz"
    bank.save(path)
    assert DictionaryBank.load(path).content_hash() == h
    rng = np.random.default_rng(10)
    other = bank.with_replaced(
        "noise",
        "hiss",
        LearnedDictionary(_unit(np.abs(rng.standard_normal((6, 3))) + 0.1), "random"),
    )
    assert other.content_hash() != h
