import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsescene.bank import DictionaryBank
from sparsescene.dictionary import LearnedDictionary
from sparsescene.errors import DataError


def _unit(cols):
    a = np.asarray(cols, dtype=np.float64)
    return a / np.linalg.norm(a, axis=0)


def _small_bank():
    rng = np.random.default_rng(0)
    mk = lambda: LearnedDictionary(_unit(np.abs(rng.standard_normal((6, 3))) + 0.1), "random")
    return DictionaryBank(
        {"alice": mk(), "bob": mk()},
        {"hiss": mk(), "thump": mk()},
        method="random",
        params={"n_atoms": 3, "tw": 0.8, "tb": 0.8, "seed": 0},
        feature_params={"sample_rate": 8000, "n_fft": 10, "hop": 5},  # 6-row atoms
    )


@pytest.fixture()
def bank():
    return _small_bank()


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
    D, groups = bank.restricted(exclude_speakers=["alice"]).concatenated()
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


@pytest.mark.parametrize("meta", [b"{not json", b"\xff\xfe"], ids=["not_json", "not_utf8"])
def test_a_bank_whose_meta_is_not_json_is_a_data_error(tmp_path, meta):
    path = tmp_path / "bad.npz"
    np.savez(path, meta=np.frombuffer(meta, dtype=np.uint8))
    with pytest.raises(DataError, match="not a valid dictionary bank"):
        DictionaryBank.load(path)


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


#: any JSON value, NaN and infinities included (``json`` writes and reads them)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def saved_bank(tmp_path_factory):
    """The directory and arrays of a saved :func:`_small_bank`."""
    path = tmp_path_factory.mktemp("bank") / "bank.npz"
    _small_bank().save(path)
    with np.load(path) as data:
        return path.parent, {key: data[key].copy() for key in data.files}


@settings(max_examples=300)
@given(data=st.data())
def test_a_bank_with_one_meta_value_replaced_loads_whole_or_is_a_data_error(saved_bank, data):
    directory, arrays = saved_bank
    meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
    nested = [(key, sub) for key in ("params", "feature_params") for sub in meta[key]]
    where = data.draw(st.sampled_from([(key,) for key in sorted(meta)] + nested))
    target = meta[where[0]] if len(where) == 2 else meta
    target[where[-1]] = data.draw(_JSON)
    path = directory / "tampered.npz"
    meta_bytes = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **{**arrays, "meta": meta_bytes})
    try:
        bank = DictionaryBank.load(path)
    except DataError as exc:
        assert str(path) in str(exc)
    else:
        D, groups = bank.concatenated()
        assert D.shape == (bank.stft_config.n_bins, groups[-1][2].stop)
        assert len(bank.content_hash()) == 64


@settings(max_examples=200)
@given(data=st.data())
def test_a_cut_or_flipped_bank_file_loads_whole_or_is_a_data_error(saved_bank, data):
    directory, arrays = saved_bank
    valid = directory / "bank.npz"
    content = valid.read_bytes()
    damaged = bytearray(content[: data.draw(st.integers(0, len(content)), label="cut")])
    flips = st.tuples(st.integers(0, len(content) - 1), st.integers(1, 255))
    for i, mask in data.draw(st.lists(flips, max_size=3), label="flips"):
        if i < len(damaged):
            damaged[i] ^= mask
    path = directory / "damaged.npz"
    path.write_bytes(bytes(damaged))
    try:
        bank = DictionaryBank.load(path)
    except DataError as exc:
        assert str(path) in str(exc)
    else:
        assert len(bank.content_hash()) == 64
