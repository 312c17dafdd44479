import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsescene.bank import DictionaryBank
from sparsescene.dictionary import LearnedDictionary, recipe_problem
from sparsescene.errors import DataError


def _unit(cols):
    a = np.asarray(cols, dtype=np.float64)
    return a / np.linalg.norm(a, axis=0)


def _small_bank(n_fft=10, hop=5):
    rng = np.random.default_rng(0)
    n_bins = n_fft // 2 + 1
    mk = lambda: LearnedDictionary(_unit(np.abs(rng.standard_normal((n_bins, 3))) + 0.1))
    return DictionaryBank(
        {
            ("speaker", "alice"): mk(),
            ("speaker", "bob"): mk(),
            ("noise", "hiss"): mk(),
            ("noise", "thump"): mk(),
        },
        method="random",
        params={"n_atoms": 3, "tw": 0.8, "tb": 0.8, "seed": 0},
        feature_params={"sample_rate": 8000, "n_fft": n_fft, "hop": hop},  # 6-row atoms at 10
    )


@pytest.fixture()
def bank():
    return _small_bank()


def test_labels_are_sorted(bank):
    assert bank.speaker_labels == ("alice", "bob")
    assert bank.noise_labels == ("hiss", "thump")


def test_sources_are_kept_speakers_first_and_sorted_whatever_the_order_given(bank):
    order = [("speaker", "alice"), ("speaker", "bob"), ("noise", "hiss"), ("noise", "thump")]
    assert bank.sources == tuple(order)
    shuffled = DictionaryBank(
        {key: bank.get(*key) for key in reversed(order)},
        method=bank.method,
        params=bank.params,
        feature_params=bank.feature_params,
    )
    assert shuffled.sources == tuple(order)
    assert [group[:2] for group in shuffled.concatenated()[1]] == order
    assert shuffled.content_hash() == bank.content_hash()


def test_access_counters_track_reads(bank):
    # Every label starts with an explicit zero so "never read" is provable.
    assert set(bank.access_counts) == {
        ("speaker", "alice"),
        ("speaker", "bob"),
        ("noise", "hiss"),
        ("noise", "thump"),
    }
    assert all(v == 0 for v in bank.access_counts.values())
    bank.get("speaker", "alice")
    bank.get("noise", "hiss")
    bank.get("noise", "hiss")
    assert bank.access_counts[("speaker", "alice")] == 1
    assert bank.access_counts[("noise", "hiss")] == 2


def test_missing_label_raises(bank):
    with pytest.raises(KeyError):
        bank.get("speaker", "nobody")
    with pytest.raises(KeyError):
        bank.get("noise", "silence")
    # A label is looked up under its own kind only.
    with pytest.raises(KeyError):
        bank.get("noise", "alice")


def test_concatenated_blocks_and_slices(bank):
    D, groups = bank.restricted([("speaker", "alice")]).concatenated()
    assert D.shape == (6, 9)
    assert [(k, l) for k, l, _ in groups] == [
        ("speaker", "bob"),
        ("noise", "hiss"),
        ("noise", "thump"),
    ]
    for kind, label, sl in groups:
        assert np.array_equal(D[:, sl], bank.get(kind, label).atoms)


def test_restricted_view_hides_sources_and_shares_counters(bank):
    view = bank.restricted([("speaker", "alice"), ("noise", "thump")])
    assert view.speaker_labels == ("bob",)
    assert view.noise_labels == ("hiss",)
    with pytest.raises(KeyError):
        view.get("speaker", "alice")
    view.get("speaker", "bob")
    assert bank.access_counts[("speaker", "bob")] == 1
    assert bank.access_counts[("speaker", "alice")] == 0


@pytest.mark.parametrize("entry", ["alice", ("weather", "x")], ids=["bare_label", "unknown_kind"])
def test_restricted_rejects_an_entry_that_is_not_a_source(bank, entry):
    with pytest.raises(ValueError, match="not \\(kind, label\\) sources"):
        bank.restricted([entry])


def test_restricted_drops_nothing_for_a_label_the_bank_lacks(bank):
    assert bank.restricted([("noise", "absent")]).sources == bank.sources


def test_a_bank_without_its_recipe_is_a_data_error(bank):
    sources = {key: bank.get(*key) for key in bank.sources}
    with pytest.raises(TypeError):
        DictionaryBank(sources, method="kmeans")  # the recipe and STFT settings are required
    with pytest.raises(DataError, match=r"\['n_atoms', 'tw', 'tb', 'seed'\]"):
        DictionaryBank(sources, method="kmeans", params={}, feature_params=bank.feature_params)


@pytest.mark.parametrize(
    "atoms, message",
    [
        (2 * _unit(np.ones((6, 2))), "noise 'hiss' has atoms that are not unit-norm"),
        (_unit(np.ones((5, 2))), "noise 'hiss' atoms have shape (5, 2); n_fft 10 needs 6 rows"),
    ],
    ids=["not_unit_norm", "five_rows"],
)
def test_replacing_a_source_with_atoms_a_bank_cannot_hold_is_a_data_error(bank, atoms, message):
    with pytest.raises(DataError, match=re.escape(message)):
        bank.with_replaced("noise", "hiss", LearnedDictionary(atoms))


@pytest.mark.parametrize("hop", [256, 300])
def test_a_hop_not_shorter_than_the_window_is_a_data_error(tmp_path, hop):
    message = f"hop {hop} must be shorter than n_fft 256"
    with pytest.raises(DataError, match=message):
        _small_bank(n_fft=256, hop=hop)
    path = tmp_path / "bank.npz"
    _small_bank(n_fft=256, hop=255).save(path)
    assert DictionaryBank.load(path).stft_config.hop == 255
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
    meta["feature_params"]["hop"] = hop
    np.savez(path, **{**arrays, "meta": _meta_array(meta)})
    with pytest.raises(DataError, match=message) as raised:
        DictionaryBank.load(path)
    assert str(path) in str(raised.value)


def test_replacement_creates_an_updated_copy(bank):
    rng = np.random.default_rng(9)
    repl = LearnedDictionary(_unit(np.abs(rng.standard_normal((6, 2))) + 0.1))
    updated = bank.with_replaced("noise", "hiss", repl)
    assert updated.get("noise", "hiss").atoms.shape == (6, 2)
    assert bank.get("noise", "hiss").atoms.shape == (6, 3)
    with pytest.raises(ValueError, match="weather"):
        bank.with_replaced("weather", "hiss", repl)


def test_save_load_round_trip(bank, tmp_path):
    path = tmp_path / "bank.npz"
    bank.save(path)
    loaded = DictionaryBank.load(path)
    assert loaded.method == bank.method
    assert loaded.params == bank.params
    assert loaded.feature_params == bank.feature_params
    assert loaded.sources == bank.sources
    for kind, label in bank.sources:
        a, b = bank.get(kind, label), loaded.get(kind, label)
        assert np.array_equal(a.atoms, b.atoms)
        assert np.array_equal(a.appended, b.appended)


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


def _meta_array(meta):
    return np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)


def _without(kind):
    """The bank, and the saved arrays, with every ``kind`` source dropped."""

    def bank_without(bank):
        return bank.restricted(source for source in bank.sources if source[0] == kind)

    def arrays_without(arrays):
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        meta[f"{kind}s"] = []
        kept = {k: v for k, v in arrays.items() if not k.startswith(f"{kind}/")}
        return {**kept, "meta": _meta_array(meta)}

    return bank_without, arrays_without


def _no_atoms(bank):
    return bank.with_replaced("noise", "hiss", LearnedDictionary(np.zeros((6, 0))))


def _two_flags_for_three_atoms(bank):
    atoms = bank.get("noise", "hiss").atoms
    return bank.with_replaced(
        "noise", "hiss", LearnedDictionary(atoms, np.zeros(2, dtype=bool))
    )


@pytest.mark.parametrize(
    "tamper_bank, tamper_arrays, message",
    [
        (*_without("noise"), "holds no noise"),
        (*_without("speaker"), "holds no speaker"),
        (
            _no_atoms,
            lambda arrays: {
                **arrays,
                "noise/hiss/atoms": np.zeros((6, 0)),
                "noise/hiss/appended": np.zeros(0, dtype=bool),
            },
            "noise 'hiss' has no atoms",
        ),
        (
            _two_flags_for_three_atoms,
            lambda arrays: {**arrays, "noise/hiss/appended": np.zeros(2, dtype=bool)},
            "noise 'hiss' has appended flags of shape (2,) for 3 atoms",
        ),
    ],
    ids=[
        "no_noises",
        "no_speakers",
        "zero_atom_source",
        "too_few_appended_flags",
    ],
)
def test_a_bank_short_of_sources_atoms_or_flags_is_a_data_error(
    bank, saved_bank, tmp_path, tamper_bank, tamper_arrays, message
):
    # building such a bank (a view, for no_noises and no_speakers) is refused ...
    with pytest.raises(DataError, match=re.escape(message)):
        tamper_bank(bank)
    # ... and ``load`` refuses the archive it would make.
    path = tmp_path / "short.npz"
    _, arrays = saved_bank
    np.savez(path, **tamper_arrays(arrays))
    with pytest.raises(DataError, match=re.escape(message)) as raised:
        DictionaryBank.load(path)
    assert str(path) in str(raised.value)


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
        LearnedDictionary(_unit(np.abs(rng.standard_normal((6, 3))) + 0.1)),
    )
    assert other.content_hash() != h


def test_the_content_hash_is_pinned(bank):
    # Run keys embed the bank's hash: if it moves, every resumed campaign recomputes.
    assert bank.content_hash() == (
        "5faa64bbad61f6f55c1c4885ce71fe01c0402bf05dfa9fe89c37abf2d29cd1ac"
    )


def test_a_file_with_per_source_methods_loads_with_the_hash_it_was_saved_with(
    bank, saved_bank
):
    # Files written while each source recorded its own method carry ``dict_methods``.
    directory, arrays = saved_bank
    meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
    meta["dict_methods"] = {f"{kind}/{label}": "random" for kind, label in bank.sources}
    path = directory / "per_source_methods.npz"
    np.savez(path, **{**arrays, "meta": _meta_array(meta)})
    assert DictionaryBank.load(path).content_hash() == bank.content_hash()


def test_a_failed_save_keeps_the_previous_bank_whole(bank, tmp_path, monkeypatch):
    path = tmp_path / "bank.npz"
    bank.save(path)

    def fails_part_way(fh, **arrays):
        fh.write(b"PK\x03\x04partial")  # 11 bytes of a zip archive
        raise OSError("no space left on device")

    monkeypatch.setattr(np, "savez", fails_part_way)
    with pytest.raises(OSError, match="no space left"):
        bank.save(path)
    assert DictionaryBank.load(path).content_hash() == bank.content_hash()
    assert [p.name for p in tmp_path.iterdir()] == ["bank.npz"]


#: a JSON number, string, boolean or null; NaN, infinities and integers past
#: float range (``json`` writes and reads them all) are drawn often
_SCALAR = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), 10**400, -(10**400)])
    | st.text(max_size=6)
)

#: any JSON value, half of the draws a scalar
_JSON = _SCALAR | st.recursive(
    _SCALAR,
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
    np.savez(path, **{**arrays, "meta": _meta_array(meta)})
    try:
        bank = DictionaryBank.load(path)
    except DataError as exc:
        assert str(path) in str(exc)
    else:
        assert recipe_problem(bank.params) is None
        assert bank.speaker_labels and bank.noise_labels
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
