import json

import pytest

from sparsescene.errors import DataError
from sparsescene.manifest import MANIFEST_SCHEMA_VERSION, Manifest
from sparsescene.regimes import EvalParams


def test_defaults_are_sensible(tmp_path):
    m = Manifest(corpus_dir=tmp_path)
    assert m.methods == ("kmeans",)
    assert m.regimes == ("complete",)
    assert m.snrs_db == (0.0,)
    assert m.n_scenarios == 8
    assert m.eval_params == EvalParams()
    assert m.parallelism == 1


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(methods=("pca",)),
        dict(regimes=("mystery",)),
        dict(methods=()),
        dict(regimes=()),
        dict(snrs_db=()),
        dict(n_scenarios=0),
        dict(parallelism=0),
        dict(eval_params=dict(solver="nmf")),
        dict(eval_params=dict(coding_iters=0)),
        dict(n_atoms=0),
        dict(corpus_noise_seconds=0.0),
        dict(snrs_db=(0.0, float("inf"))),
        dict(snrs_db=(float("nan"),)),
        dict(half_duration_s=0.0),
        dict(half_duration_s=float("nan")),
        dict(half_duration_s=float("inf")),
        dict(seed=-2),
        dict(bank_seed=-2),
        dict(generate_corpus_seed=-1),
    ],
)
def test_invalid_settings_raise_data_errors(tmp_path, kwargs):
    with pytest.raises(DataError):
        Manifest(
            corpus_dir=tmp_path,
            **{k: EvalParams(**v) if k == "eval_params" else v for k, v in kwargs.items()},
        )


def test_from_dict_round_trip(tmp_path):
    d = {
        "corpus_dir": str(tmp_path / "corpus"),
        "seed": 5,
        "n_scenarios": 3,
        "methods": ["kmeans", "random"],
        "snrs_db": [0, 10],
        "regimes": ["ground_truth", "complete"],
        "eval": {"coding_iters": 123},
    }
    m = Manifest.from_dict(d)
    assert m.seed == 5
    assert m.methods == ("kmeans", "random")
    assert m.snrs_db == (0.0, 10.0)
    assert m.eval_params.coding_iters == 123
    # Untouched knobs keep their defaults.
    assert m.eval_params.solver == "mu"


def test_values_take_their_field_types(tmp_path):
    m = Manifest.from_dict(
        {
            "corpus_dir": str(tmp_path),
            "generate_corpus_seed": None,
            "half_duration_s": 6,
            "snrs_db": [-5, 10],
            "eval": {"coding_iters": "50"},
        }
    )
    assert m.generate_corpus_seed is None
    assert m.half_duration_s == 6.0 and isinstance(m.half_duration_s, float)
    assert m.snrs_db == (-5.0, 10.0) and all(isinstance(v, float) for v in m.snrs_db)
    assert m.eval_params == EvalParams(coding_iters=50)
    with pytest.raises(DataError, match="invalid manifest value"):
        Manifest.from_dict({"corpus_dir": str(tmp_path), "n_scenarios": "many"})
    with pytest.raises(DataError, match="not a whole number"):
        Manifest.from_dict({"corpus_dir": str(tmp_path), "eval": {"coding_iters": 99.9}})
    with pytest.raises(DataError, match="invalid eval value"):
        Manifest.from_dict({"corpus_dir": str(tmp_path), "eval": {"coding_iters": [1]}})


@pytest.mark.parametrize(
    "extra, key",
    [
        ({"n_scenarios": True}, "n_scenarios"),
        ({"half_duration_s": True}, "half_duration_s"),
        ({"snrs_db": [0.0, True]}, "snrs_db"),
        ({"eval": {"coding_iters": True}}, "coding_iters"),
        ({"generate_corpus_seed": False}, "generate_corpus_seed"),
    ],
)
def test_booleans_are_not_numbers(tmp_path, extra, key):
    # JSON true/false in a numeric field is a typo, not 1 or 0.
    with pytest.raises(DataError, match=f"'{key}': (True|False) is not a number"):
        Manifest.from_dict({"corpus_dir": str(tmp_path), **extra})


@pytest.mark.parametrize(
    "extra, key",
    [
        ({"snrs_db": "10"}, "snrs_db"),
        ({"regimes": "complete"}, "regimes"),
        ({"snrs_db": 10}, "snrs_db"),
    ],
)
def test_list_fields_take_only_lists(tmp_path, extra, key):
    # A string is not iterated into characters: "10" is not 1 and 0 dB.
    with pytest.raises(DataError, match=f"'{key}': expected a JSON list"):
        Manifest.from_dict({"corpus_dir": str(tmp_path), **extra})


def test_unknown_keys_are_rejected(tmp_path):
    with pytest.raises(DataError, match="unknown manifest keys"):
        Manifest.from_dict({"corpus_dir": str(tmp_path), "banana": 1})
    with pytest.raises(DataError, match="unknown manifest keys"):
        Manifest.from_dict({"corpus_dir": str(tmp_path), "eval_params": {}})


def test_unknown_eval_keys_are_rejected(tmp_path):
    # A typo must not silently fall back to the default iteration count.
    with pytest.raises(DataError, match=r"unknown eval keys \['coding_iter'\]"):
        Manifest.from_dict({"corpus_dir": str(tmp_path), "eval": {"coding_iter": 100}})


@pytest.mark.parametrize(
    "extra, key",
    [
        ({"eval": {"vad_ks": [2, 3]}}, "vad_ks"),
        ({"eval": {"vad_primary_k": 2}}, "vad_primary_k"),
        ({"eval": {"min_speech_frames": 3}}, "min_speech_frames"),
        ({"eval": {"snr_reference": "active_span"}}, "snr_reference"),
        ({"speaker_split": "test"}, "speaker_split"),
    ],
)
def test_removed_settings_are_unknown_keys(tmp_path, extra, key):
    # The VAD constants, the SNR reference and the scenario split are fixed.
    with pytest.raises(DataError, match=rf"unknown (eval|manifest) keys \['{key}'\]"):
        Manifest.from_dict({"corpus_dir": str(tmp_path), **extra})


def test_missing_corpus_dir_is_rejected():
    with pytest.raises(DataError, match="corpus_dir"):
        Manifest.from_dict({"seed": 1})


def test_schema_version_gate(tmp_path):
    with pytest.raises(DataError, match="schema_version"):
        Manifest.from_dict({"corpus_dir": str(tmp_path), "schema_version": 99})
    m = Manifest.from_dict(
        {"corpus_dir": str(tmp_path), "schema_version": MANIFEST_SCHEMA_VERSION}
    )
    assert m.corpus_dir == tmp_path


def test_relative_corpus_dir_resolves_against_manifest_location(tmp_path):
    mdir = tmp_path / "configs"
    mdir.mkdir()
    path = mdir / "m.json"
    path.write_text(json.dumps({"corpus_dir": "../data"}))
    m = Manifest.from_file(path)
    assert m.corpus_dir == mdir / ".." / "data"


def test_from_file_rejects_bad_json(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("{not json")
    with pytest.raises(DataError, match="not valid JSON"):
        Manifest.from_file(path)
    path.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(DataError, match="JSON object"):
        Manifest.from_file(path)
    with pytest.raises(DataError, match="cannot read"):
        Manifest.from_file(tmp_path / "absent.json")

