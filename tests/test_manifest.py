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
    ],
)
def test_invalid_settings_raise_data_errors(tmp_path, kwargs):
    with pytest.raises(DataError):
        Manifest(corpus_dir=tmp_path, **kwargs)


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
    assert m.eval_params.vad_primary_k == 2


def test_unknown_keys_are_rejected(tmp_path):
    with pytest.raises(DataError, match="unknown manifest keys"):
        Manifest.from_dict({"corpus_dir": str(tmp_path), "banana": 1})


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


def test_canonical_view_is_json_serialisable_and_stable(tmp_path):
    m1 = Manifest(corpus_dir=tmp_path / "a")
    m2 = Manifest(corpus_dir=tmp_path / "b")  # location must not affect results
    c1 = json.dumps(m1.canonical(), sort_keys=True)
    c2 = json.dumps(m2.canonical(), sort_keys=True)
    assert c1 == c2
    assert json.loads(c1)["eval"]["solver"] == "mu"
