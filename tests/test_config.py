import pytest

from sparsescene import cli
from sparsescene.errors import DataError


def test_parse_bool_accepts_common_spellings():
    for text in ("1", "true", "YES", " on "):
        assert cli.parse_bool(text) is True
    for text in ("0", "false", "No", "off"):
        assert cli.parse_bool(text) is False
    with pytest.raises(ValueError):
        cli.parse_bool("maybe")


def test_load_config_file_parses_keys_comments_and_blanks(tmp_path):
    path = tmp_path / "tool.conf"
    path.write_text(
        """
        # campaign defaults
        method = kmeans
        N-Atoms = 24   # dictionary size
        out=results
        """
    )
    values = cli.load_config_file(path)
    assert values == {"method": "kmeans", "n_atoms": "24", "out": "results"}
    assert cli.load_config_file(None) == {}


def test_load_config_file_errors(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        cli.load_config_file(tmp_path / "missing.conf")
    bad = tmp_path / "bad.conf"
    bad.write_text("just some words\n")
    with pytest.raises(DataError, match="expected 'key = value'"):
        cli.load_config_file(bad)


def _learn_dict_options(conf, *argv):
    args = cli.build_parser().parse_args(["learn-dict", "--corpus", "c", "--out", "b.npz", *argv])
    return cli._resolve(args, conf)


def test_resolution_order_default_file_env_cli(monkeypatch):
    monkeypatch.delenv("SPARSESCENE_ATOMS", raising=False)
    conf = {"atoms": "30"}

    assert _learn_dict_options({}).atoms == 20
    assert _learn_dict_options(conf).atoms == 30
    monkeypatch.setenv("SPARSESCENE_ATOMS", "40")
    assert _learn_dict_options(conf).atoms == 40
    assert _learn_dict_options(conf, "--atoms", "50").atoms == 50


def test_bad_env_and_file_values_are_data_errors(monkeypatch):
    monkeypatch.setenv("SPARSESCENE_ATOMS", "many")
    with pytest.raises(DataError, match="SPARSESCENE_ATOMS"):
        _learn_dict_options({})
    monkeypatch.delenv("SPARSESCENE_ATOMS")
    with pytest.raises(DataError, match="'atoms'"):
        _learn_dict_options({"atoms": "many"})


def test_explicit_false_like_cli_values_still_win(monkeypatch):
    # Only None means "not set"; 0/False/"" from the CLI are explicit choices.
    monkeypatch.setenv("SPARSESCENE_RESUME", "true")
    args = cli.build_parser().parse_args(
        ["evaluate", "--manifest", "m.json", "--out", "o", "--resume", "false"]
    )
    assert cli._resolve(args, {}).resume is False


@pytest.mark.parametrize("source", ["env", "file"])
@pytest.mark.parametrize(
    "argv, key, value",
    [
        (["learn-dict", "--corpus", "c", "--out", "b.npz"], "method", "pca"),
        (["evaluate", "--manifest", "m.json", "--out", "o"], "regimes", "imaginary"),
        (["evaluate", "--manifest", "m.json", "--out", "o"], "regimes", " , "),
    ],
)
def test_bad_choices_from_env_or_file_are_usage_errors(monkeypatch, source, argv, key, value):
    if source == "env":
        monkeypatch.setenv(f"SPARSESCENE_{key.upper()}", value)
    conf = {key: value} if source == "file" else {}
    with pytest.raises(cli._UsageError):
        cli._resolve(cli.build_parser().parse_args(argv), conf)
