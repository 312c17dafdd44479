import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sparsescene as ss
from sparsescene import cli
from sparsescene.cli import main


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


@pytest.fixture(scope="module")
def cli_bank(corpus_root, tmp_path_factory):
    """A small bank learned through the CLI itself, reused by later tests."""
    path = tmp_path_factory.mktemp("cli") / "bank.npz"
    code = main(
        [
            "learn-dict",
            "--corpus",
            str(corpus_root),
            "--method",
            "random",
            "--atoms",
            "4",
            "--out",
            str(path),
        ]
    )
    assert code == 0
    return path


@pytest.fixture(scope="module")
def short_wav(corpus, tmp_path_factory):
    s = ss.generate_scenarios(corpus, 1, seed=0, half_duration_s=4.0, utterances_per_half=1)[0]
    rendered = ss.render_scenario(corpus, s, snr_db=10.0)
    path = tmp_path_factory.mktemp("wav") / "mix.wav"
    ss.write_wav(path, rendered.mixture, corpus.sample_rate)
    return path


def test_no_command_prints_help_and_fails(capsys):
    assert main([]) == 1
    assert "COMMAND" in capsys.readouterr().err


def test_help_exits_zero():
    assert main(["--help"]) == 0


def test_unknown_command_is_a_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def test_missing_required_flag_is_a_usage_error(capsys):
    assert main(["make-corpus"]) == 1
    assert "--out" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag",
    [(command, flag) for command, (_, _, flags) in cli._COMMANDS.items() for flag in flags],
    ids=lambda v: v if isinstance(v, str) else v.name,
)
def test_every_flag_shows_its_default_and_reads_its_environment_variable(
    capsys, command, flag
):
    # Each flag is read from the command line; no environment variable fills it.
    option = "--" + flag.name.replace("_", "-")
    assert main([command, "--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())
    entry = help_text.rsplit(option + " ", 1)[1].split(" --")[0]
    assert entry.startswith(f"{flag.name.upper()} {flag.help}")
    if flag.default not in (None, cli.REQUIRED):
        assert entry.endswith(f"default {flag.default})")

    samples = {str: "given", int: "7", float: "0.5", cli.parse_bool: "false"}
    text = flag.choices[0] if flag.choices else samples[flag.parse]
    argv = [command, option, text]
    for other in cli._COMMANDS[command][2]:
        if other.default is cli.REQUIRED and other is not flag:
            argv += ["--" + other.name.replace("_", "-"), "given"]
    options = cli.build_parser().parse_args(argv)
    assert getattr(options, flag.name) == flag.parse(text)


def test_parse_bool_accepts_common_spellings():
    for text in ("1", "true", "YES", " on "):
        assert cli.parse_bool(text) is True
    for text in ("0", "false", "No", "off"):
        assert cli.parse_bool(text) is False
    with pytest.raises(ValueError):
        cli.parse_bool("maybe")


@pytest.mark.parametrize(
    "argv",
    [
        ["learn-dict", "--atoms", "0"],
        ["make-corpus", "--noise-seconds", "-1"],
        ["make-corpus", "--noise-seconds", "inf"],
        ["make-corpus", "--noise-seconds", "1e-9"],
    ],
)
def test_non_positive_sizes_are_data_errors(corpus_root, tmp_path, capsys, argv):
    out = tmp_path / "out"
    corpus = ["--corpus", str(corpus_root)] if argv[0] == "learn-dict" else []
    assert main([*argv, *corpus, "--out", str(out)]) == 2
    assert not out.exists()


def test_learn_dict_on_a_corpus_without_noise_training_frames_is_a_data_error(tmp_path, caplog):
    corpus = tmp_path / "corpus"
    assert main(["make-corpus", "--out", str(corpus), "--noise-seconds", "0.01"]) == 0
    out = tmp_path / "bank.npz"
    assert main(["learn-dict", "--corpus", str(corpus), "--out", str(out)]) == 2
    assert "noise 'am': no non-silent frames" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_learn_dict_on_a_corpus_with_non_finite_samples_names_the_file(
    corpus_root, tmp_path, caplog, bad
):
    corpus = tmp_path / "corpus"
    shutil.copytree(corpus_root, corpus)
    wav = corpus / "noise" / "am.wav"
    sr, samples = ss.read_wav(wav)
    samples[1000] = bad
    ss.write_wav(wav, samples, sr)
    out = tmp_path / "bank.npz"
    assert main(["learn-dict", "--corpus", str(corpus), "--out", str(out)]) == 2
    assert f"{wav}: non-finite samples" in caplog.text
    assert not out.exists()


def test_make_corpus_writes_a_corpus(tmp_path, capsys):
    out = tmp_path / "corpus"
    code, summary = _run(
        capsys,
        ["make-corpus", "--out", str(out), "--seed", "1", "--noise-seconds", "12"],
    )
    assert code == 0
    assert summary["noises"] == ["am", "band", "bursts", "hum"]
    assert (out / "corpus.json").exists()


def test_learn_dict_summary_describes_the_bank(corpus_root, tmp_path, capsys):
    out = tmp_path / "bank.npz"
    code, summary = _run(
        capsys,
        [
            "learn-dict",
            "--corpus",
            str(corpus_root),
            "--method",
            "random",
            "--atoms",
            "4",
            "--out",
            str(out),
        ],
    )
    assert code == 0
    assert summary["method"] == "random"
    assert summary["noises"] == ["am", "band", "bursts", "hum"]
    assert summary["speakers"] == ["spk1", "spk2", "spk3", "spk4"]
    assert summary["atoms_per_source"]["noise/am"] == 4
    assert out.exists()
    reloaded = ss.DictionaryBank.load(out)
    assert reloaded.content_hash() == summary["content_hash"]


def test_learn_dict_rejects_unknown_method(corpus_root, tmp_path, capsys):
    code = main(
        [
            "learn-dict",
            "--corpus",
            str(corpus_root),
            "--method",
            "pca",
            "--out",
            str(tmp_path / "b.npz"),
        ]
    )
    assert code == 1


def test_classify_reports_the_scene(cli_bank, short_wav, capsys):
    code, summary = _run(
        capsys, ["classify", "--bank", str(cli_bank), "--wav", str(short_wav)]
    )
    assert code == 0
    assert {"noise_first", "noise_second", "speaker", "speaker_ranking"} <= set(summary)
    assert summary["speaker"] in ("spk1", "spk2", "spk3", "spk4")


def test_classify_with_garbage_bank_is_a_data_error(short_wav, tmp_path, capsys):
    bad = tmp_path / "bad.npz"
    bad.write_bytes(b"not a bank")
    assert main(["classify", "--bank", str(bad), "--wav", str(short_wav)]) == 2


def test_classify_with_missing_wav_is_a_data_error(cli_bank, tmp_path, capsys):
    missing = tmp_path / "absent.wav"
    assert main(["classify", "--bank", str(cli_bank), "--wav", str(missing)]) == 2


def test_classify_with_nan_samples_is_a_data_error(cli_bank, tmp_path, capsys):
    wav = tmp_path / "nan.wav"
    ss.write_wav(wav, np.full(4000, np.nan), 8000)
    assert main(["classify", "--bank", str(cli_bank), "--wav", str(wav)]) == 2
    assert capsys.readouterr().out == ""


def test_classify_with_a_truncated_wav_is_a_data_error(cli_bank, short_wav, tmp_path, caplog):
    wav = tmp_path / "cut.wav"
    wav.write_bytes(short_wav.read_bytes()[:7])
    assert main(["classify", "--bank", str(cli_bank), "--wav", str(wav)]) == 2
    assert f"cannot read {wav}" in caplog.text


def test_learn_dict_on_a_corpus_with_a_truncated_noise_names_the_file(
    corpus_root, tmp_path, caplog
):
    corpus = tmp_path / "corpus"
    shutil.copytree(corpus_root, corpus)
    wav = corpus / "noise" / "hum.wav"
    wav.write_bytes(wav.read_bytes()[:7])
    out = tmp_path / "bank.npz"
    argv = ["learn-dict", "--corpus", str(corpus), "--method", "random", "--atoms", "2"]
    assert main([*argv, "--out", str(out)]) == 2
    assert f"cannot read {wav}" in caplog.text
    assert not out.exists()


def _negate_first_atom(meta, arrays):
    arrays["speaker/spk1/atoms"][:, 0] *= -1.0


def _nan_atom(meta, arrays):
    arrays["noise/am/atoms"][3, 1] = np.nan


def _set_params(**values):
    return lambda meta, arrays: meta["params"].update(values)


def _one_dimensional_atoms(meta, arrays):
    arrays["noise/hum/atoms"] = arrays["noise/hum/atoms"][:, 0]


def _zero_atom_noise(meta, arrays):
    arrays["noise/am/atoms"] = arrays["noise/am/atoms"][:, :0]
    arrays["noise/am/appended"] = arrays["noise/am/appended"][:0]


def _one_appended_flag_short(meta, arrays):
    arrays["noise/am/appended"] = arrays["noise/am/appended"][1:]


@pytest.mark.parametrize(
    "tamper, message",
    [
        (lambda meta, arrays: meta["feature_params"].update(n_fft=512), "n_fft 512 needs 257"),
        (_negate_first_atom, "speaker 'spk1' has negative atoms"),
        (_nan_atom, "noise 'am' has non-finite atoms"),
        (lambda meta, arrays: meta.pop("params"), "no 'params'"),
        (lambda meta, arrays: meta.pop("feature_params"), "no 'feature_params'"),
        (_one_dimensional_atoms, "noise 'hum' atoms have shape (129,)"),
        (lambda meta, arrays: meta["params"].update(n_atoms="4"), "are not numbers"),
        (lambda meta, arrays: meta.update(speakers=None), "speakers None is not a list"),
        (lambda meta, arrays: meta.update(params=[4]), "params [4] is not an object"),
        (lambda meta, arrays: meta.update(feature_params=8000), "feature_params 8000 is not"),
        (lambda meta, arrays: meta.update(method="pca"), "method 'pca' is not one of"),
        (lambda meta, arrays: meta["params"].update(tw=float("nan")), "'tw': nan"),
        (lambda meta, arrays: meta.update(version=None), "version None is not 1"),
        (lambda meta, arrays: meta.update(version="1"), "version '1' is not 1"),
        (lambda meta, arrays: meta.update(version=2), "version 2 is not 1"),
        (lambda meta, arrays: meta.update(version=True), "version True is not 1"),
        (lambda meta, arrays: meta.update(version=1.0), "version 1.0 is not 1"),
        (lambda meta, arrays: meta.pop("version"), "no 'version'"),
        (_set_params(n_atoms=0), "n_atoms must be a positive integer, not 0"),
        (_set_params(n_atoms=2.5), "n_atoms must be a positive integer, not 2.5"),
        (_set_params(n_atoms=4.0), "n_atoms must be a positive integer, not 4.0"),
        (_set_params(seed=-3), "seed must be a non-negative integer, not -3"),
        (_set_params(seed=1.5), "seed must be a non-negative integer, not 1.5"),
        (lambda meta, arrays: meta.update(noises=[]), "it holds no noise dictionary"),
        (lambda meta, arrays: meta.update(speakers=[]), "it holds no speaker dictionary"),
        (_zero_atom_noise, "noise 'am' has no atoms"),
        (_one_appended_flag_short, "noise 'am' has appended flags of shape (3,) for 4 atoms"),
    ],
    ids=[
        "n_fft_mismatch",
        "negative_atom",
        "nan_atom",
        "no_params",
        "no_feature_params",
        "one_dimensional_atoms",
        "text_params",
        "null_speakers",
        "list_params",
        "number_feature_params",
        "unknown_method",
        "nan_tw",
        "null_version",
        "text_version",
        "version_2",
        "true_version",
        "float_version",
        "no_version",
        "zero_atoms",
        "fractional_atoms",
        "float_atoms",
        "negative_seed",
        "fractional_seed",
        "no_noises",
        "no_speakers",
        "zero_atom_noise",
        "short_appended_flags",
    ],
)
def test_classify_with_malformed_bank_is_a_data_error(
    cli_bank, short_wav, tmp_path, caplog, tamper, message
):
    with np.load(cli_bank) as data:
        arrays = {key: data[key].copy() for key in data.files}
    meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
    tamper(meta, arrays)
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    bad = tmp_path / "bad.npz"
    np.savez(bad, **arrays)
    assert main(["classify", "--bank", str(bad), "--wav", str(short_wav)]) == 2
    assert message in caplog.text and str(bad) in caplog.text


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(ss.__file__).parents[1]))
    run = lambda *args: subprocess.run(
        [sys.executable, "-m", *args], env=env, capture_output=True, text=True
    )
    helped = run("sparsescene", "--help")
    assert helped.returncode == 0 and "learn-dict" in helped.stdout
    assert run("sparsescene.cli", "learn-dict").returncode == 1


def test_importing_the_package_loads_neither_scipy_signal_nor_scipy_cluster():
    # Only corpus synthesis, the k-means learner and WAV reading and writing
    # need them, so `--help` and a bank load do not pay for loading them.
    env = dict(os.environ, PYTHONPATH=str(Path(ss.__file__).parents[1]))
    probe = (
        "import sys, sparsescene; "
        "print(sorted(set(sys.modules) & {'scipy.signal', 'scipy.cluster', 'scipy.io'}))"
    )
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_separate_writes_component_wavs(cli_bank, short_wav, tmp_path, capsys):
    prefix = tmp_path / "sep" / "mix"
    code, summary = _run(
        capsys,
        [
            "separate",
            "--bank",
            str(cli_bank),
            "--wav",
            str(short_wav),
            "--out-prefix",
            str(prefix),
        ],
    )
    assert code == 0
    sr, speech = ss.read_wav(prefix.parent / "mix_speech.wav")
    _, noise = ss.read_wav(prefix.parent / "mix_noise.wav")
    assert sr == 8000
    assert speech.shape == noise.shape
    assert np.isfinite(speech).all()


def test_simulate_and_evaluate_via_manifest(corpus_root, cli_bank, tmp_path, capsys):
    manifest = {
        "corpus_dir": str(corpus_root),
        "n_scenarios": 1,
        "half_duration_s": 6.0,
        "utterances_per_half": 1,
        "regimes": ["ground_truth"],
        "snrs_db": [0.0],
    }
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(manifest))

    code, summary = _run(
        capsys, ["simulate", "--manifest", str(mpath), "--out", str(tmp_path / "sim")]
    )
    assert code == 0
    assert summary["n_files"] == 3

    code, summary = _run(
        capsys,
        [
            "evaluate",
            "--manifest",
            str(mpath),
            "--bank",
            str(cli_bank),
            "--out",
            str(tmp_path / "eval"),
        ],
    )
    assert code == 0
    assert summary["n_rows"] == 1
    assert (tmp_path / "eval" / "report.csv").exists()

    # Resuming through the CLI skips the completed row.
    code, summary = _run(
        capsys,
        [
            "evaluate",
            "--manifest",
            str(mpath),
            "--bank",
            str(cli_bank),
            "--out",
            str(tmp_path / "eval"),
        ],
    )
    assert code == 0
    assert summary["n_skipped"] == 1


def test_a_run_ignores_its_environment(corpus_root, cli_bank, tmp_path, monkeypatch, capsys):
    # A run is its command line and its manifest: no variable fills or overrides a flag.
    monkeypatch.setenv("SPARSESCENE_OUT", str(tmp_path / "env_out"))
    monkeypatch.setenv("SPARSESCENE_BANK", str(cli_bank))
    monkeypatch.setenv("SPARSESCENE_REGIMES", "complete")
    monkeypatch.setenv("SPARSESCENE_RESUME", "false")

    assert main(["make-corpus"]) == 1
    assert "--out" in capsys.readouterr().err
    assert not (tmp_path / "env_out").exists()

    manifest = {
        "corpus_dir": str(corpus_root),
        "n_scenarios": 1,
        "half_duration_s": 4.0,
        "utterances_per_half": 1,
        "n_atoms": 4,
        "regimes": ["ground_truth"],
    }
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(manifest))
    argv = ["evaluate", "--manifest", str(mpath), "--out", str(tmp_path / "eval")]
    code, summary = _run(capsys, argv)
    assert code == 0 and summary["n_computed"] == 1
    learned = ss.DictionaryBank.load(tmp_path / "eval" / "banks" / "kmeans.npz")
    assert learned.params["n_atoms"] == 4
    with open(tmp_path / "eval" / "report.csv", newline="") as f:
        assert [row["regime"] for row in csv.DictReader(f)] == ["ground_truth"]

    code, summary = _run(capsys, argv)
    assert code == 0 and summary["n_skipped"] == 1 and summary["n_computed"] == 0


def test_evaluate_rejects_unknown_regimes(corpus_root, tmp_path, caplog):
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps({"corpus_dir": str(corpus_root), "regimes": ["imaginary"]}))
    code = main(["evaluate", "--manifest", str(mpath), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "unknown regimes ['imaginary']" in caplog.text


def test_evaluate_with_missing_manifest_is_a_data_error(tmp_path, capsys):
    code = main(
        ["evaluate", "--manifest", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]
    )
    assert code == 2


@pytest.mark.parametrize(
    "eval_params",
    [
        {"snr_reference": "whole"},
        {"solver": "nmf"},
        {"coding_iter": 100},
        {"vad_primary_k": 1},
        {"vad_ks": [1]},
    ],
)
def test_evaluate_with_bad_eval_params_is_a_data_error(
    corpus_root, tmp_path, capsys, eval_params
):
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps({"corpus_dir": str(corpus_root), "eval": eval_params}))
    code = main(["evaluate", "--manifest", str(mpath), "--out", str(tmp_path / "out")])
    assert code == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "setting",
    [
        {"snrs_db": [float("inf")]},
        {"snrs_db": [float("nan")]},
        {"half_duration_s": float("nan")},
    ],
)
def test_evaluate_with_non_finite_manifest_value_is_a_data_error(
    corpus_root, tmp_path, caplog, setting
):
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps({"corpus_dir": str(corpus_root), **setting}))
    code = main(["evaluate", "--manifest", str(mpath), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "must be finite" in caplog.text
    assert not (tmp_path / "out").exists()


def test_evaluate_with_a_string_for_a_list_is_a_data_error(corpus_root, tmp_path, caplog):
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps({"corpus_dir": str(corpus_root), "snrs_db": "10"}))
    code = main(["evaluate", "--manifest", str(mpath), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "'snrs_db': expected a JSON list" in caplog.text
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value", [("--tw", "nan"), ("--tb", "inf")], ids=["tw", "tb"])
def test_learn_dict_with_a_non_finite_threshold_is_a_data_error(
    corpus_root, tmp_path, caplog, flag, value
):
    out = tmp_path / "bank.npz"
    argv = ["learn-dict", "--corpus", str(corpus_root), "--method", "kmeans", flag, value]
    assert main([*argv, "--out", str(out)]) == 2
    assert f"{flag[2:]} must be finite, not {value}" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["make-corpus", "--seed", "-1"], ["learn-dict", "--seed", "-3"]],
    ids=["make-corpus", "learn-dict"],
)
def test_negative_seeds_are_data_errors(corpus_root, tmp_path, caplog, argv):
    out = tmp_path / "out"
    corpus = ["--corpus", str(corpus_root)] if argv[0] == "learn-dict" else []
    assert main([*argv, *corpus, "--out", str(out)]) == 2
    assert f"seed must be a non-negative integer, not {argv[-1]}" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize(
    "setting, message",
    [
        ({"seed": -2}, "seed must be a non-negative integer, not -2"),
        ({"bank_seed": -2}, "bank_seed must be a non-negative integer, not -2"),
        ({"snrs_db": [4000]}, "snr_db 4000.0 cannot be rendered"),
    ],
    ids=["seed", "bank_seed", "snr"],
)
def test_evaluate_with_an_unusable_manifest_value_is_a_data_error(
    corpus_root, cli_bank, tmp_path, caplog, setting, message
):
    manifest = {"corpus_dir": str(corpus_root), "n_scenarios": 1, "half_duration_s": 4.0}
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps({**manifest, **setting}))
    argv = ["evaluate", "--manifest", str(mpath), "--bank", str(cli_bank)]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert message in caplog.text


def test_evaluate_with_a_bank_whose_atom_count_is_a_float_is_a_data_error(
    corpus_root, cli_bank, tmp_path, caplog
):
    with np.load(cli_bank) as data:
        arrays = {key: data[key].copy() for key in data.files}
    meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
    meta["params"]["n_atoms"] = 4.0
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    bank = tmp_path / "bank.npz"
    np.savez(bank, **arrays)
    mpath = tmp_path / "m.json"
    manifest = {"corpus_dir": str(corpus_root), "n_scenarios": 1, "regimes": ["updated_speaker"]}
    mpath.write_text(json.dumps(manifest))
    argv = ["evaluate", "--manifest", str(mpath), "--bank", str(bank)]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert "n_atoms must be a positive integer, not 4.0" in caplog.text
