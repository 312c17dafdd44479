import collections
import json
import sys

import numpy as np
import pytest

import sparsescene as ss
from sparsescene import features, regimes, solvers, training, vad
from sparsescene.bank import DictionaryBank
from sparsescene.dictionary import METHODS, LearnedDictionary, normalize_atoms
from sparsescene.errors import DataError
from sparsescene.evaluate import prepare_corpus, run_key
from sparsescene.manifest import Manifest
from sparsescene.scenario import MixScenario, UtterancePlacement


def _small_manifest(corpus_root, **overrides):
    kwargs = dict(
        corpus_dir=corpus_root,
        n_scenarios=1,
        half_duration_s=6.0,
        utterances_per_half=1,
        methods=("kmeans",),
        regimes=("ground_truth",),
        snrs_db=(0.0,),
    )
    kwargs.update(overrides)
    return Manifest(**kwargs)


def test_run_manifest_produces_report_and_rows(corpus_root, kmeans_bank, tmp_path):
    manifest = _small_manifest(corpus_root)
    out = tmp_path / "out"
    summary = ss.run_manifest(manifest, out, banks={"kmeans": kmeans_bank})
    assert summary["n_rows"] == 1
    assert summary["n_computed"] == 1
    assert summary["n_skipped"] == 0
    assert summary["n_failed"] == 0

    csv_text = (out / "report.csv").read_text()
    assert csv_text.count("\n") == 2  # header + one row
    agg = json.loads((out / "aggregate.json").read_text())
    assert agg["n_rows"] == 1
    scen = json.loads((out / "scenarios.json").read_text())
    assert len(scen["scenarios"]) == 1
    assert len(list((out / "rows").glob("*.json"))) == 1


def test_rows_are_stored_under_their_content_key(corpus_root, kmeans_bank, tmp_path):
    manifest = _small_manifest(corpus_root)
    out = tmp_path / "out"
    ss.run_manifest(manifest, out, banks={"kmeans": kmeans_bank})
    row_path = next((out / "rows").glob("*.json"))
    row = json.loads(row_path.read_text())
    assert row["run_key"] == row_path.stem

    corpus = ss.Corpus.from_dir(corpus_root)
    scenario = ss.generate_scenarios(
        corpus, 1, seed=0, half_duration_s=6.0, utterances_per_half=1
    )[0]
    expected = run_key(
        scenario, "ground_truth", 0.0, kmeans_bank.content_hash(), manifest.eval_params
    )
    assert row_path.stem == expected


def test_run_key_is_pinned():
    # Resuming an existing campaign depends on keys staying the same.
    scenario = MixScenario(
        scenario_id="s0007",
        speaker="spk2",
        noise_first="hum",
        noise_second="band",
        half_duration_s=6.0,
        utterances=(
            UtterancePlacement("spk2/utt09.wav", 1.25, 2.5, 0),
            UtterancePlacement("spk2/utt10.wav", 7.5, 1.75, 1),
        ),
        seed=12345,
    )
    key = run_key(scenario, "updated_noise", -5.0, "0123456789abcdef", ss.EvalParams())
    assert key == "7fa8823264bd3ed6bd3f"


def test_resume_skips_completed_rows_and_keeps_bytes(corpus_root, kmeans_bank, tmp_path):
    manifest = _small_manifest(corpus_root)
    out = tmp_path / "out"
    ss.run_manifest(manifest, out, banks={"kmeans": kmeans_bank})
    first = (out / "report.csv").read_bytes()

    again = ss.run_manifest(manifest, out, banks={"kmeans": kmeans_bank})
    assert again["n_computed"] == 0
    assert again["n_skipped"] == 1
    assert (out / "report.csv").read_bytes() == first

    fresh = ss.run_manifest(manifest, out, resume=False, banks={"kmeans": kmeans_bank})
    assert fresh["n_computed"] == 1
    assert (out / "report.csv").read_bytes() == first


def test_resume_reports_rows_of_other_runs_and_keeps_them(
    corpus_root, kmeans_bank, tmp_path, caplog
):
    manifest = _small_manifest(corpus_root, regimes=("ground_truth", "complete"))
    out = tmp_path / "out"
    first = ss.run_manifest(manifest, out, banks={"kmeans": kmeans_bank})
    assert first["n_stale"] == 0
    again = ss.run_manifest(manifest, out, banks={"kmeans": kmeans_bank})
    assert again["n_stale"] == 0

    changed = _small_manifest(
        corpus_root,
        regimes=("ground_truth", "complete"),
        eval_params=ss.EvalParams(coding_iters=50),
    )
    caplog.clear()
    with caplog.at_level("WARNING", logger="sparsescene.evaluate"):
        resumed = ss.run_manifest(changed, out, banks={"kmeans": kmeans_bank})
    assert resumed["n_computed"] == 2
    assert resumed["n_stale"] == first["n_rows"] == 2
    logged = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(logged) == 1 and logged[0].startswith("2 rows in ")
    assert len(list((out / "rows").glob("*.json"))) == 4


def test_parallel_execution_matches_serial_output(corpus_root, kmeans_bank, tmp_path):
    serial = _small_manifest(corpus_root, n_scenarios=2, parallelism=1)
    threaded = _small_manifest(corpus_root, n_scenarios=2, parallelism=2)
    out1, out2 = tmp_path / "serial", tmp_path / "threaded"
    ss.run_manifest(serial, out1, banks={"kmeans": kmeans_bank})
    ss.run_manifest(threaded, out2, banks={"kmeans": kmeans_bank})
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
    assert (out1 / "aggregate.json").read_bytes() == (out2 / "aggregate.json").read_bytes()


def test_updated_speaker_bank_is_learned_only_for_pending_runs(
    corpus_root, kmeans_bank, tmp_path, monkeypatch
):
    calls = []
    original = regimes.relearn_speakers

    def counted(bank, *args, **kwargs):
        calls.append(bank.method)
        return original(bank, *args, **kwargs)

    monkeypatch.setattr(regimes, "relearn_speakers", counted)
    manifest = _small_manifest(corpus_root, regimes=("complete", "updated_speaker"))
    out = tmp_path / "out"
    first = ss.run_manifest(manifest, out, banks={"kmeans": kmeans_bank})
    assert first["n_computed"] == 2 and first["n_failed"] == 0
    assert calls == ["kmeans"]
    again = ss.run_manifest(manifest, out, banks={"kmeans": kmeans_bank})
    assert again["n_skipped"] == 2
    assert calls == ["kmeans"]


@pytest.mark.parametrize("method", METHODS)
def test_updated_speaker_bank_equals_the_bank_learned_on_the_update_split(corpus, method):
    bank = ss.learn_bank(corpus, method, 3, seed=5)
    updated = ss.RegimeContext(bank, corpus).updated_speaker_bank()
    relearned = ss.learn_bank(corpus, method, 3, seed=5, speaker_splits=("train", "update"))
    assert updated.content_hash() == relearned.content_hash()
    assert updated.content_hash() != bank.content_hash()
    assert not any(bank.access_counts.values())


def test_updated_speaker_bank_keeps_the_banks_noises_and_learns_only_speakers(
    corpus, kmeans_bank, monkeypatch
):
    label = kmeans_bank.noise_labels[1]
    rng = np.random.default_rng(7)
    swapped = LearnedDictionary(normalize_atoms(rng.random((129, 5))), "random")
    bank = kmeans_bank.with_replaced("noise", label, swapped)
    counts_before = dict(bank.access_counts)
    learned, noise_features = [], []
    learn, features = training.learn_dictionary, training.noise_training_features
    monkeypatch.setattr(
        training, "learn_dictionary", lambda *a, **k: learned.append(a[1]) or learn(*a, **k)
    )
    monkeypatch.setattr(
        training,
        "noise_training_features",
        lambda *a, **k: noise_features.append(a[1]) or features(*a, **k),
    )

    updated = ss.RegimeContext(bank, corpus).updated_speaker_bank()

    assert learned == ["kmeans"] * len(corpus.speakers) and noise_features == []
    assert updated.speaker_labels == tuple(sorted(corpus.speakers))
    kept, own = updated.noise_dictionaries(), bank.noise_dictionaries()
    assert kept.keys() == own.keys() and all(kept[n] is own[n] for n in own)
    assert np.array_equal(kept[label].atoms, swapped.atoms)
    assert bank.access_counts == counts_before


def test_updated_speaker_with_a_bank_that_lacks_its_recipe_is_a_data_error(
    corpus_root, tmp_path
):
    atoms = normalize_atoms(np.random.default_rng(0).random((129, 2)))
    hand_built = DictionaryBank(
        {"ghost": LearnedDictionary(atoms, "kmeans")},
        {"static": LearnedDictionary(atoms, "kmeans")},
        method="kmeans",
    )
    manifest = _small_manifest(corpus_root, regimes=("updated_speaker",))
    with pytest.raises(DataError, match=r"\['n_atoms', 'tw', 'tb', 'seed'\]"):
        ss.run_manifest(manifest, tmp_path / "out", banks={"kmeans": hand_built})


def test_bank_at_another_sample_rate_is_a_data_error(kmeans_bank, tmp_path):
    root = ss.generate_corpus(tmp_path / "wide", seed=0, sample_rate=16000, noise_seconds=12)
    manifest = _small_manifest(root)
    with pytest.raises(DataError, match="8000 Hz but the corpus is at 16000 Hz"):
        ss.run_manifest(manifest, tmp_path / "out", banks={"kmeans": kmeans_bank})


def test_failed_runs_become_rows_not_exceptions(corpus_root, tmp_path):
    # A bank whose labels do not match the corpus: every run fails at the
    # noise-lookup stage but the campaign still completes and reports it.
    atoms = np.abs(np.random.default_rng(0).standard_normal((129, 2))) + 0.1
    atoms /= np.linalg.norm(atoms, axis=0)
    toy = DictionaryBank(
        {"ghost": LearnedDictionary(atoms, "kmeans")},
        {"static": LearnedDictionary(atoms, "kmeans")},
        method="kmeans",
    )
    manifest = _small_manifest(corpus_root)
    summary = ss.run_manifest(manifest, tmp_path / "out", banks={"kmeans": toy})
    assert summary["n_rows"] == 1
    assert summary["n_failed"] == 1
    row = json.loads(next((tmp_path / "out" / "rows").glob("*.json")).read_text())
    assert row["failure_stage"] == "noise_id"
    assert row["error"]


def test_programming_errors_in_a_stage_propagate(short_rendered, corpus, kmeans_bank, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("a bug, not bad data")

    monkeypatch.setattr(regimes, "separate", broken)
    ctx = ss.RegimeContext(kmeans_bank, corpus, ss.EvalParams(coding_iters=5))
    with pytest.raises(TypeError, match="a bug"):
        ss.run_regime(short_rendered, "complete", ctx)


def test_missing_corpus_is_a_data_error(tmp_path):
    manifest = _small_manifest(tmp_path / "no_such_corpus")
    with pytest.raises(DataError):
        ss.run_manifest(manifest, tmp_path / "out")


def test_prepare_corpus_synthesises_on_demand(tmp_path):
    root = tmp_path / "auto"
    manifest = _small_manifest(
        root, generate_corpus_seed=3, corpus_noise_seconds=16.0
    )
    corpus = prepare_corpus(manifest)
    assert (root / "corpus.json").exists()
    assert sorted(corpus.noises) == ["am", "band", "bursts", "hum"]
    # Second call loads the existing corpus instead of regenerating.
    again = prepare_corpus(manifest)
    assert sorted(again.noises) == sorted(corpus.noises)


def test_simulate_manifest_writes_component_wavs(corpus_root, tmp_path):
    manifest = _small_manifest(corpus_root, snrs_db=(0.0, 10.0))
    out = tmp_path / "sim"
    summary = ss.simulate_manifest(manifest, out)
    assert summary["n_scenarios"] == 1
    assert summary["n_files"] == 6
    for snr_tag in ("+0dB", "+10dB"):
        for part in ("mixture", "speech", "noise"):
            assert (out / "audio" / f"s0000_{snr_tag}_{part}.wav").exists()
    sr, mix = ss.read_wav(out / "audio" / "s0000_+0dB_mixture.wav")
    _, speech = ss.read_wav(out / "audio" / "s0000_+0dB_speech.wav")
    _, noise = ss.read_wav(out / "audio" / "s0000_+0dB_noise.wav")
    assert sr == 8000
    # Components were mixed in float32, so compare after the same rounding.
    assert np.array_equal(
        mix.astype(np.float32), speech.astype(np.float32) + noise.astype(np.float32)
    )


def test_analyze_signal_runs_the_blind_pipeline(corpus, kmeans_bank):
    scenario = ss.generate_scenarios(corpus, 1, seed=0)[0]
    rendered = ss.render_scenario(corpus, scenario, snr_db=10.0)
    analysis, sep = ss.analyze_signal(kmeans_bank, rendered.mixture)
    assert set(analysis) == {
        "speech_spans_s",
        "noise_first",
        "noise_second",
        "noise_transition_s",
        "speaker_ranking",
        "speaker",
        "estimated_snr_db",
    }
    assert analysis["noise_first"] in kmeans_bank.noise_labels
    assert analysis["noise_second"] in kmeans_bank.noise_labels
    assert sorted(analysis["speaker_ranking"]) == sorted(kmeans_bank.speaker_labels)
    assert analysis["speaker"] == analysis["speaker_ranking"][0]
    assert sep.speech.shape == rendered.mixture.shape
    assert sep.noise.shape == rendered.mixture.shape


@pytest.fixture()
def coding_calls(monkeypatch):
    """Count ``code_frames`` calls through every sparsescene module binding."""
    calls = []
    original = solvers.code_frames

    def counted(features, *args, **kwargs):
        calls.append(features.shape)
        return original(features, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("sparsescene.") and getattr(module, "code_frames", None) is original:
            monkeypatch.setattr(module, "code_frames", counted)
    return calls


@pytest.fixture()
def pipeline_calls(monkeypatch):
    """Count STFTs (``np.fft.rfft``), ``frame_energies`` and detector passes."""
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.fft, "rfft", counted("rfft", np.fft.rfft))
    for original in (features.frame_energies, vad.detect_speech_frames):
        name = original.__name__
        wrapper = counted(name, original)
        for mod_name, module in list(sys.modules.items()):
            if mod_name.startswith("sparsescene") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.fixture()
def short_rendered(corpus):
    scenario = ss.generate_scenarios(
        corpus, 1, seed=0, half_duration_s=6.0, utterances_per_half=1
    )[0]
    return ss.render_scenario(corpus, scenario, snr_db=0.0)


def test_analyze_signal_codes_the_clip_once(
    short_rendered, kmeans_bank, coding_calls, pipeline_calls
):
    ss.analyze_signal(kmeans_bank, short_rendered.mixture, ss.EvalParams(coding_iters=50))
    assert pipeline_calls == {"rfft": 1, "frame_energies": 1, "detect_speech_frames": 1}
    n_frames = ss.magnitudes(short_rendered.mixture, ss.StftConfig()).shape[1]
    assert coding_calls == [(129, n_frames)]


@pytest.mark.parametrize("regime", ss.ALL_REGIMES)
def test_every_regime_codes_the_clip_once(
    regime, short_rendered, corpus, stft_config, kmeans_bank, coding_calls, pipeline_calls
):
    ctx = ss.RegimeContext(kmeans_bank, corpus, ss.EvalParams(coding_iters=50))
    if regime == "updated_speaker":
        ctx.updated_speaker_bank()  # enrollment is learned once per evaluation, not per clip
    pipeline_calls.clear()
    result = ss.run_regime(short_rendered, regime, ctx)
    assert result.failure_stage is None, result.error
    # updated_noise transforms the mixture once more to learn its noises
    assert pipeline_calls == {
        "rfft": 2 if regime == "updated_noise" else 1,
        "frame_energies": 1,
        "detect_speech_frames": len(regimes.VAD_KS),
    }
    n_frames = ss.magnitudes(short_rendered.mixture, stft_config).shape[1]
    assert coding_calls == [(129, n_frames)]


def test_adapted_noises_split_at_the_scenario_switch(
    corpus, stft_config, kmeans_bank, monkeypatch
):
    # 4.05 s is 253.125 hops: frame 252 (centre 4.048 s) lies before the switch,
    # although a split at half the frame count would put it after.
    scenario = ss.generate_scenarios(
        corpus, 1, seed=0, half_duration_s=4.05, utterances_per_half=1
    )[0]
    rendered = ss.render_scenario(corpus, scenario, snr_db=0.0)
    mag = ss.magnitudes(rendered.mixture, stft_config)
    times = features.frame_times(mag.shape[1], stft_config)
    assert times[252] == pytest.approx(4.048) and mag.shape[1] // 2 == 252
    seen = []
    original = regimes.learn_dictionary

    def spy(feats, *args, **kwargs):
        seen.append(feats)
        return original(feats, *args, **kwargs)

    monkeypatch.setattr(regimes, "learn_dictionary", spy)
    regimes._adapted_noises(rendered, ss.RegimeContext(kmeans_bank, corpus))

    def frames_in(feats):
        return {j for j in range(mag.shape[1]) if (feats == mag[:, j : j + 1]).all(axis=0).any()}

    first, second = frames_in(seen[0]), frames_in(seen[1])
    assert 252 in first
    assert all(times[j] < 4.05 for j in first)
    assert all(times[j] > 4.05 for j in second)


def test_analyze_signal_reports_the_noise_typing_decision(short_rendered, kmeans_bank):
    mixture = short_rendered.mixture
    analysis, sep = ss.analyze_signal(kmeans_bank, mixture)
    config = ss.StftConfig()
    decision = ss.classify_noise(ss.magnitudes(mixture, config), kmeans_bank, ss.EvalParams())
    assert analysis["noise_first"] == decision.noise_first
    assert analysis["noise_second"] == decision.noise_second
    assert analysis["noise_transition_s"] == round(decision.transition_s, 4)

    interior = slice(config.n_fft, len(mixture) - config.n_fft)
    resum = sep.speech + sep.noise
    assert np.allclose(resum[interior], mixture[interior], rtol=0, atol=1e-9)


def test_stopping_sweeps_early_keeps_the_decisions(short_rendered, kmeans_bank, monkeypatch):
    analysis, _ = ss.analyze_signal(kmeans_bank, short_rendered.mixture)
    monkeypatch.setattr(
        ss.EvalParams, "solver_kwargs", lambda self: {"n_iter": self.coding_iters, "tol": 0.0}
    )
    full, _ = ss.analyze_signal(kmeans_bank, short_rendered.mixture)
    keys = ("noise_first", "noise_second", "noise_transition_s", "speaker")
    assert {k: analysis[k] for k in keys} == {k: full[k] for k in keys}


@pytest.mark.parametrize("n_samples", [0, 255])
def test_analyze_signal_rejects_signals_shorter_than_a_frame(kmeans_bank, n_samples):
    with pytest.raises(DataError, match="at least 256"):
        ss.analyze_signal(kmeans_bank, np.ones(n_samples))
    analysis, _ = ss.analyze_signal(kmeans_bank, np.ones(256), ss.EvalParams(coding_iters=5))
    assert analysis["speaker"] in kmeans_bank.speaker_labels


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_analyze_signal_rejects_non_finite_samples(short_rendered, kmeans_bank, bad):
    samples = short_rendered.mixture.astype(np.float64)
    samples[100] = bad
    with pytest.raises(DataError, match="non-finite"):
        ss.analyze_signal(kmeans_bank, samples)
    with pytest.raises(DataError, match="non-finite"):
        ss.analyze_signal(kmeans_bank, np.full(4000, np.nan))
