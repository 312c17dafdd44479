import collections
import dataclasses
import itertools
import json
import sys

import numpy as np
import pytest

import sparsescene as ss
from sparsescene import classify, evaluate, features, regimes, solvers, training, vad
from sparsescene.bank import DictionaryBank
from sparsescene.dictionary import METHODS, LearnedDictionary, normalize_atoms
from sparsescene.errors import DataError
from sparsescene.evaluate import prepare_corpus, run_key
from sparsescene.manifest import Manifest
from sparsescene.report import result_to_json
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


def _before_the_shortlist(params):
    """``EvalParams.to_dict`` as it was before ``screen_iters`` and ``shortlist``."""
    return {"solver": params.solver, "coding_iters": params.coding_iters}


def _both_noises_on_every_frame(params):
    """``EvalParams.to_dict`` as it was before the shortlist coded each side's noise only."""
    return {**_before_the_shortlist(params), "screen_iters": 50, "shortlist": 2}


def _before_the_settle_rule(params):
    """``EvalParams.to_dict`` as it was before it recorded the shortlist's settle rule."""
    return {**_both_noises_on_every_frame(params), "shortlist_noise": "per_side"}


def test_run_key_is_pinned(monkeypatch):
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
    assert key == "d77b03c1e47458d0f1e7"
    # the key this run had while the shortlist settled every 25 sweeps at tol 1e-3
    monkeypatch.setattr(ss.EvalParams, "to_dict", _before_the_settle_rule)
    key = run_key(scenario, "updated_noise", -5.0, "0123456789abcdef", ss.EvalParams())
    assert key == "75774c5fef78a9d3b03c"
    # the key this run had while the shortlist coded both noises on every frame
    monkeypatch.setattr(ss.EvalParams, "to_dict", _both_noises_on_every_frame)
    key = run_key(scenario, "updated_noise", -5.0, "0123456789abcdef", ss.EvalParams())
    assert key == "6e7274d48a4e72a62e51"
    # the key this run had before the screen and shortlist settings
    monkeypatch.setattr(ss.EvalParams, "to_dict", _before_the_shortlist)
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


def test_rows_written_before_the_shortlist_settings_are_recomputed(
    corpus_root, kmeans_bank, tmp_path, monkeypatch
):
    manifest = _small_manifest(corpus_root, regimes=("ground_truth", "complete"))
    out = tmp_path / "out"
    with monkeypatch.context() as patched:
        patched.setattr(ss.EvalParams, "to_dict", _before_the_shortlist)
        old = ss.run_manifest(manifest, out, banks={"kmeans": kmeans_bank})
    resumed = ss.run_manifest(manifest, out, banks={"kmeans": kmeans_bank})
    assert resumed["n_computed"] == resumed["n_rows"] == 2
    assert resumed["n_skipped"] == 0
    assert resumed["n_stale"] == old["n_rows"] == 2


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
    relearned = training._learn_sources(
        corpus, method, bank.params, bank.stft_config, ("train", "update"), None
    )
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


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"n_atoms": 4.0}, "n_atoms must be a positive integer, not 4.0"),
        ({"n_atoms": 3, "seed": 1.5}, "seed must be a non-negative integer, not 1.5"),
        ({"n_atoms": 3, "tw": True}, "are not numbers"),
    ],
    ids=["float_n_atoms", "float_seed", "bool_tw"],
)
def test_learn_bank_with_a_malformed_recipe_is_a_data_error(corpus, kwargs, message):
    with pytest.raises(DataError, match=message):
        ss.learn_bank(corpus, "kmeans", **kwargs)


def test_learn_bank_takes_a_numpy_threshold_and_its_bank_round_trips(corpus, tmp_path):
    bank = ss.learn_bank(corpus, "tdcs", 3, tw=np.float64(0.8))
    bank.save(tmp_path / "bank.npz")
    loaded = DictionaryBank.load(tmp_path / "bank.npz")
    assert loaded.params == {"n_atoms": 3, "tw": 0.8, "tb": 0.8, "seed": 0}
    assert loaded.content_hash() == bank.content_hash()


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
    """Record every ``code_frames`` call through every sparsescene module binding."""
    calls = []
    original = solvers.code_frames

    def counted(features, dictionary, **kwargs):
        calls.append((features.shape, dictionary, kwargs))
        return original(features, dictionary, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("sparsescene.") and getattr(module, "code_frames", None) is original:
            monkeypatch.setattr(module, "code_frames", counted)
    return calls


def _check_screen_then_sides(calls, view, params, front):
    """One screen of every frame over ``view``, then one coding per non-empty side of its switch.

    Each side is coded against the screen's atoms of [the shortlisted
    speakers | that side's detected noise], starting (``mu``) from the
    screen's weights on those atoms and frames.  Returns the shortlisted
    ``(kind, label)`` speakers and the noise decision.
    """
    calls = list(calls)
    mag = front.magnitude()
    decision, screen = classify.classify_noise(mag, view)
    n_frames = mag.shape[1]
    (screen_shape, screen_D, screen_kw), *coded = calls
    assert screen_shape == (129, n_frames)
    view_D, groups = view.concatenated()
    assert np.array_equal(screen_D, view_D)
    assert screen_kw == {"solver": "mu", "n_iter": classify.SCREEN_ITERS, "tol": 0.0}

    ranked = classify.rank_speakers(mag, screen, front.speech_mask())
    shortlist = [("speaker", label) for label in sorted(ranked[: regimes.SHORTLIST])]
    sides = [
        (frames, noise)
        for frames, noise in (
            (slice(0, decision.split), decision.noise_first),
            (slice(decision.split, n_frames), decision.noise_second),
        )
        if frames.stop > frames.start
    ]
    assert len(coded) == len(sides)
    for (shape, D, kw), (frames, noise) in zip(coded, sides):
        assert shape == (129, frames.stop - frames.start)
        side = screen.only({*shortlist, ("noise", noise)})
        assert [g[:2] for g in side.groups] == [*shortlist, ("noise", noise)]
        assert np.array_equal(D, side.dictionary)
        init = kw.pop("init", None)
        blocks = [cols.start for _, _, cols in side.groups]
        assert kw == {"solver": params.solver, "blocks": blocks, **params.solver_kwargs()}
        assert (init is None) == (params.solver == "asna")
        if init is not None:
            assert np.array_equal(init, side.weights[:, frames])
    return shortlist, decision


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
    params = ss.EvalParams(coding_iters=50)
    analysis, _ = ss.analyze_signal(kmeans_bank, short_rendered.mixture, params)
    assert pipeline_calls == {"rfft": 1, "frame_energies": 1, "detect_speech_frames": 1}
    # the clip switches noise inside it, so each side is coded once
    assert len(coding_calls) == 3
    front = regimes.FrontEnd(short_rendered.mixture, kmeans_bank.stft_config)
    speakers, decision = _check_screen_then_sides(coding_calls, kmeans_bank, params, front)
    assert 0 < decision.split < front.magnitude().shape[1]
    assert (analysis["noise_first"], analysis["noise_second"]) == (
        decision.noise_first,
        decision.noise_second,
    )
    assert [label for _, label in speakers] == sorted(
        analysis["speaker_ranking"][: regimes.SHORTLIST]
    )


def test_the_asna_shortlist_follows_the_mu_screen(short_rendered, kmeans_bank, coding_calls):
    params = ss.EvalParams(solver="asna")
    clip = short_rendered.mixture[: 40 * 128]
    analysis, _ = ss.analyze_signal(kmeans_bank, clip, params)
    front = regimes.FrontEnd(clip, kmeans_bank.stft_config)
    _, decision = _check_screen_then_sides(coding_calls, kmeans_bank, params, front)
    assert analysis["noise_first"] == decision.noise_first
    assert analysis["noise_second"] == decision.noise_second


@pytest.mark.parametrize("regime", ss.ALL_REGIMES)
def test_every_regime_codes_the_clip_once(
    regime, short_rendered, corpus, stft_config, kmeans_bank, coding_calls, pipeline_calls
):
    ctx = ss.RegimeContext(kmeans_bank, corpus, ss.EvalParams(coding_iters=50))
    if regime == "updated_speaker":
        ctx.updated_speaker_bank()  # enrollment is learned once per evaluation, not per clip
    pipeline_calls.clear()
    coding_calls.clear()
    result = ss.run_regime(short_rendered, regime, ctx)
    assert result.failure_stage is None, result.error
    # updated_noise learns its noises from the same spectrogram the pipeline codes
    assert pipeline_calls == {
        "rfft": 1,
        "frame_energies": 1,
        "detect_speech_frames": len(regimes.VAD_KS),
    }
    front = regimes.FrontEnd(short_rendered.mixture, stft_config)
    view = ctx.bank_for(regime, short_rendered, front)
    _, decision = _check_screen_then_sides(coding_calls, view, ctx.params, front)
    if regime not in ("ground_truth", "updated_noise"):
        assert (result.noise_first_pred, result.noise_second_pred) == (
            decision.noise_first,
            decision.noise_second,
        )


@pytest.fixture(scope="module")
def updated_kmeans_bank(corpus, kmeans_bank):
    return ss.RegimeContext(kmeans_bank, corpus).updated_speaker_bank()


@pytest.fixture()
def relearned(updated_kmeans_bank, monkeypatch):
    """Serve ``updated_speaker`` a bank relearned beforehand, so a test sees only its runs."""
    monkeypatch.setattr(ss.RegimeContext, "updated_speaker_bank", lambda self: updated_kmeans_bank)


def _assert_rows_stand_alone(out, corpus, bank, params):
    """Each row file of the campaign in ``out`` holds what ``run_regime`` alone gives."""
    scenarios = json.loads((out / "scenarios.json").read_text())["scenarios"]
    by_id = {d["scenario_id"]: MixScenario.from_dict(d) for d in scenarios}
    ctx = ss.RegimeContext(bank, corpus, params)
    for path in (out / "rows").glob("*.json"):
        row = json.loads(path.read_text())
        rendered = ss.render_scenario(corpus, by_id[row["scenario_id"]], row["snr_nominal_db"])
        alone = result_to_json(ss.run_regime(rendered, row["regime"], ctx), path.stem)
        assert path.read_text() == json.dumps(alone, indent=2, sort_keys=True) + "\n"


def test_a_campaign_renders_frames_and_transforms_each_mixture_once(
    corpus_root, corpus, kmeans_bank, relearned, pipeline_calls, tmp_path, monkeypatch
):
    renders = []
    original = evaluate.render_scenario
    monkeypatch.setattr(
        evaluate, "render_scenario", lambda *args: renders.append(args) or original(*args)
    )
    params = ss.EvalParams(coding_iters=50)
    manifest = _small_manifest(
        corpus_root, regimes=ss.ALL_REGIMES, snrs_db=(-5.0, 5.0), eval_params=params
    )
    summary = ss.run_manifest(manifest, tmp_path / "out", banks={"kmeans": kmeans_bank})
    assert summary["n_computed"] == 12 and summary["n_failed"] == 0
    # one render, framing, STFT and set of detector passes per (method, scenario, SNR)
    assert [args[2] for args in renders] == [-5.0, 5.0]
    assert pipeline_calls == {
        "rfft": 2,
        "frame_energies": 2,
        "detect_speech_frames": 2 * len(regimes.VAD_KS),
    }
    _assert_rows_stand_alone(tmp_path / "out", corpus, kmeans_bank, params)


@pytest.mark.parametrize(
    "broken, stage",
    [("frame_energies", "features"), ("detect_speech_frames", "vad"), ("rfft", "features")],
)
def test_a_front_end_failure_fails_each_regime_as_it_would_alone(
    broken, stage, corpus_root, corpus, kmeans_bank, relearned, tmp_path, monkeypatch
):
    def fail(*args, **kwargs):
        raise ValueError(f"no {broken} today")

    monkeypatch.setattr(np.fft if broken == "rfft" else regimes, broken, fail)
    params = ss.EvalParams(coding_iters=50)
    manifest = _small_manifest(corpus_root, regimes=ss.ALL_REGIMES, eval_params=params)
    summary = ss.run_manifest(manifest, tmp_path / "out", banks={"kmeans": kmeans_bank})
    assert summary["n_failed"] == summary["n_rows"] == 6
    for path in (tmp_path / "out" / "rows").glob("*.json"):
        row = json.loads(path.read_text())
        # updated_noise takes the STFT to learn its noises, while it builds its bank view
        first = "noise_id" if broken == "rfft" and row["regime"] == "updated_noise" else stage
        assert (row["failure_stage"], row["error"]) == (first, f"ValueError: no {broken} today")
    _assert_rows_stand_alone(tmp_path / "out", corpus, kmeans_bank, params)


def _analyze(samples, bank, params):
    """``regimes.analyze`` on ``samples`` with the detector's speech frames."""
    return regimes.analyze(regimes.FrontEnd(samples, bank.stft_config), bank, params)


def test_the_shortlist_coding_continues_the_screen(
    short_rendered, corpus, kmeans_bank, monkeypatch
):
    # The ground_truth view holds 1 speaker and 2 noises, so the shortlist
    # keeps all of it; each side's coding picks up where the screen stopped
    # on its frames, without the other side's noise.
    monkeypatch.setattr(
        ss.EvalParams, "solver_kwargs", lambda self: {"n_iter": self.coding_iters, "tol": 0.0}
    )
    params = ss.EvalParams(coding_iters=30)
    ctx = ss.RegimeContext(kmeans_bank, corpus, params)
    front = regimes.FrontEnd(short_rendered.mixture, kmeans_bank.stft_config)
    view = ctx.bank_for("ground_truth", short_rendered, front)
    found = _analyze(short_rendered.mixture, view, params)
    mag = front.magnitude()
    D, groups = view.concatenated()
    decision, screen = classify.classify_noise(mag, view)
    assert found.noise == decision
    assert found.screen.groups == screen.groups == groups
    assert np.array_equal(found.screen.weights, screen.weights)
    assert found.coding.groups == groups
    assert np.array_equal(found.coding.dictionary, D)
    split, sc = decision.split, short_rendered.scenario
    assert 0 < split < mag.shape[1]
    assert (decision.noise_first, decision.noise_second) == (sc.noise_first, sc.noise_second)
    coding = found.coding
    for frames, noise, other in (
        (slice(0, split), sc.noise_first, sc.noise_second),
        (slice(split, None), sc.noise_second, sc.noise_first),
    ):
        rows = np.r_[coding.block("speaker", sc.speaker), coding.block("noise", noise)]
        expected = solvers.solve_mu(
            mag[:, frames], D[:, rows], n_iter=params.coding_iters, init=screen.weights[rows, frames]
        )
        assert np.array_equal(coding.weights[rows, frames], expected)
        assert np.all(coding.weights[coding.block("noise", other), frames] == 0.0)


@pytest.mark.parametrize("where", ["first_frame", "after_the_last_frame"])
def test_a_switch_at_either_end_codes_one_side(
    where, short_rendered, kmeans_bank, coding_calls, monkeypatch
):
    original = regimes.classify_noise

    def moved(mag, bank):
        decision, screen = original(mag, bank)
        split = 0 if where == "first_frame" else mag.shape[1]
        return dataclasses.replace(decision, split=split), screen

    monkeypatch.setattr(regimes, "classify_noise", moved)
    found = _analyze(short_rendered.mixture, kmeans_bank, ss.EvalParams(coding_iters=50))
    n_frames = found.coding.weights.shape[1]
    coded = coding_calls[1:]
    assert [shape for shape, _, _ in coded] == [(129, n_frames)]
    kept, absent = found.noise.noise_second, found.noise.noise_first
    if where == "after_the_last_frame":
        kept, absent = absent, kept
    assert kept != absent
    assert np.all(found.coding.weights[found.coding.block("noise", absent)] == 0.0)
    assert np.all(found.coding.weights[found.coding.block("noise", kept)] > 0.0)


@pytest.mark.parametrize("shortlist", [1, 2, 3, 10])
def test_the_ranking_is_the_shortlist_then_the_screen_order(
    short_rendered, kmeans_bank, monkeypatch, shortlist
):
    # The second ranking comes back reversed, so an order that does not follow
    # it cannot pass by agreeing with the screen.
    calls = itertools.count()

    def reverse_the_second(mag, coding, mask):
        ranking = classify.rank_speakers(mag, coding, mask)
        return ranking[::-1] if next(calls) == 1 else ranking

    monkeypatch.setattr(regimes, "rank_speakers", reverse_the_second)
    monkeypatch.setattr(regimes, "SHORTLIST", shortlist)
    found = _analyze(short_rendered.mixture, kmeans_bank, ss.EvalParams(coding_iters=50))
    front = regimes.FrontEnd(short_rendered.mixture, kmeans_bank.stft_config)
    mag, mask = np.abs(front.spectrogram()), front.speech_mask()
    screen, second = found.screen, found.coding
    assert len(screen.groups) == 8
    assert np.array_equal(screen.weights, classify.classify_noise(mag, kmeans_bank)[1].weights)
    screened = classify.rank_speakers(mag, screen, mask)
    ranked = classify.rank_speakers(mag, second, mask)
    assert found.speaker_ranking == ranked[::-1] + screened[shortlist:]
    assert sorted(found.speaker_ranking) == sorted(kmeans_bank.speaker_labels)
    kept = [g[1] for g in second.groups if g[0] == "speaker"]
    assert kept == sorted(screened[:shortlist])
    # the second coding's atoms are the screen's, of the shortlist and the detected noises
    detected = {("noise", found.noise.noise_first), ("noise", found.noise.noise_second)}
    expected = screen.only({("speaker", label) for label in screened[:shortlist]} | detected)
    assert second.groups == expected.groups
    assert np.array_equal(second.dictionary, expected.dictionary)
    # the Wiener mask is the top speaker's block of the shortlist's model over that model
    D, W = second.dictionary, second.weights
    top = second.block("speaker", found.speaker_ranking[0])
    wiener = np.clip(D[:, top] @ W[top, :] / (D @ W + solvers.EPS), 0.0, 1.0)
    assert np.array_equal(found.separation.mask, wiener)


def test_a_one_noise_bank_still_gives_an_answer(short_rendered, kmeans_bank, coding_calls):
    noise = short_rendered.scenario.noise_first
    view = kmeans_bank.restricted(exclude_noises=set(kmeans_bank.noise_labels) - {noise})
    params = ss.EvalParams(coding_iters=50)
    analysis, sep = ss.analyze_signal(view, short_rendered.mixture, params)
    assert analysis["noise_first"] == analysis["noise_second"] == noise
    # the screen, then one coding of every frame against the shortlist and the one noise
    assert len(coding_calls) == 2
    front = regimes.FrontEnd(short_rendered.mixture, view.stft_config)
    _, decision = _check_screen_then_sides(coding_calls, view, params, front)
    assert decision.split == 0
    assert sorted(analysis["speaker_ranking"]) == sorted(kmeans_bank.speaker_labels)
    assert sep.speech.shape == short_rendered.mixture.shape


@pytest.mark.parametrize("regime", ["out_of_set_noise", "out_of_set_speaker"])
def test_the_shortlist_coding_reads_only_what_it_keeps(
    regime, short_rendered, corpus, kmeans_bank, monkeypatch
):
    after_screen = []
    original = regimes.classify_noise

    def spy(*args):
        found = original(*args)
        after_screen.append(dict(kmeans_bank.access_counts))
        return found

    monkeypatch.setattr(regimes, "classify_noise", spy)
    ctx = ss.RegimeContext(kmeans_bank, corpus, ss.EvalParams(coding_iters=50))
    before = dict(kmeans_bank.access_counts)
    result = ss.run_regime(short_rendered, regime, ctx)
    assert result.failure_stage is None, result.error
    sc = short_rendered.scenario
    removed = (
        {("noise", sc.noise_first), ("noise", sc.noise_second)}
        if regime == "out_of_set_noise"
        else {("speaker", sc.speaker)}
    )
    # the shortlist coding takes its atoms from the screen's coding, not from the bank
    assert kmeans_bank.access_counts == after_screen[0]
    assert all(kmeans_bank.access_counts[k] == before[k] for k in removed)


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
    front = regimes.FrontEnd(rendered.mixture, stft_config)
    regimes._adapted_noises(rendered, front, ss.RegimeContext(kmeans_bank, corpus))

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
    decision, _ = ss.classify_noise(ss.magnitudes(mixture, config), kmeans_bank)
    assert analysis["noise_first"] == decision.noise_first
    assert analysis["noise_second"] == decision.noise_second
    assert analysis["noise_transition_s"] == round(decision.transition_s, 4)

    # the noise estimate is the rest of the mixture, edges included
    assert np.array_equal(sep.noise, mixture.astype(np.float64) - sep.speech)


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
