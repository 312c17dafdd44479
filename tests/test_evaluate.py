import collections
import dataclasses
import itertools
import json
import re
import sys

import numpy as np
import pytest

import sparsescene as ss
from sparsescene import classify, evaluate, features, regimes, solvers, training, vad
from sparsescene.bank import DictionaryBank
from sparsescene.dictionary import METHODS, LearnedDictionary, normalize_atoms
from sparsescene.errors import DataError
from sparsescene.manifest import Manifest
from sparsescene.report import result_to_json, run_key
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
        scenario, "ground_truth", 0.0, kmeans_bank.content_hash(), manifest.eval_params, "kmeans"
    )
    assert row_path.stem == expected


def _before_the_shortlist(params, method=None):
    """``EvalParams.to_dict`` as it was before ``screen_iters`` and ``shortlist``."""
    return {"solver": params.solver, "coding_iters": params.coding_iters}


def _both_noises_on_every_frame(params, method=None):
    """``EvalParams.to_dict`` as it was before the shortlist coded each side's noise only."""
    return {**_before_the_shortlist(params), "screen_iters": 50, "shortlist": 2}


def _before_the_settle_rule(params, method=None):
    """``EvalParams.to_dict`` as it was before it recorded the shortlist's settle rule."""
    return {**_both_noises_on_every_frame(params), "shortlist_noise": "per_side"}


def _before_the_relaxed_screen(params, method=None):
    """``EvalParams.to_dict`` as it was while the screen ran 50 plain sweeps."""
    return {**_before_the_settle_rule(params), "settle": {"every": 5, "tol": 2e-4}}


def _before_the_relaxed_ksvd(params, method=None):
    """``EvalParams.to_dict`` as it was while K-SVD coded 60 + 9 x 20 plain sweeps."""
    return {
        **_before_the_relaxed_screen(params),
        "screen_iters": 35,
        "screen_exponent": 1.5,
    }


def _before_the_relaxed_stage_2(params, method=None):
    """``EvalParams.to_dict`` as it was while the shortlist coded plain sweeps, for any bank."""
    return {
        **_before_the_relaxed_ksvd(params),
        "ksvd_sweeps": {"cold": 42, "warm": 14, "exponent": 1.5},
    }


def _before_the_segments(scenario):
    """``MixScenario.to_dict`` as it was while a scene was two halves of one length."""
    (half, first), (_, second) = scenario.segments
    return {
        "scenario_id": scenario.scenario_id,
        "speaker": scenario.speaker,
        "noise_first": first,
        "noise_second": second,
        "half_duration_s": half,
        "utterances": [
            {**dataclasses.asdict(u), "half": int(u.start_s >= half)} for u in scenario.utterances
        ],
        "seed": scenario.seed,
    }


def test_run_key_is_pinned(monkeypatch):
    # Resuming an existing campaign depends on keys staying the same.
    scenario = MixScenario(
        scenario_id="s0007",
        speaker="spk2",
        segments=((6.0, "hum"), (6.0, "band")),
        utterances=(
            UtterancePlacement("spk2/utt09.wav", 1.25, 2.5),
            UtterancePlacement("spk2/utt10.wav", 7.5, 1.75),
        ),
        seed=12345,
    )

    def key_for(method="kmeans"):
        return run_key(
            scenario, "updated_noise", -5.0, "0123456789abcdef", ss.EvalParams(), method
        )

    # only a ksvd bank's key records K-SVD's schedule
    assert key_for("kmeans") == "63c3e319a7f3e46e88f5"
    assert key_for("tdcs") == key_for("kmeans")
    assert key_for("ksvd") == "ec408f49d538d0fd1a09"
    with monkeypatch.context() as patched:
        patched.setattr(regimes, "KSVD_WARM_SWEEPS", 13)
        assert key_for("kmeans") == "63c3e319a7f3e46e88f5"
        assert key_for("ksvd") != "ec408f49d538d0fd1a09"
    # the keys this run had while a scene was two halves of one length
    monkeypatch.setattr(MixScenario, "to_dict", _before_the_segments)
    assert key_for("kmeans") == "fcf2aa20af6d4f82e021"
    assert key_for("ksvd") == "0a4ab8ee697ac43c6454"
    # the key this run had while the shortlist coded plain sweeps at tol 2e-4
    monkeypatch.setattr(ss.EvalParams, "to_dict", _before_the_relaxed_stage_2)
    assert key_for("kmeans") == key_for("ksvd") == "2b7dbe43a21a389fe1aa"
    # the key this run had while K-SVD coded its rounds with plain sweeps
    monkeypatch.setattr(ss.EvalParams, "to_dict", _before_the_relaxed_ksvd)
    assert key_for() == "ffafe46bb6ae9774783e"
    # the key this run had while the screen ran 50 plain sweeps
    monkeypatch.setattr(ss.EvalParams, "to_dict", _before_the_relaxed_screen)
    assert key_for() == "d77b03c1e47458d0f1e7"
    # the key this run had while the shortlist settled every 25 sweeps at tol 1e-3
    monkeypatch.setattr(ss.EvalParams, "to_dict", _before_the_settle_rule)
    assert key_for() == "75774c5fef78a9d3b03c"
    # the key this run had while the shortlist coded both noises on every frame
    monkeypatch.setattr(ss.EvalParams, "to_dict", _both_noises_on_every_frame)
    assert key_for() == "6e7274d48a4e72a62e51"
    # the key this run had before the screen and shortlist settings
    monkeypatch.setattr(ss.EvalParams, "to_dict", _before_the_shortlist)
    assert key_for() == "7fa8823264bd3ed6bd3f"


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


def test_a_campaign_learns_its_bank_from_its_own_corpus_whatever_its_directory_holds(
    corpus_root, tmp_path
):
    # The directory already holds a campaign over another corpus, with its bank.
    other_root = ss.generate_corpus(tmp_path / "other", seed=1, noise_seconds=12)
    out = tmp_path / "out"
    for root in (corpus_root, other_root):
        summary = ss.run_manifest(_small_manifest(root, half_duration_s=4.0, n_atoms=8), out)
    learned = ss.learn_bank(ss.Corpus.from_dir(other_root), "kmeans", 8)
    saved = DictionaryBank.load(out / "banks" / "kmeans.npz")
    assert saved.content_hash() == learned.content_hash()
    # its row is coded with that bank, under a key of its own
    assert (summary["n_computed"], summary["n_skipped"], summary["n_stale"]) == (1, 0, 1)
    assert sorted(path.name for path in (out / "banks").iterdir()) == ["kmeans.npz"]


def _json(row):
    return json.dumps(row).encode("utf-8")


@pytest.mark.parametrize(
    "tamper",
    [
        lambda row: b"{not json",
        lambda row: b"\xff\xfe",
        lambda row: b"[]",
        lambda row: b'{"run_key": "other"}',
        lambda row: _json({**row, "schema_version": 2}),
        lambda row: _json({"run_key": row["run_key"]}),
        lambda row: _json({key: value for key, value in row.items() if key != "sdr_db"}),
        lambda row: _json({**row, "bss_sdr_db": 1.0}),
    ],
    ids=[
        "not_json",
        "not_utf8",
        "not_an_object",
        "other_key",
        "next_schema",
        "only_its_key",
        "short_of_a_column",
        "an_extra_column",
    ],
)
def test_resume_recomputes_a_row_it_cannot_reuse(
    corpus_root, kmeans_bank, tmp_path, caplog, tamper
):
    manifest = _small_manifest(corpus_root)
    out = tmp_path / "out"
    ss.run_manifest(manifest, out, banks={"kmeans": kmeans_bank})
    reports = ("report.csv", "aggregate.json")
    fresh = [(out / name).read_bytes() for name in reports]
    (row,) = (out / "rows").glob("*.json")
    row.write_bytes(tamper(json.loads(row.read_text())))
    with caplog.at_level("WARNING", logger="sparsescene.report"):
        again = ss.run_manifest(manifest, out, banks={"kmeans": kmeans_bank})
    assert (again["n_computed"], again["n_skipped"]) == (1, 0)
    assert [(out / name).read_bytes() for name in reports] == fresh
    assert "recomputing" in caplog.text


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
    # the relearn reads each of the bank's noises once, through get, and no speaker
    assert bank.access_counts == {source: int(source[0] == "noise") for source in bank.sources}


def test_updated_speaker_bank_keeps_the_banks_noises_and_learns_only_speakers(
    corpus, kmeans_bank, monkeypatch
):
    label = kmeans_bank.noise_labels[1]
    rng = np.random.default_rng(7)
    swapped = LearnedDictionary(normalize_atoms(rng.random((129, 5))))
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
    read_once = {("noise", name) for name in bank.noise_labels}
    assert bank.access_counts == {key: n + (key in read_once) for key, n in counts_before.items()}
    assert updated.noise_labels == bank.noise_labels
    assert all(updated.get("noise", n) is bank.get("noise", n) for n in bank.noise_labels)
    assert np.array_equal(updated.get("noise", label).atoms, swapped.atoms)


@pytest.mark.parametrize("regime", ["updated_noise", "updated_speaker"], ids=["noise", "speaker"])
def test_updated_speaker_with_a_bank_that_lacks_its_recipe_is_a_data_error(
    corpus_root, kmeans_bank, tmp_path, regime
):
    # a bank can only reach a campaign without its recipe as a file; reading it refuses it
    path = tmp_path / "bank.npz"
    kmeans_bank.save(path)
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
    meta["params"] = {}
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **arrays)
    manifest = _small_manifest(corpus_root, regimes=("complete", regime))
    with pytest.raises(DataError, match=r"\['n_atoms', 'tw', 'tb', 'seed'\]"):
        ss.run_manifest(manifest, tmp_path / "out", banks={"kmeans": DictionaryBank.load(path)})
    assert not (tmp_path / "out").exists()


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
        {
            ("speaker", "ghost"): LearnedDictionary(atoms),
            ("noise", "static"): LearnedDictionary(atoms),
        },
        method="kmeans",
        params={"n_atoms": 2, "tw": 0.8, "tb": 0.8, "seed": 0},
        feature_params={"sample_rate": 8000, "n_fft": 256, "hop": 128},
    )
    manifest = _small_manifest(corpus_root)
    summary = ss.run_manifest(manifest, tmp_path / "out", banks={"kmeans": toy})
    assert summary["n_rows"] == 1
    assert summary["n_failed"] == 1
    row = json.loads(next((tmp_path / "out" / "rows").glob("*.json")).read_text())
    assert row["failure_stage"] == "noise_id"
    assert row["error"]


def test_a_regime_whose_view_would_hold_no_noise_fails_at_noise_id(
    short_rendered, corpus, kmeans_bank
):
    true_noises = {("noise", noise) for _, noise in short_rendered.scenario.segments}
    others = [s for s in kmeans_bank.sources if s[0] == "noise" and s not in true_noises]
    only_true_noises = kmeans_bank.restricted(others)
    ctx = ss.RegimeContext(only_true_noises, corpus, ss.EvalParams(coding_iters=5))
    result = ss.run_regime(short_rendered, "out_of_set_noise", ctx)
    assert result.failure_stage == "noise_id"
    assert result.error.startswith("DataError: ") and "holds no noise dictionary" in result.error


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


@pytest.fixture(scope="module")
def relation_banks(corpus, kmeans_bank):
    """The 20-atom banks at seed 0 of the learners the metamorphic relations are checked for."""
    learned = {method: ss.learn_bank(corpus, method, 20, seed=0) for method in ("kmedoid", "tdcs")}
    return {"kmeans": kmeans_bank, **learned}


def test_scaling_a_clip_moves_no_decision(corpus, relation_banks):
    """The noise pair, switch, speaker ranking and speech spans ignore the clip's level.

    Twelve recipes, each at one of -5/0/+5 dB and scaled by one of 1e-4, 1e-2
    and 1e2, so that every SNR meets every gain, for the ``kmeans``,
    ``kmedoid`` and ``tdcs`` banks.  Powers of two would leave ``solve_mu``
    bit for bit unchanged; these gains do not.
    """
    keys = (
        "noise_first", "noise_second", "noise_transition_s", "speaker_ranking", "speech_spans_s"
    )
    scenarios = ss.generate_scenarios(corpus, 12, seed=1901)
    for method, bank in relation_banks.items():
        for i, scenario in enumerate(scenarios):
            snr_db, gain = (-5.0, 0.0, 5.0)[i % 3], (1e-4, 1e-2, 1e2)[i // 3 % 3]
            mixture = ss.render_scenario(corpus, scenario, snr_db=snr_db).mixture
            base, _ = ss.analyze_signal(bank, mixture)
            scaled, _ = ss.analyze_signal(bank, gain * mixture)
            moved = {k: (base[k], scaled[k]) for k in keys if scaled[k] != base[k]}
            assert not moved, (method, scenario.scenario_id, snr_db, gain, moved)


def test_swapping_a_clips_halves_swaps_the_noise_pair_and_keeps_the_ranking(
    corpus, relation_banks
):
    """Swapping the halves at the true switch swaps the noise pair, keeps the
    speaker ranking and moves the switch by at most one hop.

    The same twelve recipes and SNRs as the scaling test, for the ``kmeans``
    and ``kmedoid`` banks.  Speech spans are not compared: one frame
    straddles the new junction.
    """
    scenarios = ss.generate_scenarios(corpus, 12, seed=1901)
    for method in ("kmeans", "kmedoid"):
        bank = relation_banks[method]
        hop_s = bank.stft_config.hop / corpus.sample_rate
        for i, scenario in enumerate(scenarios):
            snr_db = (-5.0, 0.0, 5.0)[i % 3]
            mixture = ss.render_scenario(corpus, scenario, snr_db=snr_db).mixture
            half = mixture.size // 2
            base, _ = ss.analyze_signal(bank, mixture)
            swapped, _ = ss.analyze_signal(bank, np.roll(mixture, half))
            where = (method, scenario.scenario_id, snr_db)
            assert (swapped["noise_first"], swapped["noise_second"]) == (
                base["noise_second"], base["noise_first"]
            ), where
            assert swapped["speaker_ranking"] == base["speaker_ranking"], where
            shift = abs(swapped["noise_transition_s"] - base["noise_transition_s"])
            assert shift <= hop_s + 1e-9, (where, shift)


def test_trimming_a_clips_start_moves_the_switch_by_the_trimmed_time(corpus, kmeans_bank):
    """Cutting 0.5, 1 or 3 s off the start keeps the noise pair and the top
    speaker and moves the switch earlier by the cut, within one hop.

    The same twelve recipes and SNRs as the scaling test, each SNR meeting
    each cut.  The full ranking and the speech spans are not compared: the
    frame grid moves with the cut.
    """
    hop_s = kmeans_bank.stft_config.hop / corpus.sample_rate
    for i, scenario in enumerate(ss.generate_scenarios(corpus, 12, seed=1901)):
        snr_db, cut_s = (-5.0, 0.0, 5.0)[i % 3], (0.5, 1.0, 3.0)[i // 3 % 3]
        mixture = ss.render_scenario(corpus, scenario, snr_db=snr_db).mixture
        base, _ = ss.analyze_signal(kmeans_bank, mixture)
        trimmed, _ = ss.analyze_signal(kmeans_bank, mixture[round(cut_s * corpus.sample_rate) :])
        where = (scenario.scenario_id, snr_db, cut_s)
        pair = ("noise_first", "noise_second")
        assert [trimmed[k] for k in pair] == [base[k] for k in pair], where
        assert trimmed["speaker"] == base["speaker"], where
        miss = abs(trimmed["noise_transition_s"] - (base["noise_transition_s"] - cut_s))
        assert miss <= hop_s + 1e-9, (where, miss)


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


def _check_screen_then_segments(calls, view, params, front):
    """One screen of every frame over ``view``, then one coding per noise segment.

    Each segment is coded against the screen's atoms of [the shortlisted
    speakers | that segment's detected noise], starting (``mu``) from the
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
    assert screen_kw == {
        "solver": "mu", "n_iter": classify.SCREEN_ITERS, "tol": 0.0, "relaxed": True
    }

    ranked = classify.rank_speakers(mag, screen, front.speech_mask())
    shortlist = [("speaker", label) for label in sorted(ranked[: regimes.SHORTLIST])]
    assert len(coded) == len(decision.segments)
    for (shape, D, kw), (frames, noise) in zip(coded, decision.segments):
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
    """Count STFTs (``stft`` and ``magnitudes``), ``frame_energies`` and detector passes."""
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    originals = (features.stft, features.magnitudes, features.frame_energies)
    for original in (*originals, vad.detect_speech_frames):
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
    assert pipeline_calls == {"stft": 1, "frame_energies": 1, "detect_speech_frames": 1}
    # the clip switches noise inside it, so each of its two segments is coded once
    assert len(coding_calls) == 3
    front = regimes.FrontEnd(short_rendered.mixture, kmeans_bank.stft_config)
    speakers, decision = _check_screen_then_segments(coding_calls, kmeans_bank, params, front)
    assert [label for _, label in decision.segments] == [
        decision.noise_first,
        decision.noise_second,
    ]
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
    _, decision = _check_screen_then_segments(coding_calls, kmeans_bank, params, front)
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
        "stft": 1,
        "frame_energies": 1,
        "detect_speech_frames": len(regimes.VAD_KS),
    }
    front = regimes.FrontEnd(short_rendered.mixture, stft_config)
    view = ctx.bank_for(regime, short_rendered, front)
    _, decision = _check_screen_then_segments(coding_calls, view, ctx.params, front)
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
        "stft": 2,
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
    sc = short_rendered.scenario
    assert [label for _, label in decision.segments] == [sc.noise_first, sc.noise_second]
    assert (decision.noise_first, decision.noise_second) == (sc.noise_first, sc.noise_second)
    coding = found.coding
    for (frames, noise), other in zip(decision.segments, (sc.noise_second, sc.noise_first)):
        rows = np.r_[coding.block("speaker", sc.speaker), coding.block("noise", noise)]
        expected = solvers.solve_mu(
            mag[:, frames], D[:, rows], n_iter=params.coding_iters, init=screen.weights[rows, frames]
        )
        assert np.array_equal(coding.weights[rows, frames], expected)
        assert np.all(coding.weights[coding.block("noise", other), frames] == 0.0)


def test_relaxed_stage_2_fits_each_side_no_worse_than_the_plain_rule(corpus, kmeans_bank):
    # An over-relaxed sweep moves the block shares about 1.5 times as far, so
    # the settle tolerance is 1.5 times the plain sweeps' 2e-4.
    assert regimes.SETTLE_TOL == 3e-4
    params = ss.EvalParams()
    assert params.solver_kwargs() == {"n_iter": 400, "tol": 3e-4, "relaxed": True}
    scenario = ss.generate_scenarios(corpus, 1, seed=3, half_duration_s=6.0)[0]
    mixture = ss.render_scenario(corpus, scenario, snr_db=0.0).mixture
    found = _analyze(mixture, kmeans_bank, params)
    mag = regimes.FrontEnd(mixture, kmeans_bank.stft_config).magnitude()
    noise, coding = found.noise, found.coding
    shortlist = {("speaker", label) for label in found.speaker_ranking[: regimes.SHORTLIST]}
    for frames, label in noise.segments:
        side = found.screen.only(shortlist | {("noise", label)})
        Y, D, blocks = mag[:, frames], side.dictionary, [g[2].start for g in side.groups]
        init = side.weights[:, frames]
        relaxed = np.concatenate(
            [coding.weights[coding.block(kind, source), frames] for kind, source, _ in side.groups]
        )
        assert np.array_equal(
            relaxed,
            solvers.solve_mu(Y, D, n_iter=400, tol=3e-4, blocks=blocks, init=init, relaxed=True),
        )
        plain = solvers.solve_mu(Y, D, n_iter=400, tol=2e-4, blocks=blocks, init=init)
        assert ss.generalized_kl(Y, D @ relaxed) <= ss.generalized_kl(Y, D @ plain)


@pytest.mark.parametrize("where", ["first_frame", "after_the_last_frame"])
def test_a_switch_at_either_end_codes_one_side(
    where, short_rendered, kmeans_bank, coding_calls, monkeypatch
):
    original = regimes.classify_noise

    def moved(mag, bank):
        decision, screen = original(mag, bank)
        label = decision.noise_second if where == "first_frame" else decision.noise_first
        return dataclasses.replace(decision, segments=[(slice(0, mag.shape[1]), label)]), screen

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
    view = kmeans_bank.restricted(
        ("noise", label) for label in kmeans_bank.noise_labels if label != noise
    )
    params = ss.EvalParams(coding_iters=50)
    analysis, sep = ss.analyze_signal(view, short_rendered.mixture, params)
    assert analysis["noise_first"] == analysis["noise_second"] == noise
    # the screen, then one coding of every frame against the shortlist and the one noise
    assert len(coding_calls) == 2
    front = regimes.FrontEnd(short_rendered.mixture, view.stft_config)
    _, decision = _check_screen_then_segments(coding_calls, view, params, front)
    assert decision.segments == [(slice(0, front.magnitude().shape[1]), noise)]
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


@pytest.mark.parametrize("shape", [(2, 4000), (4000, 1), ()])
def test_analyze_signal_rejects_a_signal_that_is_not_one_dimensional(kmeans_bank, shape):
    with pytest.raises(DataError, match=rf"shape {re.escape(str(shape))}; .* one-dimensional"):
        ss.analyze_signal(kmeans_bank, np.ones(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_analyze_signal_rejects_non_finite_samples(short_rendered, kmeans_bank, bad):
    samples = short_rendered.mixture.astype(np.float64)
    samples[100] = bad
    with pytest.raises(DataError, match="non-finite"):
        ss.analyze_signal(kmeans_bank, samples)
    with pytest.raises(DataError, match="non-finite"):
        ss.analyze_signal(kmeans_bank, np.full(4000, np.nan))
