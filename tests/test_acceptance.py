"""End-to-end acceptance checks for the whole pipeline.

Every test here measures one externally visible guarantee of the package —
solver quality, dictionary structure, detection and classification accuracy,
separation quality, reporting arithmetic, regime isolation and byte-level
reproducibility — and prints exactly one PASS/FAIL line with the measured
value and the bound it is held to.
"""

import time

import numpy as np
import pytest

import sparsescene as ss
from sparsescene import dictionary
from sparsescene.bank import DictionaryBank
from sparsescene.dictionary import (
    LearnedDictionary,
    _select_random,
    normalize_atoms,
)
from sparsescene.features import istft, magnitudes, stft
from sparsescene.solvers import generalized_kl, solve_asna, solve_mu
from sparsescene.training import noise_training_features, speaker_training_features
from sparsescene.vad import miss_false_rates


def _report(ok: bool, label: str, detail: str) -> None:
    print(f"\n{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


# ---------------------------------------------------------------------------
# shared heavy fixtures (module scope: built once, reused by several checks)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def banks_all(corpus, kmeans_bank):
    """One dictionary bank per learning method, identical settings."""
    banks = {"kmeans": kmeans_bank}
    for method in ss.METHODS:
        if method not in banks:
            banks[method] = ss.learn_bank(corpus, method, 20, tw=0.8, tb=0.8, seed=0)
    return banks


@pytest.fixture(scope="module")
def noise_scenes(corpus, stft_config):
    """40 two-noise mixtures at 0 dB with precomputed magnitude spectra."""
    t0 = time.perf_counter()
    scenarios = ss.generate_scenarios(corpus, 40, seed=11)
    scenes = []
    for s in scenarios:
        r = ss.render_scenario(corpus, s, snr_db=0.0)
        scenes.append((s, magnitudes(r.mixture.astype(np.float64), stft_config)))
    return scenes, time.perf_counter() - t0


@pytest.fixture(scope="module")
def noise_decisions(noise_scenes, banks_all):
    """Noise typing of every mixture under every learning method, timed."""
    scenes, _ = noise_scenes
    decisions: dict[str, list] = {}
    timing: dict[str, float] = {}
    for method, bank in banks_all.items():
        t0 = time.perf_counter()
        decisions[method] = [(s, ss.classify_noise(mag, bank)[0]) for s, mag in scenes]
        timing[method] = time.perf_counter() - t0
    return decisions, timing


@pytest.fixture(scope="module")
def speaker_runs(corpus, kmeans_bank):
    """Blind pipeline runs on 16 mixtures at 10 dB (4 per speaker)."""
    ctx = ss.RegimeContext(kmeans_bank, corpus, ss.EvalParams())
    out = []
    for s in ss.generate_scenarios(corpus, 16, seed=2026):
        rendered = ss.render_scenario(corpus, s, snr_db=10.0)
        out.append(ss.run_regime(rendered, "complete", ctx))
    return out


@pytest.fixture(scope="module")
def oracle_runs(corpus, kmeans_bank):
    """Oracle-condition runs (true dictionaries and spans) on 12 mixtures at 0 dB."""
    ctx = ss.RegimeContext(kmeans_bank, corpus, ss.EvalParams())
    out = []
    for s in ss.generate_scenarios(corpus, 12, seed=5):
        rendered = ss.render_scenario(corpus, s, snr_db=0.0)
        out.append(ss.run_regime(rendered, "ground_truth", ctx))
    return out


@pytest.fixture(scope="module")
def regime_comparison(corpus, kmeans_bank):
    """Out-of-set vs adapted-noise runs with access-counter instrumentation."""
    ctx = ss.RegimeContext(kmeans_bank, corpus, ss.EvalParams())
    isolation_ok = True
    oos_noise, oos_speaker, adapted = [], [], []
    for s in ss.generate_scenarios(corpus, 8, seed=0):
        rendered = ss.render_scenario(corpus, s, snr_db=0.0)

        before = dict(kmeans_bank.access_counts)
        oos_noise.append(ss.run_regime(rendered, "out_of_set_noise", ctx))
        for label in (s.noise_first, s.noise_second):
            key = ("noise", label)
            if kmeans_bank.access_counts[key] != before[key]:
                isolation_ok = False

        before = dict(kmeans_bank.access_counts)
        oos_speaker.append(ss.run_regime(rendered, "out_of_set_speaker", ctx))
        key = ("speaker", s.speaker)
        if kmeans_bank.access_counts[key] != before[key]:
            isolation_ok = False

        adapted.append(ss.run_regime(rendered, "updated_noise", ctx))
    return isolation_ok, oos_noise, oos_speaker, adapted


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------


def test_newton_solver_matches_long_multiplicative_baseline():
    """The fast exact solver reaches the objective of a 200k-sweep baseline."""
    rng = np.random.default_rng(12345)
    t0 = time.perf_counter()
    n_problems = 0
    worst_margin = -np.inf
    nonneg = True
    for _ in range(5):
        P = int(rng.integers(4, 17))  # P <= 16
        M = int(rng.integers(2, 25))  # M <= 24
        D = normalize_atoms(rng.uniform(0.05, 1.0, size=(P, M)))
        Y = np.empty((P, 20))
        Y[:, :10] = D @ rng.uniform(0.0, 2.0, size=(D.shape[1], 10))  # representable
        Y[:, 10:] = rng.uniform(0.01, 2.0, size=(P, 10))  # arbitrary
        W_base = solve_mu(Y, D, n_iter=200_000, tol=0.0)
        for j in range(Y.shape[1]):
            x = solve_asna(Y[:, j], D)
            nonneg = nonneg and bool(np.all(x >= 0.0))
            f_fast = generalized_kl(Y[:, j], D @ x)
            f_base = generalized_kl(Y[:, j], D @ W_base[:, j])
            margin = abs(f_fast - f_base) - (1e-6 + 1e-4 * abs(f_base))
            worst_margin = max(worst_margin, margin)
            n_problems += 1
    elapsed = time.perf_counter() - t0
    ok = n_problems == 100 and worst_margin <= 0.0 and nonneg and elapsed < 60.0
    _report(
        ok,
        "solver-equivalence",
        f"{n_problems} random problems, worst objective gap beyond tolerance "
        f"{worst_margin:.2e} (must be <= 0), all weights nonnegative: {nonneg}, "
        f"runtime {elapsed:.1f} s (bound 60 s)",
    )


def test_single_atom_observations_recover_exactly():
    """Coding an atom against its own dictionary returns only that atom."""
    rng = np.random.default_rng(7)
    sources = {
        ("noise", f"src{i}"): LearnedDictionary(
            normalize_atoms(rng.uniform(0.05, 1.0, size=(32, 8))), "random"
        )
        for i in range(5)
    }
    bank = DictionaryBank(sources, method="random")
    worst_off = 0.0
    worst_kl = 0.0
    all_single = True
    n_checked = 0
    for label in bank.noise_labels:
        D = bank.get("noise", label).atoms
        for k in range(D.shape[1]):
            y = D[:, k].copy()
            x = solve_asna(y, D)
            off = np.delete(x, k)
            worst_off = max(worst_off, float(off.max()) if off.size else 0.0)
            worst_kl = max(worst_kl, generalized_kl(y, D @ x))
            if not (x[k] > 0 and np.all(off < 1e-8)):
                all_single = False
            n_checked += 1
    ok = all_single and worst_off < 1e-8 and worst_kl <= 1e-10
    _report(
        ok,
        "exact-atom-recovery",
        f"{n_checked} atoms across 5 dictionaries: worst off-atom weight "
        f"{worst_off:.2e} (bound 1e-8), worst divergence {worst_kl:.2e} (bound 1e-10)",
    )


def test_threshold_dictionaries_respect_similarity_bounds(banks_all):
    """Accepted atoms stay under 0.8 cosine similarity within and across sources."""
    bank = banks_all["tdcs"]
    order = [("noise", l) for l in bank.noise_labels] + [
        ("speaker", l) for l in bank.speaker_labels
    ]
    prior: list[np.ndarray] = []
    max_within = 0.0
    max_between = 0.0
    n_appended = 0
    n_kept = 0
    for kind, label in order:
        d = bank.get(kind, label)
        kept = d.atoms[:, ~d.appended]
        n_appended += int(np.sum(d.appended))
        n_kept += kept.shape[1]
        if kept.shape[1] >= 2:
            cs = kept.T @ kept
            np.fill_diagonal(cs, 0.0)
            max_within = max(max_within, float(cs.max()))
        if prior and kept.shape[1]:
            csb = kept.T @ np.concatenate(prior, axis=1)
            max_between = max(max_between, float(csb.max()))
        prior.append(d.atoms)
    ok = max_within <= 0.8 and max_between <= 0.8
    _report(
        ok,
        "threshold-dictionary-structure",
        f"thresholds 0.8/0.8: max within-source similarity {max_within:.6f}, "
        f"max vs previously learned sources {max_between:.6f} (both must be <= 0.8 "
        f"exactly); {n_kept} accepted atoms, {n_appended} over-threshold atoms flagged",
    )


def _cold_ksvd(
    frames: np.ndarray,
    n_atoms: int,
    rng: np.random.Generator,
    n_iter: int = 10,
    sparsity: int = 5,
) -> np.ndarray:
    """K-SVD as it was before warm starts: every round codes 60 sweeps from the uniform start."""
    atoms = normalize_atoms(_select_random(frames, n_atoms, rng))
    k = atoms.shape[1]
    for _ in range(n_iter):
        X = solve_mu(frames, atoms, n_iter=60)
        # hard sparsification: keep the largest weights per frame
        if sparsity < k:
            order = np.argsort(X, axis=0)
            X[order[: k - sparsity, :], np.arange(X.shape[1])[None, :]] = 0.0
        FX = frames @ X.T
        for j in range(k):
            x = X[j]
            users = np.flatnonzero(x > 0)
            if users.size == 0:
                worst = int(np.argmax(np.sum((frames - atoms @ X) ** 2, axis=0)))
                atom = frames[:, worst].copy()
            else:
                atom = FX[:, j] - atoms @ (X @ x) + atoms[:, j] * (x @ x)
                np.maximum(atom, 0.0, out=atom)
            norm = np.linalg.norm(atom)
            if norm <= 1e-12:
                atom = frames[:, int(rng.integers(frames.shape[1]))].copy()
                norm = np.linalg.norm(atom)
            atom /= norm
            if users.size:
                weights = (
                    (atom @ frames)[users]
                    - (atom @ atoms) @ X[:, users]
                    + (atom @ atoms[:, j]) * x[users]
                )
                X[j, users] = np.maximum(weights, 0.0)
            atoms[:, j] = atom
    return atoms


def test_warm_started_ksvd_fits_its_sources_as_well_as_cold_coding(
    corpus, banks_all, monkeypatch
):
    """Warm-started K-SVD banks fit their training frames within 2 % of cold-coded ones."""
    t0 = time.perf_counter()
    config = banks_all["ksvd"].stft_config
    frames = {("noise", l): noise_training_features(corpus, l, config) for l in corpus.noises}
    frames.update(
        {("speaker", l): speaker_training_features(corpus, l, config) for l in corpus.speakers}
    )

    def fit(bank):
        """Mean over sources of the KL of its frames coded on its atoms, relative to their sum."""
        rel = []
        for (kind, label), F in frames.items():
            A = bank.get(kind, label).atoms
            rel.append(generalized_kl(F, A @ solve_mu(F, A, n_iter=200)) / float(np.sum(F)))
        return float(np.mean(rel))

    seeds = (0, 1, 2)
    warm = [banks_all["ksvd"]] + [ss.learn_bank(corpus, "ksvd", 20, seed=s) for s in seeds[1:]]
    monkeypatch.setattr(dictionary, "_learn_ksvd", _cold_ksvd)
    cold = [ss.learn_bank(corpus, "ksvd", 20, seed=s) for s in seeds]
    ratios = [fit(w) / fit(c) for w, c in zip(warm, cold)]
    elapsed = time.perf_counter() - t0
    ok = len(frames) == 8 and max(ratios) <= 1.02
    _report(
        ok,
        "ksvd-warm-start",
        f"bank fit (mean relative KL over {len(frames)} sources) warm / cold coding at bank "
        f"seeds 0-2: {', '.join(f'{r:.4f}' for r in ratios)} (bound 1.02 each), "
        f"runtime {elapsed:.1f} s",
    )


def test_audio_survives_analysis_resynthesis(stft_config):
    """Transform round trip is numerically exact away from the edges."""
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1000, 30001))
        x = rng.standard_normal(n)
        y = istft(stft(x, stft_config), stft_config, n_samples=n)
        interior = slice(stft_config.n_fft, n - stft_config.n_fft)
        rel = float(
            np.linalg.norm(x[interior] - y[interior]) / np.linalg.norm(x[interior])
        )
        worst = max(worst, rel)
    ok = worst <= 1e-6
    _report(
        ok,
        "audio-round-trip",
        f"worst interior relative error {worst:.2e} over 20 random signals (bound 1e-6)",
    )


def test_noise_switch_point_is_localised(noise_scenes, noise_decisions):
    """The detected switch between the two noise types lands near the truth."""
    scenes, prep_s = noise_scenes
    decisions, timing = noise_decisions
    errors = [abs(d.transition_s - s.transition_s) for s, d in decisions["kmeans"]]
    mean_err = float(np.mean(errors))
    elapsed = prep_s + timing["kmeans"]
    ok = mean_err <= 0.30 and elapsed < 300.0
    _report(
        ok,
        "transition-detection",
        f"mean |switch-point error| {mean_err:.3f} s over {len(errors)} mixtures "
        f"at 0 dB (bound 0.30 s), runtime {elapsed:.1f} s (bound 300 s)",
    )


def test_noise_types_are_classified_under_every_method(noise_decisions):
    """Both halves' noise types are identified for every learning method."""
    decisions, _ = noise_decisions
    accuracy = {}
    for method, items in decisions.items():
        correct = sum(
            1
            for s, d in items
            if d.noise_first == s.noise_first and d.noise_second == s.noise_second
        )
        accuracy[method] = correct / len(items)
    ok = all(acc >= 0.90 for acc in accuracy.values()) and len(accuracy) == 5
    detail = ", ".join(f"{m} {acc:.0%}" for m, acc in sorted(accuracy.items()))
    _report(ok, "noise-classification", f"{detail} at 0 dB (bound 90% each)")


def test_speakers_are_identified_blind(speaker_runs):
    """Top-1 and top-3 speaker identification on the four-speaker corpus."""
    failed = [r for r in speaker_runs if r.failure_stage]
    top1 = float(np.mean([bool(r.speaker_correct) for r in speaker_runs]))
    top3 = float(np.mean([bool(r.speaker_top3_correct) for r in speaker_runs]))
    ok = not failed and top1 >= 0.80 and top3 == 1.0
    _report(
        ok,
        "speaker-identification",
        f"top-1 {top1:.0%} (bound 80%), top-3 {top3:.0%} (bound 100%) over "
        f"{len(speaker_runs)} mixtures at 10 dB, {len(failed)} failures",
    )


def test_separation_beats_input_snr(oracle_runs):
    """Separated speech gains at least 3 dB over the 0 dB input, oracle runs."""
    failed = [r for r in oracle_runs if r.failure_stage]
    gains = [r.sdr_gain_db for r in oracle_runs if r.sdr_gain_db is not None]
    mean_gain = float(np.mean(gains)) if gains else float("-inf")
    ok = not failed and len(gains) == len(oracle_runs) and mean_gain >= 3.0
    _report(
        ok,
        "separation-gain",
        f"mean SDR {mean_gain:+.2f} dB above input SNR across {len(gains)} oracle "
        f"runs at 0 dB (bound +3 dB)",
    )


def test_estimated_snr_tracks_true_snr(oracle_runs):
    """Blind segmental SNR estimate stays within 4 dB of the truth on average."""
    failed = [r for r in oracle_runs if r.failure_stage]
    errs = [abs(r.snr_error_db) for r in oracle_runs if r.snr_error_db is not None]
    mean_abs = float(np.mean(errs)) if errs else float("inf")
    ok = not failed and len(errs) == len(oracle_runs) and mean_abs <= 4.0
    _report(
        ok,
        "snr-estimation-error",
        f"mean |estimated - true| {mean_abs:.2f} dB across {len(errs)} oracle runs "
        f"at 0 dB (bound 4 dB)",
    )


def test_detector_rates_reproduce_exact_fractions():
    """Hand-built span fixtures give exact miss / false-alarm percentages."""
    spans = [(0.0, 1.0), (2.0, 3.0), (4.0, 5.0)]
    checks = [
        miss_false_rates(spans, spans) == (0.0, 0.0),
        miss_false_rates(spans, []) == (100.0, 0.0),
        miss_false_rates([], spans) == (0.0, 100.0),
        miss_false_rates(spans, [(0.1, 0.9), (2.2, 2.8), (9.0, 9.5)])
        == (100.0 * 1 / 3, 100.0 * 1 / 3),
        # touching spans share only an endpoint: that is not an overlap
        miss_false_rates([(0.0, 1.0)], [(1.0, 2.0)]) == (100.0, 100.0),
    ]
    ok = all(checks)
    _report(
        ok,
        "detector-rate-arithmetic",
        f"{sum(checks)}/{len(checks)} fixtures reproduced exact rates "
        f"(0, 100, 33.33...)",
    )


def test_removed_dictionaries_stay_unread_and_adaptation_recovers(regime_comparison):
    """Restricted regimes never touch removed entries; adapted dictionaries win."""
    isolation_ok, oos_noise, oos_speaker, adapted = regime_comparison
    failed = [
        r
        for rows in (oos_noise, oos_speaker, adapted)
        for r in rows
        if r.failure_stage
    ]
    oos_sdr = float(np.mean([r.sdr_db for r in oos_noise]))
    adapted_sdr = float(np.mean([r.sdr_db for r in adapted]))
    gap = adapted_sdr - oos_sdr
    ok = isolation_ok and not failed and gap >= 1.0
    _report(
        ok,
        "regime-isolation",
        f"removed dictionaries never read: {isolation_ok} "
        f"({len(oos_noise) + len(oos_speaker)} instrumented runs); adapted-noise "
        f"SDR {adapted_sdr:+.2f} dB vs out-of-set {oos_sdr:+.2f} dB "
        f"(gap {gap:+.2f} dB, bound >= +1 dB) at 0 dB",
    )


def test_identical_campaigns_produce_identical_bytes(corpus_root, tmp_path_factory):
    """Two from-scratch evaluations of one manifest match byte for byte."""
    manifest = ss.Manifest(
        corpus_dir=corpus_root,
        n_scenarios=2,
        methods=("kmeans",),
        regimes=("ground_truth", "complete"),
        snrs_db=(0.0,),
    )
    outs = []
    for name in ("first", "second"):
        out = tmp_path_factory.mktemp(f"campaign_{name}")
        ss.run_manifest(manifest, out)
        outs.append(out)
    csv_a = (outs[0] / "report.csv").read_bytes()
    csv_b = (outs[1] / "report.csv").read_bytes()
    agg_same = (outs[0] / "aggregate.json").read_bytes() == (
        outs[1] / "aggregate.json"
    ).read_bytes()
    ok = csv_a == csv_b and agg_same
    _report(
        ok,
        "determinism",
        f"two independent campaigns (4 rows each): report.csv identical: "
        f"{csv_a == csv_b} ({len(csv_a)} bytes), aggregate.json identical: {agg_same}",
    )
