import numpy as np
import pytest

import sparsescene as ss
from sparsescene.metrics import snr_db, spans_to_sample_mask
from sparsescene.scenario import MixScenario, UtterancePlacement


def _placements():
    return (
        UtterancePlacement("spk1/utt09.wav", 1.0, 2.0, 0),
        UtterancePlacement("spk1/utt10.wav", 12.0, 2.5, 1),
    )


def test_generated_scenarios_satisfy_invariants(corpus):
    scenarios = ss.generate_scenarios(corpus, 8, seed=0)
    assert [s.scenario_id for s in scenarios] == [f"s{i:04d}" for i in range(8)]
    for s in scenarios:
        assert s.noise_first != s.noise_second
        assert s.speaker in corpus.speakers
        halves = {u.half for u in s.utterances}
        assert halves == {0, 1}
        for u in s.utterances:
            lo = u.half * s.half_duration_s
            assert lo <= u.start_s and u.end_s <= lo + s.half_duration_s
        ordered = sorted(s.utterances, key=lambda u: u.start_s)
        for a, b in zip(ordered, ordered[1:]):
            assert b.start_s >= a.end_s


def test_generation_is_deterministic_and_prefix_stable(corpus):
    a = ss.generate_scenarios(corpus, 8, seed=7)
    b = ss.generate_scenarios(corpus, 8, seed=7)
    assert a == b
    prefix = ss.generate_scenarios(corpus, 4, seed=7)
    assert prefix == a[:4]
    other = ss.generate_scenarios(corpus, 8, seed=8)
    assert other != a


def test_recipe_round_trips_through_dict(corpus):
    s = ss.generate_scenarios(corpus, 1, seed=3)[0]
    assert MixScenario.from_dict(s.to_dict()) == s


@pytest.mark.parametrize(
    "mutate",
    [
        dict(noise_second="hum"),  # same type in both halves
        dict(half_duration_s=-1.0),
        dict(utterances=(UtterancePlacement("a.wav", 9.0, 2.0, 0),)),  # crosses boundary
        dict(
            utterances=(
                UtterancePlacement("a.wav", 1.0, 2.0, 0),
                UtterancePlacement("b.wav", 2.0, 2.0, 0),
            )
        ),  # overlap (and no half-1 coverage)
        dict(utterances=(UtterancePlacement("a.wav", 1.0, 2.0, 0),)),  # half 1 empty
    ],
)
def test_invalid_recipes_are_rejected(mutate):
    base = dict(
        scenario_id="sX",
        speaker="spk1",
        noise_first="hum",
        noise_second="band",
        half_duration_s=10.0,
        utterances=_placements(),
        seed=1,
    )
    base.update(mutate)
    with pytest.raises(ValueError):
        MixScenario(**base)


def test_rendered_components_sum_exactly(corpus):
    s = ss.generate_scenarios(corpus, 1, seed=0)[0]
    r = ss.render_scenario(corpus, s, snr_db=0.0)
    assert r.mixture.dtype == np.float32
    assert np.array_equal(r.mixture, r.speech + r.noise)
    assert len(r.mixture) == int(round(2 * s.half_duration_s * corpus.sample_rate))


@pytest.mark.parametrize("target", [-5.0, 0.0, 10.0])
def test_each_half_hits_requested_snr_over_active_span(corpus, target):
    s = ss.generate_scenarios(corpus, 1, seed=1)[0]
    r = ss.render_scenario(corpus, s, snr_db=target)
    n_half = len(r.mixture) // 2
    for half in (0, 1):
        spans = [(u.start_s, u.end_s) for u in s.utterances if u.half == half]
        mask = spans_to_sample_mask(spans, len(r.mixture), corpus.sample_rate)
        mask[: half * n_half] = False
        mask[(half + 1) * n_half :] = False
        got = snr_db(r.speech[mask].astype(np.float64), r.noise[mask].astype(np.float64))
        assert got == pytest.approx(target, abs=0.05)


def test_rendering_is_byte_deterministic(corpus):
    s = ss.generate_scenarios(corpus, 1, seed=2)[0]
    r1 = ss.render_scenario(corpus, s, snr_db=5.0)
    r2 = ss.render_scenario(corpus, s, snr_db=5.0)
    assert r1.mixture.tobytes() == r2.mixture.tobytes()
