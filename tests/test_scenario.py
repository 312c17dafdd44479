import json
import re

import numpy as np
import pytest

import sparsescene as ss
from sparsescene.metrics import snr_db, spans_to_sample_mask
from sparsescene.scenario import MixScenario, UtterancePlacement, segment_bounds


def _placements():
    return (
        UtterancePlacement("spk1/utt09.wav", 1.0, 2.0),
        UtterancePlacement("spk1/utt10.wav", 12.0, 2.5),
    )


def _three_segments(corpus):
    """A scene the generator does not make: three unequal segments, the first noise again last."""
    starts = {"spk1/utt10.wav": 0.5, "spk1/utt11.wav": 4.0, "spk1/utt12.wav": 8.0}
    utterances = tuple(
        UtterancePlacement(name, start, len(corpus.load_utterance(name)) / corpus.sample_rate)
        for name, start in starts.items()
    )
    segments = ((3.0, "hum"), (4.5, "band"), (3.5, "hum"))
    return MixScenario("s3seg", "spk1", segments, utterances, seed=5)


def _in_segment(scenario, lo, hi):
    return [u for u in scenario.utterances if lo <= u.start_s and u.end_s <= hi]


def test_generated_scenarios_satisfy_invariants(corpus):
    scenarios = ss.generate_scenarios(corpus, 8, seed=0)
    assert [s.scenario_id for s in scenarios] == [f"s{i:04d}" for i in range(8)]
    for s in scenarios:
        assert [duration for duration, _ in s.segments] == [10.0, 10.0]
        assert [noise for _, noise in s.segments] == [s.noise_first, s.noise_second]
        assert s.noise_first != s.noise_second
        assert s.transition_s == 10.0
        assert s.speaker in corpus.speakers
        bounds = segment_bounds(s.segments)
        assert bounds == [(0.0, 10.0), (10.0, 20.0)]
        # every utterance lies inside one segment, and each segment holds one at least
        assert all(_in_segment(s, lo, hi) for lo, hi in bounds)
        assert sum(len(_in_segment(s, lo, hi)) for lo, hi in bounds) == len(s.utterances)
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
    # through JSON, as scenarios.json stores it: the segment pairs come back as lists
    for s in (ss.generate_scenarios(corpus, 1, seed=3)[0], _three_segments(corpus)):
        d = json.loads(json.dumps(s.to_dict()))
        assert d["segments"][0] == [s.segments[0][0], s.noise_first]
        assert MixScenario.from_dict(d) == s


@pytest.mark.parametrize(
    "mutate",
    [
        dict(segments=((10.0, "hum"), (10.0, "hum"))),  # same type in adjacent segments
        dict(segments=((-1.0, "hum"), (-1.0, "band"))),
        dict(utterances=(UtterancePlacement("a.wav", 9.0, 2.0),)),  # crosses a segment edge
        dict(
            utterances=(
                UtterancePlacement("a.wav", 1.0, 2.0),
                UtterancePlacement("b.wav", 2.0, 2.0),
            )
        ),  # overlap (and nothing in segment 1)
        dict(utterances=(UtterancePlacement("a.wav", 1.0, 2.0),)),  # segment 1 empty
        dict(segments=((10.0, "hum"), (0.0, "band"))),
        dict(segments=((10.0, "hum"), (float("inf"), "band"))),
        dict(segments=((float("nan"), "hum"), (10.0, "band"))),
        dict(segments=((10.0, "hum"), (10.0, ""))),
        dict(segments=()),
        dict(utterances=(UtterancePlacement("a.wav", 1.0, 0.0), _placements()[1])),
    ],
)
def test_invalid_recipes_are_rejected(mutate):
    base = dict(
        scenario_id="sX",
        speaker="spk1",
        segments=((10.0, "hum"), (10.0, "band")),
        utterances=_placements(),
        seed=1,
    )
    MixScenario(**base)
    base.update(mutate)
    with pytest.raises(ValueError):
        MixScenario(**base)


@pytest.mark.parametrize("half", [float("inf"), float("nan"), 0.0, -1.0])
def test_a_non_finite_or_non_positive_half_is_a_data_error(corpus, half):
    message = f"half_duration_s must be finite and positive, not {half}"
    with pytest.raises(ss.DataError, match=re.escape(message)):
        ss.generate_scenarios(corpus, 1, half_duration_s=half)


def test_rendered_components_sum_exactly(corpus):
    s = ss.generate_scenarios(corpus, 1, seed=0)[0]
    r = ss.render_scenario(corpus, s, snr_db=0.0)
    assert r.mixture.dtype == np.float32
    assert np.array_equal(r.mixture, r.speech + r.noise)
    assert len(r.mixture) == 2 * int(round(s.transition_s * corpus.sample_rate))


@pytest.mark.parametrize(
    "scene, target",
    [pytest.param("generated", t, id=str(t)) for t in (-5.0, 0.0, 10.0)]
    + [pytest.param("three_segments", t, id=f"three_segments-{t}") for t in (-5.0, 0.0, 10.0)],
)
def test_each_half_hits_requested_snr_over_active_span(corpus, scene, target):
    if scene == "generated":
        s = ss.generate_scenarios(corpus, 1, seed=1)[0]
    else:
        s = _three_segments(corpus)
    r = ss.render_scenario(corpus, s, snr_db=target)
    sr = corpus.sample_rate
    bounds = segment_bounds(s.segments)
    assert len(r.mixture) == int(round(bounds[-1][1] * sr))
    for lo, hi in bounds:
        spans = [(u.start_s, u.end_s) for u in _in_segment(s, lo, hi)]
        mask = spans_to_sample_mask(spans, len(r.mixture), sr)
        mask[: int(round(lo * sr))] = False
        mask[int(round(hi * sr)) :] = False
        got = snr_db(r.speech[mask].astype(np.float64), r.noise[mask].astype(np.float64))
        assert got == pytest.approx(target, abs=0.05)


def test_rendering_is_byte_deterministic(corpus):
    s = ss.generate_scenarios(corpus, 1, seed=2)[0]
    r1 = ss.render_scenario(corpus, s, snr_db=5.0)
    r2 = ss.render_scenario(corpus, s, snr_db=5.0)
    assert r1.mixture.tobytes() == r2.mixture.tobytes()


@pytest.mark.parametrize("snr", [4000.0, -4000.0, -800.0, 1e6])
def test_an_snr_the_float32_mixture_cannot_hold_is_a_data_error(corpus, snr):
    scenario = ss.generate_scenarios(corpus, 1, seed=0, half_duration_s=4.0)[0]
    with pytest.raises(ss.DataError, match=f"snr_db {snr} cannot be rendered"):
        ss.render_scenario(corpus, scenario, snr)
