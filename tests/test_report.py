import math

import pytest

from sparsescene import report
from sparsescene.regimes import RunResult


def _row(**overrides):
    base = {
        "schema_version": report.SCHEMA_VERSION,
        "run_key": "k0",
        "scenario_id": "s0000",
        "regime": "complete",
        "method": "kmeans",
        "snr_nominal_db": 0.0,
        "speaker_true": "spk1",
        "noise_first_true": "hum",
        "noise_second_true": "band",
        "transition_true_s": 10.0,
        "speaker_pred": "spk1",
        "speaker_rank": ["spk1", "spk2", "spk3", "spk4"],
        "speaker_correct": True,
        "speaker_top3_correct": True,
        "noise_first_pred": "hum",
        "noise_second_pred": "band",
        "noise_correct": True,
        "transition_pred_s": 10.25,
        "transition_abs_error_s": 0.25,
        "input_snr_db": 0.01,
        "sdr_db": 8.0,
        "sdr_gain_db": 7.99,
        "est_snr_db": 1.0,
        "snr_error_db": 0.99,
        "vad_rates": {"2": [0.0, 12.5]},
        "failure_stage": None,
        "error": None,
    }
    base.update(overrides)
    return base


def test_format_row_uses_stable_text_forms():
    text = report.format_row(_row())
    assert list(text) == report.ROW_COLUMNS
    assert text["snr_nominal_db"] == "0.000000"
    assert text["speaker_correct"] == "true"
    assert text["speaker_rank"] == "spk1|spk2|spk3|spk4"
    assert text["vad_rates"] == '{"2":[0.0,12.5]}'
    assert text["failure_stage"] == ""
    assert text["error"] == ""


def test_csv_bytes_are_deterministic(tmp_path):
    rows = [_row(), _row(run_key="k1", scenario_id="s0001", sdr_db=7.5)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    report.write_csv(rows, p1)
    report.write_csv([dict(r) for r in rows], p2)
    data = p1.read_bytes()
    assert data == p2.read_bytes()
    assert data.startswith(b"schema_version,run_key,scenario_id")
    assert b"\r" not in data


def test_aggregate_accuracy_is_mean_of_row_booleans():
    rows = [
        _row(run_key="k0", noise_correct=True, speaker_correct=True),
        _row(run_key="k1", scenario_id="s0001", noise_correct=False, speaker_correct=True),
        _row(run_key="k2", scenario_id="s0002", noise_correct=True, speaker_correct=False),
        _row(run_key="k3", scenario_id="s0003", noise_correct=None),  # not applicable
    ]
    agg = report.aggregate_rows(rows)
    cell = agg["accuracy_by_method"]["kmeans"]["complete"]
    assert cell["n"] == 4
    assert cell["noise_accuracy"] == pytest.approx(2 / 3)
    assert cell["speaker_top1_accuracy"] == pytest.approx(3 / 4)
    tcell = agg["transition_error_by_method"]["kmeans"]["complete"]
    assert tcell["mean_abs_error_s"] == pytest.approx(0.25)
    scell = agg["separation_by_regime"]["complete"]["kmeans"]
    assert scell["mean_sdr_db"] == pytest.approx(8.0)
    assert scell["mean_abs_snr_error_db"] == pytest.approx(0.99)


def test_aggregate_deduplicates_detector_rates_per_mixture():
    # Same mixture evaluated under two regimes: its detector rates must be
    # counted once, not averaged twice.
    rows = [
        _row(run_key="k0", regime="complete", vad_rates={"2": [0.0, 10.0]}),
        _row(run_key="k1", regime="ground_truth", vad_rates={"2": [0.0, 10.0]}),
        _row(
            run_key="k2",
            scenario_id="s0001",
            vad_rates={"2": [100.0, 30.0], "3": [50.0, 0.0]},
        ),
    ]
    agg = report.aggregate_rows(rows)
    vad = agg["vad_rates_by_k"]
    assert vad["2"]["n"] == 2
    assert vad["2"]["mean_miss_rate_pct"] == pytest.approx(50.0)
    assert vad["2"]["mean_false_alarm_rate_pct"] == pytest.approx(20.0)
    assert vad["3"]["n"] == 1


def test_failed_rows_are_counted_but_excluded_from_statistics():
    rows = [
        _row(run_key="k0"),
        _row(run_key="k1", scenario_id="s0001", failure_stage="separation", error="boom"),
    ]
    agg = report.aggregate_rows(rows)
    assert agg["n_rows"] == 2
    assert agg["n_failed"] == 1
    assert agg["accuracy_by_method"]["kmeans"]["complete"]["n"] == 1


def test_nonfinite_floats_become_empty_cells():
    row = _row(sdr_db=math.inf)
    # result_to_json is what storage uses; format_row is what the CSV uses.
    assert report._fmt(report._clean(row["sdr_db"])) == ""
    text = report.format_row({**row, "sdr_db": report._clean(row["sdr_db"])})
    assert text["sdr_db"] == ""


def test_write_aggregate_round_trips(tmp_path):
    import json

    rows = [_row()]
    path = tmp_path / "aggregate.json"
    returned = report.write_aggregate(rows, path)
    on_disk = json.loads(path.read_text())
    assert on_disk == returned
    assert on_disk["schema_version"] == report.SCHEMA_VERSION


def test_result_to_json_cleans_and_normalises_values():
    result = RunResult(
        scenario_id="s0007",
        regime="complete",
        method="kmeans",
        snr_nominal_db=5.0,
        speaker_true="spk2",
        noise_first_true="hum",
        noise_second_true="band",
        transition_true_s=6.0,
        speaker_pred="spk2",
        speaker_rank=("spk2", "spk1", "spk3"),
        speaker_correct=True,
        speaker_top3_correct=True,
        noise_first_pred="hum",
        noise_second_pred="am",
        noise_correct=False,
        transition_pred_s=6.25,
        transition_abs_error_s=0.25,
        input_snr_db=5.0,
        sdr_db=math.inf,
        sdr_gain_db=math.inf,
        est_snr_db=math.nan,
        snr_error_db=math.nan,
        vad_rates={3: (12.5, math.nan), 2: (0.0, 25.0)},
    )
    row = report.result_to_json(result, "abc")
    assert row == {
        "schema_version": 1,
        "run_key": "abc",
        "scenario_id": "s0007",
        "regime": "complete",
        "method": "kmeans",
        "snr_nominal_db": 5.0,
        "speaker_true": "spk2",
        "noise_first_true": "hum",
        "noise_second_true": "band",
        "transition_true_s": 6.0,
        "speaker_pred": "spk2",
        "speaker_rank": ["spk2", "spk1", "spk3"],
        "speaker_correct": True,
        "speaker_top3_correct": True,
        "noise_first_pred": "hum",
        "noise_second_pred": "am",
        "noise_correct": False,
        "transition_pred_s": 6.25,
        "transition_abs_error_s": 0.25,
        "input_snr_db": 5.0,
        "sdr_db": None,
        "sdr_gain_db": None,
        "est_snr_db": None,
        "snr_error_db": None,
        "vad_rates": {"2": [0.0, 25.0], "3": [12.5, None]},
        "failure_stage": None,
        "error": None,
    }
    assert list(row["vad_rates"]) == ["2", "3"]


def test_report_columns_keep_their_order(tmp_path):
    path = tmp_path / "report.csv"
    report.write_csv([], path)
    assert path.read_text() == (
        "schema_version,run_key,scenario_id,regime,method,snr_nominal_db,"
        "speaker_true,noise_first_true,noise_second_true,transition_true_s,"
        "speaker_pred,speaker_rank,speaker_correct,speaker_top3_correct,"
        "noise_first_pred,noise_second_pred,noise_correct,transition_pred_s,"
        "transition_abs_error_s,input_snr_db,sdr_db,sdr_gain_db,est_snr_db,"
        "snr_error_db,vad_rates,failure_stage,error\n"
    )


def test_a_write_that_fails_part_way_keeps_the_previous_file_whole(tmp_path, monkeypatch):
    rows = [_row(), _row(run_key="k1", scenario_id="s0001")]
    csv_path, agg_path = tmp_path / "report.csv", tmp_path / "aggregate.json"
    report.write_csv(rows, csv_path)
    report.write_aggregate(rows, agg_path)
    before = csv_path.read_bytes(), agg_path.read_bytes()

    format_row = report.format_row
    formatted = []

    def fail_on_the_second_row(row):
        formatted.append(row)
        if len(formatted) == 2:
            raise RuntimeError("disk gone")
        return format_row(row)

    monkeypatch.setattr(report, "format_row", fail_on_the_second_row)
    monkeypatch.setattr(report, "aggregate_rows", lambda rows: {"n_rows": object()})
    with pytest.raises(RuntimeError, match="disk gone"):
        report.write_csv(rows, csv_path)
    with pytest.raises(TypeError, match="not JSON serializable"):
        report.write_aggregate(rows, agg_path)
    assert (csv_path.read_bytes(), agg_path.read_bytes()) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["aggregate.json", "report.csv"]
