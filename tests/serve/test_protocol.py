"""Schema validation and RunSpec translation of the wire protocol."""

import pytest

from repro.core.configs import bench_configs, sweep_configs
from repro.exec.plan import study_runs
from repro.hardware.specs import Precision
from repro.serve import MAX_STUDY_RUNS, PredictRequest, ProtocolError, StudyRequest

PREDICT_DOC = {
    "app": "XSBench",
    "model": "OpenCL",
    "platform": "apu",
    "precision": "single",
}


def test_predict_parses_and_normalizes_case():
    request = PredictRequest.from_json({
        "app": "xsbench", "model": "opencl", "platform": "APU",
        "precision": "SINGLE", "scale": "BENCH",
    })
    assert request.app == "XSBench"
    assert request.model == "OpenCL"
    assert request.platform == "apu"
    assert request.precision is Precision.SINGLE
    assert request.scale == "bench"


@pytest.mark.parametrize("mutation, message", [
    ({"app": "NotAnApp"}, "unknown app"),
    ({"model": "CUDA"}, "no 'CUDA' port"),
    ({"platform": "tpu"}, "'platform'"),
    ({"precision": "half"}, "'precision'"),
    ({"scale": "huge"}, "'scale'"),
    ({"core_mhz": -1}, "positive frequency"),
    ({"core_mhz": True}, "positive frequency"),
    ({"app": None}, "missing required field"),
    ({"core_mhz": 5000}, r"'core_mhz': 5000 MHz is outside the apu core clock's "
                         r"legal range \[200, 720\] MHz"),
    ({"memory_mhz": 100}, r"outside the apu memory clock's legal range \[333, 1066\]"),
])
def test_predict_rejects_bad_fields(mutation, message):
    doc = {**PREDICT_DOC, **mutation}
    with pytest.raises(ProtocolError, match=message):
        PredictRequest.from_json(doc)


def test_predict_rejects_non_object_body():
    with pytest.raises(ProtocolError, match="JSON object"):
        PredictRequest.from_json([1, 2, 3])


def test_predict_specs_match_study_runs():
    """The HTTP query builds the exact RunSpecs the batch planner builds."""
    request = PredictRequest.from_json(PREDICT_DOC)
    baseline, model = request.specs()
    planned = study_runs(
        app_names=["XSBench"],
        configs={"XSBench": bench_configs()["XSBench"]},
        apu_values=[True],
        precisions=[Precision.SINGLE],
        models=["OpenCL"],
        baseline="OpenMP",
        projection=True,
    )
    assert baseline.content_key() == planned[0].content_key()
    assert model.content_key() == planned[1].content_key()


def test_predict_baseline_ignores_clock_overrides():
    """Clock overrides apply to the queried model, never the baseline."""
    request = PredictRequest.from_json({**PREDICT_DOC, "core_mhz": 500})
    baseline, model = request.specs()
    plain_baseline, _ = PredictRequest.from_json(PREDICT_DOC).specs()
    assert baseline.content_key() == plain_baseline.content_key()
    assert model.core_mhz == 500.0


def test_predict_scale_presets_resolve_distinct_configs():
    keys = set()
    for scale in ("bench", "paper", "sweep"):
        _, model = PredictRequest.from_json({**PREDICT_DOC, "scale": scale}).specs()
        keys.add(model.content_key())
    assert len(keys) == 3


def test_sweep_scale_uses_sweep_configs():
    _, model = PredictRequest.from_json({**PREDICT_DOC, "scale": "sweep"}).specs()
    assert model.config == sweep_configs()["XSBench"]


def test_study_defaults_to_full_matrix():
    request = StudyRequest.from_json({})
    assert len(request.apps) >= 4
    assert request.compared_models == ("OpenCL", "C++ AMP", "OpenACC")
    assert request.platforms == ("apu", "dgpu")
    assert len(request.precisions) == 2
    runs = request.runs()
    assert 0 < len(runs) <= MAX_STUDY_RUNS


def test_study_narrows_and_caps():
    request = StudyRequest.from_json({
        "apps": ["XSBench"], "models": ["OpenMP", "OpenCL"],
        "platforms": ["apu"], "precisions": ["single"],
    })
    # Baseline always runs; it is not a compared model.
    assert request.compared_models == ("OpenCL",)
    assert len(request.runs()) == 2  # baseline + OpenCL


def test_study_rejects_empty_arrays():
    with pytest.raises(ProtocolError, match="non-empty array"):
        StudyRequest.from_json({"apps": []})


def test_study_run_cap_is_enforced():
    # The default (paper proxy apps) matrix sits exactly at the cap;
    # adding a fifth app overflows it.
    assert len(StudyRequest.from_json({}).runs()) == MAX_STUDY_RUNS
    with pytest.raises(ProtocolError, match="per-request limit"):
        StudyRequest.from_json({
            "apps": ["read-benchmark", "XSBench", "LULESH", "CoMD", "miniFE"],
        })
