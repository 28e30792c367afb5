"""The ``/v1/batch`` bulk endpoint: caps, validation, bit-identity.

Bulk cells bypass the micro-batch window (straight to columnar
pricing) but must serve exactly the bytes the study pipeline computes.
"""

import pytest

from repro.apps import APPS_BY_NAME
from repro.core.configs import bench_configs
from repro.core.study import GPU_MODELS, run_study
from repro.hardware.specs import Precision
from repro.obs.metrics import parse_prometheus
from repro.serve import ServeConfig, ServerThread

from .conftest import request


def _cell(model: str, platform: str = "dgpu", precision: str = "single") -> dict:
    return {"app": "XSBench", "model": model, "platform": platform,
            "precision": precision, "scale": "bench"}


@pytest.fixture(scope="module")
def xsbench_study():
    return run_study(
        (APPS_BY_NAME["XSBench"],), paper_scale=True, configs=bench_configs()
    )


# -- bit-identity -------------------------------------------------------


def test_batch_is_bit_identical_to_run_study(server, xsbench_study):
    """Every cell of the full matrix — models and the OpenMP baseline —
    priced in one bulk call equals the batch pipeline."""
    cells = []
    for platform in ("apu", "dgpu"):
        for precision in ("single", "double"):
            cells.append(_cell("OpenMP", platform, precision))
            cells.extend(_cell(m, platform, precision) for m in GPU_MODELS)
    status, _headers, doc = request(server, "POST", "/v1/batch", {"cells": cells})
    assert status == 200
    assert doc["count"] == len(cells)
    assert [r["model"] for r in doc["results"]] == [c["model"] for c in cells]
    for cell, served in zip(cells, doc["results"]):
        entry = xsbench_study.get(
            "XSBench",
            cell["model"] if cell["model"] != "OpenMP" else GPU_MODELS[0],
            cell["platform"] == "apu",
            Precision(cell["precision"]),
        )
        if cell["model"] == "OpenMP":
            assert served["seconds"] == entry.baseline_seconds
        else:
            assert served["seconds"] == entry.seconds
            assert served["kernel_seconds"] == entry.kernel_seconds


def test_batch_bypasses_the_micro_batch_window(server):
    status, _headers, _doc = request(
        server, "POST", "/v1/batch",
        {"cells": [_cell(m) for m in GPU_MODELS]},
    )
    assert status == 200
    _status, _headers, text = request(server, "GET", "/metrics")
    samples = parse_prometheus(text)
    assert sum(v for _l, v in samples["repro_serve_bulk_batches_total"]) >= 1


def test_repeated_batch_serves_entirely_from_cache(server):
    body = {"cells": [_cell(m) for m in GPU_MODELS]}
    request(server, "POST", "/v1/batch", body)
    _status, _headers, doc = request(server, "POST", "/v1/batch", body)
    assert doc["served"] == {"cache": len(GPU_MODELS)}
    assert all(r["provenance"] == "cache" for r in doc["results"])


# -- validation ---------------------------------------------------------


def test_malformed_cell_error_names_its_index(server):
    cells = [_cell("OpenCL"), {"app": "XSBench", "model": "NoSuchModel"}]
    status, _headers, doc = request(server, "POST", "/v1/batch", {"cells": cells})
    assert status == 400
    assert "cells[1]" in doc["error"]["message"]


def test_out_of_range_clocks_answer_400_and_the_server_keeps_serving(server):
    """An illegal clock is a client error named with the device's legal
    range, on ``/v1/predict`` and on each ``/v1/batch`` cell — and the
    connection is answered, so the next valid request is served."""
    status, _headers, doc = request(
        server, "POST", "/v1/predict", {**_cell("OpenCL"), "core_mhz": 5000}
    )
    assert status == 400
    assert "legal range [200, 1050] MHz" in doc["error"]["message"]

    # Only one domain overridden: the case that used to drop the
    # connection from the scalar fallback's label.
    cells = [_cell("OpenCL"), {**_cell("OpenACC"), "memory_mhz": 9000}]
    status, _headers, doc = request(server, "POST", "/v1/batch", {"cells": cells})
    assert status == 400
    message = doc["error"]["message"]
    assert message.startswith("cells[1]:")
    assert "memory clock's legal range [480, 1500] MHz" in message

    status, _headers, doc = request(
        server, "POST", "/v1/batch", {"cells": [{**_cell("OpenCL"), "core_mhz": 900}]}
    )
    assert status == 200 and doc["count"] == 1
    status, _headers, _doc = request(server, "POST", "/v1/predict", _cell("OpenCL"))
    assert status == 200


def test_empty_and_non_array_cells_are_rejected(server):
    for body in ({"cells": []}, {"cells": "OpenCL"}, {}, [1, 2]):
        status, _headers, doc = request(server, "POST", "/v1/batch", body)
        assert status == 400, body
        assert "error" in doc


# -- size caps (413) ----------------------------------------------------


def test_batch_over_the_configured_cap_is_413():
    config = ServeConfig(window_s=0.001, max_batch_cells=4)
    with ServerThread(config) as thread:
        cells = [_cell("OpenCL")] * 5
        status, _headers, doc = request(thread, "POST", "/v1/batch", {"cells": cells})
        assert status == 413
        message = doc["error"]["message"]
        assert "limit" in message and "split" in message
        # At the cap is fine.
        status, _h, _d = request(thread, "POST", "/v1/batch", {"cells": cells[:4]})
        assert status == 200


def test_study_over_the_env_cap_is_413(monkeypatch):
    monkeypatch.setenv("REPRO_SERVE_MAX_STUDY_RUNS", "8")
    with ServerThread(ServeConfig(window_s=0.001)) as thread:
        # One app expands to 16 runs (4 cells x 1 baseline + 3 models).
        status, _headers, doc = request(
            thread, "POST", "/v1/study", {"apps": ["XSBench"], "scale": "bench"}
        )
        assert status == 413
        assert "16" in doc["error"]["message"] and "8" in doc["error"]["message"]


def test_config_cap_beats_the_protocol_default():
    config = ServeConfig(window_s=0.001, max_study_runs=16)
    with ServerThread(config) as thread:
        status, _h, _d = request(
            thread, "POST", "/v1/study", {"apps": ["XSBench"], "scale": "bench"}
        )
        assert status == 200  # exactly at the cap
        status, _h, doc = request(
            thread, "POST", "/v1/study",
            {"apps": ["XSBench", "LULESH"], "scale": "bench"},
        )
        assert status == 413


# -- engine routing ------------------------------------------------------


def _metric_total(parsed: dict, name: str) -> float:
    return sum(value for _labels, value in parsed.get(name, []))


def test_bench_presets_price_without_the_scalar_engine():
    """One ``/v1/batch`` of every bench-preset cell, Heterogeneous
    Compute's included, is priced columnar: no engine run at all."""
    from repro.serve.warmup import preset_specs

    specs = preset_specs(("bench",))
    cells = [
        {"app": s.app, "model": s.model, "platform": s.platform,
         "precision": s.precision.value}
        for s in specs
    ]
    assert len(cells) == 210
    assert any(cell["model"] == "Heterogeneous Compute" for cell in cells)
    with ServerThread(ServeConfig(window_s=0.001)) as thread:
        status, _headers, doc = request(thread, "POST", "/v1/batch", {"cells": cells})
        assert status == 200 and doc["count"] == 210
        _status, _headers, text = request(thread, "GET", "/metrics")
    parsed = parse_prometheus(text)
    assert _metric_total(parsed, "repro_serve_engine_runs_total") == 0
    assert _metric_total(parsed, "repro_serve_columnar_specs_total") == 210


def test_hc_cells_fall_back_to_the_ladder_when_columnar_raises(monkeypatch):
    """With the columnar call broken, HC cells are still answered, by
    the scalar retry ladder, with the bits the columnar path prices."""
    import repro.engine.study_vec as study_vec

    cells = [
        {**_cell("Heterogeneous Compute", platform, precision)}
        for platform in ("apu", "dgpu", "v100")
        for precision in ("single", "double")
    ]
    with ServerThread(ServeConfig(window_s=0.001)) as thread:
        _status, _headers, expected = request(thread, "POST", "/v1/batch", {"cells": cells})

    def boom(specs):
        raise RuntimeError("injected columnar failure")

    monkeypatch.setattr(study_vec, "price_specs", boom)
    from repro.engine import memo

    memo.RESULT_CACHE.clear()
    with ServerThread(ServeConfig(window_s=0.001)) as thread:
        status, _headers, doc = request(thread, "POST", "/v1/batch", {"cells": cells})
        _status, _headers, text = request(thread, "GET", "/metrics")
    assert status == 200
    assert [r["seconds"] for r in doc["results"]] == [
        r["seconds"] for r in expected["results"]
    ]
    parsed = parse_prometheus(text)
    assert _metric_total(parsed, "repro_serve_engine_runs_total") == len(cells)
    assert _metric_total(parsed, "repro_serve_columnar_specs_total") == 0
