"""Heterogeneous Compute's two-stream clock, replayed from a capture.

Each scenario of ``test_hc_async.py`` runs twice: on :class:`HCRuntime`
directly (the scalar clock), and as a schedule capture priced by the
columnar engine, which replays the recorded stream ops
(:func:`repro.models.hc.replay`).  The two must agree bit for bit.
"""

import numpy as np
import pytest

from repro.apps import APPS_BY_NAME
from repro.apps.base import make_result
from repro.core.configs import sweep_configs
from repro.engine import memo
from repro.engine.kernel import AccessKind, AccessPattern, KernelSpec, OpCount
from repro.engine.study_vec import capture_program, price_cell
from repro.exec.plan import APU, DGPU, PLATFORMS, RunSpec
from repro.hardware.device import platform_for
from repro.hardware.specs import Precision
from repro.models.base import ExecutionContext
from repro.models.hc import HCRuntime

HC = "Heterogeneous Compute"
N = 1 << 20


def chunk_spec(n):
    return KernelSpec(
        name="hc.chunk", work_items=n,
        ops=OpCount(flops=900.0 * n, bytes_read=4.0 * n, bytes_written=4.0 * n),
        access=AccessPattern(kind=AccessKind.STREAMING, working_set_bytes=8.0 * n),
        instructions_per_item=900.0,
    )


def noop(*args):
    pass


def sync_copies_serialize(hc):
    a, b = np.ones(N, np.float32), np.ones(N, np.float32)
    hc.copy_to_device(a)
    hc.copy_to_device(b)
    hc.launch(noop, chunk_spec(N), arrays=[a, b, a])
    hc.copy_to_host(b)
    return hc.simulated_seconds


def async_copy_overlaps_compute(hc):
    chunks = [np.ones(N, np.float32) for _ in range(8)]
    hc.async_copy_to_device(chunks[0])
    for i, chunk in enumerate(chunks):
        if i + 1 < len(chunks):
            hc.async_copy_to_device(chunks[i + 1])
        hc.launch(noop, chunk_spec(N), arrays=[chunk])
    return hc.finish()


def launch_waits_for_late_input(hc):
    out = np.zeros(64, np.float32)
    data = np.ones(4 * N, np.float32)
    hc.device_alloc(out)
    hc.async_copy_to_device(data)
    hc.launch(noop, chunk_spec(64), arrays=[out])
    hc.launch(noop, chunk_spec(64), arrays=[out, data])
    return hc.finish()


def device_alloc_resets_a_slot(hc):
    data = np.ones(4 * N, np.float32)
    hc.async_copy_to_device(data)
    hc.device_alloc(data)
    hc.launch(noop, chunk_spec(64), arrays=[data])
    return hc.simulated_seconds


def finish_joins_the_streams(hc):
    data = np.ones(4 * N, np.float32)
    out = np.zeros(64, np.float32)
    hc.device_alloc(out)
    hc.async_copy_to_device(data)
    hc.finish()
    hc.launch(noop, chunk_spec(64), arrays=[out])
    return hc.finish()


SCENARIOS = [
    sync_copies_serialize,
    async_copy_overlaps_compute,
    launch_waits_for_late_input,
    device_alloc_resets_a_slot,
    finish_joins_the_streams,
]


def run_both(scenario, platform, monkeypatch):
    """``(scalar, columnar)`` results of one scenario on one platform."""

    def port(ctx, config):
        seconds = scenario(HCRuntime(ctx))
        return make_result("read-benchmark", ctx, HC, seconds, lambda: 0.0)

    monkeypatch.setitem(APPS_BY_NAME["read-benchmark"].ports, HC, port)
    spec = RunSpec(
        "read-benchmark", HC, platform, Precision.SINGLE, sweep_configs()["read-benchmark"]
    )
    memo.clear_caches()
    ctx = ExecutionContext(
        platform=platform_for(platform), precision=Precision.SINGLE, execute_kernels=False
    )
    scalar = port(ctx, spec.config)
    columnar = price_cell(capture_program(spec), spec)
    memo.clear_caches()
    return scalar, columnar


@pytest.mark.parametrize("platform", PLATFORMS)
@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda f: f.__name__)
def test_replay_is_bit_identical(scenario, platform, monkeypatch):
    scalar, columnar = run_both(scenario, platform, monkeypatch)
    assert columnar.seconds == scalar.seconds
    assert columnar.kernel_seconds == scalar.kernel_seconds
    assert columnar.joules == scalar.joules
    assert vars(columnar.counters) == vars(scalar.counters)
    assert columnar.seconds > 0


def test_replay_keeps_the_overlap(monkeypatch):
    """The replayed makespan of the double-buffered pipeline is below
    the sum of its copies and kernels: the streams overlap."""
    _scalar, columnar = run_both(async_copy_overlaps_compute, DGPU, monkeypatch)
    counters = columnar.counters
    serial = counters.transfer_seconds + counters.kernel_seconds
    assert columnar.seconds < 0.75 * serial


def test_replay_waits_and_resets(monkeypatch):
    """A launch waits for its late input; after ``device_alloc`` the
    same array is ready at once; a mid-run ``finish`` holds the next
    launch until the copy stream drains."""
    late, _ = run_both(launch_waits_for_late_input, DGPU, monkeypatch)
    reset, _ = run_both(device_alloc_resets_a_slot, DGPU, monkeypatch)
    joined, _ = run_both(finish_joins_the_streams, DGPU, monkeypatch)
    copy = late.counters.transfer_seconds
    assert late.seconds > copy  # the second launch ran after the upload
    assert reset.seconds == reset.counters.transfer_seconds  # kernel hid under it
    assert joined.seconds > joined.counters.transfer_seconds


def test_unified_memory_moves_nothing(monkeypatch):
    scalar, columnar = run_both(async_copy_overlaps_compute, APU, monkeypatch)
    assert columnar.counters.transfers == scalar.counters.transfers == 0
    assert columnar.counters.bytes_to_device == 0
    assert columnar.seconds == scalar.seconds
