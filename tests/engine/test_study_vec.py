"""Differential tests: the columnar study engine vs the scalar oracle.

The acceptance property of :mod:`repro.engine.study_vec` is *bit*
identity: the lowered spec-lattice pricing must reproduce the scalar
executor's results exactly — seconds, every counter, every kernel
record — with ``==``, no tolerance.  These tests run the full study
matrix (every model, Heterogeneous Compute's two-stream replay
included, plus a functional cell the columnar engine must delegate)
through both engines from cold caches and compare everything
observable, then probe the seams: quarantine
holes, clock-override sweeps, the batched pricers, capture memoization,
the projection-stub cache, the shape-only stubs themselves and the
loop-compressed capture of LULESH and miniFE.
"""

import dataclasses
import gc
import random

import numpy as np
import pytest

from repro.apps import ALL_APPS, APPS_BY_NAME
from repro.apps.lulesh import LuleshConfig
from repro.core.configs import bench_configs, sweep_configs
from repro.core.study import run_study
from repro.engine import memo, study_vec
from repro.engine.study_vec import (
    VECTOR_MODELS,
    Recording,
    StreamProgram,
    capture_program,
    execute_vector,
    price_specs,
    splice_loop,
    vector_eligible,
)
from repro.engine.timing import time_cpu_kernel, time_gpu_kernel
from repro.engine.timing_vec import time_cpu_kernel_batch, time_gpu_kernel_batch
from repro.exec.executor import execute, execute_with_engine
from repro.exec.plan import DGPU, PLATFORMS, RunSpec, study_runs, sweep_runs
from repro.exec.retry import RetryPolicy
from repro.hardware.device import make_platform
from repro.hardware.specs import Precision
from repro.models import hc

#: Every model of the comparison: Serial and the GPU models fold their
#: charges, Heterogeneous Compute replays its copy and compute streams.
ALL_MODELS = ("Serial", "OpenCL", "C++ AMP", "OpenACC", "Heterogeneous Compute")

#: Every numeric field of :class:`repro.engine.counters.PerfCounters`.
COUNTER_FIELDS = (
    "kernel_seconds",
    "transfer_seconds",
    "host_seconds",
    "launch_overhead_seconds",
    "instructions",
    "cycles",
    "flops",
    "dram_bytes",
    "bytes_to_device",
    "bytes_to_host",
    "kernel_launches",
    "transfers",
    "kernel_joules",
    "transfer_joules",
)


def full_matrix():
    """The whole-study matrix at sweep sizes: 5 apps x 2 platforms x
    2 precisions x (OpenMP baseline + 5 models) = 120 cells."""
    return study_runs(
        app_names=[app.name for app in ALL_APPS],
        configs=dict(sweep_configs()),
        apu_values=(True, False),
        precisions=(Precision.SINGLE, Precision.DOUBLE),
        models=ALL_MODELS,
        baseline="OpenMP",
        projection=True,
    )


def result_fingerprint(result):
    """Every observable field of one run result, exactly."""
    return {
        "app": result.app,
        "model": result.model,
        "platform": result.platform,
        "precision": result.precision,
        "seconds": result.seconds,
        "kernel_seconds": result.kernel_seconds,
        "checksum": result.checksum,
        "joules": result.joules,
        "counters": {
            name: getattr(result.counters, name) for name in COUNTER_FIELDS
        },
        "kernels": [vars(record) for record in result.counters.kernels],
    }


def outcome_fingerprint(outcome):
    fp = result_fingerprint(outcome.result)
    fp["label"] = outcome.spec.label
    return fp


#: A functional cell: it runs the kernel bodies, so the vector engine
#: must hand it to the scalar executor.
FUNCTIONAL_CELL = RunSpec(
    "read-benchmark", "OpenCL", DGPU, Precision.SINGLE,
    sweep_configs()["read-benchmark"], projection=False,
)


@pytest.fixture(scope="module")
def matrix_pair():
    """The full matrix plus one functional cell through both engines,
    each from cold caches."""
    runs = full_matrix() + [FUNCTIONAL_CELL]
    memo.clear_caches()
    scalar = execute(runs)
    memo.clear_caches()
    vector = execute_vector(runs)
    memo.clear_caches()
    return runs, scalar, vector


def test_full_matrix_bit_identical(matrix_pair):
    runs, (scalar_outcomes, scalar_stats), (vector_outcomes, vector_stats) = matrix_pair
    assert len(scalar_outcomes) == len(vector_outcomes) == len(runs)
    assert not scalar_stats.failures and not vector_stats.failures
    for spec, left, right in zip(runs, scalar_outcomes, vector_outcomes):
        assert outcome_fingerprint(left) == outcome_fingerprint(right), spec.label


def test_matrix_covers_both_engine_paths(matrix_pair):
    """The fixture matrix genuinely exercises the columnar fold, the
    two-stream replay *and* the scalar delegation tail."""
    runs, _scalar, _vector = matrix_pair
    assert any(vector_eligible(spec) for spec in runs)
    assert [spec for spec in runs if not vector_eligible(spec)] == [FUNCTIONAL_CELL]
    assert any(
        spec.model == "Heterogeneous Compute" and vector_eligible(spec) for spec in runs
    )


def test_run_study_engines_agree_end_to_end():
    """Whole-pipeline check: entries, speedups and breakdown inputs of
    ``run_study`` match field-for-field across engines."""
    apps = (APPS_BY_NAME["read-benchmark"], APPS_BY_NAME["LULESH"])
    memo.clear_caches()
    scalar = run_study(apps, configs=dict(sweep_configs()), engine="scalar")
    memo.clear_caches()
    vector = run_study(apps, configs=dict(sweep_configs()), engine="vector")
    assert [entry.__dict__ for entry in vector.entries] == [
        entry.__dict__ for entry in scalar.entries
    ]
    for entry in scalar.entries:
        twin = vector.get(entry.app, entry.model, entry.apu, entry.precision)
        assert twin.speedup == entry.speedup
        assert twin.kernel_speedup == entry.kernel_speedup


def test_one_capture_per_schedule_signature():
    """An entire eligible matrix costs one port capture per distinct
    schedule signature — the lowering's whole point."""
    runs = [spec for spec in full_matrix() if vector_eligible(spec)]
    memo.clear_caches()
    execute_vector(runs)
    assert memo.PLAN_CACHE.snapshot().misses == len(
        {spec.schedule_key() for spec in runs}
    )


def test_scalar_engine_served_by_vector_cache():
    """Columnar pricing stores under the scalar keys: a scalar rerun
    over a vector-warmed cache misses nothing and agrees exactly."""
    runs = [spec for spec in full_matrix() if vector_eligible(spec)]
    memo.clear_caches()
    vector_outcomes, _ = execute_vector(runs)
    before = memo.KERNEL_CACHE.snapshot()
    scalar_outcomes, _ = execute(runs)
    delta = memo.KERNEL_CACHE.snapshot().since(before)
    assert delta.misses == 0
    assert delta.hits > 0
    for left, right in zip(vector_outcomes, scalar_outcomes):
        assert outcome_fingerprint(left) == outcome_fingerprint(right)
    memo.clear_caches()


def test_sweep_clock_overrides_share_one_capture():
    """Frequency-sweep cells differ only in clock overrides: the whole
    grid prices from one capture, bit-identical to scalar simulation."""
    config = sweep_configs()["XSBench"]
    runs = sweep_runs(
        "XSBench", config, Precision.SINGLE, (300.0, 547.0, 1000.0), (600.0, 1250.0), "OpenCL"
    )
    memo.clear_caches()
    scalar_outcomes, _ = execute(runs)
    memo.clear_caches()
    vector_outcomes, _ = execute_vector(runs)
    assert memo.PLAN_CACHE.snapshot().misses == 1
    for spec, left, right in zip(runs, scalar_outcomes, vector_outcomes):
        assert outcome_fingerprint(left) == outcome_fingerprint(right), spec.label
    # Distinct clock points must actually price differently (otherwise
    # the overrides were silently dropped somewhere).
    seconds = {o.result.seconds for o in vector_outcomes}
    assert len(seconds) == len(runs)
    memo.clear_caches()


def test_quarantine_holes_match_scalar(monkeypatch):
    """A port that dies leaves the same holes either way: capture
    failure falls back to the scalar ladder, the ladder fails too, and
    the study reassembles around the ``None`` slots without raising."""

    def boom(ctx, config):
        raise RuntimeError("injected port failure")

    monkeypatch.setitem(APPS_BY_NAME["XSBench"].ports, "OpenCL", boom)
    apps = (APPS_BY_NAME["read-benchmark"], APPS_BY_NAME["XSBench"])
    policy = RetryPolicy(max_attempts=1)
    results = {}
    for engine in ("scalar", "vector"):
        memo.clear_caches()
        results[engine] = run_study(
            apps,
            configs=dict(sweep_configs()),
            models=("OpenCL", "OpenACC"),
            policy=policy,
            engine=engine,
        )
    scalar, vector = results["scalar"], results["vector"]
    assert not scalar.complete and not vector.complete
    assert [entry.__dict__ for entry in vector.entries] == [
        entry.__dict__ for entry in scalar.entries
    ]
    # Every surviving XSBench entry is OpenACC; the OpenCL cells are holes.
    assert all(
        entry.model == "OpenACC" for entry in vector.entries if entry.app == "XSBench"
    )
    assert {(f.label, f.kind, f.message) for f in vector.failures} == {
        (f.label, f.kind, f.message) for f in scalar.failures
    }
    assert len(vector.failures) == 4  # 2 platforms x 2 precisions
    memo.clear_caches()


@pytest.mark.parametrize("app_name", ["read-benchmark", "LULESH", "CoMD", "XSBench", "miniFE"])
def test_batched_gpu_pricer_matches_scalar(app_name):
    """``time_gpu_kernel_batch`` equals per-atom ``time_gpu_kernel``
    exactly, for every captured atom of every app's OpenCL schedule."""
    spec = RunSpec(app_name, "OpenCL", DGPU, Precision.SINGLE, sweep_configs()[app_name])
    program = capture_program(spec)
    lowereds = [atom[1] for atom in program.atoms if atom[0] == "gpu"]
    assert lowereds
    gpu = make_platform(apu=False).gpu
    batch = time_gpu_kernel_batch(lowereds, gpu, Precision.SINGLE)
    assert batch == [
        time_gpu_kernel(lowered, gpu, Precision.SINGLE) for lowered in lowereds
    ]


@pytest.mark.parametrize("app_name", ["read-benchmark", "LULESH", "CoMD", "XSBench", "miniFE"])
def test_batched_cpu_pricer_matches_scalar(app_name):
    """``time_cpu_kernel_batch`` equals per-spec ``time_cpu_kernel``
    for every captured atom of the OpenMP baseline schedule."""
    spec = RunSpec(app_name, "OpenMP", DGPU, Precision.DOUBLE, sweep_configs()[app_name])
    program = capture_program(spec)
    by_threads = {}
    for atom in program.atoms:
        if atom[0] == "cpu":
            by_threads.setdefault(atom[2], []).append(atom[1])
    assert by_threads
    host = make_platform(apu=False).host
    for threads, specs in by_threads.items():
        batch = time_cpu_kernel_batch(specs, host, Precision.DOUBLE, threads=threads)
        assert batch == [
            time_cpu_kernel(s, host, Precision.DOUBLE, threads=threads) for s in specs
        ]


def test_price_specs_rejects_ineligible():
    """Heterogeneous Compute prices columnar; a functional cell is
    still refused."""
    config = sweep_configs()["LULESH"]
    hc = RunSpec("LULESH", "Heterogeneous Compute", DGPU, Precision.SINGLE, config)
    functional = RunSpec("LULESH", "OpenCL", DGPU, Precision.SINGLE, config, projection=False)
    assert len(price_specs([hc])) == 1
    with pytest.raises(ValueError):
        price_specs([functional])


def test_price_specs_order_invariant():
    """Cell order is presentation, not semantics: a shuffled batch
    returns the permuted results, each bit-identical per spec."""
    specs = [
        spec
        for spec in full_matrix()
        if vector_eligible(spec) and spec.app in ("read-benchmark", "XSBench")
    ]
    canonical = {
        spec.content_key(): result_fingerprint(result)
        for spec, result in zip(specs, price_specs(specs))
    }
    shuffled = list(specs)
    random.Random(2015).shuffle(shuffled)
    for spec, result in zip(shuffled, price_specs(shuffled)):
        assert result_fingerprint(result) == canonical[spec.content_key()], spec.label


def test_functional_cells_delegate_to_scalar():
    """``projection=False`` cells run the numerics; the vector engine
    must hand them to the scalar executor untouched."""
    config = sweep_configs()["read-benchmark"]
    runs = [
        RunSpec("read-benchmark", model, DGPU, Precision.SINGLE, config, projection=False)
        for model in ("OpenMP", "OpenCL")
    ]
    memo.clear_caches()
    scalar_outcomes, _ = execute(runs)
    memo.clear_caches()
    vector_outcomes, _ = execute_vector(runs)
    for left, right in zip(scalar_outcomes, vector_outcomes):
        assert outcome_fingerprint(left) == outcome_fingerprint(right)
    memo.clear_caches()


def test_uncached_vector_run_identical(matrix_pair):
    """``use_cache=False`` changes wall time, never values."""
    runs, (scalar_outcomes, _), _vector = matrix_pair
    uncached_outcomes, uncached_stats = execute_vector(runs, use_cache=False)
    assert uncached_stats.cache_hits == 0
    for left, right in zip(scalar_outcomes, uncached_outcomes):
        assert outcome_fingerprint(left) == outcome_fingerprint(right)


def test_duplicate_specs_share_one_outcome():
    """Content-equal descriptors collapse to one priced cell, like the
    scalar executor's dedup."""
    spec = RunSpec("miniFE", "OpenCL", DGPU, Precision.SINGLE, sweep_configs()["miniFE"])
    memo.clear_caches()
    outcomes, stats = execute_vector([spec, spec, spec])
    assert stats.unique_runs == 1
    assert outcomes[0] is outcomes[1] is outcomes[2]
    memo.clear_caches()


def test_stub_cache_lifecycle():
    """The cross-capture stub cache fills only when the setup cache is
    enabled, and ``clear_caches`` empties it."""
    spec = RunSpec("CoMD", "OpenCL", DGPU, Precision.SINGLE, sweep_configs()["CoMD"])
    memo.clear_caches()
    assert not memo._STUB_CACHE
    with memo.cache_disabled():
        capture_program(spec)
        assert not memo._STUB_CACHE
    capture_program(spec)
    assert memo._STUB_CACHE
    memo.clear_caches()
    assert not memo._STUB_CACHE


def test_comd_rebin_early_out_is_bit_identical():
    """``bin_atoms`` on unmoved positions is a no-op that leaves the
    exact table a full rebuild would produce."""
    from repro.apps.comd.reference import bin_atoms, make_state

    config = sweep_configs()["CoMD"]
    state = make_state.__wrapped__(config, Precision.SINGLE)
    table = state.cell_atoms.copy()
    counts = state.cell_count.copy()
    bin_atoms(state)  # early-out: nothing moved since make_state's binning
    assert np.array_equal(state.cell_atoms, table)
    assert np.array_equal(state.cell_count, counts)
    # Force the full rebuild and check it reproduces the same table.
    state.rebin_positions = state.rebin_positions + 1.0
    bin_atoms(state)
    assert np.array_equal(state.cell_atoms, table)
    assert np.array_equal(state.cell_count, counts)


def test_comd_rebin_aliasing_fast_path(monkeypatch):
    """Aliased ``rebin_positions`` (the projection stub's layout) skips
    the position comparison and keeps the table the builder's binning
    made; the real builder never aliases, so functional runs always
    compare."""
    from repro.apps.comd import reference
    from repro.apps.comd.reference import _projection_state, bin_atoms, make_state

    config = sweep_configs()["CoMD"]
    state = make_state.__wrapped__(config, Precision.DOUBLE)
    assert state.rebin_positions is not state.positions
    table, counts = state.cell_atoms, state.cell_count
    state.rebin_positions = state.positions

    def no_compare(*args, **kwargs):
        raise AssertionError("aliased positions must not be compared")

    monkeypatch.setattr(reference.np, "array_equal", no_compare)
    bin_atoms(state)
    assert state.cell_atoms is table and state.cell_count is counts
    stub = _projection_state(config, Precision.DOUBLE)
    stub_table = stub.cell_atoms
    bin_atoms(stub)
    assert stub.cell_atoms is stub_table
    monkeypatch.undo()
    # The kept table is the one a full rebuild produces.
    state.rebin_positions = state.positions + 1.0
    bin_atoms(state)
    assert np.array_equal(state.cell_atoms, table)
    assert np.array_equal(state.cell_count, counts)


COMD_STUB_CONFIGS = (
    "sweep",
    "paper",  # double precision: occupancies 13..63 from boundary rounding
    (14, 22, 36),  # non-cubic
    (26, 6, 8),  # small, non-uniform in double precision (24..40)
)


@pytest.mark.parametrize("which", COMD_STUB_CONFIGS, ids=str)
@pytest.mark.parametrize("precision", list(Precision), ids=lambda p: p.name)
def test_comd_stub_matches_builder_shapes(which, precision):
    """The shape-only CoMD stub reproduces every array shape and dtype
    of the real build, including the rounding-dependent padded width
    of the link-cell table, and derives it without building atoms."""
    from repro.apps.comd.reference import (
        CoMDConfig,
        _projection_state,
        cell_occupancy,
        make_state,
        paper_config,
    )

    if which == "sweep":
        config = sweep_configs()["CoMD"]
    elif which == "paper":
        config = paper_config()
    else:
        config = CoMDConfig(*which)
    real = make_state.__wrapped__(config, precision)
    stub = _projection_state(config, precision)
    for field in dataclasses.fields(real):
        if field.name == "config":
            continue
        left, right = getattr(real, field.name), getattr(stub, field.name)
        assert (left.shape, left.dtype) == (right.shape, right.dtype), field.name
        assert not right.any(), field.name
    assert np.array_equal(cell_occupancy(config, precision), real.cell_count)
    assert stub.rebin_positions is stub.positions
    if which == "paper":
        expected = 63 if precision is Precision.DOUBLE else 32
        assert stub.cell_atoms.shape[1] == expected


@pytest.mark.parametrize("size", (2, 7, 16, 100))
@pytest.mark.parametrize("precision", list(Precision), ids=lambda p: p.name)
def test_lulesh_stub_matches_builder(size, precision):
    """The shape-only LULESH stub has the builder's arrays (shapes,
    dtypes) and host scalars, the initial ``dt`` bit for bit."""
    from repro.apps.lulesh.physics import LuleshConfig
    from repro.apps.lulesh.reference import _projection_state, make_state

    config = LuleshConfig(size=size, iterations=1)
    real = make_state.__wrapped__(config, precision)
    stub = _projection_state(config, precision)
    assert vars(real).keys() == vars(stub).keys()
    for name, array in real.arrays().items():
        right = stub.arrays()[name]
        assert (array.shape, array.dtype) == (right.shape, right.dtype), name
        assert not right.any(), name
    assert (stub.dtype, stub.time, stub.dt) == (real.dtype, real.time, real.dt)


def assert_same_program(left, right, label):
    """Two captured programs are equal field by field: every event
    array by value and dtype, every table and total by ``==``, and a
    two-stream program's op columns, slot count and wait sets alike."""
    for field in dataclasses.fields(right):
        name = field.name
        value, other = getattr(right, name), getattr(left, name)
        if name == "stream":
            assert (other is None) == (value is None), (label, name)
            if value is not None:
                assert_same_program(other, value, (label, name))
        elif isinstance(value, np.ndarray):
            assert other.dtype == value.dtype, (label, name)
            assert np.array_equal(other, value), (label, name)
        else:
            assert other == value, (label, name)


@pytest.mark.parametrize("app_name", [app.name for app in ALL_APPS])
def test_stub_capture_equals_real_build_capture(app_name, monkeypatch):
    """Shape-only stubs capture exactly the schedule a real problem
    build does: every vector model, platform and precision at sweep
    scale, compared field by field (atoms, transfers, byte totals and
    every event array).  Heterogeneous Compute's ready slots are among
    the fields, so a stub that aliases two arrays the real build keeps
    apart would merge their slots and fail here."""
    config = sweep_configs()[app_name]
    specs = [
        RunSpec(app_name, model, platform, precision, config)
        for model in sorted(VECTOR_MODELS)
        for platform in PLATFORMS
        for precision in Precision
    ]
    memo.clear_caches()
    stubbed = [capture_program(spec) for spec in specs]
    memo.clear_caches()
    monkeypatch.setattr(memo, "PROJECTION_STUBS", {})
    real = [capture_program(spec) for spec in specs]
    memo.clear_caches()
    for spec, left, right in zip(specs, stubbed, real):
        assert_same_program(left, right, spec.label)


def test_execute_with_engine_rejects_unknown_engine():
    with pytest.raises(ValueError, match="unknown engine"):
        execute_with_engine("warp", [])


# -- loop-compressed capture ------------------------------------------------

LOOP_APPS = [app.name for app in ALL_APPS if app.loop_field is not None]

#: Every preset a study, sweep or serve request can name.
PRESET_CONFIGS = {
    "sweep": sweep_configs,
    "bench": bench_configs,
    "paper": lambda: {app.name: app.paper_config() for app in ALL_APPS},
}


def test_loop_fields_declared():
    """LULESH and miniFE repeat one loop body; CoMD's rebin epochs make
    its steps unequal, so it must not declare one."""
    assert {app.name: app.loop_field for app in ALL_APPS if app.loop_field} == {
        "LULESH": "iterations",
        "miniFE": "cg_iterations",
    }


@pytest.mark.parametrize("scale", sorted(PRESET_CONFIGS))
@pytest.mark.parametrize("app_name", LOOP_APPS)
def test_compressed_capture_equals_full_capture(app_name, scale, monkeypatch):
    """The spliced program is exactly the program of recording every
    pass: each vector model x platform x precision of a loop-declaring
    app, at every preset scale, against a capture forced full by
    clearing the app's loop field."""
    app = APPS_BY_NAME[app_name]
    config = PRESET_CONFIGS[scale]()[app_name]
    specs = [
        RunSpec(app_name, model, platform, precision, config)
        for model in sorted(VECTOR_MODELS)
        for platform in PLATFORMS
        for precision in Precision
    ]
    memo.clear_caches()
    compressed = [capture_program(spec) for spec in specs]
    monkeypatch.setitem(APPS_BY_NAME, app_name, dataclasses.replace(app, loop_field=None))
    full = [capture_program(spec) for spec in specs]
    memo.clear_caches()
    for spec, left, right in zip(specs, compressed, full):
        assert_same_program(left, right, spec.label)


def recording(passes, atoms=("k0", "k1", "k2"), transfers=((8, "h2d"),)):
    """A hand-built capture: a prologue, the given loop passes, an
    epilogue.  Each pass is a list of ``(atom, overhead, xfer, counted)``
    events."""
    events = [(-1, 0.0, 0, False), (0, 1e-6, -1, True)]
    for one_pass in passes:
        events.extend(one_pass)
    events.append((2, 3e-6, -1, True))
    columns = tuple(
        np.array([e[i] for e in events], dtype=dtype)
        for i, dtype in enumerate((np.int64, np.float64, np.int64, bool))
    )
    return Recording(checksum=0.0, atoms=tuple(atoms), transfers=tuple(transfers), columns=columns)


FIRST = [(-1, 0.0, 0, True), (1, 2e-6, -1, True)]  # first touch uploads
STEADY = [(1, 2e-6, -1, True), (0, 1e-6, -1, True)]
ODD = [(1, 2e-6, -1, True), (0, 1.5e-6, -1, True)]


def test_splice_accepts_a_first_pass_that_differs():
    spliced = splice_loop(
        recording([FIRST]), recording([FIRST, STEADY, STEADY]), count=6
    )
    expected = recording([FIRST] + [STEADY] * 5).columns
    assert spliced is not None and spliced.stream is None
    for got, want in zip(spliced.columns, expected):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize(
    "thrice",
    [
        recording([FIRST, STEADY, ODD]),  # third pass differs
        recording([FIRST, STEADY]),  # one pass inserted, not two
        recording([FIRST, STEADY, STEADY[:1]]),  # odd insertion length
        recording([FIRST, STEADY, STEADY], atoms=("k0", "k1", "k2", "k3")),
        recording([FIRST, STEADY, STEADY], transfers=((8, "h2d"), (8, "d2h"))),
        recording([FIRST]),  # the loop charges nothing
    ],
    ids=["third-pass", "one-pass", "odd-length", "atoms", "transfers", "empty-block"],
)
def test_splice_rejects_and_capture_falls_back_to_full(thrice, monkeypatch):
    """A stream that is not one repeated block, or tables that differ
    between the two short runs, reject the splice; capture then records
    the full count and returns exactly that recording."""
    assert splice_loop(recording([FIRST]), thrice, count=6) is None
    full = recording([FIRST] + [STEADY] * 5)
    by_count = {1: recording([FIRST]), 3: thrice, 6: full}
    counts = []

    def fake_record(spec, config):
        counts.append(config.iterations)
        return by_count[config.iterations]

    monkeypatch.setattr(study_vec, "_record", fake_record)
    config = LuleshConfig(size=2, iterations=6)
    program = capture_program(RunSpec("LULESH", "OpenCL", DGPU, Precision.SINGLE, config))
    assert counts == [1, 3, 6]
    for got, want in zip(
        (program.ev_atom, program.ev_overhead, program.ev_xfer, program.ev_counted),
        full.columns,
    ):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert program.atoms == full.atoms and program.transfers == full.transfers


def with_stream(rec, passes):
    """``rec`` plus a two-stream side stream: a sync upload, one launch
    per pass (each entry of ``passes`` names the pass's wait set), and
    a closing join.  Paired with ``recording``'s events for
    ``[FIRST] + [STEADY] * k``, where a pass charges an upload (FIRST)
    or a second launch (STEADY)."""
    ops = [(hc.SYNC_H2D, 0), (hc.LAUNCH, 0)]
    for i, wait_set in enumerate(passes):
        if i == 0:
            ops += [(hc.SYNC_H2D, 1), (hc.LAUNCH, wait_set)]
        else:
            ops += [(hc.LAUNCH, wait_set), (hc.LAUNCH, wait_set)]
    ops += [(hc.LAUNCH, 0), (hc.JOIN, -1)]
    stream = StreamProgram(
        ops=np.array([o for o, _ in ops], dtype=np.int64),
        args=np.array([a for _, a in ops], dtype=np.int64),
        n_slots=2,
        wait_sets=((0,), (0, 1)),
    )
    assert stream.matches(rec.columns[0])
    return dataclasses.replace(rec, stream=stream)


def test_splice_rejects_a_stream_that_differs_only_in_its_ops(monkeypatch):
    """Two short runs whose events splice but whose third pass waits on
    other slots reject the splice; capture records the full count.
    The same runs with a periodic op stream splice to the full record."""
    events = [recording([FIRST] + [STEADY] * k) for k in (0, 2, 5)]
    once = with_stream(events[0], [1])
    steady = with_stream(events[1], [1, 1, 1])
    odd = with_stream(events[1], [1, 1, 0])
    full = with_stream(events[2], [1] * 6)

    spliced = splice_loop(once, steady, count=6)
    assert spliced is not None
    assert_same_program(spliced.stream, full.stream, "steady")
    assert splice_loop(once, odd, count=6) is None

    by_count = {1: once, 3: odd, 6: full}
    counts = []

    def fake_record(spec, config):
        counts.append(config.iterations)
        return by_count[config.iterations]

    monkeypatch.setattr(study_vec, "_record", fake_record)
    config = LuleshConfig(size=2, iterations=6)
    program = capture_program(
        RunSpec("LULESH", "Heterogeneous Compute", DGPU, Precision.SINGLE, config)
    )
    assert counts == [1, 3, 6]
    assert_same_program(program.stream, full.stream, "fallback")
    assert np.array_equal(program.ev_atom, full.columns[0])


def test_short_counts_capture_in_full(monkeypatch):
    """Three passes or fewer are recorded as they are."""
    counts = []
    record = study_vec._record

    def spy(spec, config):
        counts.append(config.iterations)
        return record(spec, config)

    monkeypatch.setattr(study_vec, "_record", spy)
    config = sweep_configs()["LULESH"]
    assert config.iterations == 3
    capture_program(RunSpec("LULESH", "OpenCL", DGPU, Precision.SINGLE, config))
    assert counts == [3]


def test_paper_lulesh_captures_run_each_port_twice_on_shared_stubs(monkeypatch):
    """The paper-scale LULESH captures of OpenMP and the four GPU
    models (20 schedule keys, Heterogeneous Compute's included) record
    each port at counts 1 and 3 only, and the short runs reuse the full
    config's stub: one ``_STUB_CACHE`` entry per precision."""
    app = APPS_BY_NAME["LULESH"]
    specs = {
        spec.schedule_key(): spec
        for spec in study_runs(
            app_names=["LULESH"],
            configs={"LULESH": app.paper_config()},
            apu_values=(True, False),
            precisions=list(Precision),
            models=("OpenCL", "C++ AMP", "OpenACC", "Heterogeneous Compute"),
            baseline="OpenMP",
            projection=True,
        )
        if vector_eligible(spec)
    }
    assert len(specs) == 20
    calls = []
    for model, port in app.ports.items():

        def spy(ctx, config, port=port, model=model):
            calls.append((model, ctx.platform.name, ctx.precision, config.iterations))
            return port(ctx, config)

        monkeypatch.setitem(app.ports, model, spy)
    memo.clear_caches()
    for spec in specs.values():
        capture_program(spec)
    assert len(calls) == 40
    assert sorted(c[3] for c in calls) == [1] * 20 + [3] * 20
    assert len({c[:3] for c in calls}) == 20
    lulesh_stubs = [key for key in memo._STUB_CACHE if key[0] == "repro.apps.lulesh.reference"]
    assert len(lulesh_stubs) == 2
    memo.clear_caches()


def test_stub_key_ignores_only_the_active_loop_field():
    """Outside a loop-field block, configs that differ in their loop
    count keep separate stub entries, as before."""
    from repro.apps.lulesh.reference import make_state

    memo.clear_caches()
    short, long = LuleshConfig(size=4, iterations=1), LuleshConfig(size=4, iterations=9)
    with memo.projection_stubs(loop_field="iterations"):
        assert make_state(short, Precision.SINGLE) is make_state(long, Precision.SINGLE)
        assert make_state(LuleshConfig(size=5, iterations=1), Precision.SINGLE) is not (
            make_state(short, Precision.SINGLE)
        )
    memo.clear_caches()
    with memo.projection_stubs():
        assert make_state(short, Precision.SINGLE) is not make_state(long, Precision.SINGLE)
    memo.clear_caches()


def test_capture_runs_leave_no_cyclic_garbage():
    """Every port's capture run is freed by reference counting alone.
    Cyclic garbage would hold a run's host arrays until the cycle
    collector runs, so that the two short runs of a compressed capture
    stacked up memory (peak RSS of the paper-scale study grew)."""
    leaky = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for app in ALL_APPS:
            config = sweep_configs()[app.name]
            for model in sorted(VECTOR_MODELS):
                gc.collect()
                capture_program(RunSpec(app.name, model, DGPU, Precision.DOUBLE, config))
                if gc.collect():
                    leaky.append((app.name, model))
    finally:
        if enabled:
            gc.enable()
        memo.clear_caches()
    assert not leaky


# -- Heterogeneous Compute: the two-stream replay -----------------------

HC = "Heterogeneous Compute"

#: Clock overrides priced on every dGPU cell besides the defaults.
HC_CLOCKS = ((500.0, None), (1000.0, 600.0))


def hc_cells(scale):
    """Every HC cell of a preset (5 apps x 3 platforms x 2 precisions)
    plus two clock overrides per dGPU cell."""
    configs = PRESET_CONFIGS[scale]()
    cells = []
    for app in ALL_APPS:
        for platform in PLATFORMS:
            for precision in Precision:
                cell = RunSpec(app.name, HC, platform, precision, configs[app.name])
                cells.append(cell)
                if platform == DGPU:
                    cells.extend(
                        dataclasses.replace(cell, core_mhz=core, memory_mhz=memory)
                        for core, memory in HC_CLOCKS
                    )
    return cells


@pytest.mark.parametrize("scale", ["sweep", "bench"])
def test_hc_columnar_equals_scalar(scale):
    """Replaying the captured stream ops reproduces the scalar HC
    runtime bit for bit: seconds, kernel seconds, joules, every counter
    and every kernel record."""
    cells = hc_cells(scale)
    memo.clear_caches()
    scalar, stats = execute(cells)
    assert not stats.failures
    memo.clear_caches()
    vector = price_specs(cells)
    memo.clear_caches()
    for spec, left, right in zip(cells, scalar, vector):
        assert result_fingerprint(left.result) == result_fingerprint(right), spec.label
    # The overrides reach the price: no dGPU cell prices all three of
    # its clock points alike.
    dgpu = [r.seconds for spec, r in zip(cells, vector) if spec.platform == DGPU]
    for start in range(0, len(dgpu), 1 + len(HC_CLOCKS)):
        assert len(set(dgpu[start : start + 1 + len(HC_CLOCKS)])) > 1
