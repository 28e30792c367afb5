"""LULESH: OpenMP target-offload port.

A single ``#pragma omp target data map(tofrom: <mesh state>)`` region
wraps the time loop, with ``target update from`` for the per-iteration
constraint reductions.  Each of the 28 loop nests is a ``target teams
distribute parallel for``.
"""

from __future__ import annotations

from ...models.base import ExecutionContext
from ...models.omp_offload import OpenMPOffload
from ..base import RunResult, make_result
from .kernels import SCHEDULE, kernel_specs
from .physics import LuleshConfig
from .reference import check_qstop, make_state, next_dt

model_name = "OpenMP Offload"

THREAD_LIMIT = 128


def run(ctx: ExecutionContext, config: LuleshConfig) -> RunResult:
    state = make_state(config, ctx.precision)
    specs = kernel_specs(config, ctx.precision)
    arrays = state.arrays()

    omp = OpenMPOffload(ctx)
    all_arrays = list(arrays.values())
    # #pragma omp target data map(tofrom: <entire mesh state>)
    with omp.target_data(tofrom=all_arrays):
        for _ in range(config.iterations):
            scalars = {"dt": state.dt}
            for step in SCHEDULE:
                spec = specs[step.name]
                # #pragma omp target teams distribute parallel for \
                #     thread_limit(THREAD_LIMIT)
                omp.target_teams_loop(
                    step.func,
                    spec,
                    arrays=[arrays[name] for name in step.arrays],
                    scalars=[scalars[name] for name in step.scalars],
                    writes=[arrays[name] for name in step.writes],
                    num_teams=-(-spec.work_items // THREAD_LIMIT),
                    thread_limit=THREAD_LIMIT,
                )
                if step.name == "lulesh.qstop_check":
                    # #pragma omp target update from(q_max)
                    omp.update_from(state.q_max)
                    check_qstop(state.q_max)
            # #pragma omp target update from(dt_courant_min, dt_hydro_min)
            omp.update_from(state.dt_courant_min)
            omp.update_from(state.dt_hydro_min)
            state.time += state.dt
            state.dt = next_dt(state.dt, state.dt_courant_min, state.dt_hydro_min)
    return make_result("LULESH", ctx, model_name, omp.simulated_seconds, lambda: state.checksum())
