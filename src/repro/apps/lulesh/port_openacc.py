"""LULESH: OpenACC port.

A single ``#pragma acc data`` region wraps the time loop (the paper's
Sec. III-B notes the ``data`` directive "is particularly useful on
discrete GPUs"), with ``update host`` for the per-iteration constraint
reductions.  Each of the 28 loop nests is a ``kernels loop``.
"""

from __future__ import annotations

from ...models.base import ExecutionContext
from ...models.openacc import OpenACC
from ..base import RunResult, make_result
from .kernels import SCHEDULE, kernel_specs
from .physics import LuleshConfig
from .reference import check_qstop, make_state, next_dt

model_name = "OpenACC"

VECTOR_LENGTH = 128


def run(ctx: ExecutionContext, config: LuleshConfig) -> RunResult:
    state = make_state(config, ctx.precision)
    specs = kernel_specs(config, ctx.precision)
    arrays = state.arrays()

    acc = OpenACC(ctx)
    all_arrays = list(arrays.values())
    # #pragma acc data copy(<entire mesh state>)
    with acc.data(copy=all_arrays):
        for _ in range(config.iterations):
            scalars = {"dt": state.dt}
            for step in SCHEDULE:
                spec = specs[step.name]
                # #pragma acc kernels loop gang vector(VECTOR_LENGTH)
                acc.kernels_loop(
                    step.func,
                    spec,
                    arrays=[arrays[name] for name in step.arrays],
                    scalars=[scalars[name] for name in step.scalars],
                    writes=[arrays[name] for name in step.writes],
                    gang=-(-spec.work_items // VECTOR_LENGTH),
                    vector=VECTOR_LENGTH,
                )
                if step.name == "lulesh.qstop_check":
                    # #pragma acc update host(q_max)
                    acc.update_host(state.q_max)
                    check_qstop(state.q_max)
            # #pragma acc update host(dt_courant_min, dt_hydro_min)
            acc.update_host(state.dt_courant_min)
            acc.update_host(state.dt_hydro_min)
            state.time += state.dt
            state.dt = next_dt(state.dt, state.dt_courant_min, state.dt_hydro_min)
    return make_result("LULESH", ctx, model_name, acc.simulated_seconds, lambda: state.checksum())
