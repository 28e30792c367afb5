"""LULESH: OpenMP CPU port.

One ``#pragma omp parallel for`` on each of the 28 loop nests — the
107 changed lines of Table IV (a pragma per kernel plus reduction
clauses for the constraint minima).
"""

from __future__ import annotations

from ...models.base import ExecutionContext
from ...models.openmp import OpenMP
from ..base import RunResult, make_result
from .kernels import SCHEDULE, kernel_specs
from .physics import LuleshConfig
from .reference import check_qstop, make_state, next_dt

model_name = "OpenMP"


def run(ctx: ExecutionContext, config: LuleshConfig) -> RunResult:
    state = make_state(config, ctx.precision)
    specs = kernel_specs(config, ctx.precision)
    arrays = state.arrays()

    omp = OpenMP(ctx, num_threads=4)
    for _ in range(config.iterations):
        scalars = {"dt": state.dt}
        for step in SCHEDULE:
            # #pragma omp parallel for
            omp.parallel_for(
                step.func,
                specs[step.name],
                arrays=[arrays[name] for name in step.arrays],
                scalars=[scalars[name] for name in step.scalars],
            )
            if step.name == "lulesh.qstop_check":
                check_qstop(state.q_max)
        state.time += state.dt
        state.dt = next_dt(state.dt, state.dt_courant_min, state.dt_hydro_min)
    return make_result("LULESH", ctx, model_name, omp.simulated_seconds, lambda: state.checksum())
