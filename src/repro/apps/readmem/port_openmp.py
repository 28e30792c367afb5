"""read-memory: OpenMP CPU port (Figure 3b).

One ``#pragma omp parallel for`` around the serial loop — the 3-line
change of Table IV.
"""

from __future__ import annotations

import numpy as np

from ...models.base import ExecutionContext
from ...models.openmp import OpenMP
from ..base import RunResult, make_result
from .kernels import read_kernel_spec
from .reference import ReadMemConfig, make_input, read_serial_cpu

model_name = "OpenMP"


def run(ctx: ExecutionContext, config: ReadMemConfig) -> RunResult:
    data = make_input(config, ctx.precision)
    out = np.zeros(config.n_blocks, dtype=ctx.dtype)

    omp = OpenMP(ctx, num_threads=4)
    # #pragma omp parallel for
    omp.parallel_for(
        read_serial_cpu,
        read_kernel_spec(config, ctx.precision),
        arrays=[data, out],
        scalars=[config.block_size],
    )
    return make_result("read-benchmark", ctx, model_name, omp.simulated_seconds, lambda: out.sum())
