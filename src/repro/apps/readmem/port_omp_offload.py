"""read-memory: OpenMP target-offload port.

The serial loop annotated with ``#pragma omp target teams distribute
parallel for simd num_teams(size/BLOCKSIZE) thread_limit(BLOCKSIZE)``.
"""

from __future__ import annotations

import numpy as np

from ...models.base import ExecutionContext
from ...models.omp_offload import OpenMPOffload
from ..base import RunResult, make_result
from .kernels import read_gpu_kernel, read_kernel_spec
from .reference import ReadMemConfig, make_input

model_name = "OpenMP Offload"


def run(ctx: ExecutionContext, config: ReadMemConfig) -> RunResult:
    data = make_input(config, ctx.precision)
    out = np.zeros(config.n_blocks, dtype=ctx.dtype)

    omp = OpenMPOffload(ctx)
    # #pragma omp target teams distribute parallel for simd \
    #     num_teams(size/BLOCKSIZE) thread_limit(BLOCKSIZE)
    omp.target_teams_loop(
        read_gpu_kernel,
        read_kernel_spec(config, ctx.precision),
        arrays=[data, out],
        scalars=[config.block_size],
        writes=[out],
        num_teams=config.size // config.block_size,
        thread_limit=config.block_size,
    )
    return make_result("read-benchmark", ctx, model_name, omp.simulated_seconds, lambda: out.sum())
