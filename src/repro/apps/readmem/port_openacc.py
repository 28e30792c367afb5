"""read-memory: OpenACC port (Figure 5).

The serial loop annotated with ``#pragma acc kernels loop
gang(size/BLOCKSIZE) vector(BLOCKSIZE) independent``.
"""

from __future__ import annotations

import numpy as np

from ...models.base import ExecutionContext
from ...models.openacc import OpenACC
from ..base import RunResult, make_result
from .kernels import read_gpu_kernel, read_kernel_spec
from .reference import ReadMemConfig, make_input

model_name = "OpenACC"


def run(ctx: ExecutionContext, config: ReadMemConfig) -> RunResult:
    data = make_input(config, ctx.precision)
    out = np.zeros(config.n_blocks, dtype=ctx.dtype)

    acc = OpenACC(ctx)
    # #pragma acc kernels loop gang(size/BLOCKSIZE) vector(BLOCKSIZE) independent
    acc.kernels_loop(
        read_gpu_kernel,
        read_kernel_spec(config, ctx.precision),
        arrays=[data, out],
        scalars=[config.block_size],
        writes=[out],
        gang=config.size // config.block_size,
        vector=config.block_size,
    )
    return make_result("read-benchmark", ctx, model_name, acc.simulated_seconds, lambda: out.sum())
