"""XSBench: OpenACC port.

The table lives in a ``data`` region around the chunk loop; each chunk
of lookups is an annotated ``kernels loop``.  PGI's generated gather
code reaches about half the bandwidth of the hand-written OpenCL
kernel, which dominates this latency-bound workload.
"""

from __future__ import annotations

import numpy as np

from ...models.base import ExecutionContext
from ...models.openacc import OpenACC
from ..base import RunResult, make_result
from .kernels import lookup_kernel_spec, xs_lookup
from .reference import N_XS, XSBenchConfig, make_data

model_name = "OpenACC"

VECTOR_LENGTH = 256
N_CHUNKS = 4


def run(ctx: ExecutionContext, config: XSBenchConfig) -> RunResult:
    data = make_data(config, ctx.precision)
    macro = np.zeros((config.n_lookups, N_XS), dtype=ctx.dtype)

    acc = OpenACC(ctx)
    table = [
        data.union_energy, data.union_index, data.material_nuclides,
        data.material_density, data.material_n, data.nuclide_energy, data.nuclide_xs,
    ]
    energy_chunks = np.array_split(data.lookup_energy, N_CHUNKS)
    material_chunks = np.array_split(data.lookup_material, N_CHUNKS)
    macro_chunks = np.array_split(macro, N_CHUNKS)

    # #pragma acc data copyin(<table arrays>)
    with acc.data(copyin=table):
        for e_chunk, m_chunk, out_chunk in zip(energy_chunks, material_chunks, macro_chunks):
            spec = lookup_kernel_spec(config, ctx.precision, n_lookups=len(e_chunk))
            # #pragma acc kernels loop gang vector(VECTOR_LENGTH) independent
            acc.kernels_loop(
                xs_lookup,
                spec,
                arrays=[e_chunk, m_chunk, *table, out_chunk],
                writes=[out_chunk],
                gang=-(-len(e_chunk) // VECTOR_LENGTH),
                vector=VECTOR_LENGTH,
            )
    return make_result("XSBench", ctx, model_name, acc.simulated_seconds, lambda: np.abs(macro).sum())
