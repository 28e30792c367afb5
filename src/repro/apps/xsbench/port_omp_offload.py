"""XSBench: OpenMP target-offload port.

The table lives in a ``target data`` region around the chunk loop;
each chunk of lookups is a ``target teams distribute parallel for``.
The generated gather code, like OpenACC's, reaches a fraction of the
hand-written kernel's bandwidth — decisive for this latency-bound
workload.
"""

from __future__ import annotations

import numpy as np

from ...models.base import ExecutionContext
from ...models.omp_offload import OpenMPOffload
from ..base import RunResult, make_result
from .kernels import lookup_kernel_spec, xs_lookup
from .reference import N_XS, XSBenchConfig, make_data

model_name = "OpenMP Offload"

THREAD_LIMIT = 256
N_CHUNKS = 4


def run(ctx: ExecutionContext, config: XSBenchConfig) -> RunResult:
    data = make_data(config, ctx.precision)
    macro = np.zeros((config.n_lookups, N_XS), dtype=ctx.dtype)

    omp = OpenMPOffload(ctx)
    table = [
        data.union_energy, data.union_index, data.material_nuclides,
        data.material_density, data.material_n, data.nuclide_energy, data.nuclide_xs,
    ]
    energy_chunks = np.array_split(data.lookup_energy, N_CHUNKS)
    material_chunks = np.array_split(data.lookup_material, N_CHUNKS)
    macro_chunks = np.array_split(macro, N_CHUNKS)

    # #pragma omp target data map(to: <table arrays>)
    with omp.target_data(to=table):
        for e_chunk, m_chunk, out_chunk in zip(energy_chunks, material_chunks, macro_chunks):
            spec = lookup_kernel_spec(config, ctx.precision, n_lookups=len(e_chunk))
            # #pragma omp target teams distribute parallel for thread_limit(...)
            omp.target_teams_loop(
                xs_lookup,
                spec,
                arrays=[e_chunk, m_chunk, *table, out_chunk],
                writes=[out_chunk],
                num_teams=-(-len(e_chunk) // THREAD_LIMIT),
                thread_limit=THREAD_LIMIT,
            )
    return make_result("XSBench", ctx, model_name, omp.simulated_seconds, lambda: np.abs(macro).sum())
