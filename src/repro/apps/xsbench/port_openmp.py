"""XSBench: OpenMP CPU port (the Figures 8d/9d baseline).

A single ``#pragma omp parallel for`` over the lookup loop — Table
IV's 13 changed lines.
"""

from __future__ import annotations

import numpy as np

from ...models.base import ExecutionContext
from ...models.openmp import OpenMP
from ..base import RunResult, make_result
from .kernels import lookup_kernel_spec, xs_lookup
from .reference import N_XS, XSBenchConfig, make_data

model_name = "OpenMP"


def run(ctx: ExecutionContext, config: XSBenchConfig) -> RunResult:
    data = make_data(config, ctx.precision)
    macro = np.zeros((config.n_lookups, N_XS), dtype=ctx.dtype)

    omp = OpenMP(ctx, num_threads=4)
    # #pragma omp parallel for schedule(dynamic)
    omp.parallel_for(
        xs_lookup,
        lookup_kernel_spec(config, ctx.precision),
        arrays=[data.lookup_energy, data.lookup_material, data.union_energy,
                data.union_index, data.material_nuclides, data.material_density,
                data.material_n, data.nuclide_energy, data.nuclide_xs, macro],
    )
    return make_result("XSBench", ctx, model_name, omp.simulated_seconds, lambda: np.abs(macro).sum())
