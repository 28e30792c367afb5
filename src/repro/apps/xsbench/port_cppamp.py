"""XSBench: C++ AMP port.

``array_view`` wrappers over the table; on the APU the HSA stack uses
the host pointers directly — no staging, no ``cl_mem`` mapping toll —
which is why the paper found "C++ AMP resulted in the best performance
on the APU" for this transfer-dominated workload.
"""

from __future__ import annotations

import numpy as np

from ...models import cppamp as amp
from ...models.base import ExecutionContext
from ..base import RunResult, make_result
from .kernels import lookup_kernel_spec, xs_lookup
from .reference import N_XS, XSBenchConfig, make_data

model_name = "C++ AMP"

TILE_SIZE = 256
N_CHUNKS = 4


def run(ctx: ExecutionContext, config: XSBenchConfig) -> RunResult:
    data = make_data(config, ctx.precision)
    macro = np.zeros((config.n_lookups, N_XS), dtype=ctx.dtype)

    rt = amp.AmpRuntime(ctx)
    table_views = [
        amp.array_view(rt, data.union_energy),
        amp.array_view(rt, data.union_index),
        amp.array_view(rt, data.material_nuclides),
        amp.array_view(rt, data.material_density),
        amp.array_view(rt, data.material_n),
        amp.array_view(rt, data.nuclide_energy),
        amp.array_view(rt, data.nuclide_xs),
    ]

    energy_chunks = np.array_split(data.lookup_energy, N_CHUNKS)
    material_chunks = np.array_split(data.lookup_material, N_CHUNKS)
    macro_chunks = np.array_split(macro, N_CHUNKS)
    for e_chunk, m_chunk, out_chunk in zip(energy_chunks, material_chunks, macro_chunks):
        e_view = amp.array_view(rt, e_chunk)
        m_view = amp.array_view(rt, m_chunk)
        out_view = amp.array_view(rt, out_chunk)
        out_view.discard_data()
        spec = lookup_kernel_spec(config, ctx.precision, n_lookups=len(e_chunk))
        rt.parallel_for_each(
            amp.extent(len(e_chunk)),
            xs_lookup,
            spec,
            views=[e_view, m_view, *table_views, out_view],
            writes=[out_view],
        )
        out_view.synchronize()
    return make_result("XSBench", ctx, model_name, rt.simulated_seconds, lambda: np.abs(macro).sum())
