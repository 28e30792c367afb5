"""LULESH shock-hydrodynamics proxy application (Sec. IV-A).

Solves the spherical Sedov blast problem with Lagrange hydrodynamics
on a structured hexahedral mesh, decomposed into the paper's 28 GPU
kernels.  Balanced boundedness: performance scales with both core and
memory frequency (Figure 7b).
"""

from ..base import ProxyApp
from . import (
    port_cppamp,
    port_hc,
    port_omp_offload,
    port_openacc,
    port_opencl,
    port_openmp,
    port_serial,
)
from .kernels import SCHEDULE, STEPS_BY_NAME, kernel_specs
from .physics import LuleshConfig, LuleshState, QStopError, default_config, paper_config
from .reference import make_state, run_iteration, run_reference

APP = ProxyApp(
    name="LULESH",
    description="Sedov blast via Lagrange hydrodynamics, 28 kernels (Sec. IV-A)",
    command_line="./LULESH -s 100 -i 100",
    n_kernels=28,
    boundedness="Balanced",
    default_config=default_config,
    paper_config=paper_config,
    ports={
        port_serial.model_name: port_serial.run,
        port_openmp.model_name: port_openmp.run,
        port_opencl.model_name: port_opencl.run,
        port_cppamp.model_name: port_cppamp.run,
        port_openacc.model_name: port_openacc.run,
        port_omp_offload.model_name: port_omp_offload.run,
        port_hc.model_name: port_hc.run,
    },
    loop_field="iterations",
)

__all__ = [
    "APP",
    "LuleshConfig",
    "LuleshState",
    "QStopError",
    "SCHEDULE",
    "STEPS_BY_NAME",
    "default_config",
    "kernel_specs",
    "make_state",
    "paper_config",
    "run_iteration",
    "run_reference",
]
