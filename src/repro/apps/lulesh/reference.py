"""LULESH serial reference driver and shared host-side logic.

The reference runs the 28-kernel schedule directly over the state
arrays (no programming-model API) and is the correctness oracle for
every port.  The host-side time-step control (`advance_dt`,
`check_qstop`) is shared by all drivers.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ...engine.memo import memoized_setup, projection_stub
from ...hardware.specs import Precision
from .kernels import SCHEDULE
from .physics import (
    CFL,
    DT_COURANT_SCALE,
    DT_MAX_SCALE,
    E_ZERO,
    GAMMA,
    QSTOP,
    RHO_REF,
    LuleshConfig,
    LuleshState,
    QStopError,
)


def check_qstop(q_max: np.ndarray) -> None:
    """Host check of the qstop reduction scalar: abort unstable runs."""
    if float(q_max[0]) > QSTOP:
        raise QStopError(f"artificial viscosity {q_max[0]:.3e} exceeded QSTOP")


def next_dt(
    current_dt: float,
    dt_courant_min: np.ndarray,
    dt_hydro_min: np.ndarray,
) -> float:
    """Host time-step control from the two constraint reductions."""
    candidate = min(float(dt_courant_min[0]), float(dt_hydro_min[0]))
    if not np.isfinite(candidate) or candidate <= 0:
        candidate = current_dt * DT_MAX_SCALE
    return float(min(current_dt * DT_MAX_SCALE, candidate))


@memoized_setup
def make_state(config: LuleshConfig, precision: Precision) -> LuleshState:
    """Initialise the Sedov problem at the requested precision."""
    dtype = np.dtype(np.float32 if precision is Precision.SINGLE else np.float64)
    return LuleshState(config=config, dtype=dtype)


@projection_stub(make_state)
def _projection_state(config: LuleshConfig, precision: Precision) -> LuleshState:
    """Shape-faithful stand-in for schedule capture.

    Every mesh array is zero-filled with the shape and dtype
    :class:`LuleshState` would give it: the ports' schedules read only
    buffer sizes and the host scalars.  ``dt`` is the builder's initial
    Courant step, computed from the same constants in the same dtype;
    the reduction scalars the host loop reads back stay zero, which
    ``check_qstop`` passes and ``next_dt`` treats exactly like the
    builder's ``inf`` (the step grows by ``DT_MAX_SCALE``).
    """
    dtype = np.dtype(np.float32 if precision is Precision.SINGLE else np.float64)
    s = config.size
    n = s + 1
    nodal = ("x", "y", "z", "xd", "yd", "zd", "xdd", "ydd", "zdd", "fx", "fy", "fz", "nodal_mass")
    shapes = dict.fromkeys(nodal, (n, n, n))
    shapes.update(
        face_normals=(6, 3, s, s, s),
        vel_mean=(3, s, s, s),
        vel_grad=(3, s, s, s),
        dt_courant_min=(1,),
        dt_hydro_min=(1,),
        q_max=(1,),
    )
    state = object.__new__(LuleshState)
    state.config = config
    state.dtype = dtype
    for f in dataclasses.fields(LuleshState):
        if not f.init:  # the mesh arrays __post_init__ would build
            setattr(state, f.name, np.zeros(shapes.get(f.name, (s, s, s)), dtype=dtype))
    state.time = 0.0
    initial_pressure = (GAMMA - 1.0) * RHO_REF * E_ZERO
    hot_ss = dtype.type(np.sqrt(GAMMA * initial_pressure / RHO_REF))
    state.dt = float(CFL * config.spacing / hot_ss * DT_COURANT_SCALE)
    return state


def run_iteration(state: LuleshState) -> None:
    """One Lagrange-leapfrog iteration via the 28-kernel schedule."""
    arrays = state.arrays()
    scalars = {"dt": state.dt}
    for step in SCHEDULE:
        args = [arrays[name] for name in step.arrays]
        args.extend(scalars[name] for name in step.scalars)
        step.func(*args)
        if step.name == "lulesh.qstop_check":
            check_qstop(state.q_max)
    state.time += state.dt
    state.dt = next_dt(state.dt, state.dt_courant_min, state.dt_hydro_min)


def run_reference(config: LuleshConfig, precision: Precision) -> LuleshState:
    """Run the full Sedov problem serially; returns the final state."""
    state = make_state(config, precision)
    for _ in range(config.iterations):
        run_iteration(state)
    return state
