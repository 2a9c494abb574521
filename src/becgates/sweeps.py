"""Robustness studies: fidelity surfaces, detuning-error curves, trajectories.

Each sweep kind is one row of ``SWEEP_KINDS``: its axes, the gates it
applies to, and how a cell is realized as physical parameters.  Grid cells
are independent pure computations, so sweeps may fan out over a thread pool
of at most the usable cores; results are assembled by index.  Each sweep
runs its whole grid with numpy's OpenBLAS pinned to one thread, at every
worker count, and restores the thread count afterwards: each worker then
runs single-threaded solves on its own core, and a cell's bits do not
depend on the worker count at any N.  Where numpy bundles no such library
(the dense fallback) nothing is pinned.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .evolve import _one_blas_thread, _pure_rotation, evolve_oracle_bloch, qubit_propagator
from .fock import AcsParams, _bloch_rows, _csv, acs_state
from .gates import (
    DEFAULT_DETUNING_FACTOR,
    GateId,
    GateSpec,
    TRANSFER_GATES,
    gate_conditions,
    run_gate,
)
from .params import PhysicalParams, ValidationError

__all__ = [
    "FidelityGrid",
    "Trajectory",
    "sweep_lambda_gamma",
    "sweep_delta",
    "trajectory",
    "SWEEP_KINDS",
    "DEFAULT_LAMBDA_VALUES",
    "DEFAULT_DGAMMA_RATIO_VALUES",
    "DEFAULT_DDELTA_RATIO_VALUES",
]

# Default grids for the nonlinearity/frequency-scattering surface, in units
# of g: nonlinearity magnitude up to 0.02 g, relative gamma shift up to 20%.
DEFAULT_LAMBDA_VALUES = np.linspace(0.0, 0.02, 50)
DEFAULT_DGAMMA_RATIO_VALUES = np.linspace(0.0, 0.2, 50)
DEFAULT_DDELTA_RATIO_VALUES = np.linspace(0.0, 0.3, 25)


@dataclass
class FidelityGrid:
    """Fidelity samples over one or two sweep axes (row-major, axis1 first)."""

    gate: GateId
    axis1_name: str
    axis1: np.ndarray
    axis2_name: str | None
    axis2: np.ndarray | None
    fidelities: np.ndarray
    n_atoms: int
    initial: AcsParams

    def __post_init__(self) -> None:
        self.axis1 = np.asarray(self.axis1, dtype=float)
        if self.axis2 is not None:
            self.axis2 = np.asarray(self.axis2, dtype=float)
        self.fidelities = np.asarray(self.fidelities, dtype=float)
        n2 = 1 if self.axis2 is None else len(self.axis2)
        if self.fidelities.shape != (len(self.axis1), n2):
            raise ValueError(
                f"fidelities must have shape {(len(self.axis1), n2)}, "
                f"got {self.fidelities.shape}"
            )
        finite = self.fidelities[np.isfinite(self.fidelities)]
        if finite.size and (finite.min() < 0.0 or finite.max() > 1.0 + 1e-12):
            raise ValueError("fidelities must lie in [0, 1 + 1e-12]")

    def to_csv(self) -> str:
        axes = [a for a in (self.axis1, self.axis2) if a is not None]
        header = ",".join([f"axis{k + 1}" for k in range(len(axes))] + ["fidelity"])
        cells = np.meshgrid(*axes, indexing="ij")  # row-major, axis1 first, as the fidelities
        return _csv(header, [c.ravel() for c in (*cells, self.fidelities)])


@dataclass
class Trajectory:
    """Bloch-vector samples at strictly increasing times: rows[j] = (x, y, z) at times[j]."""

    times: np.ndarray
    rows: np.ndarray  # shape (len(times), 3)

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        if len(self.times) != len(self.rows):
            raise ValueError("times and rows must have equal lengths")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        self.rows = np.asarray(self.rows, dtype=float)
        if self.rows.shape != (len(self.times), 3):
            raise ValueError(f"rows must have shape {(len(self.times), 3)}, got {self.rows.shape}")

    def to_csv(self) -> str:
        return _csv("t,x,y,z", (self.times, self.rows))


def _usable_cores() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _grid_map(cells, func, workers: int):
    # _sweep pins BLAS to one thread, so a worker solves on one core; more workers only contend
    workers = min(workers, _usable_cores())
    if workers <= 1:
        return [func(c) for c in cells]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(func, cells))


def _cell_fidelity(spec: GateSpec, initial: AcsParams, n_atoms: int, overrides) -> float:
    try:  # a lambda = 0 cell then builds no N-particle state, only F1**N
        _, f = run_gate(spec, initial, n_atoms, overrides, with_state=False)
    except ValidationError:
        return math.nan  # the cell's parameters cannot be realized: a missing cell
    return f


class SweepKind(NamedTuple):
    """One sweep kind: its axes, the gates it applies to, and how a cell is realized."""

    axes: tuple[tuple[str, str, np.ndarray], ...]  # (config key, grid axis name, default values)
    gates: frozenset[GateId]
    gates_name: str  # names ``gates`` in error messages
    # (spec, *cell) -> the run_gate overrides of the cell; the worst fidelity is recorded
    realize: Callable[..., list[dict[str, float]]]


SWEEP_KINDS = {
    "lambda-gamma": SweepKind(
        (("lambda_values", "lambda", DEFAULT_LAMBDA_VALUES),
         ("dgamma_ratio_values", "dgamma_over_gamma", DEFAULT_DGAMMA_RATIO_VALUES)),
        frozenset(GateId), "all gates",
        lambda spec, lam, r: [{"gamma_ab": 2.0 * lam, "omega_ab": spec.gamma_g * (1.0 + r)}],
    ),
    "delta": SweepKind(
        (("ddelta_ratio_values", "ddelta_over_delta", DEFAULT_DDELTA_RATIO_VALUES),),
        TRANSFER_GATES, "transfer gates",
        lambda spec, r: [{"delta": spec.delta_g * (1.0 + sign * r)} for sign in (1.0, -1.0)],
    ),
}


def _sweep(kind: str, gate: GateId, values, n_atoms: int, initial: AcsParams,
           workers: int, detuning_factor: float = DEFAULT_DETUNING_FACTOR) -> FidelityGrid:
    """Run one sweep kind over the product of its axes (None takes an axis's default)."""
    row = SWEEP_KINDS[kind]
    if gate not in row.gates:
        raise ValueError(f"the {kind} sweep applies to {row.gates_name} only, got {gate.value!r}")
    axes = [np.asarray(default if v is None else v, dtype=float)
            for v, (_, _, default) in zip(values, row.axes)]
    if any(a.size == 0 for a in axes):
        raise ValueError("sweep grids must be non-empty")
    spec = gate_conditions(gate, 1.0, detuning_factor)

    def one(cell):
        fs = [_cell_fidelity(spec, initial, n_atoms, o) for o in row.realize(spec, *cell)]
        return math.nan if any(map(math.isnan, fs)) else min(fs)

    with _one_blas_thread():
        flat = _grid_map(list(itertools.product(*axes)), one, workers)
    two = len(axes) == 2
    return FidelityGrid(
        gate=gate,
        axis1_name=row.axes[0][1],
        axis1=axes[0],
        axis2_name=row.axes[1][1] if two else None,
        axis2=axes[1] if two else None,
        fidelities=np.array(flat, dtype=float).reshape(len(axes[0]), -1),
        n_atoms=n_atoms,
        initial=initial,
    )


def sweep_lambda_gamma(
    gate: GateId,
    lambda_values=None,
    dgamma_ratio_values=None,
    n_atoms: int = 1000,
    initial: AcsParams = AcsParams(theta=math.pi / 8.0, phi=0.0),
    *,
    detuning_factor: float = DEFAULT_DETUNING_FACTOR,
    workers: int = 1,
) -> FidelityGrid:
    """Fidelity surface over nonlinearity magnitude and relative gamma shift.

    Axis 1 is the swept nonlinearity scale lambda (in units of g), realized
    by raising the inter-species collision strength to gamma_ab = 2*lambda;
    axis 2 is the relative shift r of the frequency-scattering detuning,
    realized by setting the trap-frequency difference to gamma_g * (1 + r).
    Cells whose parameter realization fails are recorded as NaN.

    Each cell is the N-particle overlap of the evolved state with the target
    ACS (see run_gate).  The lambda = 0 row is F1**N in closed form, where
    F1 is the single-atom (spinor) fidelity, exact down to float underflow
    near 1e-308.  Cells with lambda != 0 come from the eigen-oracle, whose
    roundoff floor grows with machine epsilon times ||H|| t_gate: at N = 1000
    values below about 1e-23 are roundoff, not the true overlap.
    """
    return _sweep("lambda-gamma", gate, (lambda_values, dgamma_ratio_values), n_atoms, initial,
                  workers, detuning_factor)


def sweep_delta(
    gate: GateId,
    ddelta_ratio_values=None,
    n_atoms: int = 1000,
    initial: AcsParams = AcsParams(theta=math.pi / 8.0, phi=0.0),
    *,
    workers: int = 1,
) -> FidelityGrid:
    """Fidelity versus relative two-photon detuning error, transfer gates only.

    For each ratio r both signs delta_g * (1 +/- r) are simulated at
    otherwise ideal conditions and the worse fidelity is recorded.

    Each cell is the N-particle overlap of the evolved state with the target
    ACS (see run_gate).  Every cell has lambda = 0, so it is F1**N in closed
    form, where F1 is the single-atom (spinor) fidelity, exact down to float
    underflow near 1e-308: at N = 1000 and theta = pi/8, NOT at r = 0.2
    reads 3.3e-118.
    """
    return _sweep("delta", gate, (ddelta_ratio_values,), n_atoms, initial, workers)


def trajectory(
    p: PhysicalParams, initial: AcsParams, t_final: float, n_samples: int
) -> Trajectory:
    """Bloch vectors of the evolved state at uniformly spaced times.

    At zero nonlinearity (lambda_nl exactly 0, as run_gate dispatches) an ACS
    stays the ACS of its rotated spinor (Arecchi et al., PRA 6, 2211, 1972),
    so each row is the Bloch vector of U(t) initial.spinor, the ACS at N = 1,
    with U the 2x2 propagator on all the times at once: no eigensolve, at a
    cost that does not depend on N.  Otherwise the oracle propagates the ACS
    in blocks from one eigendecomposition, each block reduced to its Bloch
    vectors at once, so no state is kept per sample.
    """
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples!r}")
    if not (math.isfinite(t_final) and t_final > 0):
        raise ValueError(f"t_final must be finite and > 0, got {t_final!r}")
    times = np.linspace(0.0, t_final, n_samples)
    if _pure_rotation(p):
        rows = _bloch_rows((qubit_propagator(p, times) @ initial.spinor).T)
    else:
        rows = evolve_oracle_bloch(p, acs_state(initial, p.n_atoms), times)
    return Trajectory(times=times, rows=rows)
