"""Robustness studies: fidelity surfaces, detuning-error curves, trajectories.

Grid cells are independent pure computations, so sweeps may fan out over a
thread pool; results are assembled by index and are bitwise identical for
any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .evolve import evolve_oracle_at_times
from .fock import AcsParams, BlochVector, bloch_vector, acs_state
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
        lines = []
        if self.axis2 is None:
            lines.append("axis1,fidelity")
            for a1, f in zip(self.axis1, self.fidelities[:, 0]):
                lines.append(f"{a1:.17g},{f:.17g}")
        else:
            lines.append("axis1,axis2,fidelity")
            for i, a1 in enumerate(self.axis1):
                for j, a2 in enumerate(self.axis2):
                    lines.append(f"{a1:.17g},{a2:.17g},{self.fidelities[i, j]:.17g}")
        return "\n".join(lines) + "\n"


@dataclass
class Trajectory:
    """Bloch-vector samples at strictly increasing times."""

    times: np.ndarray
    points: list[BlochVector]

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        if len(self.times) != len(self.points):
            raise ValueError("times and points must have equal lengths")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")

    def to_csv(self) -> str:
        lines = ["t,x,y,z"]
        for t, b in zip(self.times, self.points):
            lines.append(f"{t:.17g},{b.x:.17g},{b.y:.17g},{b.z:.17g}")
        return "\n".join(lines) + "\n"


def _grid_map(cells, func, workers: int):
    if workers <= 1:
        return [func(c) for c in cells]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(func, cells))


def _cell_fidelity(spec: GateSpec, initial: AcsParams, n_atoms: int, overrides) -> float:
    try:
        _, f = run_gate(spec, initial, n_atoms, overrides)
    except ValidationError:
        return math.nan  # the cell's parameters cannot be realized: a missing cell
    return f


def _surface_overrides(spec: GateSpec, lam: float, ratio: float) -> dict[str, float]:
    return {"gamma_ab": 2.0 * lam, "omega_ab": spec.gamma_g * (1.0 + ratio)}


def _delta_overrides(spec: GateSpec, ratio: float) -> list[dict[str, float]]:
    return [{"delta": spec.delta_g * (1.0 + sign * ratio)} for sign in (1.0, -1.0)]


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
    ACS (see run_gate).  In the lambda = 0 row it equals F1**N, where F1 is
    the single-atom (spinor) fidelity; values below ~1e-30 are roundoff of
    the eigen-oracle, not the true overlap.
    """
    lam = np.asarray(
        DEFAULT_LAMBDA_VALUES if lambda_values is None else lambda_values, dtype=float
    )
    rat = np.asarray(
        DEFAULT_DGAMMA_RATIO_VALUES if dgamma_ratio_values is None else dgamma_ratio_values,
        dtype=float,
    )
    if lam.size == 0 or rat.size == 0:
        raise ValueError("sweep grids must be non-empty")
    spec = gate_conditions(gate, 1.0, detuning_factor)
    cells = [(lv, rv) for lv in lam for rv in rat]

    def one(cell):
        return _cell_fidelity(spec, initial, n_atoms, _surface_overrides(spec, *cell))

    flat = _grid_map(cells, one, workers)
    grid = np.array(flat, dtype=float).reshape(len(lam), len(rat))
    return FidelityGrid(
        gate=gate,
        axis1_name="lambda",
        axis1=lam,
        axis2_name="dgamma_over_gamma",
        axis2=rat,
        fidelities=grid,
        n_atoms=n_atoms,
        initial=initial,
    )


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
    ACS (see run_gate).  Every cell has lambda = 0, so it equals F1**N, where
    F1 is the single-atom (spinor) fidelity; values below ~1e-30 are
    roundoff of the eigen-oracle, not the true overlap.
    """
    if gate not in TRANSFER_GATES:
        raise ValueError(
            f"detuning sweep applies to transfer gates only, got {gate.value!r}"
        )
    rat = np.asarray(
        DEFAULT_DDELTA_RATIO_VALUES if ddelta_ratio_values is None else ddelta_ratio_values,
        dtype=float,
    )
    if rat.size == 0:
        raise ValueError("sweep grids must be non-empty")
    spec = gate_conditions(gate, 1.0)

    def one(rv):
        fs = [_cell_fidelity(spec, initial, n_atoms, o) for o in _delta_overrides(spec, rv)]
        return math.nan if any(map(math.isnan, fs)) else min(fs)

    flat = _grid_map(list(rat), one, workers)
    grid = np.array(flat, dtype=float).reshape(len(rat), 1)
    return FidelityGrid(
        gate=gate,
        axis1_name="ddelta_over_delta",
        axis1=rat,
        axis2_name=None,
        axis2=None,
        fidelities=grid,
        n_atoms=n_atoms,
        initial=initial,
    )


def trajectory(
    p: PhysicalParams, initial: AcsParams, t_final: float, n_samples: int
) -> Trajectory:
    """Bloch vectors of the oracle-evolved state at uniformly spaced times."""
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples!r}")
    if t_final <= 0:
        raise ValueError(f"t_final must be > 0, got {t_final!r}")
    times = np.linspace(0.0, t_final, n_samples)
    s0 = acs_state(initial, p.n_atoms)
    states = evolve_oracle_at_times(p, s0, times)
    return Trajectory(times=times, points=[bloch_vector(s) for s in states])
