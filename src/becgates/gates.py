"""Single-qubit gate conditions, targets and fidelity on the two-mode qubit.

Transfer-population gates (NOT, Y, Hadamard) invert population between the
two modes; phase gates (Z, S, T) imprint a relative phase with population
transfer suppressed by a strong two-photon detuning.  Gate conditions pin
the detuning ``delta_g``, the frequency-scattering detuning ``gamma_g`` and
the evolution time ``t_gate`` relative to the coupling g; the condition
table ``_TABLE`` below holds them, with each gate's target matrix.  Phase
gates take delta_g = k*g, where the detuning factor k must be large for the
conditions to hold (they are asymptotic in g/delta).
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .evolve import _pure_rotation, _rotated_acs, evolve_oracle, qubit_propagator
from .fock import AcsParams, StateVector, acs_from_spinor, acs_state
from .params import PhysicalParams

__all__ = [
    "GateId",
    "GateSpec",
    "TRANSFER_GATES",
    "PHASE_GATES",
    "gate_conditions",
    "target_matrix",
    "params_for_gate",
    "fidelity",
    "run_gate",
    "up_to_phase_deviation",
    "gate_spec_to_dict",
]


class GateId(enum.Enum):
    NOT = "not"
    Y = "y"
    HADAMARD = "h"
    Z = "z"
    S = "s"
    T = "t"


class _Conditions(NamedTuple):
    target: np.ndarray
    delta_per_g: float | None  # None for a phase gate: delta_g = detuning_factor * g
    gamma_g: Callable[[float, float], float]  # of (g, delta_g)
    t_gate: Callable[[float, float], float]  # of (g, delta_g)


# Each expression keeps its operation order, so that the conditions stay
# bitwise reproducible (delta/3 is not delta*(1/3)).
_TABLE = {
    GateId.NOT: _Conditions(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex), 4.0,
                            lambda g, d: 4.0 * g, lambda g, d: 2.0 * math.pi / d),
    GateId.Y: _Conditions(np.array([[0.0, -1j], [1j, 0.0]]), 2.0,
                          lambda g, d: 2.0 * g, lambda g, d: math.pi / d),
    GateId.HADAMARD: _Conditions(np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0),
                                 8.0 / math.sqrt(2.0),
                                 lambda g, d: -2.0 * g + d, lambda g, d: 2.0 * math.pi / d),
    GateId.Z: _Conditions(np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex), None,
                          lambda g, d: -2.0 * d, lambda g, d: math.pi / (2.0 * d)),
    GateId.S: _Conditions(np.array([[1.0, 0.0], [0.0, 1j]]), None,
                          lambda g, d: d / 3.0, lambda g, d: 3.0 * math.pi / (2.0 * d)),
    GateId.T: _Conditions(np.array([[1.0, 0.0], [0.0, cmath.exp(1j * math.pi / 4.0)]]), None,
                          lambda g, d: d / 2.0, lambda g, d: math.pi / (2.0 * d)),
}

TRANSFER_GATES = frozenset(gate for gate, row in _TABLE.items() if row.delta_per_g is not None)
PHASE_GATES = frozenset(_TABLE) - TRANSFER_GATES

MIN_DETUNING_FACTOR = 25.0
DEFAULT_DETUNING_FACTOR = 100.0


@dataclass(frozen=True)
class GateSpec:
    """Concrete physical conditions realizing one gate at coupling g.

    detuning_factor is delta_g/g for phase gates and None for transfer gates.
    """

    gate: GateId
    g: float
    t_gate: float
    delta_g: float
    gamma_g: float
    detuning_factor: float | None = None

    def __post_init__(self) -> None:
        if self.t_gate <= 0:
            raise ValueError(f"t_gate must be > 0, got {self.t_gate!r}")

    @property
    def target(self) -> np.ndarray:
        """The gate's standard 2x2 matrix."""
        return target_matrix(self.gate)


def target_matrix(gate: GateId) -> np.ndarray:
    """Standard 2x2 matrix of a gate; phase gates are diag(1, e^{i phi})."""
    return _TABLE[gate].target.copy()


def gate_conditions(
    gate: GateId, g: float, detuning_factor: float = DEFAULT_DETUNING_FACTOR
) -> GateSpec:
    """Solve the gate-condition table into a concrete GateSpec.

    For phase gates detuning_factor = delta_g/g must be >= 25 so that the
    asymptotic strong-detuning conditions are meaningfully satisfied; it is
    ignored for transfer gates.  Raises ValueError on g <= 0, on a small
    factor, and when delta_g, gamma_g or t_gate is out of floating-point range.
    """
    if g <= 0:
        raise ValueError(f"coupling g must be > 0, got {g!r}")
    row = _TABLE[gate]
    factor = float(detuning_factor) if row.delta_per_g is None else None
    if factor is not None and factor < MIN_DETUNING_FACTOR:
        raise ValueError(
            f"detuning_factor must be >= {MIN_DETUNING_FACTOR} for phase gates: their "
            "conditions hold only asymptotically for delta_g much larger than the "
            f"coupling g, got detuning_factor = {detuning_factor!r}"
        )
    delta = (row.delta_per_g or factor) * g
    t_gate, gamma_g = row.t_gate(g, delta), row.gamma_g(g, delta)
    if not (math.isfinite(delta) and math.isfinite(gamma_g) and 0.0 < t_gate < math.inf):
        raise ValueError(f"gate conditions out of floating-point range: delta_g = {delta!r}, "
                         f"gamma_g = {gamma_g!r}, t_gate = {t_gate!r}")
    return GateSpec(gate, g, t_gate, delta, gamma_g, factor)


_OVERRIDE_KEYS = frozenset({"gamma_ab", "omega_ab", "delta"})


def params_for_gate(
    spec: GateSpec, n_atoms: int, overrides: Mapping[str, float] | None = None
) -> PhysicalParams:
    """Physical parameters realizing (delta_g, gamma_g) with zero nonlinearity.

    Default realization: gamma_a = gamma_b = gamma_ab = 0 (hence lambda_nl = 0)
    and omega_a - omega_b = gamma_g.  Overrides inject deviations through the
    two experimental knobs plus the detuning:

    - "gamma_ab": inter-species collision strength (lambda_nl = -gamma_ab/2),
    - "omega_ab": replaces the trap-frequency difference (shifts gamma_fs),
    - "delta": replaces the two-photon detuning.
    """
    overrides = dict(overrides or {})
    unknown = set(overrides) - _OVERRIDE_KEYS
    if unknown:
        raise ValueError(f"unknown override field '{sorted(unknown)[0]}'")
    return PhysicalParams(
        omega_a=overrides.get("omega_ab", spec.gamma_g),
        omega_b=0.0,
        gamma_a=0.0,
        gamma_b=0.0,
        gamma_ab=overrides.get("gamma_ab", 0.0),
        g=spec.g,
        delta=overrides.get("delta", spec.delta_g),
        n_atoms=n_atoms,
    )


def fidelity(a: StateVector, b: StateVector) -> float:
    """Squared modulus of the inner product of two normalized states."""
    if a.n_atoms != b.n_atoms:
        raise ValueError(
            f"states live in different Fock spaces: n_atoms {a.n_atoms} vs {b.n_atoms}"
        )
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def run_gate(
    spec: GateSpec,
    initial: AcsParams,
    n_atoms: int,
    overrides: Mapping[str, float] | None = None,
    *,
    with_state: bool = True,
) -> tuple[StateVector | None, float]:
    """Evolve an initial ACS through one gate and score it against the target.

    The N-particle target is the ACS whose spinor is spec.target applied to
    initial.spinor, so deviations from ideal conditions (via overrides) show
    up directly in the returned fidelity.

    At zero nonlinearity (lambda_nl exactly 0) the dynamics is an SU(2)
    rotation of every atom's spinor, so an ACS stays an ACS (Arecchi et al.,
    PRA 6, 2211, 1972): the state is built in closed form from the 2x2
    propagator, global phase included, and the fidelity is F1**N, where F1
    is the single-atom (spinor) fidelity.  It is exact down to float
    underflow near 1e-308.  Otherwise the state comes from the eigen-oracle,
    whose roundoff puts a floor under the fidelity that grows with machine
    epsilon times ||H|| t_gate: about 1e-23 at N = 1000.

    With with_state=False the state is returned as None, and at zero
    nonlinearity it is never built, so the fidelity costs the same at any N.
    """
    p = params_for_gate(spec, n_atoms, overrides)
    if _pure_rotation(p):
        w = qubit_propagator(p, spec.t_gate) @ initial.spinor
        target = spec.target @ initial.spinor
        f1 = abs(np.vdot(target, w)) ** 2 / (np.vdot(target, target).real * np.vdot(w, w).real)
        # roundoff can put F1 a few ulps above 1, which the power N would amplify
        f = min(float(f1), 1.0) ** n_atoms
        return (_rotated_acs(p, initial.spinor, spec.t_gate) if with_state else None), f
    s0 = acs_state(initial, n_atoms)
    final = evolve_oracle(p, s0, spec.t_gate)
    target_state = acs_from_spinor(*(spec.target @ initial.spinor), n_atoms)
    return final if with_state else None, fidelity(target_state, final)


def up_to_phase_deviation(u: np.ndarray, target: np.ndarray) -> float:
    """Max-element deviation |u - e^{i phi} target| minimized over phi.

    The phase is aligned on the trace of target' u (falling back to the
    largest-magnitude element when the trace nearly cancels).
    """
    u = np.asarray(u, dtype=complex)
    target = np.asarray(target, dtype=complex)
    m = target.conj().T @ u
    tr = np.trace(m)
    if abs(tr) > 1e-9:
        phase = tr / abs(tr)
    else:
        flat = m.reshape(-1)
        pick = flat[np.argmax(np.abs(flat))]
        phase = pick / abs(pick) if abs(pick) > 0 else 1.0
    return float(np.max(np.abs(u - phase * target)))


def gate_spec_to_dict(spec: GateSpec) -> dict:
    """JSON form with keys gate, t_gate, delta_g, gamma_g, detuning_factor."""
    return {
        "gate": spec.gate.value,
        "t_gate": spec.t_gate,
        "delta_g": spec.delta_g,
        "gamma_g": spec.gamma_g,
        "detuning_factor": spec.detuning_factor,
    }
