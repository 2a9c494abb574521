"""Simulator for single-qubit gates on a two-mode Bose-Einstein-condensate qubit."""

from .params import PhysicalParams, DerivedParams, ValidationError, derive_params
from .fock import (
    AcsParams,
    StateVector,
    BlochVector,
    acs_state,
    acs_from_spinor,
    acs_params_from_state,
    pseudo_spin_matrices,
    bloch_vector,
)
from .evolve import (
    qubit_propagator,
    full_propagator_analytic,
    evolve_oracle,
    evolve_oracle_at_times,
    evolve_oracle_bloch,
    evolve_rk4,
    rotating_frame_hamiltonian,
    spectral_radius_bound,
)
from .gates import (
    GateId,
    GateSpec,
    TRANSFER_GATES,
    PHASE_GATES,
    gate_conditions,
    target_matrix,
    params_for_gate,
    fidelity,
    run_gate,
    up_to_phase_deviation,
)
from .sweeps import FidelityGrid, Trajectory, sweep_lambda_gamma, sweep_delta, trajectory

__version__ = "0.1.0"
