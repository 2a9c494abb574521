import dataclasses
import math

import numpy as np
import pytest

from becgates.evolve import evolve_oracle, qubit_propagator
from becgates.fock import AcsParams, acs_state, bloch_vector
from becgates.gates import (
    GateId,
    GateSpec,
    PHASE_GATES,
    TRANSFER_GATES,
    fidelity,
    gate_conditions,
    gate_spec_to_dict,
    params_for_gate,
    run_gate,
    target_matrix,
    up_to_phase_deviation,
)
from becgates.params import derive_params


def ideal_propagator(spec: GateSpec) -> np.ndarray:
    return qubit_propagator(params_for_gate(spec, 1), spec.t_gate)


# ------------------------------------------------------------- condition tables


def test_not_conditions_table():
    g = 0.37
    spec = gate_conditions(GateId.NOT, g)
    assert spec.delta_g == 4 * g
    assert spec.gamma_g == 4 * g
    assert spec.t_gate == 2 * math.pi / spec.delta_g
    assert spec.detuning_factor is None


def test_y_conditions_table():
    g = 1.9
    spec = gate_conditions(GateId.Y, g)
    assert spec.delta_g == 2 * g
    assert spec.gamma_g == 2 * g
    assert spec.t_gate == math.pi / spec.delta_g


def test_hadamard_conditions_table():
    g = 1.0
    spec = gate_conditions(GateId.HADAMARD, g)
    assert spec.delta_g == 8 / math.sqrt(2) * g
    assert spec.gamma_g == -2 * g + spec.delta_g
    assert spec.t_gate == 2 * math.pi / spec.delta_g


def test_phase_gate_conditions_table():
    g = 1.0
    z = gate_conditions(GateId.Z, g, 100.0)
    assert (z.delta_g, z.gamma_g) == (100.0, -200.0)
    assert z.t_gate == math.pi / (2 * z.delta_g)
    s = gate_conditions(GateId.S, g, 100.0)
    assert (s.delta_g, s.gamma_g) == (100.0, 100.0 / 3)  # a division, not 100 * (1/3)
    assert s.t_gate == 3 * math.pi / (2 * s.delta_g)
    t = gate_conditions(GateId.T, g, 100.0)
    assert (t.delta_g, t.gamma_g) == (100.0, 50.0)
    assert t.t_gate == math.pi / (2 * t.delta_g)


def test_detuning_factor_floor():
    with pytest.raises(ValueError, match="asymptotically"):
        gate_conditions(GateId.T, 1.0, 10.0)
    # ignored for transfer gates
    spec = gate_conditions(GateId.NOT, 1.0, 1.0)
    assert spec.delta_g == 4.0


@pytest.mark.parametrize(
    "gate,g,factor",
    [(GateId.NOT, 1e308, 100.0), (GateId.NOT, 1e-320, 100.0), (GateId.Z, 1e-320, 100.0),
     (GateId.Z, 1.0, 1e308), (GateId.S, 1.0, 1e308)],
)
def test_gate_conditions_out_of_float_range_rejected(gate, g, factor):
    with pytest.raises(ValueError, match="out of floating-point range"):
        gate_conditions(gate, g, factor)


def test_gate_times_at_chip_coupling():
    # g = 2*pi*1.5 kHz: t_NOT = t_Y = 0.1667 ms, t_H = 0.1179 ms
    g = 2 * math.pi * 1500.0
    assert gate_conditions(GateId.NOT, g).t_gate * 1e3 == pytest.approx(0.1667, abs=5e-5)
    assert gate_conditions(GateId.Y, g).t_gate * 1e3 == pytest.approx(0.1667, abs=5e-5)
    assert gate_conditions(GateId.HADAMARD, g).t_gate * 1e3 == pytest.approx(0.1179, abs=5e-5)


def test_gate_coupling_round_trip():
    for gate in GateId:
        spec = gate_conditions(gate, 0.83, 130.0)
        assert params_for_gate(spec, 1).g == 0.83


# ------------------------------------------------------------------ target matrices


def test_target_matrices():
    assert np.array_equal(target_matrix(GateId.NOT), np.array([[0, 1], [1, 0]]))
    assert np.array_equal(target_matrix(GateId.Z), np.diag([1.0, -1.0]))
    t = target_matrix(GateId.T)
    assert t[0, 0] == 1.0 and t[0, 1] == 0.0 and t[1, 0] == 0.0
    assert t[1, 1] == pytest.approx(np.exp(1j * math.pi / 4), abs=1e-16)
    y = target_matrix(GateId.Y)
    assert np.array_equal(y, np.array([[0, -1j], [1j, 0]]))
    s = target_matrix(GateId.S)
    assert s[1, 1] == pytest.approx(1j, abs=1e-16)
    h = target_matrix(GateId.HADAMARD)
    assert np.allclose(h, np.array([[1, 1], [1, -1]]) / math.sqrt(2), atol=1e-16)


# ------------------------------------------------------------------------ fidelity


def test_fidelity_basics():
    a = acs_state(AcsParams(theta=0.7, phi=1.1), 9)
    assert fidelity(a, a) == pytest.approx(1.0, abs=1e-14)
    north = acs_state(AcsParams(theta=0.0, phi=0.0), 9)
    south = acs_state(AcsParams(theta=math.pi, phi=0.0), 9)
    assert fidelity(north, south) == 0.0


def test_fidelity_phase_insensitive():
    a = acs_state(AcsParams(theta=0.7, phi=1.1), 9)
    b = acs_state(AcsParams(theta=0.9, phi=0.3), 9)
    f = fidelity(a, b)
    from becgates.fock import StateVector

    b2 = StateVector(n_atoms=9, amplitudes=np.exp(0.77j) * b.amplitudes)
    assert fidelity(a, b2) == pytest.approx(f, abs=1e-15)


def test_fidelity_dimension_mismatch():
    a = acs_state(AcsParams(theta=0.7, phi=1.1), 9)
    b = acs_state(AcsParams(theta=0.7, phi=1.1), 8)
    with pytest.raises(ValueError, match="n_atoms"):
        fidelity(a, b)


# ------------------------------------------------------- propagator versus targets


@pytest.mark.parametrize("gate", sorted(TRANSFER_GATES, key=lambda g: g.value))
def test_transfer_gate_propagators(gate):
    spec = gate_conditions(gate, 1.0)
    assert up_to_phase_deviation(ideal_propagator(spec), spec.target) <= 1e-3


@pytest.mark.parametrize("gate", sorted(PHASE_GATES, key=lambda g: g.value))
@pytest.mark.parametrize("factor", [100.0, 300.0])
def test_phase_gate_propagators(gate, factor):
    spec = gate_conditions(gate, 1.0, factor)
    assert up_to_phase_deviation(ideal_propagator(spec), spec.target) <= 3.0 / factor


# ------------------------------------------------------------------------ run_gate


def test_run_gate_not_swaps_amplitudes():
    theta0 = 3 * math.pi / 8  # alpha = cos(3*pi/16)
    spec = gate_conditions(GateId.NOT, 1.0)
    final, f = run_gate(spec, AcsParams(theta=theta0, phi=0.0), 30)
    assert f >= 1 - 1e-8
    # the swapped spinor lands at the reflected polar angle
    b = bloch_vector(final)
    assert b.z == pytest.approx(-math.cos(theta0), abs=1e-8)


def test_run_gate_hadamard_creates_superposition():
    spec = gate_conditions(GateId.HADAMARD, 1.0)
    final, f = run_gate(spec, AcsParams(theta=0.0, phi=0.0), 40)
    assert f >= 1 - 1e-8
    b = bloch_vector(final)
    assert abs(b.x - 1.0) < 1e-6 and abs(b.y) < 1e-6 and abs(b.z) < 1e-6


def test_run_gate_z_fixes_pole():
    # the pole is an eigenstate of Z, so unlike generic states its fidelity
    # is not limited by the O(1/k) relative-phase residual, only by the
    # quadratically small population leakage; a large factor isolates that
    spec = gate_conditions(GateId.Z, 1.0, 1e6)
    _, f = run_gate(spec, AcsParams(theta=0.0, phi=0.0), 25)
    assert f == pytest.approx(1.0, abs=1e-10)


def test_run_gate_not_twice_restores_state():
    spec = gate_conditions(GateId.NOT, 1.0)
    initial = AcsParams(theta=1.1, phi=0.7)
    n = 35
    once, _ = run_gate(spec, initial, n)
    from becgates.fock import acs_params_from_state

    twice, _ = run_gate(spec, acs_params_from_state(once), n)
    assert fidelity(acs_state(initial, n), twice) >= 1 - 1e-6


@pytest.mark.parametrize("gamma_ab", [0.0, 0.02])
def test_run_gate_without_state_keeps_the_fidelity(gamma_ab):
    spec = gate_conditions(GateId.HADAMARD, 1.0)
    initial = AcsParams(theta=1.1, phi=0.7)
    _, f = run_gate(spec, initial, 40, {"gamma_ab": gamma_ab})
    assert run_gate(spec, initial, 40, {"gamma_ab": gamma_ab}, with_state=False) == (None, f)


def test_hadamard_involution():
    spec = gate_conditions(GateId.HADAMARD, 1.0)
    u = ideal_propagator(spec)
    assert up_to_phase_deviation(u @ u, np.eye(2)) < 1e-10


def test_run_gate_invariant_under_common_trap_shift():
    # a common shift of both trap frequencies changes only the global phase
    spec = gate_conditions(GateId.Y, 1.0)
    p = params_for_gate(spec, 20)
    shifted = dataclasses.replace(p, omega_a=p.omega_a + 7.3, omega_b=p.omega_b + 7.3)
    s0 = acs_state(AcsParams(theta=0.9, phi=2.2), 20)
    f = fidelity(evolve_oracle(p, s0, spec.t_gate), evolve_oracle(shifted, s0, spec.t_gate))
    assert f == pytest.approx(1.0, abs=1e-12)


def test_run_gate_rejects_bad_overrides():
    spec = gate_conditions(GateId.NOT, 1.0)
    with pytest.raises(ValueError, match="gamma_ab"):
        run_gate(spec, AcsParams(theta=0.1, phi=0.0), 5, {"gamma_ab": math.inf})
    with pytest.raises(ValueError, match="unknown override"):
        run_gate(spec, AcsParams(theta=0.1, phi=0.0), 5, {"bogus": 1.0})


def test_default_realization():
    spec = gate_conditions(GateId.HADAMARD, 1.0)
    p = params_for_gate(spec, 12)
    dp = derive_params(p)
    assert dp.lambda_nl == 0.0
    assert dp.gamma_fs == pytest.approx(spec.gamma_g, rel=1e-15)
    assert p.delta == spec.delta_g
    # nonlinearity knob leaves gamma_fs untouched
    p2 = params_for_gate(spec, 12, {"gamma_ab": 0.04})
    dp2 = derive_params(p2)
    assert dp2.lambda_nl == pytest.approx(-0.02, rel=1e-15)
    assert dp2.gamma_fs == dp.gamma_fs


# --------------------------------------------------------------------- spec dicts


def test_gate_spec_json_round_trip():
    for gate in GateId:
        spec = gate_conditions(gate, 1.0, 75.0)
        d = gate_spec_to_dict(spec)
        assert set(d) == {"gate", "t_gate", "delta_g", "gamma_g", "detuning_factor"}


def test_gate_spec_validation():
    with pytest.raises(ValueError, match="t_gate"):
        GateSpec(gate=GateId.NOT, g=1.0, t_gate=0.0, delta_g=4.0, gamma_g=4.0)
