import math
import re

import numpy as np
import pytest

from becgates import evolve
from becgates.evolve import (
    evolve_oracle,
    evolve_oracle_at_times,
    evolve_oracle_bloch,
    evolve_rk4,
    full_propagator_analytic,
    qubit_propagator,
)
from becgates.fock import AcsParams, acs_state, bloch_vector
from becgates.gates import GateId, gate_conditions, params_for_gate, up_to_phase_deviation
from becgates.params import PhysicalParams, derive_params


def make_params(**kw) -> PhysicalParams:
    base = dict(
        omega_a=1.0,
        omega_b=0.2,
        gamma_a=0.0,
        gamma_b=0.0,
        gamma_ab=0.0,
        g=1.0,
        delta=0.8,
        n_atoms=1,
    )
    base.update(kw)
    return PhysicalParams(**base)


def random_zero_lambda(rng, n_atoms):
    c = rng.uniform(-0.05, 0.05)
    return make_params(
        omega_a=rng.uniform(-2, 2),
        omega_b=rng.uniform(-2, 2),
        gamma_a=c,
        gamma_b=c,
        gamma_ab=c,
        g=rng.uniform(0.3, 2.0),
        delta=rng.uniform(-4, 4),
        n_atoms=n_atoms,
    )


def random_any_lambda(rng, n_atoms):
    return make_params(
        omega_a=rng.uniform(-2, 2),
        omega_b=rng.uniform(-2, 2),
        gamma_a=rng.uniform(-0.05, 0.05),
        gamma_b=rng.uniform(-0.05, 0.05),
        gamma_ab=rng.uniform(-0.05, 0.05),
        g=rng.uniform(0.3, 2.0),
        delta=rng.uniform(-4, 4),
        n_atoms=n_atoms,
    )


def rz(a):
    return np.diag([np.exp(-0.5j * a), np.exp(0.5j * a)])


def ry(a):
    return np.array(
        [[math.cos(a / 2), -math.sin(a / 2)], [math.sin(a / 2), math.cos(a / 2)]], dtype=complex
    )


# ---------------------------------------------------------------- qubit propagator


def test_qubit_propagator_unitary():
    rng = np.random.default_rng(21)
    for _ in range(50):
        p = random_any_lambda(rng, 1)
        u = qubit_propagator(p, rng.uniform(0, 10))
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12


def test_qubit_propagator_matches_rotation_product():
    rng = np.random.default_rng(23)
    for _ in range(50):
        p = random_any_lambda(rng, 1)
        dp = derive_params(p)
        t = rng.uniform(0, 10)
        u = qubit_propagator(p, t)
        ref = (
            np.exp(-1j * dp.eta * t)
            * rz(p.delta * t) @ ry(-dp.xi) @ rz(dp.varpi * t) @ ry(dp.xi)
        )
        assert np.max(np.abs(u - ref)) < 1e-12


def test_uncoupled_has_exactly_zero_transfer():
    for delta in (-1.5, 1.5):  # both xi = 0 and xi = pi branches
        p = make_params(g=0.0, delta=delta)
        u = qubit_propagator(p, 2.7)
        assert u[0, 1] == 0.0
        assert u[1, 0] == 0.0


def test_not_conditions_full_transfer():
    spec = gate_conditions(GateId.NOT, 1.0)
    p = params_for_gate(spec, 1)
    u = qubit_propagator(p, spec.t_gate)
    assert abs(u[0, 1]) == pytest.approx(1.0, abs=1e-12)
    assert abs(u[1, 0]) == pytest.approx(1.0, abs=1e-12)
    assert abs(u[0, 0]) < 1e-12
    assert abs(u[1, 1]) < 1e-12


def test_hadamard_conditions_up_to_phase():
    spec = gate_conditions(GateId.HADAMARD, 1.0)
    p = params_for_gate(spec, 1)
    u = qubit_propagator(p, spec.t_gate)
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    assert up_to_phase_deviation(u, h) < 1e-10


def test_propagator_composition_matches_oracle():
    rng = np.random.default_rng(29)
    for _ in range(10):
        p = random_zero_lambda(rng, 1)
        t1, t2 = rng.uniform(0.2, 2.0, size=2)
        u = qubit_propagator(p, t1 + t2)
        s0 = acs_state(AcsParams(theta=rng.uniform(0.3, 2.8), phi=rng.uniform(0, 6.2)), 1)
        ref = evolve_oracle(p, s0, t1 + t2).amplitudes
        assert np.max(np.abs(u @ s0.amplitudes - ref)) < 1e-10


def test_negative_time_rejected():
    p = make_params()
    with pytest.raises(ValueError, match=">= 0"):
        qubit_propagator(p, -1.0)


TIME_MESSAGE = "evolution time must be finite and >= 0"


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize(
    "call, what",
    [
        (lambda p, s0, bad: qubit_propagator(p, bad), TIME_MESSAGE),
        (lambda p, s0, bad: full_propagator_analytic(p, bad), TIME_MESSAGE),
        (lambda p, s0, bad: evolve_rk4(p, s0, bad, 1e-3), TIME_MESSAGE),
        (lambda p, s0, bad: evolve_rk4(p, s0, 1.0, bad), "dt must be finite and > 0"),
    ],
    ids=["qubit_propagator", "full_propagator_analytic", "evolve_rk4-t", "evolve_rk4-dt"],
)
def test_non_finite_times_rejected(call, what, bad):
    spec = gate_conditions(GateId.NOT, 1.0)
    p = params_for_gate(spec, 3)
    s0 = acs_state(AcsParams(theta=0.3, phi=0.0), 3)
    with pytest.raises(ValueError, match=re.escape(f"{what}, got {bad!r}") + "$"):
        call(p, s0, bad)


# ------------------------------------------------------- full analytic propagator


def test_analytic_identity_at_t0():
    p = make_params(n_atoms=17)
    u = full_propagator_analytic(p, 0.0)
    assert np.max(np.abs(u - np.eye(18))) < 1e-13


def test_analytic_rejects_nonlinear():
    p = make_params(gamma_ab=0.3, n_atoms=5)
    with pytest.raises(ValueError, match="lambda_nl"):
        full_propagator_analytic(p, 1.0)


def test_analytic_single_boson_equals_qubit_propagator():
    rng = np.random.default_rng(31)
    for _ in range(20):
        p = random_zero_lambda(rng, 1)
        t = rng.uniform(0, 5)
        u_full = full_propagator_analytic(p, t)
        u_2x2 = qubit_propagator(p, t)
        assert np.max(np.abs(u_full - u_2x2)) < 1e-12


def test_analytic_is_unitary_large_n():
    rng = np.random.default_rng(37)
    p = random_zero_lambda(rng, 100)
    u = full_propagator_analytic(p, 2.3)
    assert np.max(np.abs(u.conj().T @ u - np.eye(101))) < 1e-10


def test_analytic_maps_acs_to_rotated_acs():
    # the full-space propagator must act on an ACS exactly as the 2x2
    # propagator acts on its spinor
    rng = np.random.default_rng(41)
    for _ in range(10):
        n = int(rng.integers(2, 51))
        p = random_zero_lambda(rng, n)
        t = rng.uniform(0.2, 4.0)
        theta, phi = rng.uniform(0.2, 2.9), rng.uniform(0, 2 * math.pi)
        s0 = acs_state(AcsParams(theta=theta, phi=phi), n)
        evolved = full_propagator_analytic(p, t) @ s0.amplitudes
        spinor = np.array([math.cos(theta / 2), math.sin(theta / 2) * np.exp(1j * phi)])
        alpha, beta = qubit_propagator(p, t) @ spinor
        from becgates.fock import acs_from_spinor

        expected = acs_from_spinor(alpha, beta, n).amplitudes
        assert abs(np.vdot(expected, evolved)) >= 1 - 1e-10


# ----------------------------------------------------------------------- oracle


def test_oracle_preserves_norm():
    rng = np.random.default_rng(43)
    for _ in range(10):
        n = int(rng.integers(1, 80))
        p = random_any_lambda(rng, n)
        s0 = acs_state(AcsParams(theta=rng.uniform(0, math.pi), phi=rng.uniform(0, 6.2)), n)
        out = evolve_oracle(p, s0, rng.uniform(0, 5))
        assert abs(out.norm() - 1.0) < 1e-10


def test_oracle_dimension_mismatch():
    p = make_params(n_atoms=4)
    s0 = acs_state(AcsParams(theta=0.3, phi=0.0), 5)
    with pytest.raises(ValueError, match="n_atoms"):
        evolve_oracle(p, s0, 1.0)


def test_oracle_rejects_unnormalized_state():
    from becgates.fock import StateVector

    p = make_params(n_atoms=2)
    s0 = StateVector(n_atoms=2, amplitudes=np.array([1.0, 1.0, 0.0]))
    with pytest.raises(ValueError, match="normalized"):
        evolve_oracle(p, s0, 1.0)


def test_oracle_freezes_populations_without_coupling():
    p = make_params(g=0.0, gamma_a=0.02, gamma_b=0.01, gamma_ab=0.03, n_atoms=6)
    s0 = acs_state(AcsParams(theta=0.0, phi=0.0), 6)  # Fock basis state
    out = evolve_oracle(p, s0, 3.1)
    assert abs(abs(out.amplitudes[0]) - 1.0) < 1e-12
    assert np.max(np.abs(out.amplitudes[1:])) < 1e-12


def test_oracle_agrees_with_analytic_at_zero_lambda():
    rng = np.random.default_rng(47)
    for _ in range(20):
        n = int(rng.integers(2, 60))
        p = random_zero_lambda(rng, n)
        s0 = acs_state(AcsParams(theta=rng.uniform(0.1, 3.0), phi=rng.uniform(0, 6.2)), n)
        t = rng.uniform(0.2, 4.0)
        a = evolve_oracle(p, s0, t).amplitudes
        b = full_propagator_analytic(p, t) @ s0.amplitudes
        assert abs(np.vdot(b, a)) >= 1 - 1e-8


def test_oracle_preserves_acs_bloch_length_at_zero_lambda():
    rng = np.random.default_rng(53)
    p = random_zero_lambda(rng, 40)
    s0 = acs_state(AcsParams(theta=1.1, phi=0.4), 40)
    for s in evolve_oracle_at_times(p, s0, np.linspace(0.0, 6.0, 7)):
        assert abs(bloch_vector(s).length() - 1.0) < 1e-8


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, -math.inf])
def test_oracle_rejects_bad_times_before_solving(monkeypatch, bad):
    def no_solve(diag, off):
        raise AssertionError("the eigensolve ran before the times were checked")

    monkeypatch.setattr(evolve, "_tridiagonal_eigh", no_solve)
    p = make_params(n_atoms=3)
    s0 = acs_state(AcsParams(theta=0.3, phi=0.0), 3)
    first = re.escape(f"must be finite and >= 0, got {bad!r}") + "$"
    with pytest.raises(ValueError, match=first):
        evolve_oracle(p, s0, bad)
    # the first bad time is named, wherever it sits and whatever follows it
    times = [0.0, 1.0, bad, -2.0, math.nan]
    with pytest.raises(ValueError, match=first):
        evolve_oracle_at_times(p, s0, times)
    with pytest.raises(ValueError, match=first):
        evolve_oracle_bloch(p, s0, times)


def test_oracle_bloch_rows_match_bloch_vector_of_each_state():
    rng = np.random.default_rng(61)
    p = random_any_lambda(rng, 30)
    s0 = acs_state(AcsParams(theta=1.1, phi=0.4), 30)
    times = np.linspace(0.0, 3.0, 300)  # two full blocks and a partial one
    rows = evolve_oracle_bloch(p, s0, times)
    states = evolve_oracle_at_times(p, s0, times)
    assert rows.shape == (300, 3) and len(states) == 300
    for row, s in zip(rows, states):
        b = bloch_vector(s)
        assert np.max(np.abs(row - (b.x, b.y, b.z))) < 1e-12
    assert evolve_oracle_bloch(p, s0, []).shape == (0, 3)
    assert evolve_oracle_at_times(p, s0, []) == []


def test_bloch_readout_turns_the_rotating_frame_by_the_detuning():
    # at phase-gate detuning (delta = 100 g) the frame phase delta t sweeps many turns; rows read
    # out in the rotating frame and turned by e^{+i delta t} must equal the Bloch vectors of the
    # Fock-basis (lab-frame) states
    spec = gate_conditions(GateId.S, 1.0)
    assert spec.delta_g == 100.0 * spec.g
    p = params_for_gate(spec, 40, {"gamma_ab": 0.02})
    s0 = acs_state(AcsParams(theta=1.1, phi=0.4), 40)
    times = np.linspace(0.0, 8.0 * spec.t_gate, 500)
    assert p.delta * times[-1] > 10.0 * math.pi  # six turns
    rows = evolve_oracle_bloch(p, s0, times)
    for row, s in zip(rows, evolve_oracle_at_times(p, s0, times)):
        b = bloch_vector(s)
        assert np.max(np.abs(row - (b.x, b.y, b.z))) < 1e-12


def test_pole_state_without_coupling_occupies_one_eigenvector():
    # at g = 0 the Fock states are the eigenvectors, so the pole |N, 0> is a window of width 1
    n = 1000
    p = make_params(g=0.0, delta=0.0, n_atoms=n)
    s0 = acs_state(AcsParams(theta=0.0, phi=0.0), n)
    evals, evecs = evolve._tridiagonal_eigh(*evolve.rotating_frame_hamiltonian(p))
    kept = evolve._occupied_window(evecs.T @ s0.amplitudes.real + 1j * (evecs.T @ s0.amplitudes.imag))
    assert kept.stop - kept.start == 1
    eps = (n + 1) * np.finfo(float).eps
    rows = evolve_oracle_bloch(p, s0, np.linspace(0.0, 5.0, 11))
    assert np.max(np.abs(rows - (0.0, 0.0, 1.0))) <= 2.0 * eps + eps**2
    assert evolve_oracle_bloch(p, s0, []).shape == (0, 3)


def test_only_the_bloch_readout_propagates_on_the_occupied_window(monkeypatch):
    # evolve, evolve_oracle_at_times and every sweep cell keep the whole eigenbasis, and their bits
    spec = gate_conditions(GateId.NOT, 1.0)
    p = params_for_gate(spec, 60, {"gamma_ab": 0.02})
    s0 = acs_state(AcsParams(theta=1.1, phi=0.4), 60)
    times = [0.0, 0.5 * spec.t_gate, spec.t_gate]
    states = evolve_oracle_at_times(p, s0, times)
    single = evolve_oracle(p, s0, spec.t_gate)
    rows = evolve_oracle_bloch(p, s0, times)
    monkeypatch.setattr(evolve, "_occupied_window", lambda coeffs: slice(0, 1))  # cuts the state
    for a, b in zip(evolve_oracle_at_times(p, s0, times), states):
        assert np.array_equal(a.amplitudes, b.amplitudes)
    assert np.array_equal(evolve_oracle(p, s0, spec.t_gate).amplitudes, single.amplitudes)
    assert np.max(np.abs(evolve_oracle_bloch(p, s0, times) - rows)) > 0.1  # the patch bites


# ------------------------------------------------------------------------- RK4


def test_rk4_rejects_large_step():
    spec = gate_conditions(GateId.NOT, 1.0)
    p = params_for_gate(spec, 10)
    s0 = acs_state(AcsParams(theta=0.5, phi=0.0), 10)
    with pytest.raises(ValueError, match="step too large"):
        evolve_rk4(p, s0, spec.t_gate, dt=spec.t_gate / 200)


def test_rk4_fourth_order_convergence():
    spec = gate_conditions(GateId.NOT, 1.0)
    p = params_for_gate(spec, 10)
    s0 = acs_state(AcsParams(theta=3 * math.pi / 8, phi=0.0), 10)
    exact = evolve_oracle(p, s0, spec.t_gate).amplitudes
    e1 = np.linalg.norm(evolve_rk4(p, s0, spec.t_gate, dt=spec.t_gate / 2000).amplitudes - exact)
    e2 = np.linalg.norm(evolve_rk4(p, s0, spec.t_gate, dt=spec.t_gate / 4000).amplitudes - exact)
    assert 12.0 < e1 / e2 < 20.0


def test_rk4_norm_drift_small():
    spec = gate_conditions(GateId.NOT, 1.0)
    p = params_for_gate(spec, 20)
    s0 = acs_state(AcsParams(theta=3 * math.pi / 8, phi=0.0), 20)
    out = evolve_rk4(p, s0, spec.t_gate, dt=spec.t_gate / 10_000)
    assert abs(out.norm() - 1.0) < 1e-8


def test_rk4_matches_oracle_with_nonlinearity():
    rng = np.random.default_rng(59)
    for _ in range(3):
        p = random_any_lambda(rng, 15)
        s0 = acs_state(AcsParams(theta=rng.uniform(0.3, 2.8), phi=rng.uniform(0, 6.2)), 15)
        t = rng.uniform(0.5, 2.0)
        a = evolve_oracle(p, s0, t).amplitudes
        b = evolve_rk4(p, s0, t, dt=t / 20_000).amplitudes
        assert abs(np.vdot(b / np.linalg.norm(b), a)) >= 1 - 1e-6
