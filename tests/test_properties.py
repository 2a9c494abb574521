"""Differential property tests of the engines against each other.

Hypothesis draws parameter sets with N <= 32; ``derandomize`` makes every
run test the same examples.  A 50-digit mpmath matrix exponential of the
dense H_U anchors the oracle absolutely for N <= 4, so "agree" does not rest
on the engines' mutual consistency alone; a 40-digit mpmath binomial
expansion anchors the coherent states the same way.
"""

import math
from dataclasses import replace

import mpmath
import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from becgates.evolve import (
    _BLOCK,
    _pure_rotation,
    _rotated_acs,
    evolve_oracle,
    evolve_oracle_at_times,
    evolve_oracle_bloch,
    evolve_rk4,
    full_propagator_analytic,
    qubit_propagator,
    rotating_frame_hamiltonian,
    spectral_radius_bound,
)
from becgates.fock import AcsParams, acs_from_spinor, acs_state, pseudo_spin_matrices
from becgates.gates import GateId, fidelity, gate_conditions, params_for_gate, run_gate
from becgates.params import PhysicalParams, derive_params
from becgates.sweeps import trajectory

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)

frequencies = st.floats(-2.0, 2.0)
collisions = st.floats(-0.05, 0.05)
times = st.floats(0.0, 4.0)
states = st.builds(
    AcsParams, theta=st.floats(0.0, math.pi), phi=st.floats(0.0, 2.0 * math.pi, exclude_max=True)
)


@st.composite
def params(draw, n_max=32, zero_lambda=False):
    if zero_lambda:  # (c + c - 2c)/4 is exactly 0
        gamma_a = gamma_b = gamma_ab = draw(collisions)
    else:
        gamma_a, gamma_b, gamma_ab = draw(collisions), draw(collisions), draw(collisions)
    return PhysicalParams(
        omega_a=draw(frequencies),
        omega_b=draw(frequencies),
        gamma_a=gamma_a,
        gamma_b=gamma_b,
        gamma_ab=gamma_ab,
        g=draw(st.floats(0.0, 2.0)),
        delta=draw(st.floats(-4.0, 4.0)),
        n_atoms=draw(st.integers(1, n_max)),
    )


def dense_hamiltonian(p: PhysicalParams) -> np.ndarray:
    """H_U from the pseudo-spin operators: jx = a'b + ab', jz = n_a - n_b."""
    n = p.n_atoms
    jx, _, jz = (m.real for m in pseudo_spin_matrices(n))
    na = 0.5 * (n * np.eye(n + 1) + jz)
    nb = 0.5 * (n * np.eye(n + 1) - jz)
    return (
        (p.omega_a - p.gamma_a) * na
        + (p.omega_b - p.gamma_b) * nb
        + p.gamma_a * na @ na
        + p.gamma_b * nb @ nb
        + 2.0 * p.gamma_ab * na @ nb
        - p.g * jx
        - 0.5 * p.delta * jz
    )


@PROPERTY
@given(params())
def test_rotating_frame_hamiltonian_is_two_real_bands(p):
    diag, off = rotating_frame_hamiltonian(p)
    assert diag.dtype == off.dtype == np.float64
    assert diag.shape == (p.n_atoms + 1,) and off.shape == (p.n_atoms,)
    h = dense_hamiltonian(p)
    scale = 1.0 + np.max(np.abs(h))
    assert np.max(np.abs(diag - np.diag(h))) <= 1e-14 * scale
    assert np.max(np.abs(off - np.diag(h, 1))) <= 1e-14 * scale
    assert np.max(np.abs(off - np.diag(h, -1))) <= 1e-14 * scale


@PROPERTY
@given(params(zero_lambda=True), states, times)
def test_oracle_matches_analytic_propagator_at_zero_lambda(p, initial, t):
    s0 = acs_state(initial, p.n_atoms)
    a = evolve_oracle(p, s0, t).amplitudes
    b = full_propagator_analytic(p, t) @ s0.amplitudes
    assert np.max(np.abs(a - b)) < 1e-9


@PROPERTY
@given(params(n_max=1), states, times)
def test_single_boson_oracle_is_qubit_propagator(p, initial, t):
    s0 = acs_state(initial, 1)
    a = evolve_oracle(p, s0, t).amplitudes
    assert np.max(np.abs(a - qubit_propagator(p, t) @ s0.amplitudes)) < 1e-12


@PROPERTY
@given(params(), states, st.lists(times, min_size=1, max_size=5))
def test_oracle_conserves_norm(p, initial, ts):
    for s in evolve_oracle_at_times(p, acs_state(initial, p.n_atoms), ts):
        assert abs(s.norm() - 1.0) < 1e-12


@settings(PROPERTY, max_examples=10)
@given(params(n_max=8), states, st.floats(0.1, 1.0))
def test_oracle_matches_rk4_with_nonlinearity(p, initial, t):
    assume(abs(derive_params(p).lambda_nl) > 1e-3)
    s0 = acs_state(initial, p.n_atoms)
    a = evolve_oracle(p, s0, t).amplitudes
    b = evolve_rk4(p, s0, t, dt=0.02 / (1.0 + spectral_radius_bound(p))).amplitudes
    assert np.max(np.abs(a - b)) < 1e-6


@PROPERTY
@given(params(), states, times, frequencies)
def test_common_trap_shift_changes_only_global_phase(p, initial, t, shift):
    # H_U gains shift * (n_a + n_b) = shift * N, so the state gains e^{-i shift N t}
    s0 = acs_state(initial, p.n_atoms)
    shifted = replace(p, omega_a=p.omega_a + shift, omega_b=p.omega_b + shift)
    a = evolve_oracle(p, s0, t).amplitudes
    b = evolve_oracle(shifted, s0, t).amplitudes
    assert np.max(np.abs(b - np.exp(-1j * shift * p.n_atoms * t) * a)) < 1e-9


@settings(PROPERTY, max_examples=15)
@given(params(n_max=4), states, times)
def test_oracle_matches_50_digit_matrix_exponential(p, initial, t):
    s0 = acs_state(initial, p.n_atoms)
    with mpmath.workdps(50):
        # the float inputs are exact in mpmath, so only the reference rounds, at 1e-50
        n = p.n_atoms
        h = mpmath.zeros(n + 1, n + 1)
        for k in range(n + 1):
            na, nb = mpmath.mpf(n - k), mpmath.mpf(k)
            h[k, k] = (
                (mpmath.mpf(p.omega_a) - p.gamma_a) * na
                + (mpmath.mpf(p.omega_b) - p.gamma_b) * nb
                + p.gamma_a * na**2
                + p.gamma_b * nb**2
                + 2 * mpmath.mpf(p.gamma_ab) * na * nb
                - mpmath.mpf(p.delta) / 2 * (na - nb)
            )
            if k < n:
                h[k, k + 1] = h[k + 1, k] = -mpmath.mpf(p.g) * mpmath.sqrt((n - k) * (k + 1))
        t_mp = mpmath.mpf(t)
        u = mpmath.expm(-1j * t_mp * h)
        psi = u * mpmath.matrix([mpmath.mpc(complex(c)) for c in s0.amplitudes])
        ref = np.array(
            [complex(mpmath.exp(-0.5j * p.delta * t_mp * (n - 2 * k)) * psi[k]) for k in range(n + 1)]
        )
    assert np.max(np.abs(evolve_oracle(p, s0, t).amplitudes - ref)) < 1e-12


def mpmath_acs(alpha, beta, n: int) -> np.ndarray:
    """sqrt(C(N,k)) alpha^(N-k) beta^k for the normalized spinor, at 40 digits."""
    with mpmath.workdps(40):
        a, b = mpmath.mpc(alpha), mpmath.mpc(beta)
        norm = mpmath.sqrt(abs(a) ** 2 + abs(b) ** 2)
        a, b = a / norm, b / norm
        return np.array([complex(mpmath.sqrt(math.comb(n, k)) * a ** (n - k) * b**k)
                         for k in range(n + 1)])


def assert_amplitudes_close(a: np.ndarray, ref: np.ndarray) -> None:
    # relative to each amplitude, so the far tails count; the largest relative
    # errors measured 5e-14, 5e-13 and 4e-12 at N = 100, 1000 and 5000
    n = len(ref) - 1
    assert np.all(np.abs(a - ref) <= 2e-15 * (n + 10) * np.abs(ref) + 1e-300)


@settings(PROPERTY, max_examples=20)
@given(states, st.integers(1, 300))
@example(AcsParams(theta=1.1, phi=2.3), 5000)
@example(AcsParams(theta=math.pi, phi=4.0), 7)
def test_acs_state_matches_40_digit_binomial_expansion(initial, n):
    with mpmath.workdps(40):
        half = mpmath.mpf(initial.theta) / 2
        alpha = 0 if initial.theta == math.pi else mpmath.cos(half)  # theta = pi is the pole
        beta = mpmath.sin(half) * mpmath.expj(initial.phi)
        ref = mpmath_acs(alpha, beta, n)
    assert_amplitudes_close(acs_state(initial, n).amplitudes, ref)


spinor_parts = st.floats(-2.0, 2.0)


@settings(PROPERTY, max_examples=20)
@given(spinor_parts, spinor_parts, spinor_parts, spinor_parts, st.integers(1, 300))
@example(0.3, -0.2, -0.7, 0.4, 1000)
@example(0.0, 0.0, -0.7, 0.4, 9)
@example(-0.0, 0.0, 0.0, 0.4, 9)
def test_acs_from_spinor_matches_40_digit_binomial_expansion(ar, ai, br, bi, n):
    alpha, beta = complex(ar, ai), complex(br, bi)
    assume(abs(alpha) + abs(beta) > 1e-3)
    # the global spinor phase is dropped: alpha is rotated onto the positive real axis
    with mpmath.workdps(40):
        a, b = mpmath.mpc(alpha), mpmath.mpc(beta)
        ref = mpmath_acs(abs(a), b * abs(a) / a if a != 0 else b, n)
    assert_amplitudes_close(acs_from_spinor(alpha, beta, n).amplitudes, ref)


@PROPERTY
@given(params(zero_lambda=True), states, times)
def test_oracle_keeps_a_coherent_state_coherent_at_zero_lambda(p, initial, t):
    # at lambda = 0 the dynamics is an SU(2) rotation of every atom's spinor
    evolved = evolve_oracle(p, acs_state(initial, p.n_atoms), t).amplitudes
    rotated = acs_from_spinor(*(qubit_propagator(p, t) @ initial.spinor), p.n_atoms).amplitudes
    overlap = np.vdot(rotated, evolved)
    assert abs(abs(overlap) - 1.0) < 1e-9
    assert np.max(np.abs(evolved - overlap / abs(overlap) * rotated)) < 1e-9


@PROPERTY
@given(st.sampled_from(list(GateId)), states, st.integers(1, 32), st.floats(-0.3, 0.3),
       st.floats(-0.3, 0.3))
def test_run_gate_fidelity_is_qubit_fidelity_to_the_n(gate, initial, n, ddelta, dgamma):
    spec = gate_conditions(gate, 1.0)
    overrides = {"delta": spec.delta_g * (1.0 + ddelta), "omega_ab": spec.gamma_g * (1.0 + dgamma)}
    _, f = run_gate(spec, initial, n, overrides)
    half = initial.theta / 2.0
    spinor = np.array([math.cos(half), math.sin(half) * np.exp(1j * initial.phi)])
    u = qubit_propagator(params_for_gate(spec, n, overrides), spec.t_gate)
    f1 = abs(np.vdot(spec.target @ spinor, u @ spinor)) ** 2
    assert abs(f - f1**n) <= 1e-12


# The closed-form lambda = 0 path of run_gate against the oracle, and the oracle's
# lambda = 0 trajectory against the rotated spinor.
gate_cells = (st.sampled_from(list(GateId)), states, st.integers(1, 32), st.floats(-0.3, 0.3),
              st.floats(-0.3, 0.3))


def gate_cell(gate, n, ddelta, dgamma):
    spec = gate_conditions(gate, 1.0)
    overrides = {"delta": spec.delta_g * (1.0 + ddelta), "omega_ab": spec.gamma_g * (1.0 + dgamma)}
    return spec, overrides, params_for_gate(spec, n, overrides)


@PROPERTY
@given(*gate_cells)
@example(GateId.NOT, AcsParams(theta=0.0, phi=0.0), 17, 0.1, -0.2)
@example(GateId.HADAMARD, AcsParams(theta=math.pi, phi=2.5), 17, -0.1, 0.2)
@example(GateId.Y, AcsParams(theta=math.pi, phi=0.0), 32, 0.0, 0.0)
def test_run_gate_state_at_zero_lambda_matches_oracle_and_analytic_propagator(
        gate, initial, n, ddelta, dgamma):
    spec, overrides, p = gate_cell(gate, n, ddelta, dgamma)
    assert derive_params(p).lambda_nl == 0.0
    state, _ = run_gate(spec, initial, n, overrides)
    s0 = acs_state(initial, n)
    # both references carry the global phase
    assert np.max(np.abs(state.amplitudes - evolve_oracle(p, s0, spec.t_gate).amplitudes)) < 1e-9
    analytic = full_propagator_analytic(p, spec.t_gate) @ s0.amplitudes
    assert np.max(np.abs(state.amplitudes - analytic)) < 1e-9


@PROPERTY
@given(*gate_cells)
def test_run_gate_fidelity_at_zero_lambda_matches_oracle(gate, initial, n, ddelta, dgamma):
    spec, overrides, p = gate_cell(gate, n, ddelta, dgamma)
    oracle = evolve_oracle(p, acs_state(initial, n), spec.t_gate)
    reference = fidelity(acs_from_spinor(*(spec.target @ initial.spinor), n), oracle)
    assume(reference > 1e-25)  # below it the oracle's roundoff floor is near
    _, f = run_gate(spec, initial, n, overrides)
    assert abs(f - reference) <= 1e-12


@st.composite
def zero_lambda_params(draw):
    """Zero nonlinearity with equal collision strengths, or with gamma_a != gamma_b."""
    p = draw(params(zero_lambda=True))
    if draw(st.booleans()):  # (2c + 0 - 2c)/4 is exactly 0 as well
        p = replace(p, gamma_a=2.0 * p.gamma_ab, gamma_b=0.0)
    return p


@PROPERTY
@given(zero_lambda_params(), states, st.floats(0.1, 4.0), st.integers(2, 9))
@example(PhysicalParams(omega_a=0.7, omega_b=-0.3, gamma_a=0.08, gamma_b=0.0, gamma_ab=0.04,
                        g=1.1, delta=-0.5, n_atoms=25),
         AcsParams(theta=1.2, phi=0.4), 3.0, 7)
@example(PhysicalParams(omega_a=0.7, omega_b=-0.3, gamma_a=0.08, gamma_b=0.0, gamma_ab=0.04,
                        g=1.1, delta=-0.5, n_atoms=25),
         AcsParams(theta=1.2, phi=0.4), 3.0, 2 * _BLOCK + 44)  # two full blocks and a partial one
def test_trajectory_at_zero_lambda_matches_spinor_rotation(p, initial, t_final, n_samples):
    # an ACS stays an ACS, and its Bloch vector is that of its spinor; trajectory takes that
    # closed form at lambda = 0, so it is held against the oracle on the same times as well
    assert derive_params(p).lambda_nl == 0.0
    tr = trajectory(p, initial, t_final, n_samples)
    oracle = evolve_oracle_bloch(p, acs_state(initial, p.n_atoms), tr.times)
    assert tr.rows.shape == oracle.shape == (n_samples, 3)
    assert np.max(np.abs(tr.rows - oracle)) < 1e-12
    for t, (x, y, z) in zip(tr.times, tr.rows):
        a, b = qubit_propagator(p, t) @ initial.spinor
        ab = a.conjugate() * b
        ref = (2.0 * ab.real, 2.0 * ab.imag, abs(a) ** 2 - abs(b) ** 2)
        assert max(abs(x - ref[0]), abs(y - ref[1]), abs(z - ref[2])) < 1e-12


@PROPERTY
@given(zero_lambda_params(), states, times)
@example(PhysicalParams(omega_a=0.7, omega_b=-0.3, gamma_a=0.08, gamma_b=0.0, gamma_ab=0.04,
                        g=1.1, delta=-0.5, n_atoms=25),
         AcsParams(theta=1.2, phi=0.4), 3.0)
@example(PhysicalParams(omega_a=0.2, omega_b=0.5, gamma_a=0.0, gamma_b=0.0, gamma_ab=0.0,
                        g=0.0, delta=0.3, n_atoms=12),
         AcsParams(theta=math.pi, phi=1.0), 2.5)  # the pole k = N, where r0 = 0
def test_closed_form_state_matches_oracle_and_analytic_propagator(p, initial, t):
    # the lambda = 0 state of the evolve command and run_gate, global phase included
    assert _pure_rotation(p)
    state = _rotated_acs(p, initial.spinor, t).amplitudes
    s0 = acs_state(initial, p.n_atoms)
    assert np.max(np.abs(state - evolve_oracle(p, s0, t).amplitudes)) < 1e-9
    assert np.max(np.abs(state - full_propagator_analytic(p, t) @ s0.amplitudes)) < 1e-9


@PROPERTY
@given(params(), st.lists(times, min_size=1, max_size=8))
def test_qubit_propagator_on_an_array_of_times_matches_each_scalar_call(p, ts):
    u = qubit_propagator(p, np.array(ts))
    assert u.shape == (len(ts), 2, 2)
    for t, u_t in zip(ts, u):
        assert np.max(np.abs(u_t - qubit_propagator(p, t))) <= 1e-15
    if len(ts) % 2 == 0:  # any shape of times: t.shape + (2, 2)
        assert np.array_equal(qubit_propagator(p, np.reshape(ts, (2, -1))),
                              u.reshape(2, -1, 2, 2))


def spectral_radius_reference(p: PhysicalParams) -> float:
    """max |diag| + 2 max |off| of H_U at delta = 0, read off its (N+1)-arrays."""
    diag, off = rotating_frame_hamiltonian(replace(p, delta=0.0))
    return float(np.max(np.abs(diag))) + 2.0 * float(np.max(np.abs(off), initial=0.0))


@PROPERTY
@given(st.builds(lambda p, n: replace(p, n_atoms=n), params(),
                 st.sampled_from([1, 2, 3, 1000]) | st.integers(1, 5000)))
# a quadratic diagonal whose largest |value| lies at its vertex, concave and convex
@example(PhysicalParams(omega_a=0.3, omega_b=-0.2, gamma_a=0.01, gamma_b=-0.02, gamma_ab=0.05,
                        g=0.7, delta=0.0, n_atoms=1000))
@example(PhysicalParams(omega_a=0.3, omega_b=-0.2, gamma_a=0.0, gamma_b=0.0, gamma_ab=-0.05,
                        g=0.7, delta=1.5, n_atoms=999))
def test_spectral_radius_bound_in_closed_form_matches_the_arrays(p):
    ref = spectral_radius_reference(p)
    assert abs(spectral_radius_bound(p) - ref) <= 1e-14 * ref
