"""The tridiagonal eigensolver behind the oracle, its dense fallback, and a Chebyshev check.

The oracle solves H_U with LAPACK ``dstevd`` where numpy bundles an ILP64
scipy-openblas, and with the dense ``np.linalg.eigh`` otherwise.  Both paths
must agree, and both must agree with the Chebyshev propagator of
``chebyshev.py`` at the production size N = 1000, where RK4 and mpmath cannot
reach.  So must the blocked propagation of many times from one solve, and
the trajectory's propagation on the window of eigenvectors the state occupies.
"""

import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from becgates import evolve
from becgates.evolve import evolve_oracle
from becgates.fock import AcsParams, acs_state, bloch_vector
from becgates.gates import GateId, gate_conditions, params_for_gate
from becgates.params import derive_params
from becgates.sweeps import trajectory
from chebyshev import bands, bessel_j, chebyshev_evolve

EPS = np.finfo(float).eps


def dense_path():
    """Patch out the LAPACK probe, as on a numpy build without scipy-openblas ILP64."""
    return mock.patch.object(evolve, "_dstevd", lambda: None)


def count_dense_solves(monkeypatch) -> list:
    calls = []
    eigh = np.linalg.eigh

    def counted(h):
        calls.append(h.shape)
        return eigh(h)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def random_bands(size: int):
    rng = np.random.default_rng(size)
    return rng.normal(size=size), rng.normal(size=size - 1)


def nonlinear_cell(n: int):
    spec = gate_conditions(GateId.NOT, 1.0)
    p = params_for_gate(spec, n, {"gamma_ab": 0.04, "omega_ab": 1.1 * spec.gamma_g})
    return p, acs_state(AcsParams(theta=math.pi / 8.0, phi=0.3), n), spec.t_gate


def _reference_build() -> bool:
    lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    return lapack["name"] == "scipy-openblas" and "USE64BITINT" in lapack["openblas configuration"]


@pytest.mark.skipif(not _reference_build(), reason="numpy does not bundle scipy-openblas ILP64")
def test_probe_finds_dstevd_on_the_reference_build():
    # the reference numpy build must not fall back to the dense solve unnoticed
    assert evolve._dstevd() is not None
    assert evolve._dstevd().__name__ == "scipy_dstevd_64_"


def test_dense_path_runs_when_the_probe_fails(monkeypatch):
    p, s0, t = nonlinear_cell(20)
    fast = evolve_oracle(p, s0, t).amplitudes
    calls = count_dense_solves(monkeypatch)
    monkeypatch.setattr(evolve, "_dstevd", lambda: None)
    dense = evolve_oracle(p, s0, t).amplitudes
    assert calls == [(21, 21)]
    assert np.max(np.abs(dense - fast)) <= 1e-12


def test_dense_path_runs_when_lapack_reports_failure(monkeypatch):
    failed = []

    def failing_dstevd(*args):  # args[10] is INFO
        args[10].value = 1
        failed.append(True)

    p, s0, t = nonlinear_cell(20)
    fast = evolve_oracle(p, s0, t).amplitudes
    calls = count_dense_solves(monkeypatch)
    monkeypatch.setattr(evolve, "_dstevd", lambda: failing_dstevd)
    dense = evolve_oracle(p, s0, t).amplitudes
    assert failed == [True] and calls == [(21, 21)]
    assert np.max(np.abs(dense - fast)) <= 1e-12


@pytest.mark.parametrize("size", [1, 2, 100, 1000])  # size 1 has an empty off-diagonal
def test_both_paths_agree_on_eigenvalues(size):
    diag, off = random_bands(size)
    evals, evecs = evolve._tridiagonal_eigh(diag, off)
    with dense_path():
        dense_evals, _ = evolve._tridiagonal_eigh(diag, off)
    assert evals.shape == (size,) and evecs.shape == (size, size)
    assert np.max(np.abs(evals - dense_evals)) <= 1e-12
    h = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    assert np.max(np.abs(h @ evecs - evecs * evals)) <= 1e-12
    assert np.max(np.abs(evecs.T @ evecs - np.eye(size))) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 100, 1000])
def test_both_paths_agree_on_propagated_states(n):
    p, s0, t = nonlinear_cell(n)
    fast = evolve.evolve_oracle_at_times(p, s0, [0.0, 0.5 * t, t])
    with dense_path():
        dense = evolve.evolve_oracle_at_times(p, s0, [0.0, 0.5 * t, t])
    for a, b in zip(fast, dense):
        assert np.max(np.abs(a.amplitudes - b.amplitudes)) <= 1e-12


@pytest.mark.parametrize("x", [0.5, 7.0, 100.0, 900.0])
def test_miller_bessel_coefficients_match_mpmath(x):
    j = bessel_j(x)
    assert abs(j[-1]) > 1e-20 and len(j) > x
    for k in sorted({0, 1, int(x) // 2, int(x), len(j) - 1}):
        assert abs(j[k] - float(mpmath.besselj(k, x, maxprec=20000))) <= 1e-15


@settings(derandomize=True, deadline=None, max_examples=12)
@given(
    st.sampled_from(list(GateId)),
    st.integers(1, 1000),
    st.floats(1e-4, 0.02),  # lambda, in units of g
    st.floats(-0.2, 0.2),  # relative shift of gamma
    st.floats(-0.3, 0.3),  # relative error of delta
    st.floats(0.0, math.pi),
)
@example(GateId.NOT, 1000, 0.02, 0.1, 0.0, math.pi / 8.0)
def test_oracle_matches_chebyshev_propagator_at_gate_time(gate, n, lam, dgamma, ddelta, theta):
    spec = gate_conditions(gate, 1.0)
    p = params_for_gate(spec, n, {"gamma_ab": 2.0 * lam, "omega_ab": spec.gamma_g * (1.0 + dgamma),
                                  "delta": spec.delta_g * (1.0 + ddelta)})
    s0 = acs_state(AcsParams(theta=theta, phi=0.7), n)
    ref, terms = chebyshev_evolve(p, s0.amplitudes, spec.t_gate)
    # roundoff grows with the terms summed in the expansion, and with the phase |E| t
    # of the oracle's eigenvalues; scaling the oracle's coupling by 1 + 1e-6 moves the
    # N = 1000 example by 1.8e-5, five orders above its tol
    diag, off = bands(p)
    phase = (np.max(np.abs(diag)) + 2.0 * np.max(np.abs(off), initial=0.0)) * spec.t_gate
    tol = 16.0 * EPS * (terms + phase)
    assert np.max(np.abs(evolve_oracle(p, s0, spec.t_gate).amplitudes - ref)) <= tol
    with dense_path():
        assert np.max(np.abs(evolve_oracle(p, s0, spec.t_gate).amplitudes - ref)) <= tol


def test_blocked_trajectory_matches_single_time_oracle_and_chebyshev(monkeypatch):
    # N = 1000 with self-trapping, over three full blocks of times and a partial one
    n, block = 1000, evolve._BLOCK
    n_samples = 3 * block + 37
    spec = gate_conditions(GateId.Z, 1.0)
    p = params_for_gate(spec, n, {"gamma_ab": 0.01, "omega_ab": 1.1 * spec.gamma_g})
    initial = AcsParams(theta=math.pi / 8.0, phi=0.3)
    s0 = acs_state(initial, n)
    tr = trajectory(p, initial, spec.t_gate, n_samples)
    states = evolve.evolve_oracle_at_times(p, s0, tr.times)
    # the states on either side of each block boundary, with the tolerance of the test above
    diag, off = bands(p)
    radius = np.max(np.abs(diag)) + 2.0 * np.max(np.abs(off))
    edges = [i for k in range(block, n_samples, block) for i in (k - 1, k)] + [n_samples - 1]
    for i in edges:
        ref, terms = chebyshev_evolve(p, s0.amplitudes, tr.times[i])
        tol = 16.0 * EPS * (terms + radius * tr.times[i])
        assert np.max(np.abs(states[i].amplitudes - ref)) <= tol
    # every Bloch row against a single-time evolve, all sharing one eigendecomposition
    solve = evolve._tridiagonal_eigh(*evolve.rotating_frame_hamiltonian(p))
    monkeypatch.setattr(evolve, "_tridiagonal_eigh", lambda diag, off: solve)
    for t, point in zip(tr.times, tr.points):
        ref = bloch_vector(evolve_oracle(p, s0, t))
        assert max(abs(point.x - ref.x), abs(point.y - ref.y), abs(point.z - ref.z)) < 1e-12


def _time_sets(t_gate: float) -> dict:
    rng = np.random.default_rng(1000)
    irregular = np.sort(rng.uniform(0.0, t_gate, 300))
    return {
        "linspace": np.linspace(0.0, t_gate, 2001),  # 15 full blocks and a partial one
        "irregular": irregular,  # a different set of steps in every block
        "unsorted": rng.permutation(irregular),  # negative steps
        "duplicated": np.repeat(irregular[::3], rng.integers(1, 4, 100)),  # zero steps
    }


@pytest.mark.parametrize("gamma_ab", [0.0, 0.01])
def test_step_phases_match_the_single_time_oracle_at_every_time(monkeypatch, gamma_ab):
    # a block's eigen-phases are an exact anchor times a running product of step phases;
    # each time must still give its own single-time evolution (the anchor alone)
    n = 1000
    spec = gate_conditions(GateId.Z, 1.0)  # delta = 100 g: large frame phases
    p = params_for_gate(spec, n, {"gamma_ab": gamma_ab, "omega_ab": 1.1 * spec.gamma_g})
    assert (derive_params(p).lambda_nl == 0.0) == (gamma_ab == 0.0)
    s0 = acs_state(AcsParams(theta=math.pi / 8.0, phi=0.3), n)
    solve = evolve._tridiagonal_eigh(*evolve.rotating_frame_hamiltonian(p))
    monkeypatch.setattr(evolve, "_tridiagonal_eigh", lambda diag, off: solve)
    reference = {}
    for name, times in _time_sets(spec.t_gate).items():
        rows = evolve.evolve_oracle_bloch(p, s0, times)
        states = evolve.evolve_oracle_at_times(p, s0, times)
        assert rows.shape == (len(times), 3) and len(states) == len(times), name
        for t, row, state in zip(times.tolist(), rows, states):
            if t not in reference:
                ref = evolve_oracle(p, s0, t)
                b = bloch_vector(ref)
                reference[t] = ref.amplitudes, np.array([b.x, b.y, b.z])
            amplitudes, point = reference[t]
            assert np.max(np.abs(state.amplitudes - amplitudes)) <= 1e-12, (name, t)
            assert np.max(np.abs(row - point)) <= 1e-12, (name, t)


@pytest.mark.parametrize("gamma_ab", [0.0, 0.04])
@pytest.mark.parametrize("dense", [False, True])
def test_trajectory_window_drops_at_most_eps_of_the_norm(monkeypatch, dense, gamma_ab):
    # the Bloch readout propagates only the eigenvectors the state occupies: each end of the
    # ascending eigenvalues it drops holds at most eps^2/2 of |c|^2, eps = (N+1) machine epsilon
    n = 1000
    eps = (n + 1) * EPS
    spec = gate_conditions(GateId.Y, 1.0)
    p = params_for_gate(spec, n, {"gamma_ab": gamma_ab, "omega_ab": 1.1 * spec.gamma_g})
    assert (derive_params(p).lambda_nl == 0.0) == (gamma_ab == 0.0)
    s0 = acs_state(AcsParams(theta=math.pi / 2.0, phi=0.3), n)
    if dense:
        monkeypatch.setattr(evolve, "_dstevd", lambda: None)
    evals, evecs = evolve._tridiagonal_eigh(*evolve.rotating_frame_hamiltonian(p))
    monkeypatch.setattr(evolve, "_tridiagonal_eigh", lambda diag, off: (evals, evecs))
    c = evecs.T @ s0.amplitudes.real + 1j * (evecs.T @ s0.amplitudes.imag)
    weight = c.real**2 + c.imag**2
    kept = evolve._occupied_window(c)
    low, high = np.sum(weight[:kept.start]), np.sum(weight[kept.stop:])
    assert low <= 0.5 * eps**2 and high <= 0.5 * eps**2
    assert math.sqrt(low + high) <= eps
    # no more is kept than the bound needs, and that is a fraction of the basis
    assert low + weight[kept.start] > 0.5 * eps**2 and high + weight[kept.stop - 1] > 0.5 * eps**2
    assert kept.stop - kept.start < (n + 1) // 2

    # every row within 2 eps + eps^2 of the untruncated readout of the same solve, and within
    # the pinned 1e-12 of the single-time oracle
    times = np.linspace(0.0, spec.t_gate, 2 * evolve._BLOCK + 45)
    rows = evolve.evolve_oracle_bloch(p, s0, times)
    assert evolve.evolve_oracle_bloch(p, s0, []).shape == (0, 3)
    with monkeypatch.context() as whole:
        whole.setattr(evolve, "_occupied_window", lambda coeffs: slice(None))
        untruncated = evolve.evolve_oracle_bloch(p, s0, times)
    assert np.max(np.abs(rows - untruncated)) <= 2.0 * eps + eps**2
    for t, row in zip(times[::20].tolist(), rows[::20]):
        b = bloch_vector(evolve_oracle(p, s0, t))
        assert np.max(np.abs(row - (b.x, b.y, b.z))) <= 1e-12, t
