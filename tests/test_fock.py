import math

import numpy as np
import pytest

from becgates.fock import (
    AcsParams,
    StateVector,
    acs_from_spinor,
    acs_params_from_state,
    acs_state,
    bloch_vector,
    pseudo_spin_matrices,
    state_from_csv,
    state_to_csv,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]])
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def test_acs_poles():
    s = acs_state(AcsParams(theta=0.0, phi=1.3), 5)
    assert s.amplitudes[0] == 1.0
    assert np.all(s.amplitudes[1:] == 0.0)
    s = acs_state(AcsParams(theta=math.pi, phi=0.0), 4)
    assert abs(s.amplitudes[4]) == pytest.approx(1.0, abs=1e-15)
    assert np.all(s.amplitudes[:4] == 0.0)


def test_acs_equator_two_atoms():
    # binomial expansion by hand: (1/2, 1/sqrt(2), 1/2)
    s = acs_state(AcsParams(theta=math.pi / 2, phi=0.0), 2)
    assert s.amplitudes == pytest.approx([0.5, 1 / math.sqrt(2), 0.5], abs=1e-15)


def test_acs_normalized_everywhere():
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(1, 1200))
        a = AcsParams(theta=rng.uniform(0, math.pi), phi=rng.uniform(0, 2 * math.pi))
        s = acs_state(a, n)
        assert abs(s.norm() - 1.0) < 1e-12
        assert np.all(np.isfinite(s.amplitudes.view(float)))


def test_acs_invalid_inputs():
    with pytest.raises(ValueError, match="n_atoms"):
        acs_state(AcsParams(theta=0.1, phi=0.0), 0)
    with pytest.raises(ValueError, match="theta"):
        AcsParams(theta=-0.1, phi=0.0)
    with pytest.raises(ValueError, match="phi"):
        AcsParams(theta=0.1, phi=7.0)


def test_single_boson_gives_paulis():
    jx, jy, jz = pseudo_spin_matrices(1)
    assert np.array_equal(jx, PAULI_X)
    assert np.array_equal(jy, PAULI_Y)
    assert np.array_equal(jz, PAULI_Z)


@pytest.mark.parametrize("n", range(1, 11))
def test_commutator(n):
    # [Jx, Jy] = 2i Jz; entries of 2Jz are exact integers, so rounding the
    # computed commutator must recover them and the residue is machine dust
    jx, jy, jz = pseudo_spin_matrices(n)
    comm = jx @ jy - jy @ jx
    assert np.max(np.abs(comm - 2j * jz)) < 1e-12
    assert np.array_equal(np.round(comm.imag), 2 * jz.real)
    assert np.max(np.abs(comm.real)) == 0.0


def test_hermiticity_is_exact():
    for n in (1, 2, 7, 23):
        for m in pseudo_spin_matrices(n):
            assert np.array_equal(m, m.conj().T)


def test_jz_eigenstate_at_north_pole():
    n = 9
    _, _, jz = pseudo_spin_matrices(n)
    s = acs_state(AcsParams(theta=0.0, phi=0.0), n)
    assert np.allclose(jz @ s.amplitudes, n * s.amplitudes, atol=1e-14)


def test_bloch_vector_of_acs():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(1, 201))
        theta = rng.uniform(0, math.pi)
        phi = rng.uniform(0, 2 * math.pi)
        b = bloch_vector(acs_state(AcsParams(theta=theta, phi=phi), n))
        expected = (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta))
        assert abs(b.x - expected[0]) < 1e-10
        assert abs(b.y - expected[1]) < 1e-10
        assert abs(b.z - expected[2]) < 1e-10
        assert abs(b.length() - 1.0) < 1e-10


def test_bloch_vector_axes():
    assert bloch_vector(acs_state(AcsParams(theta=0.0, phi=0.0), 6)).z == pytest.approx(1.0, abs=1e-14)
    b = bloch_vector(acs_state(AcsParams(theta=math.pi / 2, phi=math.pi / 2), 6))
    assert (b.x, b.y, b.z) == pytest.approx((0.0, 1.0, 0.0), abs=1e-14)


def _rotated_axes(theta, phi):
    n_hat = np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)])
    e1 = np.array([math.cos(theta) * math.cos(phi), math.cos(theta) * math.sin(phi), -math.sin(theta)])
    e2 = np.array([-math.sin(phi), math.cos(phi), 0.0])
    return e1, e2, n_hat


def test_acs_minimum_uncertainty():
    # with the factor-free operators, Var(Jx') Var(Jy') = |<Jz'>|^2 exactly
    # in the frame whose z' axis passes through the ACS Bloch vector
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(1, 60))
        theta = rng.uniform(0.0, math.pi)
        phi = rng.uniform(0.0, 2 * math.pi)
        s = acs_state(AcsParams(theta=theta, phi=phi), n)
        jx, jy, jz = pseudo_spin_matrices(n)
        e1, e2, n_hat = _rotated_axes(theta, phi)
        jxp = e1[0] * jx + e1[1] * jy + e1[2] * jz
        jyp = e2[0] * jx + e2[1] * jy + e2[2] * jz
        jzp = n_hat[0] * jx + n_hat[1] * jy + n_hat[2] * jz
        psi = s.amplitudes

        def mean(op):
            return np.vdot(psi, op @ psi).real

        var_x = mean(jxp @ jxp) - mean(jxp) ** 2
        var_y = mean(jyp @ jyp) - mean(jyp) ** 2
        assert abs(var_x * var_y - mean(jzp) ** 2) < 1e-8 * n**2


def test_csv_round_trip_is_exact():
    rng = np.random.default_rng(13)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    s = StateVector(n_atoms=7, amplitudes=amps)
    text = state_to_csv(s)
    assert text.splitlines()[0] == "k,re,im"
    s2 = state_from_csv(text)
    assert s2.n_atoms == 7
    assert np.array_equal(s2.amplitudes, s.amplitudes)


def test_csv_writes_k_as_an_integer_and_each_part_to_17_digits():
    rng = np.random.default_rng(19)
    amps = rng.normal(size=12) + 1j * rng.normal(size=12)
    amps /= np.linalg.norm(amps)
    amps[3] = complex(-0.0, amps[3].imag)
    amps[5] = complex(amps[5].real, -0.0)
    s = StateVector(n_atoms=11, amplitudes=amps)
    lines = [f"{k},{a.real:.17g},{a.imag:.17g}" for k, a in enumerate(s.amplitudes)]
    text = state_to_csv(s)
    assert text == "\n".join(["k,re,im"] + lines) + "\n"
    assert "\n3,-0," in text and ",-0\n6," in text and "\n11," in text


def test_csv_rejects_bad_header():
    with pytest.raises(ValueError, match="k,re,im"):
        state_from_csv("a,b,c\n0,1,0\n")


def test_spinor_round_trip():
    rng = np.random.default_rng(17)
    for _ in range(20):
        alpha = rng.normal() + 1j * rng.normal()
        beta = rng.normal() + 1j * rng.normal()
        s = acs_from_spinor(alpha, beta, 12)
        a = acs_params_from_state(s)
        norm = math.hypot(abs(alpha), abs(beta))
        assert a.theta == pytest.approx(2 * math.atan2(abs(beta) / norm, abs(alpha) / norm), abs=1e-10)
        expected_phi = (np.angle(beta) - np.angle(alpha)) % (2 * math.pi)
        assert min(abs(a.phi - expected_phi), 2 * math.pi - abs(a.phi - expected_phi)) < 1e-10


def test_state_vector_shape_check():
    with pytest.raises(ValueError, match="length"):
        StateVector(n_atoms=3, amplitudes=np.ones(3))
