"""Two-mode Fock space: states, pseudo-spin operators, Bloch readout.

Basis convention: index k of an (N+1)-component amplitude vector labels the
Fock state with N-k atoms in mode a and k atoms in mode b.  The logical
|0> (all atoms in a) sits at k = 0 and |1> (all atoms in b) at k = N, so
that <Jz>/N = cos(theta) for an atomic coherent state at polar angle theta.

The pseudo-spin operators follow the factor-free Schwinger convention
Jx = a'b + ab', Jy = -i(a'b - ab'), Jz = n_a - n_b, which obey
[Jx, Jy] = 2i Jz (Pauli matrices at N = 1).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AcsParams",
    "StateVector",
    "BlochVector",
    "acs_state",
    "acs_from_spinor",
    "acs_params_from_state",
    "pseudo_spin_matrices",
    "bloch_vector",
    "state_to_csv",
    "state_from_csv",
]


@dataclass(frozen=True)
class AcsParams:
    """Bloch angles of an atomic coherent state: theta in [0, pi], phi in [0, 2*pi)."""

    theta: float
    phi: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.theta <= math.pi):
            raise ValueError(f"theta must lie in [0, pi], got {self.theta!r}")
        if not (0.0 <= self.phi < 2.0 * math.pi):
            raise ValueError(f"phi must lie in [0, 2*pi), got {self.phi!r}")

    @property
    def spinor(self) -> np.ndarray:
        """Single-atom state (cos(theta/2), sin(theta/2) e^{i phi}), exact at both poles."""
        half = 0.5 * self.theta
        alpha = 0.0 if self.theta == math.pi else math.cos(half)  # cos(pi/2) rounds to 6e-17
        return np.array([alpha, math.sin(half) * cmath.exp(1j * self.phi)])


@dataclass
class StateVector:
    """Normalized amplitudes over the (N+1)-dimensional two-mode Fock basis."""

    n_atoms: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (self.n_atoms + 1,):
            raise ValueError(
                f"amplitudes must have length n_atoms + 1 = {self.n_atoms + 1}, "
                f"got shape {self.amplitudes.shape}"
            )

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class BlochVector:
    x: float
    y: float
    z: float

    def length(self) -> float:
        return math.sqrt(self.x**2 + self.y**2 + self.z**2)


def _check_n_atoms(n_atoms: int) -> None:
    if not isinstance(n_atoms, int) or isinstance(n_atoms, bool) or n_atoms < 1:
        raise ValueError(f"n_atoms must be an integer >= 1, got {n_atoms!r}")


def acs_state(a: AcsParams, n_atoms: int) -> StateVector:
    """Atomic coherent state |theta, phi> for N bosons: the ACS of ``a.spinor``."""
    return acs_from_spinor(*a.spinor, n_atoms)


def acs_from_spinor(alpha: complex, beta: complex, n_atoms: int) -> StateVector:
    """ACS of N bosons that each occupy the qubit spinor (alpha, beta), normalized first.

    Amplitude at index k is sqrt(C(N,k)) |alpha|^(N-k) |beta|^k e^{i k phi} with
    phi = arg(beta) - arg(alpha): the global spinor phase is dropped.  The
    weights are assembled in log space, ln C(N,k) as a running sum of
    ln((N-j)/(j+1)), so they stay finite up to N in the thousands.  A spinor
    with a zero component gives its pole, a single Fock state, exactly.
    """
    _check_n_atoms(n_atoms)
    n = n_atoms
    a, b = abs(alpha), abs(beta)
    norm = math.hypot(a, b)
    if not 0.0 < norm < math.inf:
        raise ValueError(f"spinor must be finite and nonzero, got ({alpha!r}, {beta!r})")
    k = np.arange(n + 1)
    ln_binom = np.concatenate(([0.0], np.cumsum(np.log((n - k[:-1]) / (k[:-1] + 1.0)))))
    # at a pole, ln 0 = -inf zeroes every other weight; the pole's own 0 * ln 0 = nan is really 0
    with np.errstate(divide="ignore", invalid="ignore"):
        log_mag = np.nan_to_num(0.5 * ln_binom + (n - k) * np.log(a / norm) + k * np.log(b / norm))
    phi = cmath.phase(beta) - (cmath.phase(alpha) if a else 0.0)  # phase(-0.0) is pi, not 0
    amps = np.exp(log_mag) * np.exp(1j * phi * k)
    amps /= np.linalg.norm(amps)
    return StateVector(n_atoms=n, amplitudes=amps)


def acs_params_from_state(s: StateVector) -> AcsParams:
    """Bloch angles read back from a state's Bloch vector (exact for an ACS)."""
    b = bloch_vector(s)
    r = b.length()
    if r == 0.0:
        raise ValueError("state has zero Bloch vector; no ACS angles exist")
    theta = math.acos(min(max(b.z / r, -1.0), 1.0))
    phi = math.atan2(b.y, b.x) % (2.0 * math.pi)
    return AcsParams(theta=theta, phi=phi)


def _ladder(n_atoms: int) -> np.ndarray:
    """The bosonic elements sqrt((N-k)(k+1)) = <N-k-1, k+1| a b' |N-k, k>, for k = 0..N-1."""
    k = np.arange(n_atoms)
    return np.sqrt((n_atoms - k) * (k + 1.0))


def pseudo_spin_matrices(n_atoms: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense (N+1)-dimensional matrices (Jx, Jy, Jz).

    Jz is diagonal with entry N - 2k; Jx and Jy are tridiagonal with bosonic
    elements sqrt((N-k)(k+1)) coupling k <-> k+1.
    """
    _check_n_atoms(n_atoms)
    off = _ladder(n_atoms)
    lower = np.diag(off, -1)  # a b' block: k -> k+1
    upper = np.diag(off, 1)  # a'b block: k+1 -> k
    jx = (upper + lower).astype(complex)
    jy = -1j * (upper - lower)
    jz = np.diag(n_atoms - 2.0 * np.arange(n_atoms + 1)).astype(complex)
    return jx, jy, jz


def _bloch_rows(amps: np.ndarray) -> np.ndarray:
    """(<Jx>, <Jy>, <Jz>)/N of the amplitude vectors along the first axis, on a new last axis."""
    n = len(amps) - 1
    off, dn = _ladder(n), n - 2.0 * np.arange(n + 1)
    re, im = amps.real, amps.imag

    def dot(u, w, v):  # sum of u w v over the Fock index, with no temporary the size of amps
        return np.einsum("k...,k,k...->...", u, w, v)

    # <a'b> = sum_k off_k conj(amps_k) amps_(k+1), in real arithmetic
    x = dot(re[:-1], off, re[1:]) + dot(im[:-1], off, im[1:])
    y = dot(re[:-1], off, im[1:]) - dot(im[:-1], off, re[1:])
    jz = dot(re, dn, re) + dot(im, dn, im)
    return np.stack((2.0 * x, 2.0 * y, jz), axis=-1) / n


def bloch_vector(s: StateVector) -> BlochVector:
    """Normalized pseudo-spin mean values (<Jx>/N, <Jy>/N, <Jz>/N)."""
    x, y, z = _bloch_rows(s.amplitudes).tolist()
    return BlochVector(x=x, y=y, z=z)


def _csv(header: str, columns) -> str:
    """Every output's CSV: the header line, then the stacked columns' rows, each value as %.17g."""
    table = np.column_stack(columns)
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return header + "\n" + (row * len(table)) % tuple(table.ravel().tolist())


def state_to_csv(s: StateVector) -> str:
    """Serialize a state to CSV with columns k, re, im (17 significant digits)."""
    amps = s.amplitudes  # %.17g writes each k, a float below 2**53, as its integer digits
    return _csv("k,re,im", (np.arange(len(amps)), amps.real, amps.imag))


def state_from_csv(text: str) -> StateVector:
    header, *lines = [line.strip() for line in text.split("\n")]
    if header != "k,re,im":
        raise ValueError(f"expected header 'k,re,im', got {header!r}")
    rows = sorted((int(k), float(re), float(im))
                  for k, re, im in (line.split(",") for line in lines if line))
    if [k for k, _, _ in rows] != list(range(len(rows))):
        raise ValueError("CSV rows must cover k = 0..N exactly once")
    return StateVector(n_atoms=len(rows) - 1, amplitudes=[complex(re, im) for _, re, im in rows])
