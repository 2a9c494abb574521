"""Evolution engines for the coupled two-mode condensate.

Three independent routes compute the same dynamics:

* :func:`qubit_propagator` -- the analytic 2x2 rotation-product propagator
  acting on the (alpha, beta) spinor of an atomic coherent state, at one
  time or at an array of times at once.  Where :func:`_pure_rotation` holds
  (lambda_nl exactly 0) an atomic coherent state stays the one of its
  rotated spinor, so the gate fidelity, the Bloch trajectory and the state
  (:func:`_rotated_acs`) come from it alone.  The oracle never dispatches.
* :func:`full_propagator_analytic` -- the analytic (N+1)-dimensional
  propagator U(t) V exp(-i H_V t) V', exact when the nonlinear parameter
  vanishes.
* :func:`evolve_oracle` -- exact eigendecomposition of the time-independent
  rotating-frame Hamiltonian H_U, valid for any nonlinearity.  H_U is real
  symmetric tridiagonal, and LAPACK's divide-and-conquer ``dstevd`` from the
  OpenBLAS that numpy bundles solves it; where numpy bundles no such library,
  or LAPACK reports a failure, the dense ``np.linalg.eigh`` does instead.
  :func:`evolve_oracle_at_times` reuses one eigendecomposition for many
  times, propagating a block of times by one real matrix product.  A
  block's eigen-phases exp(-i w t) are one exact anchor at its first time
  times a running product of step phases, one exponential per eigenvalue
  for each distinct step between its times.  :func:`evolve_oracle_bloch`
  reads each block out in the rotating frame as it goes: U(t) commutes with
  Jz, so the lab frame is one phase e^{+i delta t} on <a'b> per time.  It
  also propagates only the window of eigenvectors that the state occupies:
  of the eigen-coefficients c = V' s0, in ascending order of eigenvalue,
  each end whose |c|^2 sums to at most eps^2/2 is dropped, with eps =
  (N+1) machine epsilon, the eigenvectors' own orthogonality error.  The
  dropped norm is then at most eps, and as the propagation is unitary every
  sampled state lies within eps of the untruncated one, so every Bloch
  component moves by at most 2 eps + eps^2.

:func:`evolve_rk4` integrates the original explicitly time-dependent
Hamiltonian and serves as an independent cross-check of the oracle; the
three production engines share no evolution code path.  Its step is sized
by :func:`spectral_radius_bound`, which is closed form and costs the same at
any N.
"""

from __future__ import annotations

import cmath
import contextlib
import ctypes
import functools
import math
import threading
from pathlib import Path

import numpy as np

from .fock import StateVector, _bloch_rows, _ladder, acs_from_spinor, pseudo_spin_matrices
from .params import PhysicalParams, derive_params

__all__ = [
    "qubit_propagator",
    "full_propagator_analytic",
    "evolve_oracle",
    "evolve_oracle_at_times",
    "evolve_oracle_bloch",
    "evolve_rk4",
    "rotating_frame_hamiltonian",
    "spectral_radius_bound",
]


def _check_times(t) -> np.ndarray:
    """The time or times as a float array; ValueError names the first not finite and >= 0."""
    t = np.asarray(t, dtype=float)
    bad = ~((0.0 <= t) & (t < math.inf))  # NaN fails both comparisons
    if bad.any():
        raise ValueError(f"evolution time must be finite and >= 0, got {float(t[bad][0])!r}")
    return t


def qubit_propagator(p: PhysicalParams, t) -> np.ndarray:
    """Analytic 2x2 propagator for evolution time t, or for each of an array of times.

    Equivalent to the rotation product
    e^{-i eta t} Rz(delta*t) Ry(-xi) Rz(varpi*t) Ry(xi)
    with Rz(a) = diag(e^{-ia/2}, e^{ia/2}) and Ry the real rotation matrix,
    where xi, varpi and eta are derived from p, once for all the times.
    Half-angle factors are taken from the exact (sin_xi, cos_xi) pair so that
    the off-diagonal elements vanish identically when g = 0.
    Returns an array of shape t.shape + (2, 2); every element is computed
    elementwise, so each time gets the bits of its own scalar call.
    Raises ValueError, naming the first time that is negative or not finite.
    """
    t = _check_times(t)
    dp = derive_params(p)
    cos2 = 0.5 * (1.0 + dp.cos_xi)  # cos^2(xi/2)
    sin2 = 0.5 * (1.0 - dp.cos_xi)  # sin^2(xi/2)
    w = 0.5 * dp.varpi * t
    d = 0.5 * p.delta * t
    e_md = np.exp(-1j * d)
    e_mw = np.exp(-1j * w)
    e_2w = np.exp(2j * w)
    u = np.empty(t.shape + (2, 2), dtype=complex)
    # The diagonal, e^{-id} e^{-iw} (cos2 + e^{2iw} sin2) and e^{id} e^{-iw} (sin2 + e^{2iw} cos2),
    # is multiplied out in real arithmetic, as numpy's complex scalars multiply: its complex array
    # loop may fuse a multiply and an add, and would round a time in an array unlike the time alone.
    c, s, x, y = e_md.real, e_md.imag, e_mw.real, e_mw.imag
    for k, (re, im), q in ((0, (c * x - s * y, c * y + s * x), cos2 + e_2w * sin2),
                           (1, (c * x + s * y, c * y - s * x), sin2 + e_2w * cos2)):
        u.real[..., k, k] = re * q.real - im * q.imag
        u.imag[..., k, k] = re * q.imag + im * q.real
    u[..., 0, 1] = 1j * dp.sin_xi * np.sin(w) * e_md
    u[..., 1, 0] = 1j * dp.sin_xi * np.sin(w) * np.conj(e_md)
    return np.exp(-1j * dp.eta * t)[..., None, None] * u


def _pure_rotation(p: PhysicalParams) -> bool:
    """Whether lambda_nl is exactly 0, where the dynamics is an SU(2) rotation of every atom."""
    return derive_params(p).lambda_nl == 0.0


def _rotated_acs(p: PhysicalParams, spinor: np.ndarray, t: float) -> StateVector:
    """State at time t of the ACS of spinor, global phase included; valid at lambda_nl = 0 only.

    An ACS stays the ACS of its rotated spinor (Arecchi et al., PRA 6, 2211, 1972): the state
    is e^{-i eta t} sqrt(C(N,k)) r0^(N-k) r1^k, with r = e^{i eta t} w and w = U(t) spinor.
    acs_from_spinor drops the phase of r0^N, restored here; at r0 = 0 (the pole k = N) it
    takes arg w0 as 0, that is arg r0 as eta t.  O(N), with no solve.
    """
    n, eta = p.n_atoms, derive_params(p).eta
    w = qubit_propagator(p, t) @ spinor
    r0 = w[0] * cmath.exp(1j * eta * t)
    arg0 = cmath.phase(r0) if r0 else eta * t
    state = acs_from_spinor(*w, n)
    state.amplitudes *= cmath.exp(1j * (n * arg0 - eta * t))
    return state


_LAMBDA_ATOL = 1e-12  # |lambda_nl| that full_propagator_analytic still takes as zero


def full_propagator_analytic(p: PhysicalParams, t: float) -> np.ndarray:
    """Analytic propagator on the full (N+1)-dimensional Fock space.

    Valid only when the nonlinear parameter vanishes: the two-mode dynamics
    is then an exact mode rotation, and the propagator factors as
    U(t) V exp(-i H_V t) V' with U(t) a diagonal frame phase, V the
    exponential of the anti-Hermitian mixing generator and H_V diagonal.

    Raises ValueError if |lambda_nl| > 1e-12 (precondition violated) or if t
    is negative or not finite.
    """
    _check_times(t)
    dp = derive_params(p)
    if abs(dp.lambda_nl) > _LAMBDA_ATOL:
        raise ValueError(
            "full_propagator_analytic requires lambda_nl = 0 "
            f"(got lambda_nl = {dp.lambda_nl!r}); use evolve_oracle for nonzero nonlinearity"
        )
    n = p.n_atoms
    dn = n - 2.0 * np.arange(n + 1)  # eigenvalues of n_a - n_b

    # V = exp(i (xi/2) Jy), built by eigendecomposition of the Hermitian Jy
    _, jy, _ = pseudo_spin_matrices(n)
    evals, evecs = np.linalg.eigh(jy)
    v = (evecs * np.exp(0.5j * dp.xi * evals)) @ evecs.conj().T

    hv_diag = (
        dp.omega0 * n
        + p.gamma_ab * n**2
        + ((dp.omega1 + dp.omega2 * n) * dp.cos_xi + p.g * dp.sin_xi) * dn
    )
    u_diag = np.exp(-0.5j * p.delta * t * dn)
    core = v @ (np.exp(-1j * hv_diag * t)[:, None] * v.conj().T)
    return u_diag[:, None] * core


def rotating_frame_hamiltonian(p: PhysicalParams) -> tuple[np.ndarray, np.ndarray]:
    """Rotating-frame Hamiltonian as its (diagonal, off-diagonal), both real.

    H_U = (omega_a - gamma_a) n_a + (omega_b - gamma_b) n_b + gamma_a n_a^2
        + gamma_b n_b^2 + 2 gamma_ab n_a n_b - g (a'b + ab')
        - (delta/2)(n_a - n_b)
    conserves N: in the Fock basis |N - k, k> it is real symmetric tridiagonal.
    """
    n = p.n_atoms
    na = n - np.arange(n + 1)
    nb = n - na
    diag = _undetuned_diagonal(p, na, nb)
    return diag - 0.5 * p.delta * (na - nb), -p.g * _ladder(n)


def _undetuned_diagonal(p: PhysicalParams, na, nb):
    """The diagonal of H_U at delta = 0, at the Fock states with na atoms in mode a and nb in b."""
    return (
        (p.omega_a - p.gamma_a) * na
        + (p.omega_b - p.gamma_b) * nb
        + p.gamma_a * na**2
        + p.gamma_b * nb**2
        + 2.0 * p.gamma_ab * na * nb
    )


def spectral_radius_bound(p: PhysicalParams) -> float:
    """Cheap upper estimate of the spectral radius of RK4's Hamiltonian.

    That is H_U at delta = 0 with unit-modulus phases on its off-diagonal:
    max |diag| + 2 max |off|.  RK4 steps should satisfy
    dt * spectral_radius_bound(p) < 0.1.  It costs the same at any N: the
    diagonal is quadratic in k, so its largest |value| lies at k = 0, k = N or
    an integer next to its vertex, and |off| = g sqrt((N-k)(k+1)), symmetric
    about k = (N-1)/2, peaks at the integer part of (N-1)/2.
    """
    n = float(p.n_atoms)
    # diag = c0 + c1 k + c2 k^2 with k = nb = N - na
    c2 = p.gamma_a + p.gamma_b - 2.0 * p.gamma_ab
    c1 = (p.omega_b - p.gamma_b) - (p.omega_a - p.gamma_a) - 2.0 * (p.gamma_a - p.gamma_ab) * n
    k = [0.0, n]
    if c2 != 0.0:
        vertex = -c1 / (2.0 * c2)
        if 0.0 < vertex < n:  # NaN fails both comparisons
            k += [math.floor(vertex), math.ceil(vertex)]
    k = np.array(k)
    half = (p.n_atoms - 1) // 2
    off = p.g * math.sqrt((p.n_atoms - half) * (half + 1.0))
    return float(np.max(np.abs(_undetuned_diagonal(p, n - k, k)))) + 2.0 * off


@functools.cache
def _openblas():
    """The scipy-openblas ILP64 library bundled with numpy, or None.

    numpy reports the library's name and integer width; its symbols then carry
    the prefix ``scipy_`` and the suffix ``64_``.  Any other build (a 32-bit
    integer LAPACK, MKL, Accelerate) finds None.  Loading the library numpy
    already holds gives numpy's own copy, so its thread count is numpy's.
    """
    try:
        lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
        ilp64 = "USE64BITINT" in lapack["openblas configuration"]
        if lapack["name"] != "scipy-openblas" or not ilp64:
            return None
        root = Path(np.__file__).parent
        (path,) = [*root.parent.glob("numpy.libs/libscipy_openblas64_*"),
                   *root.glob(".dylibs/libscipy_openblas64_*")]
        return ctypes.CDLL(str(path))
    except (KeyError, OSError, TypeError, ValueError):
        return None


@functools.cache
def _dstevd():
    """LAPACK dstevd from numpy's scipy-openblas (see _openblas), or None: the dense solve runs."""
    func = getattr(_openblas(), "scipy_dstevd_64_", None)
    if func is None:
        return None
    double, int64 = (np.ctypeslib.ndpointer(t, flags="C") for t in (np.float64, np.int64))
    i64 = ctypes.POINTER(ctypes.c_int64)
    # jobz, n, d, e, z, ldz, work, lwork, iwork, liwork, info, and the hidden length of jobz
    func.argtypes = [ctypes.c_char_p, i64, double, double, double, i64, double, i64, int64, i64,
                     i64, ctypes.c_size_t]
    func.restype = None
    return func


_pin_lock = threading.Lock()
_pin_depth = 0  # bodies of _one_blas_thread running now, in any thread
_pin_saved = 0  # the thread count that the last of them restores


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with numpy's OpenBLAS on one thread, then restore its thread count.

    The count is process-global, so overlapping bodies share one pin: the
    first to enter saves the count and the last to leave restores it.
    Without the library (see _openblas) nothing is pinned.
    """
    global _pin_depth, _pin_saved
    lib = _openblas()
    get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    set_ = getattr(lib, "scipy_openblas_set_num_threads64_", None)
    if get is None or set_ is None:  # no library, or a release that renamed the calls
        yield
        return
    get.argtypes, get.restype, set_.argtypes, set_.restype = [], ctypes.c_int, [ctypes.c_int], None
    with _pin_lock:
        if _pin_depth == 0:
            _pin_saved = get()
            set_(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                set_(_pin_saved)


def _tridiagonal_eigh(diag: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and column eigenvectors of the real symmetric tridiagonal matrix."""
    n = len(diag)
    dstevd = _dstevd()
    if dstevd is not None:
        # fresh arrays on every call, so that threads may solve at once
        evals = np.array(diag, dtype=np.float64)
        e = np.zeros(max(1, n - 1))
        e[: n - 1] = off
        z = np.empty((n, n))  # LAPACK writes eigenvector j to column j, here row j
        lwork, liwork = 1 + 4 * n + n * n, 3 + 5 * n
        info = ctypes.c_int64()
        dstevd(b"V", ctypes.c_int64(n), evals, e, z, ctypes.c_int64(n), np.empty(lwork),
               ctypes.c_int64(lwork), np.empty(liwork, dtype=np.int64), ctypes.c_int64(liwork),
               info, 1)
        if info.value == 0:
            return evals, z.T
    h = np.diag(diag)
    kk = np.arange(n - 1)
    h[kk, kk + 1] = h[kk + 1, kk] = off
    return np.linalg.eigh(h)


def _check_state(p: PhysicalParams, s0: StateVector) -> None:
    if s0.n_atoms != p.n_atoms:
        raise ValueError(
            f"state has n_atoms = {s0.n_atoms} but parameters have n_atoms = {p.n_atoms}"
        )
    norm = s0.norm()
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"input state must be normalized, got norm = {norm!r}")


def evolve_oracle(p: PhysicalParams, s0: StateVector, t: float) -> StateVector:
    """Exact reference evolution, valid for any nonlinearity.

    Returns U(t) exp(-i H_U t) s0 where H_U is the rotating-frame Hamiltonian
    and U(t) = exp(-i delta t (n_a - n_b)/2) restores the lab frame.  The
    matrix exponential is computed by eigendecomposition of the real symmetric
    tridiagonal H_U: LAPACK ``dstevd``, or the dense ``np.linalg.eigh`` where
    that is unavailable or fails.
    """
    return evolve_oracle_at_times(p, s0, [t])[0]


_BLOCK = 128  # times propagated by one real GEMM; larger blocks gain no speed at N = 1000


def _occupied_window(coeffs: np.ndarray) -> slice:
    """Slice of the eigen-coefficients, in ascending order of eigenvalue, that a state occupies.

    Each end dropped holds at most eps^2/2 of |c|^2, with eps = (N+1) machine
    epsilon, so the dropped norm is at most eps.
    """
    half = 0.5 * (len(coeffs) * np.finfo(float).eps) ** 2
    weight = coeffs.real**2 + coeffs.imag**2
    lo = np.searchsorted(np.cumsum(weight), half, side="right")
    hi = len(weight) - np.searchsorted(np.cumsum(weight[::-1]), half, side="right")
    return slice(int(lo), int(hi))


def _oracle_blocks(p: PhysicalParams, s0: StateVector, times, window: bool = False):
    """Rotating-frame oracle states at the times from one eigendecomposition, block by block.

    Every time is checked (finite and >= 0) before the eigensolve.  The times
    are taken in ascending order, in blocks of at most _BLOCK; each block
    yields (index, t, psi), where t = times[index] and psi[:, j] =
    exp(-i H_U t[j]) s0: the amplitudes of a time are a column, as the GEMM
    writes them.  The real eigenvectors are never upcast to complex: s0 is
    projected on them by its real and imaginary parts apart, and a block
    takes one real GEMM, whose operand holds the eigen-coefficients
    exp(-i w t) c of each time as a column, its real and imaginary parts
    interleaved.  Those columns are one exact anchor exp(-i w t[0]) c followed
    by a running product of step phases exp(-i w (t[j] - t[j-1])), one
    exponential per eigenvalue for each distinct step in the block (a uniform
    grid has a few).  In ascending order a block's steps add up to its span,
    so the rounding of their product stays near that of an exact phase.

    With window, only the eigenpairs of _occupied_window(c) propagate: the
    eigenvectors, eigenvalues and coefficients are sliced as views, and each
    psi lies within eps = (N+1) machine epsilon of its untruncated value.
    Without it the slice is the whole basis, and psi keeps its bits.
    """
    _check_state(p, s0)
    times = _check_times(times)
    evals, evecs = _tridiagonal_eigh(*rotating_frame_hamiltonian(p))
    coeffs = evecs.T @ s0.amplitudes.real + 1j * (evecs.T @ s0.amplitudes.imag)
    kept = _occupied_window(coeffs) if window else slice(None)
    evals, evecs, coeffs = evals[kept], evecs[:, kept], coeffs[kept]
    order = np.argsort(times, kind="stable")
    for start in range(0, len(times), _BLOCK):
        index = order[start:start + _BLOCK]
        t = times[index]
        # built by a helper, the coefficients are freed before the block is read out
        psi = evecs @ _eigen_phases(evals, coeffs, t).view(np.float64)
        yield index, t, psi.view(np.complex128)


def _eigen_phases(evals: np.ndarray, coeffs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """exp(-i evals t[j]) coeffs as column j: the anchor at t[0], then products of step phases."""
    c = np.empty((len(evals), len(t)), dtype=complex)
    c[:, 0] = np.exp(-1j * (evals * t[0])) * coeffs
    if len(t) > 1:
        steps, step = np.unique(np.diff(t), return_inverse=True)
        c[:, 1:] = np.exp(-1j * np.multiply.outer(evals, steps))[:, step]
        np.cumprod(c, axis=1, out=c)
    return c


def evolve_oracle_at_times(p: PhysicalParams, s0: StateVector, times) -> list[StateVector]:
    """Oracle evolution sampled at several times with one eigendecomposition.

    The times are propagated in blocks, each by one matrix product with the
    eigenvectors, from an exact anchor and step phases (see _oracle_blocks);
    the lab-frame phase U(t) is then applied in the Fock basis, so a single
    time gives the same bits as its own exact evolution.  Raises ValueError,
    before any solve, naming the first time that is negative or not finite.
    """
    n = p.n_atoms
    dn = n - 2.0 * np.arange(n + 1)
    states = [None] * len(times)
    for index, t, psi in _oracle_blocks(p, s0, times):
        # delta t is rounded before dn multiplies it: the phase delta t N is large at phase-gate
        # detunings, and rounding it in another order moves states by up to 1e-13
        psi *= np.exp(1j * np.multiply.outer(dn, -0.5 * p.delta * t))
        for i, amplitudes in zip(index.tolist(), np.ascontiguousarray(psi.T)):
            states[i] = StateVector(n_atoms=n, amplitudes=amplitudes)
    return states


def evolve_oracle_bloch(p: PhysicalParams, s0: StateVector, times) -> np.ndarray:
    """Bloch vectors (<Jx>, <Jy>, <Jz>)/N of the oracle-evolved state, one row per time.

    The same blocked propagation as evolve_oracle_at_times, each block read
    out in the rotating frame and dropped, so memory does not grow with the
    number of times.  U(t) commutes with Jz and turns <a'b> by one phase,
    <a'b>_lab = e^{+i delta t} <a'b>_rot, so the lab frame costs one
    rotation of (x, y) per time instead of a phase per amplitude.  Only the
    eigenvectors the state occupies propagate: each end of the ascending
    eigenvalues holding at most eps^2/2 of |c|^2 is dropped, eps = (N+1)
    machine epsilon, so every component of every row lies within
    2 eps + eps^2 of the untruncated readout.
    """
    rows = np.empty((len(times), 3))
    for index, t, psi in _oracle_blocks(p, s0, times, window=True):
        row = _bloch_rows(psi)
        xy = (row[:, 0] + 1j * row[:, 1]) * np.exp(1j * p.delta * t)
        row[:, 0], row[:, 1] = xy.real, xy.imag
        rows[index] = row
    return rows


def evolve_rk4(p: PhysicalParams, s0: StateVector, t: float, dt: float) -> StateVector:
    """Classic RK4 integration of the original time-dependent Hamiltonian.

    The coupling term carries the explicit e^{-i delta t} phase, so this
    path never forms the rotating-frame Hamiltonian used by the oracle.  No
    renormalization is applied; norm drift is a diagnostic of step quality.
    The step is rejected up front if dt times a spectral-radius estimate of
    the Hamiltonian is >= 0.1, and so is a t or dt that is not finite.
    """
    _check_state(p, s0)
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be finite and > 0, got {dt!r}")
    _check_times(t)

    n = p.n_atoms
    k = np.arange(n + 1)
    na = n - k
    nb = k
    diag = (
        (p.omega_a - p.gamma_a) * na
        + (p.omega_b - p.gamma_b) * nb
        + p.gamma_a * na**2
        + p.gamma_b * nb**2
        + 2.0 * p.gamma_ab * na * nb
    ).astype(float)
    kk = np.arange(n)
    off = np.sqrt((n - kk) * (kk + 1.0))

    if dt * spectral_radius_bound(p) >= 0.1:
        raise ValueError(
            f"time step too large: dt * spectral-radius estimate = "
            f"{dt * spectral_radius_bound(p):.3g} >= 0.1"
        )

    def deriv(time: float, psi: np.ndarray) -> np.ndarray:
        phase = np.exp(-1j * p.delta * time)
        hpsi = diag * psi
        # -g (e^{-i delta t} a'b + e^{+i delta t} a b') psi
        hpsi[:-1] -= p.g * phase * off * psi[1:]
        hpsi[1:] -= p.g * np.conj(phase) * off * psi[:-1]
        return -1j * hpsi

    if t == 0:
        return StateVector(n_atoms=n, amplitudes=s0.amplitudes.copy())

    n_steps = max(1, math.ceil(t / dt))
    h = t / n_steps
    psi = s0.amplitudes.astype(complex).copy()
    time = 0.0
    for _ in range(n_steps):
        k1 = deriv(time, psi)
        k2 = deriv(time + 0.5 * h, psi + 0.5 * h * k1)
        k3 = deriv(time + 0.5 * h, psi + 0.5 * h * k2)
        k4 = deriv(time + h, psi + h * k3)
        psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        time += h
    return StateVector(n_atoms=n, amplitudes=psi)
