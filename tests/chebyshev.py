"""Chebyshev propagator of the two-mode Hamiltonian: a reference for the oracle at any N.

exp(-iHt) psi is expanded as sum_k c_k J_k(a t) T_k((H - b)/a) psi, where
[b - a, b + a] holds the spectrum of H, T_k are the Chebyshev polynomials
and c_0 = e^{-ibt}, c_k = 2 (-i)^k e^{-ibt} (Tal-Ezer & Kosloff, J. Chem.
Phys. 81, 3967, 1984).  It needs only tridiagonal matrix-vector products.

The helper builds its own bands from the model's definition and computes the
Bessel coefficients by Miller's backward recurrence, so it shares no code with
the eigen-oracle and needs neither scipy nor an eigensolver.
"""

from __future__ import annotations

import math

import numpy as np

from becgates.params import PhysicalParams

TERM_FLOOR = 1e-20  # Bessel coefficients below this (relative to 1) are dropped


def bands(p: PhysicalParams) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the rotating-frame H_U in the Fock basis |N - k, k>."""
    n = p.n_atoms
    nb = np.arange(n + 1.0)
    na = n - nb
    diag = (
        (p.omega_a - p.gamma_a) * na
        + (p.omega_b - p.gamma_b) * nb
        + p.gamma_a * na * na
        + p.gamma_b * nb * nb
        + 2.0 * p.gamma_ab * na * nb
        - 0.5 * p.delta * (na - nb)
    )
    # <N-k-1, k+1| a b' |N-k, k> = sqrt((N - k)(k + 1)), and H_U carries -g (a'b + ab')
    return diag, -p.g * np.sqrt(na[:-1] * (nb[:-1] + 1.0))


def bessel_j(x: float) -> np.ndarray:
    """J_0(x), J_1(x), ... for x >= 0, up to the last order above TERM_FLOOR.

    Miller's backward recurrence J_{k-1} = (2k/x) J_k - J_{k+1}, started from
    (0, 1) well beyond the last order kept and normalized by the identity
    J_0 + 2 sum_k J_2k = 1.
    """
    if x == 0.0:
        return np.ones(1)
    # J_k(x) falls as Ai(2^{1/3} s) at k = x + s x^{1/3}, below 1e-24 by s = 15
    keep = math.ceil(x + 15.0 * x ** (1.0 / 3.0) + 40.0)
    start = keep + math.ceil(math.sqrt(40.0 * keep)) + 20
    j = np.zeros(start + 2)
    j[start] = 1.0
    for k in range(start, 0, -1):
        j[k - 1] = (2.0 * k / x) * j[k] - j[k + 1]
        if abs(j[k - 1]) > 1e250:  # rescale what is computed so far, so nothing overflows
            j[k - 1 :] *= 1e-250
    j /= j[0] + 2.0 * j[2::2].sum()
    (above,) = np.nonzero(np.abs(j[: keep + 1]) > TERM_FLOOR)
    return j[: above[-1] + 1]


def chebyshev_evolve(p: PhysicalParams, psi0: np.ndarray, t: float) -> tuple[np.ndarray, int]:
    """Lab-frame state exp(-i delta t (n_a - n_b)/2) exp(-i H_U t) psi0, and the terms it took."""
    diag, off = bands(p)
    reach = np.abs(np.concatenate([[0.0], off])) + np.abs(np.concatenate([off, [0.0]]))
    lo, hi = float(np.min(diag - reach)), float(np.max(diag + reach))  # Gershgorin
    center, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    coeffs = bessel_j(half * t)

    def scaled(v: np.ndarray) -> np.ndarray:  # ((H - center) / half) v
        hv = (diag - center) * v
        hv[:-1] += off * v[1:]
        hv[1:] += off * v[:-1]
        return hv / half

    prev = np.asarray(psi0, dtype=complex)
    psi = coeffs[0] * prev
    if len(coeffs) > 1:
        cur = scaled(prev)
        psi += -2j * coeffs[1] * cur
        for k in range(2, len(coeffs)):
            prev, cur = cur, 2.0 * scaled(cur) - prev
            psi += 2.0 * (-1j) ** (k % 4) * coeffs[k] * cur
    dn = p.n_atoms - 2.0 * np.arange(p.n_atoms + 1)
    return np.exp(-1j * center * t) * np.exp(-0.5j * p.delta * t * dn) * psi, len(coeffs)
