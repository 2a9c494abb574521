"""Output checker: every CSV the benchmark gets back is held against a reference
that does not use the engine under test.

* lambda = 0 (all delta-sweep cells, the lambda = 0 row of each surface, all
  trajectories and evolves, which run at gate conditions): the dynamics is an
  SU(2) rotation, so a coherent state stays coherent.  The reference is the
  single-atom 2x2 propagator, written out here in closed form, applied to the
  initial spinor; the N-atom fidelity is |<target|U psi0>|^(2N).  It is kept
  in this file rather than taken from ``becgates.evolve.qubit_propagator`` so
  that it stays independent if the program starts using that function for
  lambda = 0 cells.
* lambda != 0 surface cells: a few seeded cells per run are recomputed with
  ``evolve_rk4``, the RK4 cross-check engine, outside the timed loop.

Fidelities below ``FLOOR`` are roundoff in the eigensolver (NOT at a 20%
detuning error, theta = pi/8, N = 1000 reads 8e-34 from the eigensolver
against 3e-118 in closed form); such cells are counted and checked by
absolute tolerance only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import gammaln

from becgates.evolve import evolve_rk4, spectral_radius_bound
from becgates.fock import StateVector, state_from_csv
from becgates.gates import GateId, gate_conditions, params_for_gate
from becgates.params import PhysicalParams, params_from_dict

from workloads import EVOLVE, SWEEP_DELTA, SWEEP_SURFACE, TRAJECTORY, Command

FLOOR = 1e-30
# measured worst cases in brackets: 9e-13 at F ~ 1 and N = 1000; 1e-14; 1e-13; 6e-7
FIDELITY_ATOL = 1e-10
BLOCH_ATOL = 1e-10
STATE_TOL = 1e-9
RK4_ATOL = 1e-5
# RK4 step as a share of the inverse spectral-radius bound (evolve_rk4 rejects >= 0.1)
RK4_STEP = 0.05


@dataclass
class Check:
    """What checking one command's output found."""

    rows: int = 0  # sweep cells or trajectory samples
    nan_cells: int = 0
    below_floor_cells: int = 0
    errors: list[str] = field(default_factory=list)
    # (lambda, dgamma ratio, fidelity) of surface cells that only RK4 can check
    unchecked_cells: list[tuple[float, float, float]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def spinor(initial: dict) -> np.ndarray:
    theta, phi = initial["theta"], initial["phi"]
    return np.array([math.cos(theta / 2.0), math.sin(theta / 2.0) * np.exp(1j * phi)])


def single_atom_propagator(p: PhysicalParams, t) -> np.ndarray:
    """Lab-frame 2x2 propagator(s) of one atom, shape t.shape + (2, 2).

    h = [[omega_a - delta/2, -g], [-g, omega_b + delta/2]] in the rotating
    frame; exp(-i h t) = e^{-i tr(h) t/2} (cos(wt) - i sin(wt)/w (h - tr(h)/2)),
    w = hypot(d, g), with the global phase dropped.  For collision-free
    parameters the N-atom evolution is the symmetric N-fold power of it.
    """
    if p.gamma_a or p.gamma_b or p.gamma_ab:
        raise ValueError("single-atom reference needs gamma_a = gamma_b = gamma_ab = 0")
    t = np.asarray(t, dtype=float)
    d = 0.5 * ((p.omega_a - 0.5 * p.delta) - (p.omega_b + 0.5 * p.delta))
    w = math.hypot(d, p.g)
    c = np.cos(w * t)
    s = t * np.sinc(w * t / math.pi)  # sin(wt)/w, finite at w = 0
    u = np.empty(t.shape + (2, 2), dtype=complex)
    u[..., 0, 0] = c - 1j * s * d
    u[..., 1, 1] = c + 1j * s * d
    u[..., 0, 1] = u[..., 1, 0] = 1j * s * p.g
    frame = np.exp(-0.5j * p.delta * t)  # exp(-i delta t (n_a - n_b)/2) back to the lab frame
    u[..., 0, :] *= frame[..., None]
    u[..., 1, :] *= np.conj(frame)[..., None]
    return u


def closed_form_fidelity(p: PhysicalParams, t: float, psi0: np.ndarray, target: np.ndarray) -> float:
    u = single_atom_propagator(p, t) @ psi0
    overlap = abs(np.vdot(target, u)) ** 2 / (np.vdot(target, target).real * np.vdot(u, u).real)
    return float(overlap**p.n_atoms)


def bloch_reference(p: PhysicalParams, psi0: np.ndarray, times) -> np.ndarray:
    """Bloch vectors (x, y, z) of the rotated spinor at each time, shape (T, 3)."""
    u = single_atom_propagator(p, times) @ psi0
    a, b = u[:, 0], u[:, 1]
    ab = np.conj(a) * b
    return np.stack([2.0 * ab.real, 2.0 * ab.imag, abs(a) ** 2 - abs(b) ** 2], axis=1)


def acs_amplitudes(u: np.ndarray, n: int) -> np.ndarray:
    """Coherent state of n atoms with single-atom spinor u: sqrt(C(n,k)) u0^(n-k) u1^k."""
    u = u / np.linalg.norm(u)
    k = np.arange(n + 1)
    amps = np.zeros(n + 1, dtype=complex)
    if u[1] == 0:
        amps[0] = u[0] ** n
    elif u[0] == 0:
        amps[n] = u[1] ** n
    else:
        log_mag = 0.5 * (gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1))
        log_mag += (n - k) * math.log(abs(u[0])) + k * math.log(abs(u[1]))
        phase = (n - k) * np.angle(u[0]) + k * np.angle(u[1])
        amps = np.exp(log_mag + 1j * phase)
    return amps / np.linalg.norm(amps)


def _rows(text: str, header: str) -> np.ndarray:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"expected header {header!r}, got {lines[:1]!r}")
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]], dtype=float)


def _check_fidelity(chk: Check, where: str, got: float, ref: float) -> None:
    if ref < FLOOR:
        chk.below_floor_cells += 1
    if not abs(got - ref) <= FIDELITY_ATOL:
        chk.errors.append(f"{where}: fidelity {got!r} against closed form {ref!r}")


def _check_delta(cmd: Command, text: str, chk: Check) -> None:
    rows = _rows(text, "axis1,fidelity")
    ratios = cmd.config["ddelta_ratio_values"]
    if rows.shape != (len(ratios), 2) or not np.array_equal(rows[:, 0], ratios):
        raise ValueError(f"rows do not match the ratio axis {ratios}")
    spec = gate_conditions(GateId(cmd.gate), 1.0)
    psi0 = spinor(cmd.config["initial"])
    target = spec.target @ psi0
    n = cmd.config["n_atoms"]
    for r, f in rows.tolist():
        chk.rows += 1
        if math.isnan(f):
            chk.nan_cells += 1
            chk.errors.append(f"ratio {r}: NaN cell")
            continue
        ref = min(
            closed_form_fidelity(params_for_gate(spec, n, {"delta": spec.delta_g * (1.0 + sign * r)}),
                                 spec.t_gate, psi0, target)
            for sign in (1.0, -1.0)
        )
        _check_fidelity(chk, f"ratio {r}", f, ref)


def _check_surface(cmd: Command, text: str, chk: Check) -> None:
    rows = _rows(text, "axis1,axis2,fidelity")
    lam, rat = cmd.config["lambda_values"], cmd.config["dgamma_ratio_values"]
    axes = np.array([(lv, rv) for lv in lam for rv in rat])
    if rows.shape != (len(axes), 3) or not np.array_equal(rows[:, :2], axes):
        raise ValueError("rows do not match the lambda x dgamma grid")
    spec = gate_conditions(GateId(cmd.gate), 1.0, cmd.config["detuning_factor"])
    psi0 = spinor(cmd.config["initial"])
    target = spec.target @ psi0
    n = cmd.config["n_atoms"]
    for lv, rv, f in rows.tolist():
        chk.rows += 1
        if math.isnan(f):
            chk.nan_cells += 1
            chk.errors.append(f"cell ({lv}, {rv}): NaN cell")
        elif not 0.0 <= f <= 1.0 + 1e-12:
            chk.errors.append(f"cell ({lv}, {rv}): fidelity {f!r} outside [0, 1]")
        elif lv == 0.0:
            p = params_for_gate(spec, n, {"omega_ab": spec.gamma_g * (1.0 + rv)})
            _check_fidelity(chk, f"cell (0, {rv})", f, closed_form_fidelity(p, spec.t_gate, psi0, target))
        else:
            chk.unchecked_cells.append((lv, rv, f))


def _check_trajectory(cmd: Command, text: str, chk: Check) -> None:
    rows = _rows(text, "t,x,y,z")
    cfg = cmd.config
    times = np.linspace(0.0, cfg["t_final"], cfg["n_samples"])
    if rows.shape != (len(times), 4) or not np.array_equal(rows[:, 0], times):
        raise ValueError("time column does not match linspace(0, t_final, n_samples)")
    chk.rows += len(times)
    ref = bloch_reference(params_from_dict(cfg["params"]), spinor(cfg["initial"]), times)
    err = np.abs(rows[:, 1:] - ref)
    if not np.all(err <= BLOCH_ATOL):  # also catches NaN
        i = int(np.argmax(np.where(np.isnan(err), np.inf, err).max(axis=1)))
        chk.errors.append(f"t = {float(times[i])!r}: Bloch vector {rows[i, 1:]} against closed form {ref[i]}")


def _check_evolve(cmd: Command, text: str, chk: Check) -> None:
    state = state_from_csv(text)
    cfg = cmd.config
    p = params_from_dict(cfg["params"])
    if state.n_atoms != p.n_atoms:
        raise ValueError(f"state has n_atoms {state.n_atoms}, config {p.n_atoms}")
    u = single_atom_propagator(p, cfg["t"]) @ spinor(cfg["initial"])
    ref = acs_amplitudes(u, p.n_atoms)
    norm_err = abs(np.linalg.norm(state.amplitudes) - 1.0)
    infidelity = 1.0 - abs(np.vdot(ref, state.amplitudes)) ** 2
    if not (norm_err <= STATE_TOL and infidelity <= STATE_TOL):
        chk.errors.append(f"state: norm error {norm_err!r}, infidelity {infidelity!r} against closed form")


_CHECKERS = {
    SWEEP_DELTA: _check_delta,
    SWEEP_SURFACE: _check_surface,
    TRAJECTORY: _check_trajectory,
    EVOLVE: _check_evolve,
}


def check_output(cmd: Command, output: Path) -> Check:
    """Check one command's CSV against its reference."""
    chk = Check()
    try:
        _CHECKERS[cmd.kind](cmd, output.read_text(), chk)
    except (OSError, ValueError, KeyError) as exc:
        chk.errors.append(f"unreadable output: {exc}")
    return chk


def rk4_fidelity(cmd: Command, lam: float, ratio: float) -> float:
    """Fidelity of one lambda-gamma cell recomputed with the RK4 engine."""
    spec = gate_conditions(GateId(cmd.gate), 1.0, cmd.config["detuning_factor"])
    n = cmd.config["n_atoms"]
    p = params_for_gate(spec, n, {"gamma_ab": 2.0 * lam, "omega_ab": spec.gamma_g * (1.0 + ratio)})
    psi0 = spinor(cmd.config["initial"])
    s0 = StateVector(n_atoms=n, amplitudes=acs_amplitudes(psi0, n))
    final = evolve_rk4(p, s0, spec.t_gate, RK4_STEP / spectral_radius_bound(p))
    return float(abs(np.vdot(acs_amplitudes(spec.target @ psi0, n), final.amplitudes)) ** 2)
