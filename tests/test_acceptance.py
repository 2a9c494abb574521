"""Acceptance suite: one test per release criterion.

Each test prints a single ``ACCEPTANCE <n> (<name>): PASS|FAIL`` line (run
pytest with ``-s`` to see the lines for passing criteria as they complete).

Criteria 3 and 5 depart from the paper's printed figures in two places,
each explained beside its assertion and in the README, "Acceptance status":
the 1.5 kHz NOT/Y gate time is the exact 1/6000 s rather than the truncated
0.16 ms, and the detuning-robustness thresholds and gate ranking are applied
to the qubit (spinor) fidelity F1, of which the swept N-particle fidelity is
F1**N.
"""

import cmath
import contextlib
import json
import math
import time

import numpy as np
import pytest

from becgates.cli import main as cli_main
from becgates.evolve import (
    evolve_oracle,
    evolve_rk4,
    full_propagator_analytic,
    qubit_propagator,
    spectral_radius_bound,
)
from becgates.fock import (
    AcsParams,
    acs_state,
    bloch_vector,
    pseudo_spin_matrices,
)
from becgates.gates import (
    GateId,
    gate_conditions,
    params_for_gate,
    up_to_phase_deviation,
)
from becgates.params import PhysicalParams
from becgates.sweeps import sweep_delta, sweep_lambda_gamma

FIG_INITIAL = AcsParams(theta=math.pi / 8, phi=0.0)


@contextlib.contextmanager
def criterion(num, name):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num} ({name}): FAIL [{time.monotonic() - start:.1f}s]")
        raise
    print(f"ACCEPTANCE {num} ({name}): PASS [{time.monotonic() - start:.1f}s]")


def ideal_propagator(spec):
    return qubit_propagator(params_for_gate(spec, 1), spec.t_gate)


# ---------------------------------------------------------------------------
# 1. transfer-gate conditions reproduce the targets exactly (up to one phase)


def test_criterion_1_transfer_gate_exactness():
    with criterion(1, "transfer-gate exactness"):
        for gate in (GateId.NOT, GateId.Y, GateId.HADAMARD):
            spec = gate_conditions(gate, 1.0)
            dev = up_to_phase_deviation(ideal_propagator(spec), spec.target)
            assert dev <= 1e-10, f"{gate.value}: deviation {dev:.3e} > 1e-10"


# ---------------------------------------------------------------------------
# 2. phase-gate conditions are asymptotic: deviation falls with the detuning
#    factor and stays below 5/k


def test_criterion_2_phase_gate_asymptotics():
    with criterion(2, "phase-gate asymptotics"):
        for gate in (GateId.Z, GateId.S, GateId.T):
            devs = []
            for k in (50.0, 100.0, 200.0):
                spec = gate_conditions(gate, 1.0, k)
                dev = up_to_phase_deviation(ideal_propagator(spec), spec.target)
                assert dev <= 5.0 / k, f"{gate.value} at k={k}: deviation {dev:.4f} > {5.0/k}"
                devs.append(dev)
            assert devs[0] > devs[1] > devs[2], f"{gate.value}: deviations not decreasing {devs}"


# ---------------------------------------------------------------------------
# 3. feasibility timings match the quoted values at +/- 0.005 ms


def test_criterion_3_feasibility_timings():
    with criterion(3, "feasibility timings"):
        # The paper prints 0.16 ms for NOT and Y at 1.5 kHz.  Both gates take
        # t = 2*pi/(4g) = 1/6000 s = 0.1667 ms there, where the propagator
        # matches NOT to 1e-16; at 0.16 ms it misses by 0.125.  The other
        # four figures are the same formulas rounded to two decimals, which
        # turns 1/6000 s into 0.17 ms; the printed 0.16 ms is a truncation.
        quoted = {
            2 * math.pi * 1500.0: {"not": 0.17, "y": 0.17, "h": 0.12},
            2 * math.pi * 600.0: {"not": 0.42, "y": 0.42, "h": 0.29},
        }
        failures = []
        for g, expected in quoted.items():
            for gate_name, t_ms in expected.items():
                spec = gate_conditions(GateId(gate_name), g)
                computed = spec.t_gate * 1e3
                if abs(computed - t_ms) > 0.005:
                    failures.append(
                        f"gate {gate_name} at g={g:.1f} rad/s: computed "
                        f"{computed:.4f} ms vs quoted {t_ms} ms "
                        f"(|diff| = {abs(computed - t_ms):.4f} > 0.005)"
                    )
        assert not failures, "; ".join(failures)


# ---------------------------------------------------------------------------
# 4. triangulation of the three evolution engines


def test_criterion_4_engine_triangulation():
    with criterion(4, "engine triangulation"):
        rng = np.random.default_rng(2024)

        # RK4 cross-check of the oracle, nonlinearity allowed, N = 20
        for _ in range(20):
            p = PhysicalParams(
                omega_a=rng.uniform(-2, 2),
                omega_b=rng.uniform(-2, 2),
                gamma_a=rng.uniform(-0.05, 0.05),
                gamma_b=rng.uniform(-0.05, 0.05),
                gamma_ab=rng.uniform(-0.05, 0.05),
                g=rng.uniform(0.3, 2.0),
                delta=rng.uniform(-4, 4),
                n_atoms=20,
            )
            s0 = acs_state(
                AcsParams(theta=rng.uniform(0.2, 2.9), phi=rng.uniform(0, 2 * math.pi)), 20
            )
            t = rng.uniform(0.3, 1.5)
            dt = min(0.012 / spectral_radius_bound(p), t / 600)
            a = evolve_oracle(p, s0, t).amplitudes
            b = evolve_rk4(p, s0, t, dt).amplitudes
            overlap = abs(np.vdot(b / np.linalg.norm(b), a))
            assert overlap >= 1 - 1e-6, f"oracle vs RK4 overlap {overlap}"

        # analytic full-space propagator vs oracle at zero nonlinearity, N = 100
        for _ in range(20):
            c = rng.uniform(-0.05, 0.05)
            p = PhysicalParams(
                omega_a=rng.uniform(-2, 2),
                omega_b=rng.uniform(-2, 2),
                gamma_a=c,
                gamma_b=c,
                gamma_ab=c,
                g=rng.uniform(0.3, 2.0),
                delta=rng.uniform(-4, 4),
                n_atoms=100,
            )
            s0 = acs_state(
                AcsParams(theta=rng.uniform(0.2, 2.9), phi=rng.uniform(0, 2 * math.pi)), 100
            )
            t = rng.uniform(0.3, 3.0)
            a = evolve_oracle(p, s0, t).amplitudes
            b = full_propagator_analytic(p, t) @ s0.amplitudes
            overlap = abs(np.vdot(b, a))
            assert overlap >= 1 - 1e-8, f"oracle vs analytic overlap {overlap}"


# ---------------------------------------------------------------------------
# 5. detuning-error robustness curves


def _qubit_fidelity(gate, ratio):
    """Worst-sign single-atom fidelity at detuning error ratio, from the 2x2
    propagator acting on the FIG_INITIAL spinor (no eigen-oracle involved)."""
    spec = gate_conditions(gate, 1.0)
    half = FIG_INITIAL.theta / 2.0
    spinor = np.array([math.cos(half), math.sin(half) * cmath.exp(1j * FIG_INITIAL.phi)])
    target = spec.target @ spinor
    worst = math.inf
    for sign in (1.0, -1.0):
        p = params_for_gate(spec, 1, {"delta": spec.delta_g * (1.0 + sign * ratio)})
        u = qubit_propagator(p, spec.t_gate)
        worst = min(worst, abs(np.vdot(target, u @ spinor)) ** 2)
    return worst


def _fig3_assertions(n_atoms):
    # The paper asks for F > 0.8 up to 10 % detuning error and calls NOT the
    # most robust gate beyond 20 %.  sweep_delta reports the N-particle ACS
    # overlap F_N, which at lambda = 0 is exactly F1**N (coherent-state
    # overlap, Arecchi et al. 1972): a 0.8 threshold on F_N would depend on
    # N, so it is applied to F1, and F_N = F1**N is asserted instead.  At
    # equal t_gate, Y has half the detuning mismatch and half the phase error
    # of NOT, so F_Y(r) = F_NOT(r/2) and Y, not NOT, is the most robust.
    small = [0.02, 0.05, 0.1]
    large = [0.2, 0.25, 0.3]
    ratios = small + large
    gates = (GateId.NOT, GateId.Y, GateId.HADAMARD)
    f_n, f_1 = {}, {}
    for gate in gates:
        grid = sweep_delta(gate, ratios, n_atoms, FIG_INITIAL, workers=4)
        f_n[gate] = grid.fidelities[:, 0]
        f_1[gate] = [_qubit_fidelity(gate, r) for r in ratios]

    def cell(gate, idx):
        name = gate.value
        return f"F1({name}) = {f_1[gate][idx]:.4g}, F_N({name}) = {f_n[gate][idx]:.3g}"

    failures = []
    for gate in gates:
        for idx, r in enumerate(ratios):
            diff = abs(f_n[gate][idx] - f_1[gate][idx] ** n_atoms)
            if not diff <= 1e-12:
                failures.append(
                    f"at ddelta/delta = {r}: {cell(gate, idx)}, |F_N - F1**N| = {diff:.2g}"
                )
            if r <= 0.1 and not f_1[gate][idx] > 0.8:
                failures.append(f"at ddelta/delta = {r}: {cell(gate, idx)} (needs F1 > 0.8)")
    for idx, r in enumerate(ratios):
        half = _qubit_fidelity(GateId.NOT, r / 2.0)
        if not abs(f_1[GateId.Y][idx] - half) <= 1e-12:
            failures.append(
                f"at ddelta/delta = {r}: {cell(GateId.Y, idx)} != F1(not) at r/2 = {half:.4g}"
            )
    for idx, r in enumerate(large, start=len(small)):
        f_y = f_1[GateId.Y][idx]
        if not (f_y >= f_1[GateId.NOT][idx] and f_y >= f_1[GateId.HADAMARD][idx]):
            failures.append(
                f"at ddelta/delta = {r}: {cell(GateId.Y, idx)} not >= "
                f"{cell(GateId.NOT, idx)} and {cell(GateId.HADAMARD, idx)}"
            )
    assert not failures, f"N = {n_atoms}: " + "; ".join(failures)


def test_criterion_5_detuning_robustness_fast_tier():
    with criterion(5, "detuning robustness curves, N = 100"):
        _fig3_assertions(100)


@pytest.mark.slow
def test_criterion_5_detuning_robustness_production():
    with criterion(5, "detuning robustness curves, N = 1000"):
        _fig3_assertions(1000)


def test_detuning_cells_exact_below_the_eigensolver_floor():
    # lambda = 0 cells come from the 2x2 propagator, so F1**N is readable far
    # below the ~1e-30 roundoff floor of a dense eigensolve
    grid = sweep_delta(GateId.NOT, [0.2], 1000, FIG_INITIAL)
    exact = _qubit_fidelity(GateId.NOT, 0.2) ** 1000
    assert 1e-120 < exact < 1e-115
    assert abs(grid.fidelities[0, 0] - exact) <= 1e-9 * exact


# ---------------------------------------------------------------------------
# 6. nonlinearity/frequency-scattering surfaces


def test_criterion_6_fidelity_surfaces():
    with criterion(6, "fidelity surface geometry, N = 100"):
        n_atoms = 100
        surfaces = {}
        for gate in (GateId.NOT, GateId.Y, GateId.HADAMARD):
            surfaces[gate] = sweep_lambda_gamma(
                gate, None, None, n_atoms, FIG_INITIAL, workers=4
            ).fidelities

        for gate, f in surfaces.items():
            assert f[0, 0] >= 1 - 1e-6, f"{gate.value}: ideal cell F = {f[0, 0]}"
            for axis, series in (("lambda", f[:, 0]), ("dgamma", f[0, :])):
                assert np.all(np.diff(series) <= 1e-9), (
                    f"{gate.value}: F not decreasing along the {axis} axis"
                )
                assert series[-1] < 0.5, (
                    f"{gate.value}: no substantial decay along the {axis} axis "
                    f"(end value {series[-1]:.3f})"
                )

        # Hadamard's high-fidelity region hugs a sloped compensation line
        f = surfaces[GateId.HADAMARD]
        ii, jj = np.where(f >= 0.99)
        assert len(ii) >= 3, f"only {len(ii)} cells with F >= 0.99"
        pts = np.stack([ii, jj]).astype(float)
        pts -= pts.mean(axis=1, keepdims=True)
        w, v = np.linalg.eigh(pts @ pts.T / len(ii))
        principal = v[:, np.argmax(w)]
        angle_axis1 = math.degrees(math.atan2(abs(principal[1]), abs(principal[0])))
        angle_axis2 = math.degrees(math.atan2(abs(principal[0]), abs(principal[1])))
        assert min(angle_axis1, angle_axis2) > 5.0, (
            f"principal axis {principal} is axis-aligned "
            f"(angles {angle_axis1:.1f}, {angle_axis2:.1f} deg)"
        )


# ---------------------------------------------------------------------------
# 7. Fock-space and coherent-state invariants


def test_criterion_7_fock_invariants():
    with criterion(7, "Fock/ACS invariants"):
        rng = np.random.default_rng(777)

        # Bloch readout of 100 random coherent states, N up to 200
        for _ in range(100):
            n = int(rng.integers(1, 201))
            theta = rng.uniform(0, math.pi)
            phi = rng.uniform(0, 2 * math.pi)
            s = acs_state(AcsParams(theta=theta, phi=phi), n)
            assert abs(s.norm() - 1.0) < 1e-12
            b = bloch_vector(s)
            assert abs(b.x - math.sin(theta) * math.cos(phi)) < 1e-10
            assert abs(b.y - math.sin(theta) * math.sin(phi)) < 1e-10
            assert abs(b.z - math.cos(theta)) < 1e-10

        # commutator at N <= 10: entries of 2 Jz are exact integers
        for n in range(1, 11):
            jx, jy, jz = pseudo_spin_matrices(n)
            comm = jx @ jy - jy @ jx
            assert np.max(np.abs(comm - 2j * jz)) < 1e-12
            assert np.array_equal(np.round(comm.imag), 2 * jz.real)

        # minimum-uncertainty equality in the rotated frame
        for _ in range(25):
            n = int(rng.integers(1, 201))
            theta = rng.uniform(0, math.pi)
            phi = rng.uniform(0, 2 * math.pi)
            s = acs_state(AcsParams(theta=theta, phi=phi), n)
            jx, jy, jz = pseudo_spin_matrices(n)
            n_hat = np.array(
                [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
            )
            e1 = np.array(
                [math.cos(theta) * math.cos(phi), math.cos(theta) * math.sin(phi), -math.sin(theta)]
            )
            e2 = np.array([-math.sin(phi), math.cos(phi), 0.0])
            ops = [e1[0] * jx + e1[1] * jy + e1[2] * jz,
                   e2[0] * jx + e2[1] * jy + e2[2] * jz,
                   n_hat[0] * jx + n_hat[1] * jy + n_hat[2] * jz]
            psi = s.amplitudes
            means = [np.vdot(psi, op @ psi).real for op in ops]
            second = [np.vdot(psi, op @ (op @ psi)).real for op in ops]
            var_x = second[0] - means[0] ** 2
            var_y = second[1] - means[1] ** 2
            assert abs(var_x * var_y - means[2] ** 2) < 1e-8 * n**2


# ---------------------------------------------------------------------------
# 8. CLI determinism and sidecar round-trips


def test_criterion_8_cli_round_trips(tmp_path, capsys):
    with criterion(8, "CLI round-trips"):
        params = {
            "omega_a": 4.0, "omega_b": 0.0, "gamma_a": 0.0, "gamma_b": 0.0,
            "gamma_ab": 0.0, "g": 1.0, "delta": 4.0, "n_atoms": 12,
        }
        evolve_cfg = tmp_path / "evolve.json"
        evolve_cfg.write_text(json.dumps({
            "params": params, "initial": {"theta": 0.4, "phi": 0.2}, "t": 1.3,
        }))
        traj_cfg = tmp_path / "traj.json"
        traj_cfg.write_text(json.dumps({
            "params": params, "initial": {"theta": 0.4, "phi": 0.2},
            "t_final": 1.5, "n_samples": 7,
        }))
        sweep_cfg = tmp_path / "sweep.json"
        sweep_cfg.write_text(json.dumps({
            "n_atoms": 25,
            "lambda_values": [0.0, 0.002],
            "dgamma_ratio_values": [0.0, 0.1],
        }))

        commands = {
            "evolve": lambda out: ["evolve", "--config", str(evolve_cfg), "--output", out],
            "trajectory": lambda out: ["trajectory", "--config", str(traj_cfg), "--output", out],
            "sweep": lambda out: [
                "sweep", "--kind", "lambda-gamma", "--gate", "h",
                "--config", str(sweep_cfg), "--output", out,
            ],
        }

        for name, argv in commands.items():
            outputs = []
            for run_idx in (0, 1):
                out = str(tmp_path / f"{name}_{run_idx}.csv")
                assert cli_main(argv(out)) == 0
                outputs.append(
                    ((tmp_path / f"{name}_{run_idx}.csv").read_bytes(),
                     (tmp_path / f"{name}_{run_idx}.csv.meta.json").read_bytes())
                )
            assert outputs[0][0] == outputs[1][0], f"{name}: CSV not bitwise reproducible"
            assert outputs[0][1] == outputs[1][1], f"{name}: sidecar not bitwise reproducible"

            # the sidecar alone must reproduce the CSV
            sidecar = str(tmp_path / f"{name}_0.csv.meta.json")
            rerun_out = str(tmp_path / f"{name}_rerun.csv")
            base = ["--config", sidecar, "--output", rerun_out]
            if name == "evolve":
                argv2 = ["evolve"] + base
            elif name == "trajectory":
                argv2 = ["trajectory"] + base
            else:
                argv2 = ["sweep", "--kind", "lambda-gamma", "--gate", "h"] + base
            assert cli_main(argv2) == 0
            assert (tmp_path / f"{name}_rerun.csv").read_bytes() == outputs[0][0], (
                f"{name}: sidecar re-run did not reproduce the CSV"
            )

        # gate-check: identical stdout on repeated runs
        reports = []
        for _ in range(2):
            assert cli_main(["gate-check", "--gate", "t", "--g", "1.0"]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
