import math
import tracemalloc

import numpy as np
import pytest

from becgates.fock import AcsParams
from becgates.gates import GateId, gate_conditions, params_for_gate, run_gate
from becgates.sweeps import (
    FidelityGrid,
    Trajectory,
    sweep_delta,
    sweep_lambda_gamma,
    trajectory,
)

INITIAL = AcsParams(theta=math.pi / 8, phi=0.0)


# -------------------------------------------------------------- lambda-gamma sweep


def test_ideal_cell_transfer_gates():
    for gate in (GateId.NOT, GateId.HADAMARD):
        grid = sweep_lambda_gamma(gate, [0.0], [0.0], 60, INITIAL)
        assert grid.fidelities[0, 0] >= 1 - 1e-6


def test_ideal_cell_phase_gates():
    factor = 100.0
    for gate in (GateId.Z, GateId.S, GateId.T):
        grid = sweep_lambda_gamma(gate, [0.0], [0.0], 60, INITIAL, detuning_factor=factor)
        assert grid.fidelities[0, 0] >= 1 - 10.0 / factor


def test_grid_shape_and_axes():
    lam = [0.0, 0.001, 0.002]
    rat = [0.0, 0.1]
    grid = sweep_lambda_gamma(GateId.Y, lam, rat, 12, INITIAL)
    assert grid.fidelities.shape == (3, 2)
    assert grid.axis1_name == "lambda" and grid.axis2_name == "dgamma_over_gamma"
    assert np.array_equal(grid.axis1, lam) and np.array_equal(grid.axis2, rat)
    finite = grid.fidelities[np.isfinite(grid.fidelities)]
    assert finite.min() >= 0.0 and finite.max() <= 1.0 + 1e-12


def test_failed_cell_is_nan_not_crash():
    grid = sweep_lambda_gamma(GateId.NOT, [0.0, math.inf], [0.0], 8, INITIAL)
    assert grid.fidelities[0, 0] >= 1 - 1e-6
    assert math.isnan(grid.fidelities[1, 0])


def test_cell_programming_error_propagates(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("not a parameter failure")

    monkeypatch.setattr("becgates.sweeps.run_gate", broken)
    with pytest.raises(ValueError, match="not a parameter failure"):
        sweep_lambda_gamma(GateId.NOT, [0.0], [0.0], 8, INITIAL)


def test_each_cell_reproducible_in_isolation():
    lam, rat = [0.0, 0.004], [0.0, 0.08]
    gate = GateId.HADAMARD
    grid = sweep_lambda_gamma(gate, lam, rat, 25, INITIAL)
    spec = gate_conditions(gate, 1.0)
    for i, lv in enumerate(lam):
        for j, rv in enumerate(rat):
            _, f = run_gate(
                spec, INITIAL, 25, {"gamma_ab": 2 * lv, "omega_ab": spec.gamma_g * (1 + rv)}
            )
            assert f == grid.fidelities[i, j]


def test_workers_do_not_change_results():
    lam = np.linspace(0, 0.01, 4)
    rat = np.linspace(0, 0.15, 3)
    g1 = sweep_lambda_gamma(GateId.HADAMARD, lam, rat, 30, INITIAL, workers=1)
    g3 = sweep_lambda_gamma(GateId.HADAMARD, lam, rat, 30, INITIAL, workers=3)
    assert np.array_equal(g1.fidelities, g3.fidelities)
    d1 = sweep_delta(GateId.NOT, [0.0, 0.05, 0.1], 30, INITIAL, workers=1)
    d3 = sweep_delta(GateId.NOT, [0.0, 0.05, 0.1], 30, INITIAL, workers=3)
    assert np.array_equal(d1.fidelities, d3.fidelities)


def test_pool_capped_at_usable_cores(monkeypatch):
    lam, rat = [0.0, 0.005], [0.0, 0.1]
    serial = sweep_lambda_gamma(GateId.NOT, lam, rat, 8, INITIAL, workers=1)

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started on one usable core")

    monkeypatch.setattr("becgates.sweeps._usable_cores", lambda: 1)
    monkeypatch.setattr("becgates.sweeps.ThreadPoolExecutor", no_pool)
    capped = sweep_lambda_gamma(GateId.NOT, lam, rat, 8, INITIAL, workers=3)
    assert np.array_equal(capped.fidelities, serial.fidelities)


def test_empty_grid_rejected():
    with pytest.raises(ValueError, match="non-empty"):
        sweep_lambda_gamma(GateId.NOT, [], [0.0], 5, INITIAL)
    with pytest.raises(ValueError, match="non-empty"):
        sweep_delta(GateId.NOT, [], 5, INITIAL)


@pytest.mark.slow
def test_phase_gate_surface_gamma_axis_weaker_than_lambda_axis():
    # at the production atom number the fidelity loss along the nonlinearity
    # axis dominates the loss along the gamma axis, section by section
    lam = np.linspace(0.0, 0.02, 4)
    rat = np.linspace(0.0, 0.2, 4)
    n = 1000
    for gate in (GateId.Z, GateId.S):
        along_lam = sweep_lambda_gamma(gate, lam, [0.0], n, INITIAL, workers=4).fidelities[:, 0]
        along_rat = sweep_lambda_gamma(gate, [0.0], rat, n, INITIAL, workers=4).fidelities[0, :]
        assert np.all(along_lam[1:] <= along_rat[1:] + 1e-9)
        assert np.any(along_rat[1:] - along_lam[1:] > 0.05)


# --------------------------------------------------------------------- delta sweep


def test_delta_sweep_ideal_point():
    grid = sweep_delta(GateId.Y, [0.0], 50, INITIAL)
    assert grid.fidelities[0, 0] >= 1 - 1e-6


def test_delta_sweep_monotone_three_points():
    grid = sweep_delta(GateId.HADAMARD, [0.0, 0.05, 0.1], 60, INITIAL)
    f = grid.fidelities[:, 0]
    assert np.all(np.diff(f) <= 1e-12)


def test_delta_sweep_records_worst_sign():
    gate = GateId.NOT
    spec = gate_conditions(gate, 1.0)
    r = 0.1
    grid = sweep_delta(gate, [r], 40, INITIAL)
    fs = []
    for sign in (1.0, -1.0):
        _, f = run_gate(spec, INITIAL, 40, {"delta": spec.delta_g * (1 + sign * r)})
        fs.append(f)
    assert fs[0] != fs[1]  # the two signs genuinely differ here
    assert grid.fidelities[0, 0] == min(fs)


def test_delta_sweep_ideal_point_stays_at_most_one_at_large_n():
    # F1 can round a few ulps above 1, and F1**N at N = 1e5 would carry that
    # past the grid's 1 + 1e-12 check; Hadamard from theta = 0 does
    for gate in (GateId.NOT, GateId.Y, GateId.HADAMARD):
        for theta in (0.0, math.pi / 8, 3 * math.pi / 8):
            f = sweep_delta(gate, [0.0], 10**5, AcsParams(theta=theta, phi=0.0)).fidelities[0, 0]
            assert 1.0 - 1e-9 <= f <= 1.0, (gate, theta, f)


def test_delta_sweep_transfer_only():
    with pytest.raises(ValueError, match="transfer"):
        sweep_delta(GateId.Z, [0.0], 5, INITIAL)


def test_delta_sweep_refinement_continuity():
    xs = np.linspace(0.0, 0.2, 5)
    step = xs[1] - xs[0]
    base = sweep_delta(GateId.Y, xs, 30, INITIAL).fidelities[:, 0]
    half = sweep_delta(GateId.Y, xs[:-1] + step / 2, 30, INITIAL).fidelities[:, 0]
    quarter = sweep_delta(GateId.Y, xs[:-1] + step / 4, 30, INITIAL).fidelities[:, 0]
    err_half = np.max(np.abs(base[:-1] - half))
    err_quarter = np.max(np.abs(base[:-1] - quarter))
    assert err_quarter <= 0.7 * err_half + 1e-9


# --------------------------------------------------------------------- trajectories


def test_not_trajectory_endpoint():
    theta = 3 * math.pi / 8
    spec = gate_conditions(GateId.NOT, 1.0)
    p = params_for_gate(spec, 60)
    tr = trajectory(p, AcsParams(theta=theta, phi=0.0), spec.t_gate, 33)
    end = tr.points[-1]
    assert abs(end.x - math.sin(theta)) < 1e-6
    assert abs(end.y) < 1e-6
    assert abs(end.z + math.cos(theta)) < 1e-6


def test_trajectory_frozen_without_coupling():
    from becgates.params import PhysicalParams

    p = PhysicalParams(
        omega_a=1.3, omega_b=0.4, gamma_a=0.0, gamma_b=0.0, gamma_ab=0.0,
        g=0.0, delta=0.7, n_atoms=30,
    )
    tr = trajectory(p, AcsParams(theta=1.1, phi=0.3), 5.0, 21)
    zs = np.array([b.z for b in tr.points])
    assert np.max(np.abs(zs - zs[0])) < 1e-12


def test_trajectory_preserves_bloch_length_at_zero_lambda():
    spec = gate_conditions(GateId.HADAMARD, 1.0)
    p = params_for_gate(spec, 45)
    tr = trajectory(p, AcsParams(theta=0.6, phi=1.9), 3 * spec.t_gate, 50)
    assert np.all(np.diff(tr.times) > 0)
    for b in tr.points:
        assert abs(b.length() - 1.0) < 1e-8


def test_trajectory_validation():
    spec = gate_conditions(GateId.NOT, 1.0)
    p = params_for_gate(spec, 5)
    with pytest.raises(ValueError, match="n_samples"):
        trajectory(p, INITIAL, 1.0, 1)
    with pytest.raises(ValueError, match="t_final"):
        trajectory(p, INITIAL, 0.0, 5)


@pytest.mark.parametrize("t_final", [math.nan, math.inf])
def test_trajectory_rejects_non_finite_t_final(t_final):
    p = params_for_gate(gate_conditions(GateId.NOT, 1.0), 5)
    with pytest.raises(ValueError, match="t_final must be finite"):
        trajectory(p, INITIAL, t_final, 3)


def test_trajectory_memory_does_not_grow_with_samples_times_states():
    # a state kept per sample would add 16 (N+1) bytes each; a Bloch row adds a few hundred
    n = 200
    spec = gate_conditions(GateId.NOT, 1.0)
    p = params_for_gate(spec, n, {"gamma_ab": 0.04})

    def traced_peak(n_samples: int) -> int:
        tracemalloc.start()
        try:
            trajectory(p, INITIAL, spec.t_gate, n_samples)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    growth = traced_peak(8001) - traced_peak(1001)
    assert growth < 0.25 * 16 * (n + 1) * 7000


def test_zero_lambda_trajectory_builds_no_state():
    # the closed form takes a 2x2 propagator per time: one state at N = 10^6 would take 16 MB
    n = 10**6
    spec = gate_conditions(GateId.Y, 1.0)
    p = params_for_gate(spec, n)
    tracemalloc.start()
    try:
        tr = trajectory(p, INITIAL, spec.t_gate, 2001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    # Y sends (sin theta, 0, cos theta) to (-sin theta, 0, -cos theta)
    theta = INITIAL.theta
    assert np.max(np.abs(tr.rows[-1] - (-math.sin(theta), 0.0, -math.cos(theta)))) < 1e-9


def test_zero_lambda_cells_build_no_state():
    # a lambda = 0 cell is F1**N in closed form: its cost must not grow with N
    n, ratios = 10**6, [0.0, 0.001]
    tracemalloc.start()
    try:
        grid = sweep_delta(GateId.NOT, ratios, n, INITIAL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # one state would take 16 MB
    spec = gate_conditions(GateId.NOT, 1.0)
    for r, f in zip(ratios, grid.fidelities[:, 0].tolist()):
        cells = [run_gate(spec, INITIAL, n, {"delta": spec.delta_g * (1.0 + sign * r)})[1]
                 for sign in (1.0, -1.0)]
        assert f == min(cells)


# ----------------------------------------------------------------- container checks


def test_grid_validation():
    with pytest.raises(ValueError, match="shape"):
        FidelityGrid(
            gate=GateId.NOT, axis1_name="a", axis1=np.array([0.0, 1.0]),
            axis2_name=None, axis2=None, fidelities=np.ones((3, 1)),
            n_atoms=5, initial=INITIAL,
        )
    with pytest.raises(ValueError, match=r"\[0, 1"):
        FidelityGrid(
            gate=GateId.NOT, axis1_name="a", axis1=np.array([0.0]),
            axis2_name=None, axis2=None, fidelities=np.array([[1.5]]),
            n_atoms=5, initial=INITIAL,
        )


def test_trajectory_validation_container():
    from becgates.fock import BlochVector

    pts = [BlochVector(0, 0, 1), BlochVector(0, 0, 1)]
    with pytest.raises(ValueError, match="strictly increasing"):
        Trajectory(times=np.array([0.0, 0.0]), rows=pts)
    with pytest.raises(ValueError, match="equal lengths"):
        Trajectory(times=np.array([0.0]), rows=pts)


def test_csv_headers():
    grid2 = sweep_lambda_gamma(GateId.NOT, [0.0], [0.0], 5, INITIAL)
    assert grid2.to_csv().splitlines()[0] == "axis1,axis2,fidelity"
    grid1 = sweep_delta(GateId.NOT, [0.0], 5, INITIAL)
    assert grid1.to_csv().splitlines()[0] == "axis1,fidelity"
    spec = gate_conditions(GateId.NOT, 1.0)
    p = params_for_gate(spec, 5)
    tr = trajectory(p, INITIAL, 1.0, 3)
    assert tr.to_csv().splitlines()[0] == "t,x,y,z"


@pytest.mark.parametrize("gamma_ab", [0.0, 0.02])
def test_trajectory_csv_formats_every_row_to_17_digits(gamma_ab):
    spec = gate_conditions(GateId.HADAMARD, 1.0)
    tr = trajectory(params_for_gate(spec, 20, {"gamma_ab": gamma_ab}), INITIAL, spec.t_gate, 300)
    lines = [f"{t:.17g},{b.x:.17g},{b.y:.17g},{b.z:.17g}" for t, b in zip(tr.times, tr.points)]
    assert tr.to_csv() == "\n".join(["t,x,y,z"] + lines) + "\n"


@pytest.mark.parametrize("two", [False, True], ids=["one-axis", "two-axes"])
def test_grid_csv_formats_every_cell_to_17_digits(two):
    # cells run row-major, axis1 first; a NaN cell and a -0.0 axis value keep their spelling
    axis1 = np.array([-0.0, 0.1, 1.0 / 3.0])
    axis2 = np.array([0.0, 2.0 / 3.0]) if two else None
    fidelities = np.random.default_rng(23).random((3, 2 if two else 1))
    fidelities[1, 0] = math.nan
    grid = FidelityGrid(GateId.NOT, "lambda", axis1, "dgamma_over_gamma" if two else None, axis2,
                        fidelities, 5, INITIAL)
    cells = [(a, b) for a in axis1 for b in axis2] if two else [(a,) for a in axis1]
    lines = [",".join(f"{v:.17g}" for v in (*cell, f)) for cell, f in zip(cells, fidelities.flat)]
    header = "axis1,axis2,fidelity" if two else "axis1,fidelity"
    text = grid.to_csv()
    assert text == "\n".join([header] + lines) + "\n"
    assert "\n-0," in text and ",nan\n" in text
