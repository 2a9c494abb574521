import json
import math
import pathlib

import pytest

from becgates import cli
from becgates.cli import main
from becgates.fock import state_from_csv
from becgates.gates import GateId, gate_conditions, params_for_gate
from becgates.params import params_to_dict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


PARAMS_NOT = {
    "omega_a": 4.0,
    "omega_b": 0.0,
    "gamma_a": 0.0,
    "gamma_b": 0.0,
    "gamma_ab": 0.0,
    "g": 1.0,
    "delta": 4.0,
    "n_atoms": 10,
}


EVOLVE_CONFIG = {"params": PARAMS_NOT, "initial": {"theta": 0.0, "phi": 0.0}, "t": 1.0}


def write_config(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def parse_report(out):
    values = {}
    for line in out.splitlines():
        key, _, rest = line.partition(":")
        values[key.strip()] = rest.split("[")[0].strip()
    return values


# ------------------------------------------------------------------- gate-check


def test_gate_check_not(capsys):
    code, out, _ = run(capsys, "gate-check", "--gate", "not", "--g", "1.0")
    assert code == 0
    report = parse_report(out)
    assert float(report["t_gate"]) == pytest.approx(2 * math.pi / 4, rel=1e-15)
    assert "1.5707963267948966" in out  # 17 significant digits
    assert float(report["deviation_up_to_phase"]) <= 1e-10


def test_gate_check_phase_gate(capsys):
    code, out, _ = run(capsys, "gate-check", "--gate", "z", "--g", "1.0", "--detuning-factor", "100")
    assert code == 0
    report = parse_report(out)
    assert float(report["deviation_up_to_phase"]) <= 0.03
    assert float(report["detuning_factor"]) == 100.0


def test_gate_check_si_labels(capsys):
    # g = 2*pi x 1.5 kHz in rad/s gives t_gate in seconds: any consistent unit works
    code, out, _ = run(capsys, "gate-check", "--gate", "not", "--g", "9424.777960769379")
    assert code == 0
    report = parse_report(out)
    assert float(report["t_gate"]) == pytest.approx(1.6667e-4, rel=1e-3)


def test_gate_check_rejects_unknown_gate(capsys):
    code, _, err = run(capsys, "gate-check", "--gate", "cnot", "--g", "1.0")
    assert code == 2
    assert err.count("\n") == 1 and "'gate'" in err


# ----------------------------------------------------------------------- evolve


def test_evolve_writes_state_csv(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "evolve.json", {"params": PARAMS_NOT, "initial": {"theta": 0.0, "phi": 0.0}}
    )
    out_path = tmp_path / "state.csv"
    t_not = 2 * math.pi / 4
    code, _, _ = run(capsys, "evolve", "--config", cfg, "--t", str(t_not), "--output", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert text.splitlines()[0] == "k,re,im"
    state = state_from_csv(text)
    assert state.n_atoms == 10
    assert abs(state.norm() - 1.0) < 1e-10
    # NOT conditions drive the pole to the opposite pole
    assert abs(state.amplitudes[10]) == pytest.approx(1.0, abs=1e-9)
    assert (tmp_path / "state.csv.meta.json").exists()


def test_evolve_missing_time(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "evolve.json", {"params": PARAMS_NOT, "initial": {"theta": 0.0, "phi": 0.0}}
    )
    code, _, err = run(capsys, "evolve", "--config", cfg, "--output", str(tmp_path / "s.csv"))
    assert code == 2
    assert "'t'" in err


def test_evolve_t_flag_overrides_config(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "evolve.json",
        {"params": PARAMS_NOT, "initial": {"theta": 0.0, "phi": 0.0}, "t": 0.0},
    )
    out_path = tmp_path / "state.csv"
    t_not = 2 * math.pi / 4
    code, _, _ = run(capsys, "evolve", "--config", cfg, "--t", str(t_not), "--output", str(out_path))
    assert code == 0
    # at t = 0 the state would stay at the north pole; at t_not it reaches the south pole
    assert abs(state_from_csv(out_path.read_text()).amplitudes[10]) == pytest.approx(1.0, abs=1e-9)
    sidecar = json.loads((tmp_path / "state.csv.meta.json").read_text())
    assert sidecar["config"]["t"] == t_not


def test_engine_value_error_is_internal_error(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("engine fault")

    monkeypatch.setattr("becgates.cli.evolve_oracle", broken)
    cfg = write_config(tmp_path, "evolve.json", EVOLVE_CONFIG)
    code, _, err = run(capsys, "evolve", "--config", cfg, "--output", str(tmp_path / "s.csv"))
    assert code == 1
    assert err.splitlines()[-1] == "internal error: engine fault"
    assert not (tmp_path / "s.csv").exists()


# -------------------------------------------------------------------- trajectory


def test_trajectory_csv(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "traj.json",
        {
            "params": PARAMS_NOT,
            "initial": {"theta": 3 * math.pi / 8, "phi": 0.0},
            "t_final": 2 * math.pi / 4,
            "n_samples": 9,
        },
    )
    out_path = tmp_path / "traj.csv"
    code, _, _ = run(capsys, "trajectory", "--config", cfg, "--output", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "t,x,y,z"
    assert len(lines) == 10
    last = [float(v) for v in lines[-1].split(",")]
    assert last[3] == pytest.approx(-math.cos(3 * math.pi / 8), abs=1e-6)


def test_trajectory_malformed_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "trajectory", "--config", str(path), "--output", str(tmp_path / "t.csv"))
    assert code == 2
    assert err.count("\n") == 1 and "'config'" in err
    cfg = write_config(tmp_path, "bad2.json", {"params": PARAMS_NOT, "initial": {"theta": 0.1}})
    code, _, err = run(capsys, "trajectory", "--config", cfg, "--output", str(tmp_path / "t.csv"))
    assert code == 2
    assert "'initial'" in err


# ------------------------------------------------------------------------- sweep


def test_sweep_delta_three_points(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "sweep.json",
        {"n_atoms": 60, "ddelta_ratio_values": [0.0, 0.05, 0.1]},
    )
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run(
        capsys, "sweep", "--kind", "delta", "--gate", "h", "--config", cfg,
        "--output", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "axis1,fidelity"
    assert len(lines) == 4
    fs = [float(line.split(",")[1]) for line in lines[1:]]
    assert fs[0] >= 1 - 1e-6
    assert fs[0] >= fs[1] >= fs[2]


def test_sweep_lambda_gamma_grid(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "sweep.json",
        {
            "n_atoms": 25,
            "lambda_values": {"start": 0.0, "stop": 0.004, "num": 3},
            "dgamma_ratio_values": [0.0, 0.1],
        },
    )
    out_path = tmp_path / "grid.csv"
    code, _, _ = run(
        capsys, "sweep", "--kind", "lambda-gamma", "--gate", "not", "--config", cfg,
        "--output", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "axis1,axis2,fidelity"
    assert len(lines) == 7
    sidecar = json.loads((tmp_path / "grid.csv.meta.json").read_text())
    assert sidecar["command"] == "sweep"
    assert sidecar["config"]["lambda_values"] == [0.0, 0.002, 0.004]
    assert sidecar["provenance"]["gate_spec_in_g_units"]["delta_g"] == 4.0


def test_sweep_n_atoms_flag_overrides_config(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "s.json", {"n_atoms": 10, "ddelta_ratio_values": [0.0]}
    )
    out_path = tmp_path / "o.csv"
    code, _, _ = run(
        capsys, "sweep", "--kind", "delta", "--gate", "not", "--config", cfg,
        "--output", str(out_path), "--n-atoms", "15",
    )
    assert code == 0
    sidecar = json.loads((tmp_path / "o.csv.meta.json").read_text())
    assert sidecar["config"]["n_atoms"] == 15


def test_sweep_requires_kind_and_gate(tmp_path, capsys):
    cfg = write_config(tmp_path, "s.json", {"n_atoms": 5})
    code, _, err = run(capsys, "sweep", "--config", cfg, "--output", str(tmp_path / "o.csv"))
    assert code == 2 and "'kind'" in err
    code, _, err = run(
        capsys, "sweep", "--kind", "delta", "--config", cfg, "--output", str(tmp_path / "o.csv")
    )
    assert code == 2 and "'gate'" in err


def test_sweep_rejects_phase_gate_for_delta_kind(tmp_path, capsys):
    cfg = write_config(tmp_path, "s.json", {"n_atoms": 5, "ddelta_ratio_values": [0.0]})
    code, _, err = run(
        capsys, "sweep", "--kind", "delta", "--gate", "z", "--config", cfg,
        "--output", str(tmp_path / "o.csv"),
    )
    assert code == 2
    assert "transfer" in err


# ------------------------------------------------------- determinism / round trips


def test_repeated_runs_are_bitwise_identical(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "s.json", {"n_atoms": 30, "ddelta_ratio_values": [0.0, 0.08]}
    )
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        code, _, _ = run(
            capsys, "sweep", "--kind", "delta", "--gate", "y", "--config", cfg,
            "--output", str(path),
        )
        assert code == 0
        outs.append((path.read_bytes(), (tmp_path / (name + ".meta.json")).read_bytes()))
    assert outs[0] == outs[1]


def test_sidecar_rerun_reproduces_csv(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "s.json",
        {
            "n_atoms": 20,
            "lambda_values": [0.0, 0.003],
            "dgamma_ratio_values": [0.0, 0.12],
            "initial": {"theta": 0.5, "phi": 1.0},
        },
    )
    first = tmp_path / "first.csv"
    run(capsys, "sweep", "--kind", "lambda-gamma", "--gate", "h", "--config", cfg,
        "--output", str(first))
    second = tmp_path / "second.csv"
    code, _, _ = run(
        capsys, "sweep", "--kind", "lambda-gamma", "--gate", "h",
        "--config", str(tmp_path / "first.csv.meta.json"), "--output", str(second),
    )
    assert code == 0
    assert first.read_bytes() == second.read_bytes()


def test_workers_flag_keeps_output_identical(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "s.json", {"n_atoms": 25, "ddelta_ratio_values": [0.0, 0.05, 0.1, 0.15]}
    )
    paths = []
    for name, workers in (("w1.csv", "1"), ("w4.csv", "4")):
        path = tmp_path / name
        run(capsys, "sweep", "--kind", "delta", "--gate", "not", "--config", cfg,
            "--output", str(path), "--workers", workers)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


# --------------------------------------------------------------------- bad input

BAD_INPUT_BASE = {
    "evolve": EVOLVE_CONFIG,
    "trajectory": {
        "params": PARAMS_NOT,
        "initial": {"theta": 0.0, "phi": 0.0},
        "t_final": 1.0,
        "n_samples": 3,
    },
    "sweep": {
        "kind": "lambda-gamma",
        "gate": "z",
        "n_atoms": 3,
        "lambda_values": [0.0],
        "dgamma_ratio_values": [0.0],
    },
}


@pytest.mark.parametrize(
    "command,config,flags,field",
    [
        ("evolve", {"t": math.nan}, [], "t"),
        ("evolve", {"t": math.inf}, [], "t"),
        ("evolve", {"t": True}, [], "t"),
        ("evolve", {"t": "abc"}, [], "t"),
        ("evolve", {"t": 10**400}, [], "t"),
        ("evolve", {"params": {**PARAMS_NOT, "omega_a": 10**400}}, [], "omega_a"),
        ("trajectory", {}, ["--output", "/nonexistent/dir/x.csv"], "output"),
        ("trajectory", {}, ["--output", "."], "output"),
        ("trajectory", {"t_final": math.nan}, [], "t_final"),
        ("sweep", {"detuning_factor": math.nan}, [], "detuning_factor"),
        ("sweep", {"detuning_factor": "abc"}, [], "detuning_factor"),
        ("sweep", {"lambda_values": [0.0, math.nan]}, [], "lambda_values[1]"),
        (
            "sweep",
            {"dgamma_ratio_values": {"start": 0.0, "stop": 0.1, "num": 0}},
            [],
            "dgamma_ratio_values.num",
        ),
        ("sweep", {}, ["--workers", "0"], "workers"),
        ("gate-check", None, ["--gate", "not", "--g", "nan"], "g"),
        (
            "gate-check",
            None,
            ["--gate", "z", "--g", "1", "--detuning-factor", "nan"],
            "detuning_factor",
        ),
        # the gate conditions overflow (delta_g = inf, t_gate = 0) or underflow (t_gate = inf)
        ("gate-check", None, ["--gate", "not", "--g", "1e308"], "g"),
        ("gate-check", None, ["--gate", "not", "--g", "1e-320"], "g"),
        ("gate-check", None, ["--gate", "z", "--g", "1e-320"], "g"),
        ("sweep", {"detuning_factor": 1e308}, [], "detuning_factor"),
        (
            "gate-check",
            None,
            ["--gate", "z", "--g", "1", "--detuning-factor", "1e308"],
            "detuning_factor",
        ),
        # a phase E*t or delta*t*N, or a realized parameter, overflows: the output would be NaN
        ("evolve", {"t": 1e308}, [], "t"),
        ("trajectory", {"t_final": 1e308}, [], "t_final"),
        ("evolve", {"params": {**PARAMS_NOT, "omega_a": 1e308}}, [], "params"),
        ("sweep", {"lambda_values": [0.0, 1e308]}, [], "lambda_values[1]"),
        ("sweep", {"lambda_values": [1e305], "n_atoms": 100}, [], "lambda_values[0]"),
        # stop - start overflows, so linspace yields nan, inf, 1e308
        ("sweep", {"lambda_values": {"start": -1e308, "stop": 1e308, "num": 3}}, [],
         "lambda_values[0]"),
        ("sweep", {"kind": "delta", "gate": "not", "ddelta_ratio_values": [1e308]}, [],
         "ddelta_ratio_values[0]"),
    ],
    ids=[
        "t-nan", "t-inf", "t-bool", "t-str", "t-int-overflow", "param-int-overflow",
        "output-dir-missing", "output-is-dir", "t_final-nan",
        "detuning_factor-nan", "detuning_factor-str", "axis-nan", "axis-num-0", "workers-0",
        "g-nan", "detuning_factor-flag-nan",
        "g-overflow", "g-subnormal", "g-subnormal-phase-gate", "detuning_factor-overflow",
        "detuning_factor-flag-overflow", "t-phase-overflow", "t_final-phase-overflow",
        "params-hamiltonian-overflow", "lambda-overflow", "lambda-hamiltonian-overflow",
        "axis-linspace-overflow", "ddelta-overflow",
    ],
)
def test_bad_input_exits_two_naming_field(tmp_path, capsys, command, config, flags, field):
    argv = [command]
    if config is not None:
        path = write_config(tmp_path, "c.json", {**BAD_INPUT_BASE[command], **config})
        argv += ["--config", path, "--output", str(tmp_path / "o.csv")]
    code, _, err = run(capsys, *argv, *flags)  # a later --output wins
    assert code == 2
    assert err.count("\n") == 1 and f"field '{field}'" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if config is None else ["c.json"])


def test_sweep_cell_overflow_exits_two_naming_both_fields(tmp_path, capsys):
    # each value alone realizes a finite cell; only their combination overflows the phase bound
    cfg = write_config(tmp_path, "c.json", {
        "kind": "lambda-gamma", "gate": "not", "n_atoms": 100,
        "lambda_values": [1e304], "dgamma_ratio_values": [2.5e305],
    })
    code, _, err = run(capsys, "sweep", "--config", cfg, "--output", str(tmp_path / "o.csv"))
    assert code == 2
    assert err.count("\n") == 1
    assert "field 'lambda_values[0]'" in err and "field 'dgamma_ratio_values[0]'" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


@pytest.mark.parametrize(
    "command,config,field",
    [
        ("evolve", {"params": {**PARAMS_NOT, "n_atoms": 1000}}, "n_atoms"),
        # gamma_ab != 0: lambda = -0.01, so the trajectory solves; at lambda = 0 it would not
        ("trajectory", {"params": {**PARAMS_NOT, "n_atoms": 1000, "gamma_ab": 0.02}}, "n_atoms"),
        ("trajectory", {"n_samples": 10**5}, "n_samples"),
        ("sweep", {"n_atoms": 1000, "lambda_values": [0.0, 0.01]}, "n_atoms"),
    ],
    ids=["evolve", "trajectory", "trajectory-samples", "sweep-nonzero-lambda"],
)
def test_solver_footprint_beyond_memory_exits_two(tmp_path, capsys, monkeypatch, command, config,
                                                  field):
    # 1 MB of physical memory: N = 1000 needs 16 MB for the solve, nothing is allocated
    monkeypatch.setattr(cli, "_physical_memory", lambda: 1e6)
    path = write_config(tmp_path, "c.json", {**BAD_INPUT_BASE[command], **config})
    code, _, err = run(capsys, command, "--config", path, "--output", str(tmp_path / "o.csv"))
    assert code == 2
    assert err.count("\n") == 1 and f"field '{field}'" in err and "physical memory" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


def test_memory_guard_counts_a_trajectory_as_one_block_and_its_rows(monkeypatch):
    # 64 MB: at N = 1000 the solve and one block of times take about 32 MB, and 5,000
    # samples add their rows; 5,000 states of 16 (N+1) bytes would take 80 MB
    monkeypatch.setattr(cli, "_physical_memory", lambda: 64e6)
    cli._check_solver_memory("n_samples", 1000, 5000)
    with pytest.raises(cli.ValidationError, match="field 'n_samples'.*physical memory"):
        cli._check_solver_memory("n_samples", 1000, 200_000)


@pytest.mark.parametrize("exponent", [170, 400])
def test_solver_footprint_beyond_the_float_range_exits_two(tmp_path, capsys, monkeypatch,
                                                           exponent):
    # the solve needs 16 (N+1)^2 bytes, past the float range in bytes and in GiB alike
    monkeypatch.setattr(cli, "_physical_memory", lambda: 2.0**40)
    code, _, err = run(capsys, "sweep", "--kind", "lambda-gamma", "--gate", "z",
                       "--n-atoms", str(10**exponent), "--output", str(tmp_path / "x.csv"))
    assert code == 2
    assert err.count("\n") == 1 and "field 'n_atoms'" in err and "physical memory" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "config",
    [
        {"kind": "delta", "gate": "not", "n_atoms": 1000, "ddelta_ratio_values": [0.1]},
        {"kind": "lambda-gamma", "gate": "z", "n_atoms": 1000, "lambda_values": [0.0],
         "dgamma_ratio_values": [0.0]},
    ],
    ids=["delta", "lambda-gamma-zero-lambda"],
)
def test_closed_form_sweeps_need_no_memory_guard(tmp_path, capsys, monkeypatch, config):
    monkeypatch.setattr(cli, "_physical_memory", lambda: 1e6)
    path = write_config(tmp_path, "c.json", config)
    code, _, err = run(capsys, "sweep", "--config", path, "--output", str(tmp_path / "o.csv"))
    assert code == 0, err


@pytest.mark.parametrize("n_atoms", [10**6, 10**9])
def test_zero_lambda_trajectory_needs_no_solver_memory(tmp_path, capsys, monkeypatch, n_atoms):
    # the closed form solves nothing: 1 MB of physical memory takes a Y gate at any N
    monkeypatch.setattr(cli, "_physical_memory", lambda: 1e6)
    spec = gate_conditions(GateId.Y, 1.0)
    config = {"params": params_to_dict(params_for_gate(spec, n_atoms)),
              "initial": {"theta": 1.1, "phi": 0.4}, "t_final": spec.t_gate, "n_samples": 1001}
    path = write_config(tmp_path, "c.json", config)
    out = tmp_path / "o.csv"
    code, _, err = run(capsys, "trajectory", "--config", path, "--output", str(out))
    assert code == 0, err
    assert len(out.read_text().splitlines()) == 1002
    # its rows still count: 10^4 samples take more than 1 MB
    path = write_config(tmp_path, "c.json", {**config, "n_samples": 10**4})
    code, _, err = run(capsys, "trajectory", "--config", path, "--output", str(tmp_path / "p.csv"))
    assert code == 2
    assert err.count("\n") == 1 and "field 'n_samples'" in err and "physical memory" in err
    assert not (tmp_path / "p.csv").exists()


def test_failed_write_leaves_neither_file(tmp_path, capsys, monkeypatch):
    write_text = pathlib.Path.write_text

    def fail_on_sidecar(path, text):
        if ".meta.json" in path.name:
            raise OSError("disk full")
        return write_text(path, text)

    cfg = write_config(tmp_path, "c.json", BAD_INPUT_BASE["trajectory"])
    monkeypatch.setattr(pathlib.Path, "write_text", fail_on_sidecar)
    code, _, err = run(capsys, "trajectory", "--config", cfg, "--output", str(tmp_path / "o.csv"))
    assert code == 1 and "internal error: disk full" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


# -------------------------------------------------------------------------- help


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    for cmd in ("gate-check", "evolve", "sweep", "trajectory"):
        assert cmd in out


@pytest.mark.parametrize(
    "cmd,flags",
    [
        ("gate-check", ["--gate", "--g", "--detuning-factor"]),
        ("evolve", ["--config", "--t", "--output"]),
        ("trajectory", ["--config", "--output"]),
        ("sweep", ["--kind", "--gate", "--config", "--output", "--workers", "--n-atoms"]),
    ],
)
def test_subcommand_help_documents_flags(capsys, cmd, flags):
    code, out, _ = run(capsys, cmd, "--help")
    assert code == 0
    for flag in flags:
        assert flag in out


def test_unknown_flag_exits_two(capsys):
    code, _, _ = run(capsys, "gate-check", "--gate", "not", "--g", "1.0", "--bogus")
    assert code == 2
