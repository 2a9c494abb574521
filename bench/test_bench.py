"""Tests of the benchmark itself: seeded configs, the output checker, span arithmetic.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import becgates.cli  # noqa: E402
from becgates import sweeps  # noqa: E402
from becgates.gates import GateId  # noqa: E402
from reference import check_output  # noqa: E402
from run import end_to_end  # noqa: E402
from spans import Span, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import EVOLVE, SWEEP_DELTA, TRAJECTORY, WORKLOADS, Command  # noqa: E402

INITIAL = {"theta": 0.7, "phi": 1.3}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_configs(name):
    w = WORKLOADS[name]
    first = [w.cycle(7, i, 2) for i in range(3)]
    assert first == [w.cycle(7, i, 2) for i in range(3)]
    assert first != [w.cycle(8, i, 2) for i in range(3)]
    assert w.cycle(7, 1, 2) != w.cycle(7, 2, 2)


def _run(cmd: Command, tmp_path: Path) -> Path:
    config, output = tmp_path / "cfg.json", tmp_path / "out.csv"
    config.write_text(json.dumps(cmd.config))
    assert becgates.cli.main(cmd.argv(str(config), str(output))) == 0
    return output


def _replace_last_field(output: Path, row: int, value: str) -> None:
    lines = output.read_text().splitlines()
    fields = lines[row].split(",")
    fields[-1] = value
    lines[row] = ",".join(fields)
    output.write_text("\n".join(lines) + "\n")


def test_checker_flags_corrupted_fidelity(tmp_path):
    cmd = Command(SWEEP_DELTA, "h", {"n_atoms": 60, "initial": INITIAL, "ddelta_ratio_values": [0.0, 0.02]})
    output = _run(cmd, tmp_path)
    chk = check_output(cmd, output)
    assert chk.ok and chk.rows == 2 and chk.below_floor_cells == 0
    f = float(output.read_text().splitlines()[2].split(",")[1])
    _replace_last_field(output, 2, repr(f * (1 + 1e-6)))
    assert not check_output(cmd, output).ok
    _replace_last_field(output, 2, "nan")
    chk = check_output(cmd, output)
    assert not chk.ok and chk.nan_cells == 1


def test_below_floor_cells_are_counted_not_failed(tmp_path):
    cmd = Command(SWEEP_DELTA, "not", {"n_atoms": 1000, "initial": {"theta": math.pi / 8, "phi": 0.0},
                                        "ddelta_ratio_values": [0.2]})
    chk = check_output(cmd, _run(cmd, tmp_path))
    assert chk.ok and chk.below_floor_cells == 1


def test_checker_flags_corrupted_state_csv(tmp_path):
    cmd = Command(EVOLVE, "y", {"params": {"omega_a": 2.0, "omega_b": 0.0, "gamma_a": 0.0, "gamma_b": 0.0,
                                           "gamma_ab": 0.0, "g": 1.0, "delta": 2.0, "n_atoms": 40},
                                "initial": INITIAL, "t": 1.5707963267948966})
    output = _run(cmd, tmp_path)
    assert check_output(cmd, output).ok
    lines = output.read_text().splitlines()
    k, re, im = lines[21].split(",")
    lines[21] = f"{k},{float(re) + 1e-4!r},{im}"
    output.write_text("\n".join(lines) + "\n")
    assert not check_output(cmd, output).ok


def test_checker_flags_corrupted_trajectory(tmp_path):
    cmd = Command(TRAJECTORY, "not", {"params": {"omega_a": 4.0, "omega_b": 0.0, "gamma_a": 0.0, "gamma_b": 0.0,
                                                 "gamma_ab": 0.0, "g": 1.0, "delta": 4.0, "n_atoms": 30},
                                      "initial": INITIAL, "t_final": math.pi / 2, "n_samples": 41})
    output = _run(cmd, tmp_path)
    chk = check_output(cmd, output)
    assert chk.ok and chk.rows == 41
    z = float(output.read_text().splitlines()[10].split(",")[-1])
    _replace_last_field(output, 10, repr(z + 1e-6))
    assert not check_output(cmd, output).ok


def test_self_time_and_layer_metrics_on_synthetic_tree():
    spans = [
        Span("cli.main", 0.0, 10.0, None, 0, 1),
        Span("sweeps.sweep_delta", 1.0, 5.0, 0, 0, 1),
        Span("gates.run_gate", 1.0, 4.0, 1, 0, 2),
        Span("gates.run_gate", 2.0, 5.0, 1, 0, 3),  # overlaps its sibling, as pool workers do
        Span("evolve.evolve_oracle", 1.5, 3.5, 2, 0, 2),
        Span("evolve.evolve_oracle_at_times", 1.5, 3.5, 4, 0, 2, count=1),
        Span("fock.state_to_csv", 9.0, 12.0, 0, 0, 1),  # clipped to the parent's end
    ]
    assert self_times(spans) == pytest.approx([5.0, 0.0, 1.0, 3.0, 0.0, 2.0, 3.0])
    m = layer_metrics(spans, {0: 2})
    assert m["evolve.solves"] == 1 and m["evolve.samples_per_solve"] == 1.0
    assert m["evolve.self_s"] == pytest.approx(2.0) and m["gates.self_s"] == pytest.approx(4.0)
    assert m["cli.self_s"] == pytest.approx(5.0) and m["sweeps.self_s"] == pytest.approx(0.0)
    assert m["gates.run_gate.calls"] == 2
    assert m["sweeps.pool_efficiency"] == pytest.approx(6.0 / (2 * 4.0))


def test_tracer_parents_pool_workers_on_the_sweep_and_restores():
    original = sweeps.run_gate
    tracer = Tracer()
    with tracer.installed(), tracer.command(0):
        grid = sweeps.sweep_lambda_gamma(GateId.NOT, [0.0, 0.01], [0.0, 0.1], 8, workers=2)
    assert sweeps.run_gate is original
    assert np.all(np.isfinite(grid.fidelities))
    (sweep_id,) = [i for i, s in enumerate(tracer.spans) if s.name == "sweeps.sweep_lambda_gamma"]
    runs = [s for s in tracer.spans if s.name == "gates.run_gate"]
    assert len(runs) == 4 and all(s.parent == sweep_id and s.cmd == 0 for s in runs)


def test_end_to_end_statistics():
    loop = [SimpleNamespace(latency=float(x), check=SimpleNamespace(rows=x)) for x in range(25, 0, -1)]
    loop[0].latency = 100.0  # a stalled command moves neither the median nor the throughput
    record = {}
    out = end_to_end([loop[i:i + 5] for i in range(0, 25, 5)], record)
    assert out["cmd_tail_s"] == 15.0 and out["cmd_p50_s"] == 13.0
    assert out["rows_per_s"] == 1.0
    assert record == {"cmd_samples": 25, "cmd_tail_percentile": 60.0}
