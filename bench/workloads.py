"""Seeded workloads: the CLI commands the benchmark sends, one cycle at a time.

A workload is a fixed cycle of commands.  Cycle ``i`` of seed ``s`` is drawn
from its own generator ``default_rng([s, i])``, so a cycle's configs depend
only on (seed, index) and never on how many cycles a run gets through.  The
seed varies parameter values (initial state, detuning error, grid values),
never the shape of the work, so every cycle of a workload costs the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from becgates.gates import GateId, TRANSFER_GATES, gate_conditions, params_for_gate
from becgates.params import params_to_dict

TRANSFER = tuple(g for g in GateId if g in TRANSFER_GATES)

AFTER_LOOP = 2**32 - 1  # generator index of the after-loop commands, past any cycle index

SWEEP_DELTA, SWEEP_SURFACE, TRAJECTORY, EVOLVE = "sweep-delta", "sweep-surface", "trajectory", "evolve"


@dataclass(frozen=True)
class Command:
    """One CLI invocation: its kind, gate, JSON config and worker count."""

    kind: str
    gate: str
    config: dict
    workers: int = 1

    def argv(self, config_path: str, output_path: str) -> list[str]:
        io = ["--config", config_path, "--output", output_path]
        if self.kind == SWEEP_DELTA:
            return ["sweep", "--kind", "delta", "--gate", self.gate, *io, "--workers", "1"]
        if self.kind == SWEEP_SURFACE:
            return ["sweep", "--kind", "lambda-gamma", "--gate", self.gate, *io,
                    "--workers", str(self.workers)]
        return [self.kind, *io]


@dataclass(frozen=True)
class Workload:
    name: str
    make_cycle: Callable[[np.random.Generator, int], list[Command]]
    # whole cycles a timed run makes at least, so that cmd_tail_s has 10 samples beyond it
    min_cycles: int
    # whole cycles of the traced run; fixed so that its counts repeat exactly
    trace_cycles: int
    # commands run once after the timed loop: checked, counted, not timed
    after: Callable[[np.random.Generator, int], list[Command]] | None = None

    def cycle(self, seed: int, index: int, nproc: int) -> list[Command]:
        return self.make_cycle(np.random.default_rng([seed, index]), nproc)

    def after_loop(self, seed: int, nproc: int) -> list[Command]:
        return self.after(np.random.default_rng([seed, AFTER_LOOP]), nproc) if self.after else []


def _initial(rng: np.random.Generator) -> dict:
    return {"theta": float(rng.uniform(0.1, math.pi - 0.1)), "phi": float(rng.uniform(0.0, 2.0 * math.pi))}


def _delta_cycle(rng: np.random.Generator, nproc: int) -> list[Command]:
    return [
        Command(SWEEP_DELTA, gate.value, {
            "n_atoms": 1000,
            "initial": _initial(rng),
            "ddelta_ratio_values": [float(rng.uniform(0.0, 0.3))],
        })
        for gate in TRANSFER
    ]


def _surface_cycle(rng: np.random.Generator, nproc: int) -> list[Command]:
    out = []
    for gate in GateId:
        lambda_max = float(rng.uniform(0.005, 0.02))
        out.append(Command(SWEEP_SURFACE, gate.value, {
            "n_atoms": 100,
            "initial": _initial(rng),
            "detuning_factor": 100.0,
            # the first value is exactly 0, so one row in ten takes the lambda = 0 path
            "lambda_values": [float(v) for v in np.linspace(0.0, lambda_max, 10)],
            "dgamma_ratio_values": [float(v) for v in np.sort(rng.uniform(0.0, 0.2, 10))],
        }, workers=nproc))
    return out


def _at_gate_conditions(gate: GateId, n_atoms: int) -> tuple[dict, float]:
    spec = gate_conditions(gate, 1.0)
    return params_to_dict(params_for_gate(spec, n_atoms)), spec.t_gate


def _trajectory_cycle(rng: np.random.Generator, nproc: int) -> list[Command]:
    gate = list(GateId)[rng.integers(len(GateId))]
    params, t_gate = _at_gate_conditions(gate, 1000)
    return [Command(TRAJECTORY, gate.value, {
        "params": params, "initial": _initial(rng), "t_final": t_gate, "n_samples": 2001,
    })]


def _evolve_after(rng: np.random.Generator, nproc: int) -> list[Command]:
    gate = list(GateId)[rng.integers(len(GateId))]
    params, t_gate = _at_gate_conditions(gate, 1000)
    return [Command(EVOLVE, gate.value, {"params": params, "initial": _initial(rng), "t": t_gate})]


WORKLOADS = {
    w.name: w
    for w in (
        # why each workload was chosen: BENCHMARK.json and README.md
        Workload("delta-n1000", _delta_cycle, min_cycles=4, trace_cycles=3),
        Workload("surface-n100", _surface_cycle, min_cycles=2, trace_cycles=4),
        # an evolve costs a quarter of a trajectory; in the loop it would make
        # the latency distribution bimodal, so it runs once after the loop
        Workload("trajectory-n1000", _trajectory_cycle, min_cycles=11, trace_cycles=6, after=_evolve_after),
    )
}
