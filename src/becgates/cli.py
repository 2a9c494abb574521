"""Command-line interface: gate verification, evolutions, sweeps, trajectories.

Units: frequencies (g, delta, trap frequencies, collision strengths) may be
given in any one consistent unit, and times are then in its inverse.  Every
formula in the library is scale invariant, so rad/s with seconds and the
dimensionless g = 1 units of the sweeps share one code path.

``evolve``, ``trajectory`` and ``sweep`` take a JSON config; a flag given on
the command line overrides the config key of the same name (``--t``,
``--kind``, ``--gate``, ``--n-atoms``, ``--workers``).  Each command resolves
and validates its whole input before it computes anything, then writes the
output CSV and a JSON sidecar (``<output>.meta.json``) holding the resolved
config.  Outputs are deterministic: the same config reproduces both files
bitwise, and a sidecar passed back via ``--config`` reproduces its CSV.

Exit codes: 0 on success, 2 on bad input (flags or config fields; one stderr
line naming the field, and no file is written), 1 on an internal error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import traceback
from dataclasses import asdict
from decimal import Decimal
from pathlib import Path

import numpy as np

from .evolve import _BLOCK, evolve_oracle, qubit_propagator, spectral_radius_bound
from .fock import AcsParams, acs_state, state_to_csv
from .gates import (
    DEFAULT_DETUNING_FACTOR,
    MIN_DETUNING_FACTOR,
    GateId,
    PHASE_GATES,
    gate_conditions,
    gate_spec_to_dict,
    params_for_gate,
    up_to_phase_deviation,
)
from .params import (
    ValidationError,
    _number,
    _reject,
    derive_params,
    params_from_dict,
    params_to_dict,
)
from .sweeps import SWEEP_KINDS, sweep_delta, sweep_lambda_gamma, trajectory

__all__ = ["main", "entrypoint"]


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"field 'config': cannot read {path!r}: {exc.strerror}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"field 'config': not valid JSON ({exc.msg} at line {exc.lineno})") from None
    if not isinstance(data, dict):
        raise ValidationError("field 'config': top level must be a JSON object")
    # a sidecar written by a previous run is itself a valid config
    if "config" in data and "command" in data:
        inner = data["config"]
        if not isinstance(inner, dict):
            raise ValidationError("field 'config': sidecar 'config' entry must be an object")
        return inner
    return data


# --------------------------------------------------------- one reader per field type


def _integer(name: str, value, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        _reject(name, value, f"an integer >= {minimum}")
    return value


def _axis(name: str, value) -> np.ndarray:
    """A non-empty list of finite numbers, or {start, stop, num} with num >= 1."""
    if isinstance(value, dict):
        extra = set(value) - {"start", "stop", "num"}
        if extra:
            raise ValidationError(f"field '{name}.{sorted(extra)[0]}' is not recognized")
        with np.errstate(over="ignore", invalid="ignore"):  # the realized values are checked
            return np.linspace(
                _number(f"{name}.start", value.get("start")),
                _number(f"{name}.stop", value.get("stop")),
                _integer(f"{name}.num", value.get("num"), 1),
            )
    if not isinstance(value, list) or not value:
        _reject(name, value, "a non-empty list of numbers or an object with keys start, stop, num")
    return np.array([_number(f"{name}[{i}]", v) for i, v in enumerate(value)])


def _initial(value) -> AcsParams:
    if not isinstance(value, dict) or set(value) != {"theta", "phi"}:
        _reject("initial", value, "an object with keys 'theta' and 'phi'")
    theta, phi = (_number(f"initial.{key}", value[key]) for key in ("theta", "phi"))
    try:
        return AcsParams(theta=theta, phi=phi)
    except ValueError as exc:
        raise ValidationError(f"field 'initial': {exc}") from None


def _gate(value) -> GateId:
    names = [g.value for g in GateId]
    if not isinstance(value, str) or value.lower() not in names:
        _reject("gate", value, f"one of {names}")
    return GateId(value.lower())


# ----------------------------------------------- resolve: config -> (config, provenance, run)


def _phase_rate(p) -> float:
    """A bound on |E| and |delta| N: evolving p over t overflows (to NaN) only if t times it does."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is the answer here
        try:
            return spectral_radius_bound(p) + abs(p.delta) * p.n_atoms
        except OverflowError:  # an n_atoms beyond the floating-point range
            return math.inf


def _physical_memory() -> float:
    """Bytes of physical memory, or inf where the platform does not tell."""
    try:
        return float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, OSError, ValueError):
        return math.inf


# a trajectory sample's time, Bloch row (the closed form's 2x2 propagator too) and CSV line
# (traced at either nonlinearity: about 310)
_ROW_BYTES = 512


def _check_memory(field: str, what: str, need: int) -> None:
    memory = _physical_memory()
    if need > memory:  # an exact int need: neither this nor Decimal overflows at any n_atoms
        raise ValidationError(
            f"field '{field}': {what} needs about {Decimal(need) / 2**30:.3g} GiB, "
            f"more than the {memory / 2**30:.3g} GiB of physical memory"
        )


def _check_solver_memory(field: str, n_atoms: int, n_samples: int = 0) -> None:
    """Reject an eigensolve whose arrays cannot fit in physical memory.

    The solve holds two (N+1)^2 float64 arrays.  A trajectory propagates one
    block of times at once, with at most eight complex arrays of N+1
    amplitudes per time of the block alive, and keeps only its output rows
    per sample.
    """
    block = min(n_samples, _BLOCK)
    need = 16 * (n_atoms + 1) * (n_atoms + 1 + 8 * block) + _ROW_BYTES * n_samples
    samples = f" and {n_samples} samples" if n_samples else ""
    _check_memory(field, f"the eigensolve at n_atoms = {n_atoms}{samples}", need)


def _params_and_initial(cfg: dict, time_key: str):
    """The 'params' and 'initial' fields that evolve and trajectory share, and their time."""
    if not isinstance(cfg.get("params"), dict):
        _reject("params", cfg.get("params"), "an object with the parameter keys")
    p = params_from_dict(cfg["params"])
    rate = _phase_rate(p)
    if not math.isfinite(rate):
        raise ValidationError("field 'params': the Hamiltonian's entries overflow")
    initial = _initial(cfg.get("initial"))
    t = _number(time_key, cfg.get(time_key), minimum=0.0, strict=time_key == "t_final")
    if not math.isfinite(t * rate):
        _reject(time_key, t, "a time at which the phases E*t and delta*t*N stay finite")
    return p, initial, t, {"params": params_to_dict(p), "initial": asdict(initial), time_key: t}


def _resolve_evolve(cfg: dict):
    p, initial, t, resolved = _params_and_initial(cfg, "t")
    _check_solver_memory("n_atoms", p.n_atoms)
    return resolved, None, lambda: state_to_csv(evolve_oracle(p, acs_state(initial, p.n_atoms), t))


def _resolve_trajectory(cfg: dict):
    # at lambda = 0 the trajectory takes the closed form, which solves nothing, at any n_atoms
    p, initial, t_final, resolved = _params_and_initial(cfg, "t_final")
    n_samples = resolved["n_samples"] = _integer("n_samples", cfg.get("n_samples", 101), 2)
    if derive_params(p).lambda_nl == 0.0:
        _check_memory("n_samples", f"the trajectory of {n_samples} samples", _ROW_BYTES * n_samples)
    else:
        _check_solver_memory("n_atoms", p.n_atoms)
        _check_solver_memory("n_samples", p.n_atoms, n_samples)
    return resolved, None, lambda: trajectory(p, initial, t_final, n_samples).to_csv()


def _check_cells(spec, n_atoms: int, realize, axes: dict[str, list[float]]) -> None:
    """Reject a value, then a grid cell, whose realized parameters overflow: its cell would be NaN.

    A value is first checked with the other axes at their ideal 0, so that it names only its field.
    """
    def check(fields: dict[str, float], cell: list[float]) -> None:
        for overrides in realize(spec, *cell):
            if not (all(map(math.isfinite, overrides.values())) and math.isfinite(
                    spec.t_gate * _phase_rate(params_for_gate(spec, n_atoms, overrides)))):
                raise ValidationError(
                    f"{', '.join(f'field {f!r}' for f in fields)}: "
                    f"{', '.join(map(repr, fields.values()))} realizes {overrides}, "
                    "out of floating-point range"
                )

    for k, (key, values) in enumerate(axes.items()):
        for i, value in enumerate(values):
            check({f"{key}[{i}]": value}, [value if m == k else 0.0 for m in range(len(axes))])
    for cell in itertools.product(*(list(enumerate(values)) for values in axes.values())):
        fields = {f"{key}[{i}]": value for key, (i, value) in zip(axes, cell)}
        check(fields, list(fields.values()))


def _resolve_sweep(cfg: dict):
    kind = cfg.get("kind")
    if kind not in SWEEP_KINDS:
        _reject("kind", kind, " or ".join(map(repr, SWEEP_KINDS)))
    row = SWEEP_KINDS[kind]
    gate = _gate(cfg.get("gate"))
    n_atoms = _integer("n_atoms", cfg.get("n_atoms", 1000), 1)
    initial = _initial(cfg.get("initial", {"theta": math.pi / 8.0, "phi": 0.0}))
    workers = _integer("workers", cfg.get("workers", 1), 1)
    resolved = {"kind": kind, "gate": gate.value, "n_atoms": n_atoms,
                "initial": asdict(initial), "workers": workers}
    if gate not in row.gates:
        _reject("gate", gate.value, f"one of the {row.gates_name} for the {kind} sweep")
    options, sweep = {}, sweep_delta
    if kind == "lambda-gamma":  # the kind with phase gates, whose conditions take a factor
        options["detuning_factor"] = resolved["detuning_factor"] = _number(
            "detuning_factor", cfg.get("detuning_factor", DEFAULT_DETUNING_FACTOR)
        )
        sweep = sweep_lambda_gamma
    try:
        spec = gate_conditions(gate, 1.0, **options)
    except ValueError as exc:  # g = 1 is valid: the factor is too small or too large
        raise ValidationError(f"field 'detuning_factor': {exc}") from None
    axes = {key: _axis(key, cfg.get(key, default.tolist())).tolist()
            for key, _, default in row.axes}
    if any(axes.get("lambda_values", [])):  # lambda = 0 cells take the closed form, no solve
        _check_solver_memory("n_atoms", n_atoms)
    _check_cells(spec, n_atoms, row.realize, axes)
    resolved.update(axes)
    provenance = {
        "gate_spec_in_g_units": gate_spec_to_dict(spec),
        "realization": (
            "gamma_a = gamma_b = 0; gamma_ab = 2*lambda; "
            "omega_a - omega_b = gamma_g*(1 + dgamma_ratio); "
            "delta = delta_g*(1 +/- ddelta_ratio), worst sign recorded"
        ),
    }

    def run() -> str:
        grid = sweep(gate, **axes, n_atoms=n_atoms, initial=initial, workers=workers, **options)
        provenance["axes"] = {"axis1": grid.axis1_name, "axis2": grid.axis2_name}
        return grid.to_csv()

    return resolved, provenance, run


# name: (resolve, help, the config keys it reads)
_COMMANDS = {
    "evolve": (
        _resolve_evolve,
        "evolve an initial coherent state and write the final state CSV (columns k,re,im)",
        "'params', 'initial', 't'",
    ),
    "trajectory": (
        _resolve_trajectory,
        "sample the Bloch trajectory and write a t,x,y,z CSV",
        "'params', 'initial', 't_final', 'n_samples'",
    ),
    "sweep": (
        _resolve_sweep,
        "run a fidelity sweep and write its CSV",
        "'kind', 'gate', 'n_atoms', 'initial', 'workers', 'detuning_factor' and the axes",
    ),
}


def _write_all(files: dict[Path, str]) -> None:
    """Write every file or none: each goes to a temp file beside it, then all are renamed."""
    temps = {path: path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in files}
    try:
        for path, text in files.items():
            temps[path].write_text(text)
        for path, temp in temps.items():
            os.replace(temp, path)
    finally:
        for temp in temps.values():
            temp.unlink(missing_ok=True)


def _run(args: argparse.Namespace, flags: dict) -> int:
    """Load the config, let the flags override it, resolve, run, write CSV and sidecar."""
    out = Path(args.output)
    if out.is_dir() or not out.parent.is_dir() or not os.access(out.parent, os.W_OK):
        raise ValidationError(
            f"field 'output': {args.output!r} is a directory, or its directory is missing "
            "or not writable"
        )
    config = _load_config(args.config) if args.config else {}
    resolved, provenance, run = _COMMANDS[args.command][0]({**config, **flags})
    text = run()
    sidecar = {"command": args.command, "config": resolved}
    if provenance is not None:
        sidecar["provenance"] = provenance
    meta = out.with_name(out.name + ".meta.json")
    _write_all({out: text, meta: json.dumps(sidecar, indent=2, sort_keys=True) + "\n"})
    return 0


def _gate_check(flags: dict) -> int:
    gate = _gate(flags.get("gate"))
    g = _number("g", flags.get("g"), minimum=0.0, strict=True)
    factor = _number("detuning_factor", flags.get("detuning_factor", DEFAULT_DETUNING_FACTOR),
                     minimum=MIN_DETUNING_FACTOR if gate in PHASE_GATES else -math.inf)
    for field, at_g in (("detuning_factor", 1.0), ("g", g)):  # g = 1 fails only by the factor
        try:
            spec = gate_conditions(gate, at_g, factor)
        except ValueError as exc:
            raise ValidationError(f"field '{field}': {exc}") from None
    prop = qubit_propagator(params_for_gate(spec, 1), spec.t_gate)
    dev = up_to_phase_deviation(prop, spec.target)
    print(f"gate: {gate.value}")
    print(f"t_gate: {spec.t_gate:.17g} [1/(unit of g)]")
    print(f"delta_g: {spec.delta_g:.17g} [unit of g]")
    print(f"gamma_g: {spec.gamma_g:.17g} [unit of g]")
    if gate in PHASE_GATES:
        print(f"detuning_factor: {spec.detuning_factor:.17g}")
    print(f"deviation_up_to_phase: {dev:.17g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="becgates",
        description=(
            "Simulate single-qubit gates on a coupled two-mode BEC qubit: "
            "verify gate conditions, evolve states, sweep robustness, trace "
            "Bloch trajectories.  A flag overrides the config key of the same name."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("gate-check", help="print a gate's conditions and its propagator deviation")
    pc.add_argument("--gate", required=True, help="gate id: not, y, h, z, s, t")
    pc.add_argument("--g", type=float, required=True, help="two-photon coupling, in any unit")
    pc.add_argument(
        "--detuning-factor", type=float, help="delta_g/g for phase gates (default 100; must be >= 25)"
    )

    io = {}
    for name, (_, help_, keys) in _COMMANDS.items():
        io[name] = p = sub.add_parser(name, help=help_)
        p.add_argument(
            "--config",
            required=name != "sweep",
            help=f"JSON config with {keys}, or the sidecar of an earlier run",
        )
        p.add_argument("--output", required=True, help="output CSV (sidecar: <output>.meta.json)")
    io["evolve"].add_argument("--t", type=float, help="evolution time")
    ps = io["sweep"]
    ps.add_argument("--kind", choices=list(SWEEP_KINDS), help="sweep kind")
    ps.add_argument("--gate", help="gate id: not, y, h, z, s, t")
    ps.add_argument("--workers", type=int, help="parallel workers (default 1)")
    ps.add_argument("--n-atoms", type=int, help="boson number (default 1000)")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 for --help, 2 for bad flags
        return int(exc.code or 0)
    # every flag but --config/--output is a config key; given flags win
    flags = {key: value for key, value in vars(args).items()
             if value is not None and key not in ("command", "config", "output")}
    try:
        return _gate_check(flags) if args.command == "gate-check" else _run(args, flags)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort diagnostic
        traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
