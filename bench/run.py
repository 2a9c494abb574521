"""becgates benchmark: drives the CLI in-process and prints one JSON result line.

Run from the repository root:

    python3 bench/run.py --workload delta-n1000 --seed 1 --seconds 30 --trace 0

The run imports becgates from ``src/``, warms up on one command,
then sends whole cycles through ``becgates.cli.main(argv)`` in a closed loop
(one client, one command in flight) until the next cycle would end after
``--seconds``.  Every output is checked against an independent reference
(see reference.py).  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs a fixed number of cycles, alternately untraced and with
spans around every layer's public functions, and reports per-layer metrics.

The last line of standard output is the JSON result; the lines before it
name each metric with its unit, the machine, and what the tail percentile
and the failure share were.  A run record (and, traced, the spans) is
written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 3  # setup_s is the median of this many fresh-process set-ups
RK4_CELLS = 2  # lambda != 0 surface cells recomputed with RK4 after the timed loop
PROBE_TIMEOUT_S = 60
TAIL_BEYOND = 10  # cmd_tail_s: highest percentile with at least this many samples above it


def _parse(argv):
    ap = argparse.ArgumentParser(description="becgates benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "becgates" / "__init__.py").is_file():
        print(f"error: becgates sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import becgates

    if Path(becgates.__file__).resolve().parent != (SRC / "becgates").resolve():
        print(f"error: imported becgates from {becgates.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    bench = Bench(WORKLOADS[args.workload], args.seed, len(os.sched_getaffinity(0)))
    try:
        if args.probe_setup:
            bench.setup()
            print("READY", flush=True)
            return 0
        return bench.measure(args)
    finally:
        shutil.rmtree(bench.scratch, ignore_errors=True)


@dataclass
class Result:
    cid: int
    cmd: object  # workloads.Command
    code: int
    latency: float
    bytes_written: int
    check: object  # reference.Check

    @property
    def failed(self) -> bool:
        return self.code != 0 or not self.check.ok


class Bench:
    def __init__(self, workload, seed: int, nproc: int) -> None:
        self.workload, self.seed, self.nproc = workload, seed, nproc
        self.scratch = OUT / f"tmp-{os.getpid()}"
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.results: list[Result] = []
        self.next_cycle = 0

    def run(self, cmd, tracer=None) -> Result:
        """Send one command through the CLI, time it, check its output, delete its files."""
        import becgates.cli
        from reference import Check, check_output

        cid = len(self.results)
        config = self.scratch / f"cmd{cid}.json"
        output = self.scratch / f"cmd{cid}.csv"
        sidecar = output.with_name(output.name + ".meta.json")
        config.write_text(json.dumps(cmd.config))
        argv = cmd.argv(str(config), str(output))
        with tracer.command(cid) if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            code = becgates.cli.main(argv)
            latency = time.perf_counter() - t0
        written = sum(p.stat().st_size for p in (output, sidecar) if p.exists())
        check = check_output(cmd, output) if code == 0 else Check(errors=[f"exit code {code}"])
        for p in (config, output, sidecar):
            p.unlink(missing_ok=True)
        result = Result(cid, cmd, code, latency, written, check)
        self.results.append(result)
        return result

    def run_cycles(self, count: int, tracer=None) -> list[Result]:
        out = []
        for _ in range(count):
            for cmd in self.workload.cycle(self.seed, self.next_cycle, self.nproc):
                out.append(self.run(cmd, tracer))
            self.next_cycle += 1
        return out

    def setup(self) -> None:
        """Import the CLI, generate configs and warm up on the first command of cycle 0.

        The first command in a process pays for lazy loading (about 1 s against
        0.3 s for the next on surface-n100); later ones run at steady speed.
        """
        self.run(self.workload.cycle(self.seed, 0, self.nproc)[0])
        self.next_cycle = 1

    def timed_loop(self, seconds: float) -> list[list[Result]]:
        """Run whole cycles until the next would end after ``seconds``; return them."""
        cycles, cycle_s = [], []
        t0 = time.perf_counter()
        while True:
            c0 = time.perf_counter()
            cycles.append(self.run_cycles(1))
            cycle_s.append(time.perf_counter() - c0)
            elapsed = time.perf_counter() - t0
            if len(cycles) >= self.workload.min_cycles and elapsed + statistics.median(cycle_s) > seconds:
                return cycles

    def rk4_check(self, results: list[Result]) -> int:
        """Recompute a few seeded lambda != 0 surface cells with RK4; return how many."""
        from reference import RK4_ATOL, rk4_fidelity

        cells = [(r, cell) for r in results for cell in r.check.unchecked_cells]
        picks = random.Random(self.seed).sample(cells, min(RK4_CELLS, len(cells)))
        for r, (lam, ratio, f) in picks:
            ref = rk4_fidelity(r.cmd, lam, ratio)
            if not abs(f - ref) <= RK4_ATOL:
                r.check.errors.append(f"cell ({lam}, {ratio}): fidelity {f!r} against RK4 {ref!r}")
        return len(picks)

    def probe_setup(self) -> float:
        """Wall time from starting a fresh benchmark process until it is set up."""
        argv = [sys.executable, str(HERE / "run.py"), "--workload", self.workload.name,
                "--seed", str(self.seed), "--seconds", "1", "--probe-setup"]
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            for line in proc.stdout:
                if line.strip() == "READY":
                    ready = time.perf_counter() - t0
                    break
            else:
                raise RuntimeError("set-up probe ended without finishing set-up")
            proc.stdout.read()
            if proc.wait(timeout=PROBE_TIMEOUT_S) != 0:
                raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        return ready

    def measure(self, args) -> int:
        self.setup()
        record = {"machine": machine(args)}
        if args.trace:
            metrics = self.traced(record)
        else:
            cycles = self.timed_loop(args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            record["rk4_cells"] = self.rk4_check([r for cycle in cycles for r in cycle])
            probes = [self.probe_setup() for _ in range(SETUP_PROBES)]
            metrics = end_to_end(cycles, record)
            metrics["setup_s"] = statistics.median(probes)
            metrics["peak_rss_mb"] = peak_rss_mb
            record["setup_probes_s"] = probes
        for cmd in self.workload.after_loop(self.seed, self.nproc):
            self.run(cmd)
        failed = sum(r.failed for r in self.results)
        record["attempted"], record["failed"] = len(self.results), failed
        record["failed_frac"] = failed / len(self.results)
        record["errors"] = [f"cmd {r.cid} ({r.cmd.kind} {r.cmd.gate}): {e}"
                            for r in self.results for e in r.check.errors][:20]
        record["metrics"] = metrics
        OUT.mkdir(exist_ok=True)
        (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1) + "\n")

        for e in record["errors"]:
            print(f"check failed: {e}", file=sys.stderr)
        print("machine: " + json.dumps(record["machine"], sort_keys=True))
        units = _declared_units("per_layer" if args.trace else "end_to_end")
        metrics = {name: metrics[name] for name in units}  # KeyError if one was not measured
        for name, value in metrics.items():
            print(f"{name:<42} {value:>16.6g} {units[name]}")
        for key in ("cmd_tail_percentile", "cmd_samples"):
            if key in record:
                print(f"{key:<42} {record[key]!s:>16}")
        print(f"{'failed_frac':<42} {record['failed_frac']:>16.6g} ({failed} of {len(self.results)} commands)")
        print(json.dumps({
            "correct": failed == 0,
            "attempted": len(self.results),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }))
        return 0

    def traced(self, record: dict) -> dict:
        from spans import Tracer, layer_metrics, self_times

        # traced and untraced cycles alternate, so that drift in the machine's
        # speed falls on both alike
        tracer, untraced, traced = Tracer(), [], []
        for _ in range(self.workload.trace_cycles):
            untraced += self.run_cycles(1)
            with tracer.installed():
                traced += self.run_cycles(1, tracer)
        record["rk4_cells"] = self.rk4_check(traced)
        metrics = layer_metrics(tracer.spans, {r.cid: r.cmd.workers for r in traced})
        sweeps = [r for r in traced if r.cmd.kind.startswith("sweep")]
        metrics["sweeps.cells"] = sum(r.check.rows for r in sweeps)
        metrics["sweeps.nan_cells"] = sum(r.check.nan_cells for r in sweeps)
        metrics["sweeps.below_floor_cells"] = sum(r.check.below_floor_cells for r in sweeps)
        metrics["cli.bytes_written"] = sum(r.bytes_written for r in traced)
        metrics["trace.overhead_frac"] = (
            statistics.median(r.latency for r in traced) / statistics.median(r.latency for r in untraced) - 1.0)
        (OUT / f"spans-{self.workload.name}-seed{self.seed}.json").write_text(json.dumps(
            [dict(vars(s), self_s=t) for s, t in zip(tracer.spans, self_times(tracer.spans))]) + "\n")
        return metrics


def _declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for the ``end_to_end`` or ``per_layer`` list of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def end_to_end(cycles: list[list[Result]], record: dict) -> dict:
    lat = sorted(r.latency for cycle in cycles for r in cycle)
    n = len(lat)
    k = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    record["cmd_samples"] = n
    record["cmd_tail_percentile"] = round(100.0 * k / n, 1)
    return {
        # sweep cells, or trajectory samples, per second of command latency;
        # the median over cycles, so one stalled command does not move it
        "rows_per_s": statistics.median(
            sum(r.check.rows for r in cycle) / sum(r.latency for r in cycle) for cycle in cycles),
        "cmd_p50_s": statistics.median(lat),
        "cmd_tail_s": lat[k - 1],
    }


def machine(args) -> dict:
    import numpy
    import scipy

    def blas(mod):
        try:
            dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep['name']} {dep['version']}"
        except (TypeError, KeyError):
            return "unknown"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


if __name__ == "__main__":
    sys.exit(main())
