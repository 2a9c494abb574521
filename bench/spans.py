"""Tracing from outside the program: spans around the public API of each layer.

``Tracer.installed()`` wraps every function named in the ``__all__`` of each
becgates module, wherever a becgates module binds it (``gates.evolve_oracle``
and ``sweeps.run_gate`` as well as the defining module), so calls between
layers and within a layer are both seen.  Classes and constants in ``__all__``
are left alone, except that a class which defines ``__init__`` (the
dataclasses) gets that wrapped, so constructing and validating a
``PhysicalParams`` or ``StateVector`` is a span named after the class.  A
span's layer is the module that defines the function or class.

Spans are kept in memory.  A span opened on a thread with no open span (a
pool worker) takes as parent the innermost open span of the thread that runs
the command, which during a sweep is the sweep's span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import threading
import time
from dataclasses import dataclass

LAYERS = ("params", "fock", "evolve", "gates", "sweeps", "cli")


@dataclass
class Span:
    name: str  # "<layer>.<function>"
    start: float
    end: float
    parent: int | None
    cmd: int | None
    thread: int
    count: int | None = None  # work items, for functions listed in COUNTS

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


# functions whose spans also record how many items they produced
COUNTS = {"evolve.evolve_oracle_at_times": len}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._cmd: int | None = None
        self._cmd_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def command(self, cmd: int):
        """Mark the spans opened by this thread, and its pool workers, as command ``cmd``."""
        self._cmd, self._cmd_stack = cmd, self._stack()
        try:
            yield
        finally:
            self._cmd = None

    def _wrap(self, name: str, fn):
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._cmd is None:  # the benchmark's own checks, between commands
                return fn(*args, **kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else (self._cmd_stack[-1] if self._cmd_stack else None)
            span = Span(name, time.perf_counter(), 0.0, parent, self._cmd, threading.get_ident())
            with self._lock:
                sid = len(self.spans)
                self.spans.append(span)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    span.count = count(result)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap the public functions of every layer for the duration of the block."""
        wrappers, inits = {}, {}
        for layer in LAYERS:
            mod = importlib.import_module(f"becgates.{layer}")
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if not getattr(obj, "__module__", "").startswith("becgates."):
                    continue
                name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrap(name, obj))
                elif inspect.isclass(obj) and "__init__" in vars(obj):
                    inits[obj] = self._wrap(name, obj.__init__)
        patched = [(cls, "__init__", cls.__init__) for cls in inits]
        for cls, init in inits.items():
            cls.__init__ = init
        for modname, mod in list(sys.modules.items()):
            if modname != "becgates" and not modname.startswith("becgates."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    patched.append((mod, attr, value))
        try:
            yield
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children of one span may overlap (pool workers), so the covered part is
    the length of the union of their intervals, clipped to the span.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append((s.end - s.start) - covered)
    return out


SOLVES = ("evolve.evolve_oracle", "evolve.evolve_oracle_at_times")


def layer_metrics(spans: list[Span], workers: dict[int, int]) -> dict[str, float]:
    """Per-layer numbers from a span list; ``workers`` maps command id to pool size."""
    selfs = self_times(spans)

    def total(pred) -> float:
        return sum((t for s, t in zip(spans, selfs) if pred(s)), 0.0)

    def calls(name: str) -> int:
        return sum(1 for s in spans if s.name == name)

    def has_ancestor(s: Span, pred) -> bool:
        while s.parent is not None:
            s = spans[s.parent]
            if pred(s):
                return True
        return False

    def is_solve(s: Span) -> bool:
        return s.name in SOLVES

    def is_sweep(s: Span) -> bool:
        return s.name.startswith("sweeps.sweep_")

    solves = sum(1 for s in spans if is_solve(s) and not has_ancestor(s, is_solve))
    samples = sum(s.count or 0 for s in spans if s.name == "evolve.evolve_oracle_at_times")
    evolve_self = total(lambda s: s.layer == "evolve")
    capacity = sum(workers.get(s.cmd, 1) * (s.end - s.start) for s in spans if is_sweep(s))
    busy = sum(s.end - s.start for s in spans if s.name == "gates.run_gate" and has_ancestor(s, is_sweep))

    out = {
        "evolve.solves": solves,
        "evolve.self_s": evolve_self,
        "evolve.self_s_per_solve": evolve_self / solves if solves else 0.0,
        "evolve.samples_per_solve": samples / solves if solves else 0.0,
        "evolve.rotating_frame_hamiltonian.self_s": total(
            lambda s: s.name == "evolve.rotating_frame_hamiltonian"),
        "fock.acs_state.calls": calls("fock.acs_state"),
        "fock.bloch_vector.self_s": total(lambda s: s.name == "fock.bloch_vector"),
        "params.calls": sum(1 for s in spans if s.layer == "params"),
        "gates.run_gate.calls": calls("gates.run_gate"),
        "sweeps.pool_efficiency": busy / capacity if capacity else 0.0,
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = total(lambda s, layer=layer: s.layer == layer)
    return out
