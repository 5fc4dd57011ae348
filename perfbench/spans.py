"""In-memory span recorder wrapped around the stack's public entry points.

The benchmark measures every layer from outside: :func:`instrumented`
temporarily replaces selected functions of ``repro.pim``,
``repro.backend``, ``repro.driver``, ``repro.sim`` and ``repro.pool``
with timing wrappers and restores the originals on exit, so no file
under ``src/`` changes and untraced runs execute the unmodified code.

Each span records a name, start, end, its parent span and the id of the
benchmark call it belongs to (spans of one call share that id). A span's
self time is its duration minus the time its child spans cover. Spans
stay in memory and are written out once, when the run ends. Very
frequent leaf calls (one per micro-operation or lane program) are only
aggregated -- count, inclusive and self time -- so the span list stays
bounded.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np


class Tracer:
    """Thread-aware span stack plus per-name aggregates and counters."""

    def __init__(self, keep: int = 200_000):
        self.keep = keep
        self.spans: List[Tuple] = []
        self.dropped = 0
        #: name -> [calls, inclusive seconds, self seconds]; inclusive
        #: time counts only the outermost span of a name on a stack.
        self.totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_call(self, call_id) -> None:
        """Tag the spans this thread opens next with ``call_id``."""
        self._local.call_id = call_id

    def enter(self, name: str, leaf: bool) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        nested = any(frame[0] == name for frame in stack)
        frame = [
            name,
            perf_counter(),
            0.0,  # time covered by child spans
            None if leaf else next(self._ids),
            parent[3] if parent is not None else None,
            nested,
        ]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = perf_counter()
        stack = self._stack()
        stack.pop()
        name, start, child, span_id, parent_id, nested = frame
        duration = end - start
        if stack:
            stack[-1][2] += duration
        with self._lock:
            total = self.totals[name]
            total[0] += 1
            total[2] += duration - child
            if not nested:
                total[1] += duration
            if span_id is not None:
                if len(self.spans) < self.keep:
                    call_id = getattr(self._local, "call_id", None)
                    self.spans.append(
                        (span_id, parent_id, call_id, name, start, end)
                    )
                else:
                    self.dropped += 1

    def count(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    # ------------------------------------------------------------------
    def calls(self, name: str) -> int:
        return int(self.totals[name][0]) if name in self.totals else 0

    def seconds(self, name: str) -> float:
        return self.totals[name][1] if name in self.totals else 0.0

    def self_seconds(self, prefix: str) -> float:
        """Self time of every span whose name starts with ``prefix.``."""
        return sum(
            total[2]
            for name, total in self.totals.items()
            if name == prefix or name.startswith(prefix + ".")
        )

    def dump(self, path: str) -> None:
        """Write the spans (JSON lines) and the aggregates (last line)."""
        with open(path, "w") as handle:
            for span_id, parent_id, call_id, name, start, end in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent_id, "call": call_id,
                    "name": name, "start": start, "end": end,
                }) + "\n")
            handle.write(json.dumps({
                "totals": {
                    name: {"calls": t[0], "inclusive_s": t[1], "self_s": t[2]}
                    for name, t in sorted(self.totals.items())
                },
                "counts": dict(self.counts),
                "dropped_spans": self.dropped,
            }) + "\n")


def _wrap(tracer: Tracer, name: str, fn: Callable, leaf: bool,
          counter: Optional[Callable]) -> Callable:
    def traced(*args, **kwargs):
        if counter is not None:
            args = counter(tracer, args)
        frame = tracer.enter(name, leaf)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(frame)

    traced.__wrapped__ = fn
    return traced


def _count_macros(tracer: Tracer, args):
    from repro.isa.instructions import MoveInstr

    instr = args[1]
    tracer.count("pim.device.macros")
    if isinstance(instr, MoveInstr):
        tracer.count("pim.device.macros.move")
    return args


def _count_stream(tracer: Tracer, args):
    from repro.isa.instructions import MoveInstr

    # The device materializes the stream itself; doing it here first
    # lets the counter read a one-shot iterable without consuming it.
    instrs = list(args[1])
    tracer.count("pim.device.macros", len(instrs))
    tracer.count(
        "pim.device.macros.move",
        sum(isinstance(instr, MoveInstr) for instr in instrs),
    )
    return (args[0], instrs) + tuple(args[2:])


def _dma_bytes(size_of: Callable) -> Callable:
    def counter(tracer: Tracer, args):
        tracer.count("pim.device.dma_bytes", 4 * int(size_of(args)))
        return args

    return counter


def _count_bridge(tracer: Tracer, args):
    tracer.count("pool.bridges")
    return args


def entry_points() -> List[Tuple[object, str, str, bool, Optional[Callable]]]:
    """``(owner, attribute, span name, leaf, counter)`` per traced call."""
    from repro.backend.numpy_backend import NumpyBackend
    from repro.backend.simulator import SimulatorBackend
    from repro.driver.driver import Driver
    from repro.pim import optimizer
    from repro.pim.compile import CompiledFunction
    from repro.pim.device import PIMDevice
    from repro.pim.graph import TraceSession
    from repro.pool.backend import PooledBackend
    from repro.serve.server import Server
    from repro.sim.replay import GateRun
    from repro.sim.simulator import Simulator

    points = [
        # pim: tensor front-end, capture and lowering, optimizer, DMA.
        (CompiledFunction, "__call__", "pim.compile.call", False, None),
        (CompiledFunction, "_capture", "pim.compile.capture", False, None),
        (TraceSession, "lower", "pim.graph.lower", False, None),
        (optimizer, "optimize_instructions", "pim.optimizer", False, None),
        (PIMDevice, "execute", "pim.device.execute", False, _count_macros),
        (PIMDevice, "execute_stream", "pim.device.execute_stream", False,
         _count_stream),
        (PIMDevice, "load_array", "pim.device.dma", False,
         _dma_bytes(lambda a: np.asarray(a[2]).size)),
        (PIMDevice, "dump_array", "pim.device.dma", False,
         _dma_bytes(lambda a: a[2])),
        (PIMDevice, "read_raw", "pim.device.dma", False,
         _dma_bytes(lambda a: a[2])),
        (PIMDevice, "write_raw", "pim.device.dma", False,
         _dma_bytes(lambda a: a[2].size)),
        # pool: sharded backend and its cross-shard bridges.
        (PooledBackend, "execute", "pool.execute", False, None),
        (PooledBackend, "compile", "pool.compile", False, None),
        (PooledBackend, "run_program", "pool.run_program", False, None),
        (PooledBackend, "run_stream", "pool.run_stream", False, None),
        (PooledBackend, "_bridge_move", "pool.bridge", False, _count_bridge),
        # serve: one span per dispatched batch.
        (Server, "_run_batch", "serve.batch", False, None),
        # driver: lowering, gate building, caches, emission.
        (Driver, "compile", "driver.compile", False, None),
        (Driver, "_lower_ops", "driver.lower", False, None),
        (Driver, "_build_rtype", "driver.gates", False, None),
        (Driver, "execute", "driver.execute", False, None),
        (Driver, "execute_stream", "driver.execute_stream", False, None),
        (Driver, "run_program", "driver.run_program", False, None),
        # sim: op-by-op execution, program replay, vectorized lanes.
        (Simulator, "execute", "sim.execute", True, None),
        (Simulator, "execute_program", "sim.execute_program", False, None),
        (Simulator, "_compile_plan", "sim.replay.plan_build", False, None),
        (GateRun, "__call__", "sim.replay.lane", True, None),
    ]
    for cls in (SimulatorBackend, NumpyBackend):
        for attr in ("execute", "compile", "run_program", "run_stream"):
            points.append((cls, attr, f"backend.{attr}", False, None))
    return points


@contextmanager
def instrumented(tracer: Tracer):
    """Install timing wrappers for the block; always restore the originals."""
    saved = []
    try:
        for owner, attr, name, leaf, counter in entry_points():
            own = vars(owner)
            original = own.get(attr, getattr(owner, attr))
            saved.append((owner, attr, attr in own, original))
            setattr(owner, attr, _wrap(tracer, name, getattr(owner, attr),
                                       leaf, counter))
        yield tracer
    finally:
        for owner, attr, had, original in reversed(saved):
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
