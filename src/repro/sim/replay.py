"""The vectorized replay engine: micro-op super-steps as bulk updates.

This is the execution-layer payoff of the compile/replay pipeline.
Replaying a compiled :class:`~repro.driver.program.MicroProgram` one op
at a time costs several NumPy dispatches per horizontal gate on a tiny
``(crossbars, rows)`` view, so the host — not the modeled chip —
dominates replay wall-clock. Following the paper's own simulator trick
(Figure 6 / section V: pack partition bits into strided words so
partition-parallel logic becomes bitwise word arithmetic), this engine
extends the packing one level further:

- a program is sliced into *super-steps*
  (:func:`~repro.driver.program.segment_super_steps`): maximal runs of
  ``LogicHOp``\\ s between mask/read/write/vertical/move boundaries, each
  run under statically-known masks — set by the program itself or, for
  the driver's per-R-type bodies, in force at replay entry;
- at plan-compile time every run is lowered to a short straight-line
  *lane program*: each touched register's masked region is packed into
  one guard-laned arbitrary-precision integer
  (:meth:`~repro.sim.memory.CrossbarMemory.pack_lanes`), gate-pattern
  bitmasks are replicated across the lanes once, and each gate becomes a
  handful of whole-region bitwise operations with the destination updated
  by AND-accumulation — exactly the ``out &= gate(inputs)`` 1→0
  stateful-logic semantics, applied to every masked crossbar and row in
  one arithmetic operation;
- at replay time a run packs its registers, interprets the lane program,
  and writes the (provably in-range) results back through strided views;
  regions too wide for big-integer arithmetic to pay run the same lane
  program on the strided NumPy views directly.

The result is bit-identical to op-by-op execution at every operation
boundary — runs contain no observable point (no reads, no mask changes)
— and cycle accounting is untouched: the per-replay
:class:`~repro.sim.stats.SimStats` delta is established statically by
:func:`~repro.sim.simulator.accounting_walk` and merged once per replay.
Programs the walk rejects, and word formats wider than 32 bits, replay
op by op through :meth:`~repro.sim.simulator.Simulator.execute`, the
oracle every plan is checked against.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.arch.halfgates import expand_pattern
from repro.arch.masks import RangeMask
from repro.arch.micro_ops import GateType, LogicHOp
from repro.driver.program import segment_super_steps
from repro.sim.memory import CrossbarMemory


def lanes_supported(memory: CrossbarMemory) -> bool:
    """Whether the memory's word format fits 64-bit guard lanes.

    True for ``word_size <= 32`` (the packed ``uint32`` format): a word
    and its largest partition shift stay inside 64 bits. Wider words
    replay op by op.
    """
    return memory.dtype == np.dtype(np.uint32)


@lru_cache(maxsize=65536)
def _pattern_mask(
    gate: GateType,
    p_a: int,
    p_b: int,
    p_out: int,
    p_end: int,
    p_step: int,
    partitions: int,
) -> Tuple[int, int]:
    """(output-partition bitmask, gate count) of a validated pattern.

    Pattern validation (section disjointness, partition ranges) happens in
    :func:`expand_pattern`; patterns repeat constantly across a program, so
    the result is cached on the pattern fields.
    """
    op = LogicHOp(gate, 0, 0, 0, p_a=p_a, p_b=p_b, p_out=p_out,
                  p_end=p_end, p_step=p_step)
    gates = expand_pattern(op, partitions)
    mask = 0
    for _, out_p in gates:
        mask |= 1 << out_p
    return mask, len(gates)


# Lane-program opcodes (see GateRun): constants chosen for dispatch order
# in the hot interpreter loop (NOR first — it dominates real programs).
_NOR, _NOT, _INIT1, _INIT0 = 0, 1, 2, 3

#: Largest region (crossbars x rows) a gate run packs into one big
#: integer. Past it NumPy's bandwidth beats big-integer arithmetic, and
#: the run applies the same lane program to the region's strided NumPy
#: views in place. Measured on a float32 add body on a 2-vCPU x86 VM:
#: 0.9 vs 6.2 us/gate at 64 lanes, 7.7 vs 8.2 at 1024, 30 vs 14 at 4096
#: (packed vs views).
PACKED_LANES_MAX = 1024


class GateRun:
    """One ``"gates"`` super-step compiled to a lane program.

    Built once per replay plan; calling the instance executes the whole
    run — typically thousands of micro-ops — as pack / interpret /
    unpack over the packed memory image. Regions wider than
    :data:`PACKED_LANES_MAX` lanes run the same lane program on NumPy
    views of the region instead, updating memory in place.
    """

    __slots__ = ("memory", "xb", "row", "regs", "written", "steps", "packed")

    def __init__(
        self,
        ops: Tuple[LogicHOp, ...],
        xb: RangeMask,
        row: RangeMask,
        memory: CrossbarMemory,
        partitions: int,
        rep_cache: Dict[Tuple[int, int], int],
    ):
        self.memory = memory
        self.xb = xb
        self.row = row
        lanes = len(xb) * len(row)
        word_mask = int(memory.word_mask)
        self.packed = lanes <= PACKED_LANES_MAX

        def rep(mask: int):
            """``mask`` as a constant for every lane of the region.

            Packed: replicated into each 64-bit lane (memoized). Views: a
            word-typed scalar NumPy broadcasts.
            """
            if not self.packed:
                return memory.dtype.type(mask)
            value = rep_cache.get((lanes, mask))
            if value is None:
                value = int.from_bytes(
                    np.full(lanes, mask, "<u8").tobytes(), "little"
                )
                rep_cache[(lanes, mask)] = value
            return value

        full = rep(word_mask)
        steps: List[Tuple] = []
        touched: Dict[int, bool] = {}  # reg -> written (order = first touch)
        for op in ops:
            out_mask, _ = _pattern_mask(
                op.gate, op.p_a, op.p_b, op.p_out, op.p_end, op.p_step,
                partitions,
            )
            if op.gate == GateType.INIT1:
                steps.append((_INIT1, op.out, rep(out_mask)))
            elif op.gate == GateType.INIT0:
                steps.append((_INIT0, op.out, rep(word_mask ^ out_mask)))
            elif op.gate == GateType.NOT:
                touched.setdefault(op.in_a, False)
                steps.append(
                    (_NOT, op.out, op.in_a, op.p_out - op.p_a,
                     rep(out_mask), full)
                )
            else:  # NOR
                touched.setdefault(op.in_a, False)
                touched.setdefault(op.in_b, False)
                steps.append(
                    (_NOR, op.out, op.in_a, op.p_out - op.p_a,
                     op.in_b, op.p_out - op.p_b, rep(out_mask), full)
                )
            touched[op.out] = True
        self.steps = tuple(steps)
        self.regs = tuple(touched)
        self.written = tuple(r for r, dirty in touched.items() if dirty)

    def __call__(self) -> None:
        memory, xb, row = self.memory, self.xb, self.row
        if self.packed:
            state = {reg: memory.pack_lanes(xb, reg, row) for reg in self.regs}
        else:
            state = {reg: memory.region(xb, reg, row) for reg in self.regs}
        for step in self.steps:
            kind = step[0]
            if kind == _NOR:
                _, out, a, s_a, b, s_b, out_mask, full = step
                t_a = state[a]
                if s_a > 0:
                    t_a = (t_a << s_a) & full
                elif s_a < 0:
                    t_a = (t_a >> -s_a) & full
                t_b = state[b]
                if s_b > 0:
                    t_b = (t_b << s_b) & full
                elif s_b < 0:
                    t_b = (t_b >> -s_b) & full
                state[out] &= ~((t_a | t_b) & out_mask)
            elif kind == _NOT:
                _, out, a, s_a, out_mask, full = step
                t_a = state[a]
                if s_a > 0:
                    t_a = (t_a << s_a) & full
                elif s_a < 0:
                    t_a = (t_a >> -s_a) & full
                state[out] &= ~(t_a & out_mask)
            elif kind == _INIT1:
                state[step[1]] |= step[2]
            else:  # _INIT0
                state[step[1]] &= step[2]
        if self.packed:
            for reg in self.written:
                memory.unpack_lanes(xb, reg, row, state[reg])


#: Replicated lane masks are shared across plans and simulators: they
#: depend only on (lane count, mask bits), and programs reuse a small set
#: of gate patterns, so the cache stays small while saving the dominant
#: plan-build cost. Reset wholesale past the bound to stay a cache, not
#: a leak.
_REP_CACHE: Dict[Tuple[int, int], int] = {}
_REP_CACHE_LIMIT = 1 << 16


def build_vector_steps(program, simulator, entry) -> List[Callable]:
    """Lower a program into vectorized replay steps.

    Gate runs become :class:`GateRun` instances; every other op keeps the
    simulator's pre-resolved silent step. ``entry`` is the
    ``(crossbar mask, row mask)`` pair the plan is specialized on, or
    ``None`` for a self-masked program. The caller guarantees that
    :func:`~repro.sim.simulator.accounting_walk` accepts the program
    under ``entry`` and that :func:`lanes_supported` holds.
    """
    if len(_REP_CACHE) > _REP_CACHE_LIMIT:
        _REP_CACHE.clear()
    if entry is None:
        segments = program.super_steps
    else:
        segments = segment_super_steps(
            program.ops, *((m.start, m.stop, m.step) for m in entry)
        )
    steps: List[Callable] = []
    for segment in segments:
        ops = program.ops[segment.start : segment.stop]
        if segment.kind == "gates":
            steps.append(
                GateRun(
                    ops,
                    RangeMask(*segment.xb),
                    RangeMask(*segment.row),
                    simulator.memory,
                    simulator.config.partitions,
                    rep_cache=_REP_CACHE,
                )
            )
        else:
            steps.extend(simulator._plan_step(op) for op in ops)
    return steps
