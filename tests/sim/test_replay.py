"""Tests for the vectorized replay engine and its op-by-op fallback.

Covers the correctness obligations of ``repro.sim.replay``:

- super-step segmentation of the program IR (gate runs broken at every
  mask/read/write/vertical/move boundary, masks tracked statically from
  the program's own mask ops or the entry masks);
- bit-identical memory and identical stats between op-by-op execution
  and vectorized replay, on randomized op streams that exercise every op
  kind;
- entry-mask plans: body programs whose gates run before their own mask
  ops are specialized on the masks in force at replay entry, cached per
  mask pair, and agree with op-by-op execution and the bit-level
  :class:`~repro.sim.reference.ReferenceSimulator` when the masks change
  between replays;
- the op-by-op fallback: programs the static walk rejects raise exactly
  where op-by-op execution does, and wide words replay op by op;
- both lane-state representations (packed big integers, and NumPy views
  for wide regions) on the same streams;
- lane packing round-trips on the bulk memory helpers.
"""

import contextlib

import numpy as np
import pytest

import repro.pim as pim

from repro.arch.config import PIMConfig, small_config
from repro.arch.masks import RangeMask
from repro.arch.micro_ops import (
    CrossbarMaskOp,
    GateType,
    LogicHOp,
    LogicVOp,
    MoveOp,
    ReadOp,
    RowMaskOp,
    WriteOp,
)
from repro.driver.compiler import compile_ops
from repro.driver.program import MicroProgram, segment_super_steps
from repro.sim import replay
from repro.sim.memory import CrossbarMemory
from repro.sim.reference import ReferenceSimulator
from repro.sim.simulator import SimulationError, Simulator
from tests.conftest import op_by_op_replay

CFG = small_config(crossbars=4, rows=8)


def _gate(out, in_a, in_b, gate=GateType.NOR, p_out=2, p_a=0, p_b=1):
    return LogicHOp(gate, in_a, in_b, out, p_a=p_a, p_b=p_b, p_out=p_out,
                    p_end=p_out, p_step=1)


def _init1(out, p_end=None):
    p_end = CFG.partitions - 1 if p_end is None else p_end
    return LogicHOp(GateType.INIT1, 0, 0, out, p_a=0, p_b=0, p_out=0,
                    p_end=p_end, p_step=1)


def _masked(ops):
    return [CrossbarMaskOp(0, CFG.crossbars - 1, 1),
            RowMaskOp(0, CFG.rows - 1, 1)] + list(ops)


class TestSegmentation:
    def test_gates_fuse_between_boundaries(self):
        ops = tuple(_masked([
            _init1(3), _gate(3, 0, 1),
            RowMaskOp(0, 0, 1),
            _init1(4), _gate(4, 1, 2), _gate(5, 2, 3),
        ]))
        segments = segment_super_steps(ops)
        kinds = [(s.kind, len(s)) for s in segments]
        assert kinds == [
            ("op", 1), ("op", 1), ("gates", 2), ("op", 1), ("gates", 3),
        ]
        first, second = [s for s in segments if s.kind == "gates"]
        assert first.row == (0, CFG.rows - 1, 1)
        assert second.row == (0, 0, 1)
        assert first.xb == second.xb == (0, CFG.crossbars - 1, 1)

    def test_every_non_gate_op_is_a_boundary(self):
        ops = tuple(_masked([
            _init1(3),
            LogicVOp(GateType.INIT1, 0, 1, 3),
            _init1(4),
            WriteOp(2, 7),
            _gate(4, 0, 1),
            ReadOp(2),
            _gate(5, 0, 1),
            MoveOp(1, 0, 0, 3, 4),
            _gate(6, 0, 1),
        ]))
        segments = segment_super_steps(ops)
        gate_spans = [s for s in segments if s.kind == "gates"]
        # Every gate is isolated: boundaries on both sides.
        assert [len(s) for s in gate_spans] == [1, 1, 1, 1, 1]

    def test_gates_before_masks_stay_fallback_ops(self):
        ops = (_init1(3), _gate(3, 0, 1))
        segments = segment_super_steps(ops)
        assert all(s.kind == "op" for s in segments)

    def test_replay_summary_counts(self):
        program = MicroProgram.from_ops(
            _masked([_init1(3), _gate(3, 0, 1), ReadOp(3)]), "p", CFG
        )
        summary = program.replay_summary()
        assert summary == {
            "ops": 5, "super_steps": 4, "gate_runs": 1, "gate_ops": 2,
            "fallback_ops": 3,
        }
        assert program.super_steps is program.super_steps  # memoized

    def test_entry_masks_let_leading_gates_fuse(self):
        ops = (_init1(3), _gate(3, 0, 1), RowMaskOp(0, 0, 1), _gate(4, 0, 1))
        xb, row = (1, 3, 2), (0, 7, 1)
        segments = segment_super_steps(ops, xb, row)
        assert [(s.kind, len(s)) for s in segments] == [
            ("gates", 2), ("op", 1), ("gates", 1),
        ]
        assert (segments[0].xb, segments[0].row) == (xb, row)
        assert (segments[2].xb, segments[2].row) == (xb, (0, 0, 1))


def _random_self_masked_ops(rng, config=CFG, length=120):
    """A self-masked stream exercising every op kind, valid by construction."""
    ops = [CrossbarMaskOp(0, config.crossbars - 1, 1),
           RowMaskOp(0, config.rows - 1, 1)]
    registers = config.registers
    partitions = config.partitions
    for _ in range(length):
        roll = rng.random()
        if roll < 0.55:
            gate = GateType(rng.integers(0, 4))
            if gate in (GateType.INIT0, GateType.INIT1):
                # INITs take arbitrary multi-gate patterns.
                p_step = int(rng.choice([1, 2]))
                span = int(rng.integers(0, 3))
                p_out = int(rng.integers(0, partitions - span * p_step))
                p_end = p_out + span * p_step
                p_a = p_b = p_out
            else:
                # Single-gate NOT/NOR with disjoint input sections.
                p_out = int(rng.integers(2, partitions))
                p_end = p_out
                p_step = 1
                p_a = p_out - 2 if gate == GateType.NOR else p_out - 1
                p_b = p_out - 1
            ops.append(LogicHOp(
                gate,
                int(rng.integers(0, registers)),
                int(rng.integers(0, registers)),
                int(rng.integers(0, registers)),
                p_a=p_a, p_b=p_b, p_out=p_out, p_end=p_end, p_step=p_step,
            ))
        elif roll < 0.70:
            ops.append(WriteOp(int(rng.integers(0, registers)),
                               int(rng.integers(0, 1 << 16))))
        elif roll < 0.80:
            gate = GateType(rng.integers(0, 3))  # INIT0/INIT1/NOT
            ops.append(LogicVOp(
                gate,
                int(rng.integers(0, config.rows)),
                int(rng.integers(0, config.rows)),
                int(rng.integers(0, registers)),
            ))
        elif roll < 0.90:
            # New masks (sub-ranges keep later gates/moves valid).
            ops.append(CrossbarMaskOp(0, int(rng.integers(0, config.crossbars)), 1))
            ops.append(RowMaskOp(0, int(rng.integers(0, config.rows)), 1))
        else:
            # A validated H-tree move: single-crossbar mask, distance 1.
            src = int(rng.integers(0, config.crossbars - 1))
            ops.append(CrossbarMaskOp(src, src, 1))
            ops.append(MoveOp(1, 0, 0,
                              int(rng.integers(0, registers)),
                              int(rng.integers(0, registers))))
            ops.append(CrossbarMaskOp(0, config.crossbars - 1, 1))
            ops.append(RowMaskOp(0, config.rows - 1, 1))
    # Single-cell masks, then a trailing read.
    ops.append(CrossbarMaskOp(0, 0, 1))
    ops.append(RowMaskOp(0, 0, 1))
    ops.append(ReadOp(int(rng.integers(0, registers))))
    return ops


def _seed_memory(sim, rng):
    shape = sim.memory.words.shape
    sim.memory.words[...] = rng.integers(
        0, 1 << 32, size=shape, dtype=np.uint64
    ).astype(sim.memory.dtype)


@pytest.fixture(params=["packed", "views"])
def lane_state(request, monkeypatch):
    """Run gate runs on packed big integers, or force NumPy views."""
    if request.param == "views":
        monkeypatch.setattr(replay, "PACKED_LANES_MAX", 0)
    return request.param


@pytest.mark.parametrize("seed", [3, 17, 2024])
def test_vectorized_replay_is_bit_identical(seed, lane_state):
    rng = np.random.default_rng(seed)
    ops = _random_self_masked_ops(rng)
    program = compile_ops(ops, CFG, optimize=False)

    reference = Simulator(CFG)
    _seed_memory(reference, np.random.default_rng(seed + 1))
    for op in ops[:-1]:
        reference.execute(op)
    expected_read = reference.execute(ops[-1])

    for engine in ("vectorized", "op-by-op"):
        oracle = op_by_op_replay() if engine == "op-by-op" else (
            contextlib.nullcontext()
        )
        sim = Simulator(CFG)
        _seed_memory(sim, np.random.default_rng(seed + 1))
        with oracle:
            response = sim.execute_program(program)
        assert response == expected_read, engine
        assert np.array_equal(sim.memory.words, reference.memory.words), engine
        assert sim.stats == reference.stats, engine
        if engine == "vectorized":
            assert sim.replay_counters == {"vectorized": 1, "fallback": 0}


def _set_masks(executor, xb, row):
    executor.execute(CrossbarMaskOp(*xb))
    executor.execute(RowMaskOp(*row))


class TestEntryMaskPlans:
    """Programs that run gates under masks set before replay entry."""

    @pytest.mark.parametrize("seed", [5, 41])
    def test_body_replayed_under_changing_masks(self, seed, lane_state):
        """Masks A, B, A: each replay must see its own entry masks, never
        views or plans left over from a replay under other masks."""
        rng = np.random.default_rng(seed)
        body = [_init1(5), _gate(5, 0, 1)] + _random_self_masked_ops(rng)[2:]
        program = compile_ops(body, CFG, optimize=False)
        sim, oracle = Simulator(CFG), Simulator(CFG)
        for executor in (sim, oracle):
            _seed_memory(executor, np.random.default_rng(seed + 1))
        reference = ReferenceSimulator(CFG)
        for xbar in range(CFG.crossbars):
            reference.bits[xbar] = sim.memory.unpack_bits(xbar)

        mask_a = ((1, 3, 2), (0, 6, 2))
        mask_b = ((0, 2, 1), (3, 7, 1))
        for xb, row in (mask_a, mask_b, mask_a):
            for executor in (sim, oracle, reference):
                _set_masks(executor, xb, row)
            response = sim.execute_program(program)
            expected = None
            for op in body:
                expected = oracle.execute(op)
                reference.execute(op)
            assert response == expected
            assert np.array_equal(sim.memory.words, oracle.memory.words)
            assert sim.stats == oracle.stats
        for xbar in range(CFG.crossbars):
            assert (sim.memory.unpack_bits(xbar) == reference.bits[xbar]).all()
        assert sim.replay_counters == {"vectorized": 3, "fallback": 0}
        assert len(sim._plans[program]) == 2  # one plan per mask pair

    @pytest.mark.parametrize("body", [
        [_init1(3), MoveOp(1, 0, 0, 3, 4)],  # dist 1 off the last crossbar
        [_init1(3), ReadOp(3)],  # a read under multi-row masks
    ], ids=["invalid-move", "multi-row-read"])
    def test_rejected_body_raises_like_op_by_op(self, body):
        program = compile_ops(body, CFG, optimize=False)
        sim, oracle = Simulator(CFG), Simulator(CFG)
        with pytest.raises(SimulationError) as raised:
            sim.execute_program(program)
        with pytest.raises(SimulationError) as expected:
            for op in body:
                oracle.execute(op)
        assert str(raised.value) == str(expected.value)
        assert np.array_equal(sim.memory.words, oracle.memory.words)
        assert sim.memory.words[:, 3, :].all()  # the INIT1 ran first
        assert sim.stats == oracle.stats
        assert sim.replay_counters == {"vectorized": 0, "fallback": 1}

        # Under single-cell entry masks the same body is valid and fuses.
        _set_masks(sim, (0, 0, 1), (0, 0, 1))
        sim.execute_program(program)
        assert sim.replay_counters == {"vectorized": 1, "fallback": 1}

    def test_wide_words_replay_op_by_op(self):
        wide = PIMConfig(crossbars=4, rows=8, columns=2048,
                         partitions=64, word_size=64)
        ops = [CrossbarMaskOp(0, 3, 1), RowMaskOp(0, 7, 1),
               LogicHOp(GateType.INIT1, 0, 0, 3, p_a=0, p_b=0, p_out=0,
                        p_end=63, p_step=1),
               LogicHOp(GateType.NOR, 0, 1, 2, p_a=0, p_b=1, p_out=2,
                        p_end=2, p_step=1)]
        program = compile_ops(ops, wide, optimize=False)
        sim, oracle = Simulator(wide), Simulator(wide)
        assert not replay.lanes_supported(sim.memory)
        sim.execute_program(program)
        oracle.execute_all(ops)
        assert np.array_equal(sim.memory.words, oracle.memory.words)
        assert sim.stats == oracle.stats
        assert sim.replay_counters == {"vectorized": 0, "fallback": 1}

    def test_self_masked_program_has_one_plan(self):
        program = compile_ops(
            _masked([_init1(3), _gate(3, 0, 1)]), CFG, optimize=False
        )
        sim = Simulator(CFG)
        sim.execute_program(program)
        _set_masks(sim, (1, 1, 1), (2, 2, 1))
        sim.execute_program(program)
        assert list(sim._plans[program]) == [None]
        assert sim.replay_counters == {"vectorized": 2, "fallback": 0}

    def test_repeated_eager_loop_builds_no_new_plans(self, monkeypatch):
        built = []
        compile_plan = Simulator._compile_plan

        def counting(self, program):
            built.append(program)
            return compile_plan(self, program)

        monkeypatch.setattr(Simulator, "_compile_plan", counting)
        pim.init(crossbars=4, rows=16)
        try:
            x = pim.from_numpy(np.arange(64, dtype=np.float32))
            y = pim.from_numpy(np.full(64, 0.5, dtype=np.float32))
            counts = []
            for _ in range(3):
                z = x * y + x
                float(z[::2].sum())
                del z  # the next call reuses the same registers
                counts.append(len(built))
        finally:
            pim.reset()
        assert counts[0] > 0
        assert counts[1] == counts[2] == counts[0]

    def test_program_replay_info(self):
        from repro.backend.simulator import SimulatorBackend

        backend = SimulatorBackend(CFG)
        fused = compile_ops(
            _masked([_init1(3), _gate(3, 0, 1)]), CFG, optimize=False
        )
        body = compile_ops([_init1(3), _gate(3, 0, 1)], CFG, optimize=False)
        info = backend.program_replay_info(fused)
        assert (info["engine"], info["self_masked"]) == ("vectorized", True)
        info = backend.program_replay_info(body)
        assert (info["engine"], info["self_masked"]) == ("vectorized", False)


class TestLaneHelpers:
    def test_pack_unpack_roundtrip(self):
        memory = CrossbarMemory(CFG)
        rng = np.random.default_rng(7)
        memory.words[...] = rng.integers(
            0, 1 << 32, size=memory.words.shape, dtype=np.uint64
        ).astype(memory.dtype)
        xb = RangeMask(0, 2, 2)
        row = RangeMask(1, 5, 2)
        before = memory.words.copy()
        packed = memory.pack_lanes(xb, 2, row)
        memory.unpack_lanes(xb, 2, row, packed)
        assert np.array_equal(memory.words, before)

    def test_unpack_writes_only_the_region(self):
        memory = CrossbarMemory(CFG)
        xb, row = RangeMask(1, 1, 1), RangeMask(2, 3, 1)
        value = memory.pack_lanes(xb, 0, row) | 0b101 | (0b11 << 64)
        memory.unpack_lanes(xb, 0, row, value)
        assert memory.words[1, 0, 2] == 0b101
        assert memory.words[1, 0, 3] == 0b11
        assert memory.words.sum() == 0b101 + 0b11  # nothing else touched
