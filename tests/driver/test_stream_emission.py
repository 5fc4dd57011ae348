"""Stream-conformance differential suite for whole-stream emission.

The stream emission compiler (:mod:`repro.driver.stream`) promises that
fusing a macro-instruction stream into one cached plan changes *nothing*
observable except host dispatch cost: memory state, ``SimStats``, read
responses, and the driver's macro/micro counters must be bit-identical
to the per-macro ladder, on every backend, at every level of the
fallback ladder.  This suite checks that promise differentially:

- seeded random macro streams (R-type across dtypes, masked writes,
  moves of every shape, in-stream reads) are emitted stream-lowered and
  per-macro on fresh simulators — with stream replay both vectorized and
  op by op — and compared bit for bit;
- the spliced stream compiler (``Driver.compile`` under ``"stream"``
  emission) is checked op-for-op against the legacy per-macro lowering
  at both ``optimize`` flags;
- the numpy backend's fused ``run_stream`` is compared against its own
  per-instruction loop (memory image and cycle bill);
- every rung of the fallback ladder (``REPRO_DRIVER_EMIT=macro``,
  batch-only sinks with in-stream reads, execute-only chips, a disabled
  cache) is exercised and shown to produce identical results while the
  ``emit_counters`` attribute attributes the emission level.

On failure the offending stream is dumped to ``fuzz_artifacts/``
(override with ``REPRO_FUZZ_ARTIFACT_DIR``), like the integration fuzz
suite does.
"""

import contextlib
import json
import os
import random

import numpy as np
import pytest

import repro.pim as pim
from repro.arch.config import small_config
from repro.arch.masks import RangeMask
from repro.driver.compiler import CompileError
from repro.driver.driver import BufferSink, Driver
from repro.driver.stream import (
    EMIT_ENV,
    EMIT_MODES,
    UNSUPPORTED,
    MacroStream,
    StreamPlan,
    build_plan,
    plan_route,
    resolve_emit_mode,
)
from repro.isa.dtypes import float32, int32
from repro.isa.instructions import (
    ARITY,
    MoveInstr,
    ReadInstr,
    RInstr,
    ROp,
    WriteInstr,
)
from repro.sim.simulator import Simulator
from tests.conftest import op_by_op_replay

CFG = small_config(crossbars=4, rows=8)

SEEDS = [11, 1729, 40961, 65537, 99991]

INT_OPS = [
    ROp.ADD, ROp.SUB, ROp.MUL, ROp.LT, ROp.EQ,
    ROp.BIT_AND, ROp.BIT_XOR, ROp.NEG, ROp.ABS,
]
FLOAT_OPS = [ROp.ADD, ROp.MUL, ROp.LT]


def _artifact_dir() -> str:
    return os.environ.get(
        "REPRO_FUZZ_ARTIFACT_DIR",
        os.path.join(os.path.dirname(__file__), "..", "..", "fuzz_artifacts"),
    )


def _dump_stream(seed: int, context: str, stream, error: BaseException) -> None:
    os.makedirs(_artifact_dir(), exist_ok=True)
    path = os.path.join(_artifact_dir(), f"stream_seed_{seed}.json")
    with open(path, "w") as handle:
        json.dump(
            {
                "seed": seed,
                "context": context,
                "error": repr(error),
                "stream": [repr(instr) for instr in stream],
            },
            handle,
            indent=2,
        )


def _random_mask(rng: random.Random, length: int) -> RangeMask:
    start = rng.randrange(length)
    return RangeMask(start, rng.randrange(start, length), 1)


def random_stream(seed: int, length: int = 14) -> MacroStream:
    """A seeded random macro stream touching every instruction family.

    Starts with masked writes (so later arithmetic chews on non-zero
    data) and sprinkles in-stream reads, moves of all three shapes, and
    R-type macros over both dtypes with random mask patterns.
    """
    rng = random.Random(seed)
    user = CFG.user_registers
    instrs = [
        WriteInstr(
            rng.randrange(user), rng.getrandbits(32),
            _random_mask(rng, CFG.crossbars), _random_mask(rng, CFG.rows),
        )
        for _ in range(3)
    ]
    for _ in range(length):
        roll = rng.random()
        if roll < 0.55:
            dtype = int32 if rng.random() < 0.7 else float32
            op = rng.choice(INT_OPS if dtype is int32 else FLOAT_OPS)
            arity = ARITY[op]
            regs = [rng.randrange(user) for _ in range(1 + arity)]
            instrs.append(
                RInstr(
                    op, dtype, dest=regs[0], src_a=regs[1],
                    src_b=regs[2] if arity >= 2 else None,
                    src_c=regs[3] if arity >= 3 else None,
                    warp_mask=(
                        _random_mask(rng, CFG.crossbars)
                        if rng.random() < 0.4 else None
                    ),
                    row_mask=(
                        _random_mask(rng, CFG.rows)
                        if rng.random() < 0.4 else None
                    ),
                )
            )
        elif roll < 0.7:
            instrs.append(
                WriteInstr(rng.randrange(user), rng.getrandbits(32))
            )
        elif roll < 0.85:
            shape = rng.randrange(3)
            src, dst = rng.randrange(user), rng.randrange(user)
            if shape == 0:  # same-thread register copy
                thread = rng.randrange(CFG.rows)
                instrs.append(MoveInstr(src, dst, thread, thread))
            elif shape == 1:  # intra-warp thread move
                instrs.append(
                    MoveInstr(
                        src, dst,
                        rng.randrange(CFG.rows), rng.randrange(CFG.rows),
                        warp_mask=_random_mask(rng, CFG.crossbars),
                    )
                )
            else:  # inter-warp H-tree move
                warp = rng.randrange(CFG.crossbars - 1)
                instrs.append(
                    MoveInstr(
                        src, dst,
                        rng.randrange(CFG.rows), rng.randrange(CFG.rows),
                        warp_mask=RangeMask.single(warp),
                        warp_dist=rng.randrange(1, CFG.crossbars - warp),
                    )
                )
        else:
            instrs.append(
                ReadInstr(
                    rng.randrange(CFG.crossbars),
                    rng.randrange(CFG.rows),
                    rng.randrange(user),
                )
            )
    return MacroStream(instrs)


def per_macro_reference(stream, loops: int = 1):
    """The ground truth: a fresh simulator fed macro by macro."""
    sim = Simulator(CFG)
    driver = Driver(sim, emit_mode="macro")
    response = None
    for _ in range(loops):
        for instr in stream:
            result = driver.execute(instr)
            if result is not None:
                response = result
    return sim, driver, response


def stream_emission(stream, loops: int = 1, **kwargs):
    """The path under test: ``execute_stream`` on a fresh simulator."""
    sim = Simulator(CFG)
    driver = Driver(sim, **kwargs)
    response = None
    for _ in range(loops):
        response = driver.execute_stream(stream)
    return sim, driver, response


def assert_conformant(seed, stream, context, reference, candidate):
    """Bit-identical memory, identical SimStats, counters, and response."""
    sim_ref, driver_ref, response_ref = reference
    sim_new, driver_new, response_new = candidate
    try:
        assert response_new == response_ref
        assert np.array_equal(sim_new.memory.words, sim_ref.memory.words)
        assert sim_new.stats == sim_ref.stats
        assert driver_new.macro_count == driver_ref.macro_count
        assert driver_new.micro_count == driver_ref.micro_count
    except AssertionError as exc:
        _dump_stream(seed, context, stream, exc)
        raise


class TestEmitModeResolution:
    def test_default_is_stream(self, monkeypatch):
        monkeypatch.delenv(EMIT_ENV, raising=False)
        assert resolve_emit_mode() == "stream"
        assert Driver(Simulator(CFG)).emit_mode == "stream"

    def test_env_selects_fallback(self, monkeypatch):
        monkeypatch.setenv(EMIT_ENV, "macro")
        assert resolve_emit_mode() == "macro"
        assert Driver(Simulator(CFG)).emit_mode == "macro"

    def test_explicit_mode_beats_env(self, monkeypatch):
        monkeypatch.setenv(EMIT_ENV, "macro")
        assert resolve_emit_mode("stream") == "stream"
        assert Driver(Simulator(CFG), emit_mode="stream").emit_mode == "stream"

    def test_unknown_mode_names_source(self, monkeypatch):
        with pytest.raises(ValueError, match="requested"):
            resolve_emit_mode("eager")
        monkeypatch.setenv(EMIT_ENV, "bogus")
        with pytest.raises(ValueError, match=EMIT_ENV):
            resolve_emit_mode()

    def test_modes_tuple_is_the_contract(self):
        assert EMIT_MODES == ("stream", "macro")


class TestSplicedCompileParity:
    """The spliced stream compiler must reproduce legacy lowering exactly."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("optimize", [False, True])
    def test_spliced_matches_legacy(self, seed, optimize):
        stream = random_stream(seed)
        driver = Driver(Simulator(CFG))
        spliced = driver.compile(stream, optimize=optimize, emit="stream")
        legacy = driver.compile(stream, optimize=optimize, emit="macro")
        try:
            assert list(spliced.ops) == list(legacy.ops)
            assert spliced.reads == legacy.reads
            assert spliced.macros == legacy.macros == len(stream)
            assert spliced.source_ops == legacy.source_ops
        except AssertionError as exc:
            _dump_stream(seed, f"compile optimize={optimize}", stream, exc)
            raise

    def test_spliced_checks_mask_ranges(self):
        # The spliced path skips full stream validation (bodies are valid
        # by construction) but must still reject the out-of-range masks
        # the legacy validation pass would have caught.
        bad_warp = RInstr(
            ROp.ADD, int32, dest=0, src_a=1, src_b=2,
            warp_mask=RangeMask(0, CFG.crossbars, 1),
        )
        bad_row = RInstr(
            ROp.ADD, int32, dest=0, src_a=1, src_b=2,
            row_mask=RangeMask(0, CFG.rows, 1),
        )
        for instr in (bad_warp, bad_row):
            for emit in EMIT_MODES:
                driver = Driver(Simulator(CFG))
                with pytest.raises(CompileError):
                    driver.compile([instr], emit=emit)

    def test_compile_populates_stream_tier(self):
        driver = Driver(Simulator(CFG))
        stream = random_stream(SEEDS[0])
        first = driver.compile(stream)
        again = driver.compile(stream)
        assert again is first  # stream-tier cache hit, not a recompile
        assert driver.streams.hits == 1


class TestStreamExecutionConformance:
    """execute_stream versus the per-macro ladder, bit for bit."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_stream_mode_matches_per_macro(self, seed):
        stream = random_stream(seed)
        assert_conformant(
            seed, stream, "stream emission",
            per_macro_reference(stream, loops=3),
            stream_emission(stream, loops=3, emit_mode="stream"),
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_macro_mode_matches_per_macro(self, seed):
        stream = random_stream(seed)
        assert_conformant(
            seed, stream, "macro fallback",
            per_macro_reference(stream, loops=2),
            stream_emission(stream, loops=2, emit_mode="macro"),
        )

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("engine", ["vectorized", "op-by-op"])
    def test_vectorized_and_op_by_op_replay(self, seed, engine):
        stream = random_stream(seed)
        reference = per_macro_reference(stream)
        oracle = op_by_op_replay() if engine == "op-by-op" else (
            contextlib.nullcontext()
        )
        with oracle:
            candidate = stream_emission(stream, emit_mode="stream")
        assert_conformant(
            seed, stream, f"replay engine {engine}", reference, candidate
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_uncached_driver_matches(self, seed):
        # cache_size=0 cannot build plans; the fallback must still be
        # bit-identical (and attributed to the macro level).
        stream = random_stream(seed)
        candidate = stream_emission(stream, cache_size=0,
                                    emit_mode="stream")
        assert_conformant(
            seed, stream, "cache disabled",
            per_macro_reference(stream), candidate,
        )
        assert candidate[1].emit_counters["stream"] == 0
        assert candidate[1].emit_counters["macro"] == 1

    def test_plain_tuple_and_list_share_the_plan(self):
        # MacroStream equality is tuple equality: re-emitting the same
        # instructions from a plain list must hit the cached plan.
        stream = random_stream(SEEDS[0])
        sim = Simulator(CFG)
        driver = Driver(sim, emit_mode="stream")
        driver.execute_stream(stream)
        misses = driver.streams.misses
        driver.execute_stream(list(stream))
        driver.execute_stream(tuple(stream))
        assert driver.streams.misses == misses
        assert driver.emit_counters["stream"] == 3

    def test_read_response_is_last_read(self):
        write = WriteInstr(0, 0xDEAD_BEEF, RangeMask.single(1),
                           RangeMask.single(2))
        stream = [
            write,
            ReadInstr(0, 0, 0),           # reads a zeroed cell
            ReadInstr(1, 2, 0),           # the written word: must win
        ]
        for mode in EMIT_MODES:
            _, _, response = stream_emission(stream, emit_mode=mode)
            assert response == 0xDEAD_BEEF


class TestNumpyBackendConformance:
    """The numpy backend's fused run_stream versus its per-macro loop."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_run_stream_matches_execute_loop(self, seed):
        stream = random_stream(seed)
        images, stats, responses, counters = [], [], [], []
        for mode in EMIT_MODES:
            device = pim.init(
                crossbars=CFG.crossbars, rows=CFG.rows,
                backend="numpy", emit_mode=mode,
            )
            response = None
            for _ in range(2):
                response = device.execute_stream(list(stream))
            images.append(device.backend.words.copy())
            stats.append(device.backend.stats.copy())
            responses.append(response)
            counters.append(device.backend.emit_counters())
            pim.reset()
        try:
            assert responses[0] == responses[1]
            assert np.array_equal(images[0], images[1])
            assert stats[0] == stats[1]
        except AssertionError as exc:
            _dump_stream(seed, "numpy backend", stream, exc)
            raise
        assert counters[0]["stream"] == 2 and counters[0]["macro"] == 0
        assert counters[1]["macro"] == 2 and counters[1]["stream"] == 0


class _ExecuteOnlyChip:
    """A chip exposing only op-by-op execute (no program/batch transport)."""

    def __init__(self, config):
        self.config = config
        self.sim = Simulator(config)

    def execute(self, op):
        return self.sim.execute(op)


class TestFallbackLadder:
    def test_env_forces_macro_everywhere(self, monkeypatch):
        monkeypatch.setenv(EMIT_ENV, "macro")
        stream = random_stream(SEEDS[1])
        candidate = stream_emission(stream)
        assert_conformant(
            SEEDS[1], stream, "env fallback",
            per_macro_reference(stream), candidate,
        )
        assert candidate[1].emit_counters == {"stream": 0, "macro": 1}

    def test_batch_sink_with_reads_is_unsupported(self):
        # BufferSink.execute_batch has no read-response channel: a stream
        # containing reads must take the per-macro ladder — and the
        # unsupported verdict must be cached, not re-derived.
        sink = BufferSink(CFG)
        driver = Driver(sink, config=CFG, emit_mode="stream")
        stream = MacroStream([
            WriteInstr(0, 7),
            ReadInstr(0, 0, 0),
        ])
        assert driver.execute_stream(stream) == 0  # BufferSink reads as 0
        assert driver.emit_counters["macro"] == 1
        misses = driver.streams.misses
        driver.execute_stream(stream)
        assert driver.emit_counters["macro"] == 2
        assert driver.streams.misses == misses  # cached UNSUPPORTED verdict
        assert driver.streams.hits >= 1

    def test_batch_sink_without_reads_takes_batch_route(self):
        # Same word-for-word buffer contents as per-macro emission, but
        # through one fused pre-encoded block.
        stream = MacroStream([
            WriteInstr(0, 3),
            RInstr(ROp.ADD, int32, dest=1, src_a=0, src_b=0),
            RInstr(ROp.LT, int32, dest=2, src_a=1, src_b=0),
        ])
        sink_stream = BufferSink(CFG)
        fused = Driver(sink_stream, config=CFG, emit_mode="stream")
        fused.execute_stream(stream)
        assert fused.emit_counters["stream"] == 1

        sink_macro = BufferSink(CFG)
        ladder = Driver(sink_macro, config=CFG, emit_mode="macro")
        ladder.execute_stream(stream)
        assert ladder.emit_counters["macro"] == 1

        assert sink_stream.count == sink_macro.count
        assert np.array_equal(
            sink_stream.buffer[: sink_stream.count],
            sink_macro.buffer[: sink_macro.count],
        )
        assert (fused.macro_count, fused.micro_count) == (
            ladder.macro_count, ladder.micro_count
        )

    def test_execute_only_chip_falls_back(self):
        stream = random_stream(SEEDS[2])
        chip = _ExecuteOnlyChip(CFG)
        driver = Driver(chip, config=CFG, emit_mode="stream")
        driver.execute_stream(stream)
        assert driver.emit_counters == {"stream": 0, "macro": 1}
        sim_ref, _, _ = per_macro_reference(stream)
        assert np.array_equal(chip.sim.memory.words, sim_ref.memory.words)
        assert chip.sim.stats == sim_ref.stats

    def test_empty_stream_is_a_no_op(self):
        driver = Driver(Simulator(CFG), emit_mode="stream")
        assert driver.execute_stream([]) is None
        assert driver.emit_counters == {"stream": 0, "macro": 0}
        assert driver.macro_count == 0

    def test_plan_route_ladder(self):
        sim = Simulator(CFG)
        sink = BufferSink(CFG)
        assert plan_route(sim, reads=2) == "program"
        assert plan_route(sink, reads=0) == "batch"
        assert plan_route(sink, reads=1) is None
        assert plan_route(_ExecuteOnlyChip(CFG), reads=0) is None
        assert plan_route(None, reads=0) is None

    def test_build_plan_shapes(self):
        driver = Driver(Simulator(CFG))
        stream = random_stream(SEEDS[3])
        plan = build_plan(driver, stream)
        assert isinstance(plan, StreamPlan)
        assert plan.route == "program"
        assert plan.macros == len(stream)
        assert plan.reads == sum(
            1 for instr in stream if isinstance(instr, ReadInstr)
        )
        assert len(plan) == len(plan.program)
        assert build_plan(Driver(None, config=CFG), stream) is None


class TestCountersAndProfiler:
    def test_simulator_backend_emit_counters(self):
        stream = random_stream(SEEDS[4], length=6)
        device = pim.init(crossbars=CFG.crossbars, rows=CFG.rows,
                          emit_mode="stream")
        try:
            with pim.Profiler(device) as prof:
                device.execute_stream(list(stream))
                device.execute_stream(list(stream))
            assert prof.emit_counts == {"stream": 2}
            assert device.backend.emit_counters()["stream"] == 2
        finally:
            pim.reset()

    def test_profiler_reports_macro_fallback(self, monkeypatch):
        monkeypatch.setenv(EMIT_ENV, "macro")
        stream = random_stream(SEEDS[4], length=6)
        device = pim.init(crossbars=CFG.crossbars, rows=CFG.rows)
        try:
            with pim.Profiler(device) as prof:
                device.execute_stream(list(stream))
            assert prof.emit_counts == {"macro": 1}
        finally:
            pim.reset()

    def test_unsupported_sentinel_is_shared(self):
        assert UNSUPPORTED is not None
        # The sentinel is module-level state: two drivers caching the
        # same verdict compare by identity, never by (absent) equality.
        sink = BufferSink(CFG)
        stream = MacroStream([ReadInstr(0, 0, 0)])
        for _ in range(2):
            driver = Driver(sink, config=CFG, emit_mode="stream")
            driver.execute_stream(stream)
            key = ("plan", stream, "stream", driver.parallelism,
                   driver._fingerprint)
            assert driver.streams.get(key) is UNSUPPORTED
