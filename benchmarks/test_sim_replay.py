"""Vectorized simulator replay benchmark: the Figure-12 survey workload.

The acceptance criteria, enforced here:

1. **Engine identity** — at every ``opt_level`` vectorized replay and
   op-by-op replay through ``Simulator.execute`` (the oracle) produce
   bit-identical memory images and identical
   :class:`~repro.sim.stats.SimStats`; at ``opt_level=0`` both
   additionally reproduce the eager memory image and cycle totals
   exactly (replay *is* the eager stream).
2. **Replay speed** — on the bit-accurate simulator backend, vectorized
   replay of a compiled program beats op-by-op replay of the same
   program by >= 5x wall-clock. Eager dispatch replays its per-R-type
   bodies on the same vectorized engine, so eager is not the baseline.

Results are written to ``results/sim_replay.txt`` (a survey of eager
op-by-op with the program cache off, eager, and vectorized replay,
mirroring ``results/graph_compile.txt``).
"""

from __future__ import annotations

import contextlib
import os
import time
from typing import List

import numpy as np
import pytest

import repro.pim as pim

from benchmarks.conftest import RESULTS_DIR
from tests.conftest import op_by_op_replay

_LINES: List[str] = []


def my_func(a, b):
    """Figure 12's myFunc plus the strided reduction."""
    z = a * b + a
    return z[::2].sum()


def _fresh(crossbars: int = 4, rows: int = 16, n: int = 64, **kwargs):
    device = pim.init(
        crossbars=crossbars, rows=rows, backend="simulator", **kwargs
    )
    x = pim.zeros(n, dtype=pim.float32)
    y = pim.zeros(n, dtype=pim.float32)
    x[4], y[4] = 8.0, 0.5
    x[5], y[5] = 20.0, 1.0
    x[8], y[8] = 10.0, 1.0
    return device, x, y


@pytest.fixture(autouse=True)
def _reset():
    yield
    pim.reset()


@pytest.mark.parametrize("opt_level", [0, 1, 2, 3])
def test_engines_are_bit_identical(opt_level):
    """Vectorized vs op by op: same memory image, same stats, every level."""
    images = {}
    stats = {}
    for engine in ("vectorized", "op-by-op"):
        oracle = op_by_op_replay() if engine == "op-by-op" else (
            contextlib.nullcontext()
        )
        with oracle:
            device, x, y = _fresh()
            eager_before = device.stats_snapshot()
            expected = my_func(x, y)
            eager_delta = device.backend.stats.diff(eager_before)
            eager_words = device.backend.words.copy()
            pim.reset()

            device, x, y = _fresh()
            func = pim.compile(my_func, opt_level=opt_level)
            assert func(x, y) == expected  # capture
            before = device.stats_snapshot()
            assert func(x, y) == expected  # replay (builds the plan)
            assert func(x, y) == expected  # steady-state replay
        if engine == "vectorized":
            counters = device.backend.replay_counters()
            assert counters["vectorized"] >= 1, counters
        images[engine] = device.backend.words.copy()
        stats[engine] = device.backend.stats.diff(before)
        if opt_level == 0:
            assert np.array_equal(images[engine], eager_words), engine
            assert stats[engine].cycles == 2 * eager_delta.cycles, engine
        pim.reset()
    assert np.array_equal(images["vectorized"], images["op-by-op"])
    assert stats["vectorized"] == stats["op-by-op"]
    _LINES.append(
        f"identity O{opt_level}: vectorized == op-by-op (memory + stats), "
        f"level-0 replay == eager"
    )


def _per_call(fn, x, y, reps: int) -> float:
    start = time.perf_counter()
    for _ in range(reps):
        fn(x, y)
    return (time.perf_counter() - start) / reps


def _time_eager(crossbars: int, rows: int, n: int, reps: int, **kwargs):
    """Eager s/call on a fresh device (driver caches warmed first)."""
    _, x, y = _fresh(crossbars, rows, n, **kwargs)
    my_func(x, y)  # warm driver caches outside the timed region
    eager = _per_call(my_func, x, y, reps)
    pim.reset()
    return eager


def _time_replay(crossbars: int, rows: int, n: int, reps: int):
    """(vectorized, op-by-op) s/call replaying one compiled program."""
    _, x, y = _fresh(crossbars, rows, n)
    func = pim.compile(my_func)
    func(x, y)  # capture
    func(x, y)  # first replay builds the replay plan
    vectorized = _per_call(func, x, y, reps)
    with op_by_op_replay():
        op_by_op = _per_call(func, x, y, reps)
    pim.reset()
    return vectorized, op_by_op


def test_vectorized_replay_floor():
    """The headline claim: vectorized replay >= 5x over op-by-op replay
    of the same compiled program on the bit-accurate backend."""
    best = 0.0
    for _ in range(2):
        vectorized, op_by_op = _time_replay(4, 16, 64, reps=2)
        best = max(best, op_by_op / vectorized)
    _LINES.append(
        f"acceptance (simulator, 4x16, n=64): op-by-op replay "
        f"{op_by_op * 1e3:8.2f} ms  vectorized replay "
        f"{vectorized * 1e3:7.2f} ms  speedup {op_by_op / vectorized:5.2f}x "
        f"(best-of-2 {best:5.2f}x, floor 5x)"
    )
    assert best >= 5.0, f"vectorized replay speedup {best:.2f}x < 5x"


def test_replay_survey():
    """Non-gating survey: eager op by op vs eager vs vectorized replay."""
    for crossbars, rows, n, reps in [(4, 16, 64, 2), (8, 32, 256, 1)]:
        op_by_op = _time_eager(crossbars, rows, n, reps, cache_size=0)
        eager = _time_eager(crossbars, rows, n, reps)
        vectorized, _ = _time_replay(crossbars, rows, n, reps)
        _LINES.append(
            f"survey {crossbars:>3}x{rows:<5} n={n:<6} "
            f"eager op-by-op {op_by_op * 1e3:9.2f} ms  "
            f"eager {eager * 1e3:9.2f} ms ({op_by_op / eager:5.2f}x)  "
            f"vectorized replay {vectorized * 1e3:8.2f} ms "
            f"({op_by_op / vectorized:5.2f}x)"
        )


def test_replay_info_reports_segmentation():
    """The compiled function exposes the engine + super-step counts."""
    device, x, y = _fresh()
    func = pim.compile(my_func)
    func(x, y)
    info = func.replay_info(x, y)
    assert info["engine"] == "vectorized"
    assert info["self_masked"] is True
    assert info["gate_ops"] > 0.9 * info["ops"]
    _LINES.append(
        f"segmentation: {info['ops']} ops -> {info['gate_runs']} gate runs "
        f"({info['gate_ops']} fused ops, {info['fallback_ops']} per-op "
        f"fallbacks)"
    )


@pytest.fixture(scope="module", autouse=True)
def _write_results():
    yield
    if not _LINES:
        return
    os.makedirs(RESULTS_DIR, exist_ok=True)
    text = "\n".join(
        ["Vectorized simulator replay (super-step engine) on the "
         "Figure-12 workload", ""]
        + _LINES
    )
    with open(os.path.join(RESULTS_DIR, "sim_replay.txt"), "w") as handle:
        handle.write(text + "\n")
