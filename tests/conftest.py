"""Shared fixtures and data strategies for the test suite.

Float test data deliberately avoids subnormal inputs/results and NaN/Inf
(the documented FTZ deviations, see DESIGN.md): values are built from a
biased exponent in a safe band so that sums stay normal and products/
quotients cannot underflow or overflow.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import strategies as st

import repro.pim as pim
from repro.arch.config import PIMConfig, small_config
from repro.driver.driver import Driver
from repro.sim.simulator import Simulator


# ----------------------------------------------------------------------
# Configs / devices
# ----------------------------------------------------------------------
@pytest.fixture
def config() -> PIMConfig:
    """A small memory: 4 crossbars x 16 rows (fast, same semantics)."""
    return small_config(crossbars=4, rows=16)


@pytest.fixture
def simulator(config) -> Simulator:
    return Simulator(config)


@pytest.fixture
def driver(simulator) -> Driver:
    return Driver(simulator, guard=True)


def _execute_program_op_by_op(self, program):
    """``Simulator.execute_program`` through the op-by-op oracle."""
    response = None
    for op in program.ops:
        result = self.execute(op)
        if result is not None:
            response = result
    return response


@contextlib.contextmanager
def op_by_op_replay():
    """Inside the block, every simulator replays programs op by op.

    ``Simulator.execute_program`` is patched to run each micro-op through
    ``Simulator.execute`` and return the last read response: the oracle
    leg the replay-identity tests compare vectorized replay against.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Simulator, "execute_program", _execute_program_op_by_op)
        yield


@pytest.fixture
def device():
    """A fresh default pim device per test (64 elements per register)."""
    dev = pim.init(crossbars=4, rows=16)
    yield dev
    pim.reset()


@pytest.fixture
def big_device():
    """A device spanning more warps (for inter-crossbar paths)."""
    dev = pim.init(crossbars=16, rows=32)
    yield dev
    pim.reset()


# ----------------------------------------------------------------------
# Random data helpers (seeded NumPy)
# ----------------------------------------------------------------------
def rand_int32(rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.integers(-(2**31), 2**31, size=size, dtype=np.int64).astype(np.int32)


def rand_float32(rng: np.random.Generator, size: int, exp_band: int = 12) -> np.ndarray:
    """Normal floats with biased exponent in [127-band, 127+band]."""
    sign = rng.integers(0, 2, size=size).astype(np.uint32) << 31
    exponent = rng.integers(127 - exp_band, 127 + exp_band + 1, size=size).astype(
        np.uint32
    ) << 23
    mantissa = rng.integers(0, 1 << 23, size=size).astype(np.uint32)
    return (sign | exponent | mantissa).view(np.float32)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0xC0FFEE)


# ----------------------------------------------------------------------
# Hypothesis strategies
# ----------------------------------------------------------------------
def int32s() -> st.SearchStrategy[int]:
    return st.integers(min_value=-(2**31), max_value=2**31 - 1)


def safe_float_bits(exp_lo: int = 97, exp_hi: int = 157) -> st.SearchStrategy[int]:
    """Raw words of normal float32 values in a safe exponent band."""
    return st.builds(
        lambda s, e, m: (s << 31) | (e << 23) | m,
        st.integers(0, 1),
        st.integers(exp_lo, exp_hi),
        st.integers(0, (1 << 23) - 1),
    )


def safe_floats(exp_lo: int = 97, exp_hi: int = 157) -> st.SearchStrategy[float]:
    return safe_float_bits(exp_lo, exp_hi).map(
        lambda bits: float(np.uint32(bits).view(np.float32))
    )
