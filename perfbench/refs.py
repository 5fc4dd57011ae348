"""Seeded operands and independent NumPy references for the benchmark.

Every output the benchmark checks is compared against NumPy (or
``repro.theory.golden``), never against the backend under test.

Operand distributions follow the paper's evaluation as the repository's
Figure 13 benchmarks generate it (``benchmarks/test_fig13_elementwise.py``
and ``benchmarks/test_fig13_routines.py``): element-wise floats have a
random sign, a biased exponent in [97, 157] and a random mantissa, so
every operand, sum, product and quotient stays in the normal range;
integer divisors are nonzero. The edge classes -- ``x/0``, subnormals,
NaN -- are left out on purpose: there ``theory.golden`` (the "trusted
CPU" model) and the hardware-exact backends knowingly disagree, and
pinning those cases is the job of an ISA specification, not of a
performance benchmark.
"""

from __future__ import annotations

import math

import numpy as np

from repro.isa.dtypes import float32, int32
from repro.isa.instructions import ROp
from repro.pim.routines import CORDIC_ITERATIONS
from repro.theory.golden import golden_rtype


def normal_floats(rng: np.random.Generator, n: int) -> np.ndarray:
    """Normal-range float32 values (sign, exponent 97..157, mantissa)."""
    sign = rng.integers(0, 2, n).astype(np.uint32) << 31
    exponent = rng.integers(97, 158, n).astype(np.uint32) << 23
    mantissa = rng.integers(0, 1 << 23, n).astype(np.uint32)
    return (sign | exponent | mantissa).view(np.float32)


def int_words(rng: np.random.Generator, n: int, nonzero: bool = False) -> np.ndarray:
    """Full-range int32 values (optionally with zeros replaced by 3)."""
    data = rng.integers(-(2**31), 2**31, n, dtype=np.int64).astype(np.int32)
    if nonzero:
        data[data == 0] = 3
    return data


def angles(rng: np.random.Generator, n: int) -> np.ndarray:
    """CORDIC inputs: the paper's [-pi/2, pi/2] benchmark range."""
    return rng.uniform(-np.pi / 2, np.pi / 2, n).astype(np.float32)


def near_one(rng: np.random.Generator, n: int) -> np.ndarray:
    """Reduction inputs: floats in [0.9, 1.1], as the routine benchmarks use."""
    return rng.uniform(0.9, 1.1, n).astype(np.float32)


def gaussian(rng: np.random.Generator, n: int) -> np.ndarray:
    """Sort inputs: standard-normal float32 values."""
    return rng.normal(size=n).astype(np.float32)


def tree_sum(values: np.ndarray) -> np.float32:
    """Float32 sum in the order of the PIM logarithmic reduction.

    Each round folds the upper ``n // 2`` elements onto the lower ones
    and keeps an odd leftover in place, so the rounding sequence is the
    PIM one, not NumPy's pairwise summation.
    """
    work = np.array(values, dtype=np.float32)
    n = work.size
    while n > 1:
        half = n // 2
        keep = n - half
        work[:half] = work[:half] + work[keep:n]
        n = keep
    return work[0]


def cordic_sin(z: np.ndarray) -> np.ndarray:
    """Float32 rotation-mode CORDIC with the PIM routine's step order."""
    gain = 1.0
    for k in range(CORDIC_ITERATIONS):
        gain *= 1.0 / math.sqrt(1.0 + 2.0 ** (-2 * k))
    x = np.full(z.size, np.float32(gain), dtype=np.float32)
    y = np.zeros(z.size, dtype=np.float32)
    angle = z.astype(np.float32)
    for k in range(CORDIC_ITERATIONS):
        positive = angle >= 0
        scale = np.float32(2.0**-k)
        x_step, y_step = y * scale, x * scale
        x, y = (
            np.where(positive, x - x_step, x + x_step),
            np.where(positive, y + y_step, y - y_step),
        )
        turn = np.float32(math.atan(2.0**-k))
        angle = np.where(positive, angle - turn, angle + turn)
    return y


def elementwise(op: ROp, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``repro.theory.golden`` semantics of one element-wise kernel."""
    dtype = float32 if a.dtype == np.float32 else int32
    return golden_rtype(op, dtype, a, b)


def same_bits(got, want) -> bool:
    """Bit-exact equality of float32/int32 scalars or arrays."""
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        return False
    if want.dtype == np.float32:
        got = got.astype(np.float32)
    return bool(np.array_equal(got.view(np.uint32), want.view(np.uint32)))


def corrupt(value):
    """Flip the lowest bit of a result (the self-check's injected defect)."""
    if isinstance(value, np.ndarray):
        bad = value.copy()
        flat = bad.reshape(-1).view(np.uint32)
        flat[0] ^= 1
        return bad
    if isinstance(value, float):
        return float((np.float32(value).view(np.uint32) ^ np.uint32(1)).view(np.float32))
    return value ^ 1
