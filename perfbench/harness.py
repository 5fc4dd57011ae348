"""Measurement plumbing shared by the workloads: call records, the host
speed probe and set-up clock, the allocator peak probe, peak memory and
the provenance stamp."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import subprocess
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np


#: ``HostProbe`` seconds at the host's usual speed: the median probe over
#: the runs made while tuning the benchmark. ``at_reference_speed``
#: rescales host time to this speed.
REFERENCE_PROBE_S = 7e-4


@dataclass
class Call:
    """One checked unit of work: a warm call, or a kernel's setup result."""

    seconds: float
    ok: bool
    cycles: int = 0
    theoretical: int = 0
    #: ``HostProbe`` seconds measured just before the call.
    probe: float = REFERENCE_PROBE_S
    #: Host seconds of the whole closed-loop step: making the inputs and
    #: the reference, the call, and checking its output (probe excluded).
    loop_seconds: float = 0.0


class Tally:
    """Attempted/failed counts; a failure is reported, never dropped.

    Checks run on the calling thread (the event-loop thread for serving),
    never on the server's worker threads.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok


class HostProbe:
    """How fast the host runs, right now, the kinds of work the stack does.

    The probe times four fixed jobs -- an interpreter loop, hash-table
    inserts over a strided walk of a large list, small NumPy sorts and
    arithmetic, and big-integer bit operations -- each the fastest of a
    few runs, and returns their geometric mean (0.5-1.1 ms on the host
    the benchmark was tuned on). That host is shared: its speed swings by
    up to 2x for seconds to minutes at a time, in CPU time as in wall
    time, and each kind of work slows by its own factor. No single job
    tracks every workload's slowdown; their mean tracks the workloads
    better than any one of them.
    """

    #: A warm call reuses the last probe taken within this many seconds.
    INTERVAL_S = 0.25

    def __init__(self):
        self._ints = list(range(50_000))
        self._floats = np.random.default_rng(0).random(50_000)
        self._mask = (1 << 4000) - 1
        self._last = (float("-inf"), REFERENCE_PROBE_S)

    def _interpreter(self) -> None:
        total = 0
        for i in range(25_000):
            total += i

    def _hashing(self) -> None:
        table = {}
        ints = self._ints
        for i in range(0, len(ints), 20):
            table[i] = ints[(i * 7919) % len(ints)]

    def _numpy(self) -> None:
        np.sort(self._floats)
        (self._floats * 1.5 + self._floats).sum()

    def _bigint(self) -> None:
        value = mask = self._mask
        for _ in range(3000):
            value = (value ^ (value >> 3)) & mask

    def seconds(self, repeats: int = 3) -> float:
        product = 1.0
        jobs = (self._interpreter, self._hashing, self._numpy, self._bigint)
        for job in jobs:
            best = float("inf")
            for _ in range(repeats):
                start = perf_counter()
                job()
                best = min(best, perf_counter() - start)
            product *= best
        return product ** (1.0 / len(jobs))

    def recent(self) -> float:
        """A probe no older than ``INTERVAL_S`` (taken now if need be)."""
        taken, value = self._last
        if perf_counter() - taken > self.INTERVAL_S:
            value = self.seconds()
            self._last = (perf_counter(), value)
        return value


def at_reference_speed(seconds: float, probe: float) -> float:
    """Host seconds rescaled to the host's usual speed (``HostProbe``)."""
    return seconds * REFERENCE_PROBE_S / probe


class SetupClock:
    """Times a set-up in stretches, each rescaled by the mean of the host
    probes taken at its two ends. A workload's ``setup`` marks the end of
    a stretch (a kernel compiled and checked) with ``checkpoint``, which
    does nothing unless the clock was started; probe time is excluded."""

    def __init__(self, host: HostProbe):
        self.host = host
        self.raw = self.scaled = 0.0
        self._start: Optional[float] = None
        self._probe = REFERENCE_PROBE_S

    def start(self) -> None:
        self.raw = self.scaled = 0.0
        self._probe = self.host.seconds(repeats=5)
        self._start = perf_counter()

    def checkpoint(self) -> None:
        if self._start is None:
            return
        elapsed = perf_counter() - self._start
        probe = self.host.seconds(repeats=5)
        self.raw += elapsed
        self.scaled += at_reference_speed(elapsed, (self._probe + probe) / 2)
        self._probe = probe
        self._start = perf_counter()

    def stop(self) -> Tuple[float, float]:
        """``(raw host seconds, rescaled seconds)`` of the whole set-up."""
        self.checkpoint()
        self._start = None
        return self.raw, self.scaled


class CellPeak:
    """Peak allocator occupancy in crossbar cells, per allocator.

    A cell is one register of one crossbar (``rows`` words). The probe
    wraps ``Allocator.allocate``, ``allocate_group`` and ``reserve_cells``
    and samples ``Allocator.occupancy()`` after each, so transient
    temporaries inside a call count towards the peak.
    """

    def __init__(self):
        self.peak: Dict[int, int] = {}
        self._lock = threading.Lock()
        self._saved = []

    def _sample(self, allocator) -> None:
        config = allocator.config
        cells = round(
            allocator.occupancy() * config.user_registers * config.crossbars
        )
        key = id(allocator)
        with self._lock:
            if cells > self.peak.get(key, 0):
                self.peak[key] = cells

    def install(self) -> None:
        from repro.pim.malloc import Allocator

        for attr in ("allocate", "allocate_group", "reserve_cells"):
            original = vars(Allocator)[attr]

            def probed(allocator, *args, _original=original, **kwargs):
                result = _original(allocator, *args, **kwargs)
                self._sample(allocator)
                return result

            self._saved.append((Allocator, attr, original))
            setattr(Allocator, attr, probed)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def value(self) -> int:
        """The largest peak any single allocator (device) reached."""
        return max(self.peak.values(), default=0)


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def source_digest(root: Path) -> str:
    """SHA-256 over ``src/repro`` (the checkout need not be a git repo)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path) -> Optional[str]:
    """HEAD of the checkout, or ``None`` when it is not a git work tree."""
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def provenance(root: Path, seed: int, params: dict) -> dict:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(root),
        "src_sha256": source_digest(root),
        "seed": seed,
        "params": params,
        "simulator_validation": (
            "unvalidated against hardware: the repository holds no measured "
            "reference, so no simulator error figure is given"
        ),
    }

