"""The four benchmark workloads.

A workload provides ``setup(rng)`` -- a cold ``pim.init`` (fresh driver
caches, no persistent cache directory) up to the first verified result
of every kernel from its warm path -- then ``measure(session, seconds,
rng)`` for the timed warm phase, ``close(session)``, and the
workload-specific figures of the traced run (``extras``).

Every result is checked against NumPy or ``repro.theory.golden`` (see
``refs.py``), and every simulated cycle count against the value pinned
here; a mismatch or an exception is a failed call.
"""

from __future__ import annotations

import asyncio
import itertools
from statistics import median
from time import perf_counter
from typing import Callable, Dict, List, Tuple

import numpy as np

import repro.pim as pim
from repro.arch.config import PIMConfig
from repro.driver.throughput import measure_driver_throughput
from repro.isa.dtypes import float32 as isa_f32, int32 as isa_i32
from repro.isa.instructions import ROp
from repro.pool.backend import PooledBackend
from repro.serve.server import CompiledWorkload, Server
from repro.sim.stats import throughput as eq1
from repro.theory.counts import theoretical_cycles

import refs
from harness import Call, HostProbe, SetupClock, Tally

#: Table III scale for Eq. (1): 64M-row parallelism at 300 MHz.
PAPER_PARALLELISM = 64 * 2**20
PAPER_FREQUENCY = 300e6


def my_func(a, b):
    """Figure 12: ``z = a * b + a`` and the strided reduction."""
    z = a * b + a
    return z[::2].sum()


def grad_terms(x, y):
    """The naive linear-regression gradient of benchmarks/test_graph_opt.py:
    a dead temporary, a foldable constant and a recomputed product for
    the optimizer to remove."""
    _ = x - y
    scale = pim.full(len(x), 0.5, dtype=pim.float32) * 4.0
    pred = x * y + x
    resid = x * y - x
    return pred, (resid * scale).sum()


def fma(a, b):
    """The serving workload's element-wise signature (full-array result)."""
    return a * b + a


def _fetch(out):
    """Host copy of a kernel result (tensor, scalar or tuple of both)."""
    if isinstance(out, tuple):
        return tuple(_fetch(item) for item in out)
    if hasattr(out, "to_numpy"):
        return out.to_numpy()
    return float(out)


def _matches(got, want) -> bool:
    if isinstance(want, tuple):
        return len(got) == len(want) and all(map(_matches, got, want))
    return refs.same_bits(np.float32(got) if isinstance(got, float) else got, want)


def _maybe_corrupt(value, corrupt: bool):
    if not corrupt:
        return value
    if isinstance(value, tuple):
        return (refs.corrupt(value[0]),) + value[1:]
    return refs.corrupt(value)


class Workload:
    """Closed-loop workload: one caller issues the next call when the last
    one has returned and been checked."""

    name = ""
    #: Cold set-ups per run; ``setup_s`` is their median.
    setup_repeats = 3
    #: Requests a warm call serves (``calls_per_s`` counts requests).
    requests_per_call = 1

    def __init__(self, corrupt_call: int = -1):
        self.tally = Tally()
        self.host = HostProbe()
        self.setup_clock = SetupClock(self.host)
        #: Index of the warm call whose output the self-check corrupts.
        self.corrupt_call = corrupt_call
        self._warm_calls = 0

    def params(self) -> dict:
        raise NotImplementedError

    def setup(self, rng: np.random.Generator):
        raise NotImplementedError

    def call(self, session, rng: np.random.Generator, corrupt: bool) -> Call:
        raise NotImplementedError

    def close(self, session) -> None:
        pass

    def devices(self, session) -> list:
        return [session["device"]]

    def extras(self, session, tracer) -> Dict[str, float]:
        return {}

    def sim_cycles(self, calls: List[Call]) -> Tuple[float, float]:
        """Simulated cycles per request and the gap to theoretical PIM."""
        good = [c for c in calls if c.ok] or calls
        cycles = median(c.cycles for c in good) / self.requests_per_call
        theory = median(c.theoretical for c in good) / self.requests_per_call
        return cycles, (cycles - theory) / theory if theory else 0.0

    def measure(self, session, seconds: float, rng, tracer=None,
                min_calls: int = 3) -> Tuple[List[Call], float]:
        calls: List[Call] = []
        start = perf_counter()
        while len(calls) < min_calls or perf_counter() - start < seconds:
            if tracer is not None:
                tracer.set_call(self._warm_calls)
            corrupt = self._warm_calls == self.corrupt_call
            self._warm_calls += 1
            probe = self.host.recent()
            began = perf_counter()
            try:
                calls.append(self.call(session, rng, corrupt))
            except Exception as exc:  # counted, never dropped
                self.tally.check(False, f"{self.name} call raised {exc!r}")
                calls.append(Call(perf_counter() - began, False))
            calls[-1].probe = probe
            calls[-1].loop_seconds = perf_counter() - began
        return calls, perf_counter() - start


class Fig12EagerSim(Workload):
    """Figure 12 ``myFunc``, eager on the bit-accurate simulator."""

    name = "fig12_eager_sim"
    setup_repeats = 5
    GEOMETRY = dict(crossbars=4, rows=16)
    N = 64
    #: (cycles, theoretical cycles) of one eager call.
    PINNED = (41240, 37299)

    def params(self):
        return {"geometry": self.GEOMETRY, "n": self.N, "dtype": "float32",
                "backend": "simulator", "mode": "eager"}

    def setup(self, rng):
        session = {"device": pim.init(backend="simulator", **self.GEOMETRY)}
        self.call(session, rng, corrupt=False)
        return session

    def call(self, session, rng, corrupt):
        a, b = refs.normal_floats(rng, self.N), refs.normal_floats(rng, self.N)
        want = refs.tree_sum((a * b + a)[::2])
        device = session["device"]
        before = device.stats_snapshot()
        start = perf_counter()
        x = pim.from_numpy(a, device=device)
        y = pim.from_numpy(b, device=device)
        got = float(my_func(x, y))
        del x, y
        seconds = perf_counter() - start
        delta = device.backend.stats.diff(before)
        cost = (delta.cycles, theoretical_cycles(delta))
        got = _maybe_corrupt(got, corrupt)
        ok = _matches(got, want) and cost == self.PINNED
        self.tally.check(ok, f"myFunc: got {got!r} want {want!r}, "
                             f"cycles {cost} pinned {self.PINNED}")
        return Call(seconds, ok, *cost)

    def extras(self, session, tracer):
        rate = measure_driver_throughput(
            session["device"].config, ROp.MUL, isa_f32,
            iterations=1000, unique_sequences=4,
        )
        return {"driver.emit_uops_per_s": rate.micro_per_second}


class _Kernel:
    """One compiled kernel: function, operand generators, NumPy reference."""

    def __init__(self, name: str, fn: Callable, operands, reference: Callable,
                 pinned: Tuple[int, int], capture: Tuple[int, int] = None,
                 op: ROp = None):
        self.name = name
        self.fn = fn
        self.operands = operands
        self.reference = reference
        self.pinned = pinned
        self.capture = capture or pinned
        self.op = op


def _run_kernel(device, kernel: _Kernel, compiled, rng, corrupt: bool,
                pinned: Tuple[int, int]) -> Tuple[Call, str]:
    """DMA-load fresh operands, run the kernel once, fetch and check."""
    host = [make(rng, n) for make, n in kernel.operands]
    want = kernel.reference(*host)
    before = device.stats_snapshot()
    start = perf_counter()
    tensors = [pim.from_numpy(values, device=device) for values in host]
    got = _fetch(compiled(*tensors))
    del tensors
    seconds = perf_counter() - start
    delta = device.backend.stats.diff(before)
    cost = (delta.cycles, theoretical_cycles(delta))
    got = _maybe_corrupt(got, corrupt)
    ok = _matches(got, want) and cost == pinned
    note = (f"{kernel.name}: cycles {cost} pinned {pinned}, "
            f"values {'ok' if _matches(got, want) else 'MISMATCH'}")
    return Call(seconds, ok, *cost), note


class _CompiledWorkload(Workload):
    """Kernels compiled with ``pim.compile``; a warm call replays each once."""

    GEOMETRY: dict = {}
    BACKEND = ""
    OPT_LEVEL = 0
    KERNELS: List[_Kernel] = []

    def setup(self, rng):
        device = pim.init(backend=self.BACKEND, **self.GEOMETRY)
        compiled = [pim.compile(k.fn, opt_level=self.OPT_LEVEL)
                    for k in self.KERNELS]
        session = {"device": device, "compiled": compiled, "first": {}}
        for kernel, fn in zip(self.KERNELS, compiled):
            # The capture call, then one replay: the first warm result
            # (building the replay plan belongs to set-up).
            for pinned in (kernel.capture, kernel.pinned):
                first, note = _run_kernel(device, kernel, fn, rng, False,
                                          pinned)
                self.tally.check(first.ok, note)
            session["first"][kernel.name] = first
            self.setup_clock.checkpoint()
        return session

    def call(self, session, rng, corrupt):
        device = session["device"]
        parts = [
            _run_kernel(device, kernel, fn, rng, corrupt and index == 0,
                        kernel.pinned)
            for index, (kernel, fn) in
            enumerate(zip(self.KERNELS, session["compiled"]))
        ]
        ok = all(call.ok for call, _ in parts)
        self.tally.check(ok, "; ".join(note for call, note in parts
                                       if not call.ok))
        return Call(
            sum(call.seconds for call, _ in parts), ok,
            sum(call.cycles for call, _ in parts),
            sum(call.theoretical for call, _ in parts),
        )

    def _probe_args(self, session, kernel):
        """Operands with the kernel's signature, to query its cache."""
        rng = np.random.default_rng(0)
        return [pim.from_numpy(make(rng, n), device=session["device"])
                for make, n in kernel.operands]

    def extras(self, session, tracer):
        out = {"pim.graph.instrs": 0, "sim.replay.fallback_ops": 0,
               "pim.optimizer.instrs_removed": 0,
               "pim.optimizer.cycles_saved": 0}
        for kernel, fn in zip(self.KERNELS, session["compiled"]):
            args = self._probe_args(session, kernel)
            out["pim.graph.instrs"] += len(fn.graph_for(*args).instructions)
            out["sim.replay.fallback_ops"] += fn.replay_info(*args).get(
                "fallback_ops", 0)
            report = fn.opt_report(*args)
            if report is not None:
                out["pim.optimizer.instrs_removed"] += (
                    report.macros_before - report.macros_after)
                out["pim.optimizer.cycles_saved"] += (
                    report.cycles_before - report.cycles_after)
        return out


def _float_pair(n):
    return [(refs.normal_floats, n), (refs.normal_floats, n)]


class CompiledO3Sim(_CompiledWorkload):
    """Figure 12 ``myFunc`` and ``grad_terms`` at ``opt_level=3``, replayed
    on the simulator's vectorized super-step engine."""

    name = "compiled_o3_sim"
    setup_repeats = 3
    GEOMETRY = dict(crossbars=4, rows=64)
    BACKEND = "simulator"
    OPT_LEVEL = 3
    N = 256
    KERNELS = [
        _Kernel("myFunc", my_func, _float_pair(N),
                lambda a, b: refs.tree_sum((a * b + a)[::2]),
                pinned=(54121, 48131), capture=(54226, 48131)),
        _Kernel("grad_terms", grad_terms, _float_pair(N),
                lambda a, b: (a * b + a,
                              refs.tree_sum((a * b - a) * np.float32(2.0))),
                pinned=(72049, 64757), capture=(91729, 82922)),
    ]

    def params(self):
        return {"geometry": self.GEOMETRY, "n": self.N, "dtype": "float32",
                "backend": "simulator", "opt_level": self.OPT_LEVEL,
                "kernels": [k.name for k in self.KERNELS]}


def _k_add(a, b):
    return a + b


def _k_sub(a, b):
    return a - b


def _k_mul(a, b):
    return a * b


def _k_div(a, b):
    return a / b


def _k_lt(a, b):
    return a < b


def _k_sum(x):
    return x.sum()


def _k_sort(x):
    return x.sort()


def _k_sine(x):
    return pim.cordic_sin(x)


def _elementwise(name, fn, op, make, n, pinned):
    nonzero = (lambda rng, size: refs.int_words(rng, size, nonzero=True)) \
        if make is refs.int_words else make
    return _Kernel(name, fn, [(make, n), (nonzero, n)],
                   lambda a, b, op=op: refs.elementwise(op, a, b),
                   pinned=pinned, op=op)


class Fig13ColdNumpy(_CompiledWorkload):
    """Every Figure 13 kernel compiled in a cold NumPy-backend session."""

    name = "fig13_cold_numpy"
    setup_repeats = 2
    GEOMETRY = dict(crossbars=64, rows=64)
    BACKEND = "numpy"
    N = 1024
    KERNELS = [
        _elementwise("Int Add", _k_add, ROp.ADD, refs.int_words, N, (185, 122)),
        _elementwise("Int Sub", _k_sub, ROp.SUB, refs.int_words, N, (194, 127)),
        _elementwise("Int Mult", _k_mul, ROp.MUL, refs.int_words, N,
                     (5390, 5120)),
        _elementwise("Int Div", _k_div, ROp.DIV, refs.int_words, N,
                     (17466, 15112)),
        _elementwise("Int <", _k_lt, ROp.LT, refs.int_words, N, (274, 261)),
        _elementwise("FP Add", _k_add, ROp.ADD, refs.normal_floats, N,
                     (6513, 5412)),
        _elementwise("FP Sub", _k_sub, ROp.SUB, refs.normal_floats, N,
                     (5599, 5091)),
        _elementwise("FP Mult", _k_mul, ROp.MUL, refs.normal_floats, N,
                     (6967, 6537)),
        _elementwise("FP Div", _k_div, ROp.DIV, refs.normal_floats, N,
                     (10640, 10100)),
        _elementwise("FP <", _k_lt, ROp.LT, refs.normal_floats, N, (572, 550)),
        _Kernel("FP Sum Reduce", _k_sum, [(refs.near_one, N)], refs.tree_sum,
                pinned=(59298, 52068)),
        _Kernel("FP Sort 1k", _k_sort, [(refs.gaussian, N)], np.sort,
                pinned=(126388, 70247)),
        _Kernel("CORDIC Sine", _k_sine, [(refs.angles, N)], refs.cordic_sin,
                pinned=(1177345, 1075096)),
    ]

    def params(self):
        return {"geometry": self.GEOMETRY, "n": self.N, "backend": "numpy",
                "opt_level": self.OPT_LEVEL,
                "kernels": [k.name for k in self.KERNELS]}

    def fig13_rows(self, session, driver_rates=None) -> List[str]:
        """The paper's Figure 13 rows at Table III scale (Eq. 1)."""
        lines = [
            "Figure 13 at Table III scale (64M rows, 300 MHz, Eq. 1); "
            f"kernels at n={self.N} on {self.GEOMETRY['crossbars']}x"
            f"{self.GEOMETRY['rows']}, numpy backend (charging the "
            "simulator's cycle model)",
            f"{'kernel':<14} {'cycles':>9} {'theory':>9} {'gap':>7} "
            f"{'PyPIM op/s':>11} {'theory op/s':>11} {'driver op/s':>11}",
        ]
        for kernel in self.KERNELS:
            first = session["first"][kernel.name]
            cycles, theory = first.cycles, first.theoretical
            driver = "n/a"
            if driver_rates is not None:
                rate = driver_rates[kernel.name]
                driver = f"{PAPER_PARALLELISM * rate / cycles:11.3e}"
            lines.append(
                f"{kernel.name:<14} {cycles:>9} {theory:>9} "
                f"{(cycles - theory) / theory:>7.1%} "
                f"{eq1(PAPER_PARALLELISM, cycles, PAPER_FREQUENCY):11.3e} "
                f"{eq1(PAPER_PARALLELISM, theory, PAPER_FREQUENCY):11.3e} "
                f"{driver:>11}"
            )
        return lines

    def driver_rates(self, session) -> Dict[str, float]:
        """Host-driver micro-op rate per kernel (the third Figure 13
        series); routines use the FP add rate, as the repo's Figure 13
        benchmarks do."""
        config = session["device"].config
        cache: Dict[Tuple, float] = {}
        rates = {}
        for kernel in self.KERNELS:
            op = kernel.op or ROp.ADD
            dtype = isa_i32 if kernel.operands[0][0] is refs.int_words \
                else isa_f32
            key = (op, dtype.name)
            if key not in cache:
                cache[key] = measure_driver_throughput(
                    config, op, dtype, iterations=1000, unique_sequences=4,
                ).micro_per_second
            rates[kernel.name] = cache[key]
        return rates


class TwoShardNumpyPool(PooledBackend):
    """``PooledBackend(workers=2, worker_backend="numpy")`` as a backend
    class: the server builds one backend per worker from a class, and its
    own ``workers`` argument would shadow the pool's."""

    def __init__(self, config, **kwargs):
        super().__init__(config, workers=2, worker_backend="numpy", **kwargs)


class _Timed:
    """A ``repro.serve.CompiledWorkload`` that also returns each request's
    cycle bill and handler seconds.

    ``CompiledWorkload.__call__`` ends in ``to_numpy``, which a scalar
    result (the strided sum) does not have, so a scalar signature replays
    the workload's own per-device handle after the same ``from_numpy``
    marshalling.
    """

    def __init__(self, fn, scalar: bool):
        self.workload = CompiledWorkload(fn)
        self.signature = self.workload.signature
        self.scalar = scalar
        self._ids = itertools.count()
        self.tracer = None

    def __call__(self, device, payload):
        if self.tracer is not None:
            self.tracer.set_call(("request", next(self._ids)))
        before = device.stats_snapshot()
        start = perf_counter()
        if self.scalar:
            handle = self.workload._compiled_for(device)
            value = float(handle(*(pim.from_numpy(values, device=device)
                                   for values in payload)))
        else:
            value = self.workload(device, payload)
        seconds = perf_counter() - start
        delta = device.backend.stats.diff(before)
        return value, delta.cycles, theoretical_cycles(delta), seconds


class ServePooled(Workload):
    """``repro.serve.Server`` over two pooled NumPy devices (two shards
    each), driven with the traffic shape of ``python -m repro.serve``:
    ``CLIENTS`` clients each send ``TURNS`` requests of one compiled model,
    turn ``t`` arriving at ``t * interval`` on the simulated clock, all
    submitted at once as ``serve_workload`` does (8 clients x 4 requests
    are the CLI's defaults). A warm call is one such round; the next round
    is submitted when every reply is back and arrives where the last one
    ended.

    The repository holds no measured traffic, so two choices are assumed:
    a seeded half of the clients call each signature, and the interval
    offers half of the two workers' simulated capacity (the CLI's default
    interval of 0 would let the backlog grow without bound).
    """

    name = "serve_pooled"
    setup_repeats = 3
    CONFIG = PIMConfig(crossbars=4, rows=64)
    N = 256
    WORKERS = 2
    CLIENTS = 8
    TURNS = 4
    requests_per_call = CLIENTS * TURNS
    PINNED = {"fma": (12584, 11629), "strided_sum": (54226, 48131)}
    #: Offered simulated load as a share of the two workers' capacity for
    #: the even mix (assumed; it must stay below 1).
    UTILIZATION = 0.5

    def params(self):
        return {"config": {"crossbars": self.CONFIG.crossbars,
                           "rows": self.CONFIG.rows},
                "n": self.N, "server_workers": self.WORKERS,
                "pool": "PooledBackend(workers=2, worker_backend='numpy')",
                "clients": self.CLIENTS, "turns": self.TURNS,
                "mix": "fma / strided_sum, half of the clients each",
                "interval_s": self.interval(),
                "offered_rate_per_s": self.CLIENTS / self.interval()}

    def interval(self) -> float:
        """Simulated seconds between one client's requests."""
        mean_cycles = sum(c for c, _ in self.PINNED.values()) / len(self.PINNED)
        capacity = self.WORKERS * self.CONFIG.frequency_hz / mean_cycles
        return self.CLIENTS / (self.UTILIZATION * capacity)

    def devices(self, session):
        return [worker.device for worker in session["server"].workers]

    def _expected(self, kind, a, b):
        z = a * b + a
        return z if kind == "fma" else refs.tree_sum(z[::2])

    def _check(self, kind, a, b, reply, corrupt) -> Tuple[bool, int, int]:
        value, cycles, theory, _ = reply
        value = _maybe_corrupt(value, corrupt)
        values_ok = _matches(value, self._expected(kind, a, b))
        ok = values_ok and (cycles, theory) == self.PINNED[kind]
        self.tally.check(ok, f"{kind}: cycles {(cycles, theory)} pinned "
                             f"{self.PINNED[kind]}, values "
                             f"{'ok' if values_ok else 'MISMATCH'}")
        return ok, cycles, theory

    def setup(self, rng):
        loop = asyncio.new_event_loop()
        server = Server(workers=self.WORKERS, config=self.CONFIG,
                        backend=TwoShardNumpyPool)
        handlers = {"fma": _Timed(fma, scalar=False),
                    "strided_sum": _Timed(my_func, scalar=True)}
        session = {"loop": loop, "server": server, "handlers": handlers,
                   "arrival": 0.0, "phases": {}}
        loop.run_until_complete(server.start())
        # First verified result of both signatures on every worker device.
        for worker in server.workers:
            for kind, handler in handlers.items():
                a = refs.normal_floats(rng, self.N)
                b = refs.normal_floats(rng, self.N)
                self._check(kind, a, b, handler(worker.device, (a, b)), False)
                self.setup_clock.checkpoint()
        return session

    def close(self, session):
        loop = session["loop"]
        loop.run_until_complete(session["server"].close())
        loop.close()

    def measure(self, session, seconds, rng, tracer=None, min_calls=3):
        # Host-side serving figures are kept apart for traced and
        # untraced calls, which a traced run interleaves.
        phase = session["phases"].setdefault(tracer is not None, {
            "handler_s": [], "latency": [], "seconds": 0.0})
        session["phase"] = phase
        for handler in session["handlers"].values():
            handler.tracer = tracer
        try:
            calls, elapsed = super().measure(session, seconds, rng, tracer,
                                             min_calls)
            phase["seconds"] += elapsed
            return calls, elapsed
        finally:
            for handler in session["handlers"].values():
                handler.tracer = None

    def call(self, session, rng, corrupt):
        kinds = rng.permutation(["fma", "strided_sum"] * (self.CLIENTS // 2))
        base, interval = session["arrival"], self.interval()
        requests = []
        for kind in kinds:
            for turn in range(self.TURNS):
                a = refs.normal_floats(rng, self.N)
                b = refs.normal_floats(rng, self.N)
                requests.append((kind, a, b, base + turn * interval))
        session["arrival"] = base + self.TURNS * interval
        server, handlers = session["server"], session["handlers"]

        async def request(kind, a, b, due):
            reply = await server.submit(handlers[kind], (a, b), arrival=due)
            return reply, perf_counter()

        async def round_():
            return await asyncio.gather(*(
                request(*args) for args in requests), return_exceptions=True)

        start = perf_counter()
        replies = session["loop"].run_until_complete(round_())
        seconds = perf_counter() - start
        ok, cycles, theory = True, 0, 0
        for index, ((kind, a, b, _), reply) in enumerate(zip(requests, replies)):
            if isinstance(reply, Exception):  # counted, never dropped
                self.tally.check(False, f"{kind} request raised {reply!r}")
                ok = False
                continue
            reply, done = reply
            phase = session["phase"]
            phase["handler_s"].append(reply[3])
            phase["latency"].append(done - start)
            good, spent, bound = self._check(kind, a, b, reply,
                                             corrupt and index == 0)
            ok, cycles, theory = ok and good, cycles + spent, theory + bound
        return Call(seconds, ok, cycles, theory)

    def extras(self, session, tracer):
        server = session["server"]
        metrics = server.metrics()
        imbalance = 0.0
        for device in self.devices(session):
            shard_cycles = [s.cycles for s in device.backend.worker_stats()]
            mean = sum(shard_cycles) / len(shard_cycles)
            if mean:
                imbalance = max(imbalance, max(shard_cycles) / mean)
        phase = session["phases"][True]
        handler_s, latency = phase["handler_s"], phase["latency"]
        return {
            "pool.shard_imbalance": imbalance,
            "serve.batches": metrics.batches,
            "serve.batch_size_mean": metrics.requests / max(metrics.batches, 1),
            "serve.handler_s": float(np.mean(handler_s)) if handler_s else 0.0,
            "serve.overhead_s": float(np.mean(np.subtract(latency, handler_s)))
            if latency else 0.0,
            "serve.worker_busy_frac": sum(handler_s) / max(
                phase["seconds"] * self.WORKERS, 1e-9),
            "serve.timeouts": metrics.timeouts,
            "serve.retries": metrics.retries,
            "serve.sim_p50_s": metrics.p50_latency_s,
            "serve.sim_p99_s": metrics.p99_latency_s,
        }


WORKLOADS = {cls.name: cls for cls in
             (Fig12EagerSim, CompiledO3Sim, Fig13ColdNumpy, ServePooled)}
