"""PyPIM layered benchmark: one process per workload, host and simulated
metrics, every output checked.

Run from the repository root::

    python3 perfbench/run.py --workload fig12_eager_sim --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --workload compiled_o3_sim --seed 1 --seconds 8 --trace 1
    python3 perfbench/run.py --all --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --self-check

Workloads (``BENCHMARK.json`` says why each was chosen):

- ``fig12_eager_sim``: Figure 12 ``myFunc`` eager on the bit-accurate
  simulator (4x16, n=64), fresh DMA-loaded inputs per call.
- ``compiled_o3_sim``: ``myFunc`` and the gradient terms of
  ``benchmarks/test_graph_opt.py`` through ``pim.compile(opt_level=3)``
  on the simulator (4x64, n=256); a call replays both on fresh inputs.
- ``fig13_cold_numpy``: every Figure 13 kernel compiled in a cold
  NumPy-backend session (64x64, n=1024); a call replays every kernel
  once. It prints the Figure 13 rows and, traced, the host-driver series.
- ``serve_pooled``: ``repro.serve.Server`` with two workers, each a
  two-shard ``PooledBackend`` of NumPy workers, fed in the traffic shape of
  ``python -m repro.serve`` (8 clients x 4 requests, all submitted at
  once). A call is one such round of 32 requests, half the clients on an
  element-wise and half on a strided-sum signature; the next round is
  sent when every reply is back (a closed loop).

With ``--trace 0`` the last line of standard output is a JSON object whose
``metrics`` are the ``end_to_end`` metrics of ``BENCHMARK.json``:
``setup_s`` (median over several cold set-ups, each from ``pim.init`` on
cold driver caches to the first verified result of every kernel; every
set-up but the one that serves the warm calls runs in a fresh process, so
none starts on process-wide caches an earlier one warmed),
``call_s_p50`` (median host time of a warm call; on ``serve_pooled`` of a
request: a round's host time over its 32 requests), ``calls_per_s`` (warm
calls, or requests, per host second of the timed phase: making inputs and
references, calling and checking, without the host probes) and
``peak_rss_mb`` (of the process that runs the warm calls). The lines before it print the same figures unscaled
(``*_raw``), the fastest call, ``call_s_p90`` (with >= 100 samples), the
simulated ``sim_cycles_per_call``, ``theory_gap`` and ``pim_cells_peak``,
``serve_p99_s`` (serving only) and ``error_rate``. Simulated figures are
deterministic and are checked exactly against the values pinned in
``workloads.py``; a mismatch counts as a failed call.

The three host times are rescaled to the host's usual speed: each call
(and each set-up) is divided by a ``HostProbe`` measured next to it and
multiplied by the probe's reference time. The host the benchmark was
tuned on (a shared 2-vCPU VM) changes speed by up to 2x for seconds to
minutes at a time, in CPU time as in wall time; unscaled medians then
spread by 20-45% between runs (interquartile range over median), the
fastest call by 10-30%, and the rescaled medians by 3-15%. A change that
makes the program faster or slower moves the rescaled figures as it moves
the raw ones; the raw figures stay in the output and in
``perfbench/out/``.

With ``--trace 1`` the run sets up once with tracing on, then alternates
untraced and traced warm calls for ``--seconds``, and reports the
``per_layer`` metrics (see ``layers.py``), the tracing overhead (median
traced call over median untraced call) and verdicts on the ROADMAP's
hotspot leads. Spans are written to ``perfbench/out/``.

The simulator is unvalidated against hardware: the repository holds no
measured reference, so no simulator error figure is given.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

#: Ambient settings that would change what is measured.
CLEARED_ENV = ("REPRO_CACHE_DIR", "REPRO_CACHE_SIZE", "REPRO_SIM_REPLAY",
               "REPRO_DRIVER_EMIT")

#: Longest a cold set-up in a fresh process may take.
CHILD_TIMEOUT_S = 120

#: A seed never used while tuning the benchmark.
HELD_OUT_SEED = 90210

#: Units of the figures printed besides the JSON metrics.
UNITS = {"call_s_p90": "s", "setup_s_raw": "s", "call_s_p50_raw": "s",
         "call_s_min_raw": "s", "calls_per_s_raw": "1/s",
         "host_probe_s": "s", "sim_cycles_per_call": "cycles",
         "theory_gap": "ratio", "pim_cells_peak": "cells",
         "serve_p99_s": "s", "error_rate": "ratio"}


def _load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _import_stack():
    """Import the repository's own ``src/repro``, never an installed copy."""
    package = ROOT / "src" / "repro" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"error: {package} not found; run from a full "
                         "checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if Path(repro.__file__).resolve() != package.resolve():
        raise SystemExit(f"error: imported {repro.__file__}, not {package}")


def _stream(seed: int, index: int) -> np.random.Generator:
    """Input stream ``index`` of a seed: 0 feeds the warm calls, 1 + i
    the ``i``-th cold set-up."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(index,)))


def _cold_setup(workload, rng):
    """One set-up from ``pim.init``: ``(session, raw s, rescaled s)``."""
    gc.collect()
    workload.setup_clock.start()
    session = workload.setup(rng)
    raw, scaled = workload.setup_clock.stop()
    return session, raw, scaled


def run(name: str, seed: int, seconds: float, trace: bool,
        setups: int = 0, corrupt_call: int = -1) -> dict:
    from harness import CellPeak, peak_rss_mb, provenance
    from workloads import WORKLOADS

    workload = WORKLOADS[name](corrupt_call)
    repeats = 1 if trace else (setups or workload.setup_repeats)
    cells = CellPeak()
    cells.install()
    try:
        if trace:
            result = _traced(workload, seed, seconds, cells)
        else:
            result = _untraced(workload, seed, seconds, cells, repeats)
    finally:
        cells.uninstall()
    result["metrics_extra"]["error_rate"] = (
        workload.tally.failed / max(workload.tally.attempted, 1))
    result.update(
        workload=name, trace=int(trace),
        requests_per_call=workload.requests_per_call,
        attempted=workload.tally.attempted, failed=workload.tally.failed,
        failures=workload.tally.notes, peak_rss_mb=peak_rss_mb(),
        provenance=provenance(ROOT, seed, dict(
            workload.params(), seconds=seconds, setup_repeats=repeats)),
    )
    return result


def setup_child(name: str, seed: int, index: int) -> dict:
    """Cold set-up ``index`` of a run, alone in this fresh process."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    session, raw, scaled = _cold_setup(workload, _stream(seed, 1 + index))
    workload.close(session)
    tally = workload.tally
    return {"raw": raw, "scaled": scaled, "attempted": tally.attempted,
            "failed": tally.failed, "notes": tally.notes}


def _setups_in_children(workload, seed: int, count: int):
    """Cold set-ups 1..count-1, each in a fresh interpreter, so none of
    them starts on caches an earlier set-up warmed (``repro.sim.replay``
    keeps process-wide ones). Returns their raw and rescaled seconds; a
    set-up that fails or crashes is counted as a failed call."""
    raw, scaled = [], []
    tally = workload.tally
    for index in range(1, count):
        command = [sys.executable, __file__, "--setup-child", str(index),
                   "--workload", workload.name, "--seed", str(seed)]
        try:
            done = subprocess.run(command, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            lines = done.stdout.strip().splitlines()
            report = json.loads(lines[-1]) if done.returncode == 0 else None
        except (subprocess.TimeoutExpired, IndexError, ValueError) as exc:
            done, report = exc, None
        if report is None:
            tail = getattr(done, "stderr", "") or ""
            tally.check(False, f"cold set-up {index} in a fresh process "
                               f"failed: {str(tail).strip()[-400:]}")
            continue
        tally.attempted += report["attempted"]
        tally.failed += report["failed"]
        tally.notes.extend(report["notes"])
        raw.append(report["raw"])
        scaled.append(report["scaled"])
    return raw, scaled


def _untraced(workload, seed, seconds, cells, repeats) -> dict:
    from harness import at_reference_speed

    setup_times, setup_scaled = _setups_in_children(workload, seed, repeats)
    # Set-up 0 runs here, the first in this process, and its session
    # serves the warm calls.
    session, raw, scaled = _cold_setup(workload, _stream(seed, 1))
    setup_times.insert(0, raw)
    setup_scaled.insert(0, scaled)
    gc.collect()
    try:
        calls, _ = workload.measure(session, seconds, _stream(seed, 0))
        extra = {}
        if workload.name == "serve_pooled":
            extra["serve_p99_s"] = session["server"].metrics().p99_latency_s
        if workload.name == "fig13_cold_numpy":
            extra["fig13_rows"] = workload.fig13_rows(session)
    finally:
        workload.close(session)
    per = workload.requests_per_call
    raw = [c.seconds / per for c in calls]
    scaled = [at_reference_speed(c.seconds / per, c.probe) for c in calls]
    loop_s = sum(at_reference_speed(c.loop_seconds, c.probe) for c in calls)
    raw_loop_s = sum(c.loop_seconds for c in calls)
    requests = per * len(calls)
    cycles, gap = workload.sim_cycles(calls)
    extra.update(
        call_s_p90=float(np.percentile(scaled, 90)) if len(scaled) >= 100
        else None,
        setup_s_raw=median(setup_times), call_s_p50_raw=median(raw),
        call_s_min_raw=min(raw), calls_per_s_raw=requests / raw_loop_s,
        host_probe_s=median(c.probe for c in calls),
        sim_cycles_per_call=cycles, theory_gap=gap,
        pim_cells_peak=cells.value(), samples=len(scaled),
        setup_times=setup_times, setup_scaled=setup_scaled,
        call_times=[c.seconds for c in calls],
        loop_times=[c.loop_seconds for c in calls],
        call_probes=[c.probe for c in calls],
    )
    return {
        "metrics": {
            "setup_s": median(setup_scaled),
            "call_s_p50": median(scaled),
            "calls_per_s": requests / loop_s,
        },
        "metrics_extra": extra,
    }


def _traced(workload, seed, seconds, cells) -> dict:
    from layers import backend_counters, per_layer, verdicts
    from spans import Tracer, instrumented

    setup_tr, warm_tr = Tracer(), Tracer()
    gc.collect()
    with instrumented(setup_tr):
        start = perf_counter()
        session = workload.setup(_stream(seed, 1))
        setup_wall = perf_counter() - start
    try:
        devices = workload.devices(session)
        counters = {"setup": backend_counters(devices), "traced": Counter()}
        rng = _stream(seed, 0)
        untraced, traced = [], []
        gc.collect()
        start = perf_counter()
        # Untraced and traced calls alternate, so the host's slow and fast
        # spells fall on both alike and the tracing overhead is their ratio.
        while len(traced) < 3 or perf_counter() - start < seconds:
            untraced += workload.measure(session, 0, rng, min_calls=1)[0]
            before = backend_counters(devices)
            with instrumented(warm_tr):
                traced += workload.measure(session, 0, rng, tracer=warm_tr,
                                           min_calls=1)[0]
            counters["traced"] += backend_counters(devices) - before
        counters["end"] = backend_counters(devices)
        cells_peak = cells.value()
        extras = workload.extras(session, warm_tr)
        extra = {}
        if workload.name == "fig13_cold_numpy":
            rates = workload.driver_rates(session)
            extras["driver.emit_uops_per_s"] = rates["FP Add"]
            extra["fig13_rows"] = workload.fig13_rows(session, rates)
    finally:
        workload.close(session)
    cycles, gap = workload.sim_cycles(traced)
    metrics = per_layer(setup_tr, warm_tr, setup_wall, counters, untraced,
                        traced, workload.requests_per_call, extras, cycles,
                        gap, cells_peak)
    OUT.mkdir(exist_ok=True)
    setup_tr.dump(str(OUT / f"spans-{workload.name}-setup.jsonl"))
    warm_tr.dump(str(OUT / f"spans-{workload.name}-warm.jsonl"))
    extra.update(verdicts=verdicts(workload.name, metrics),
                 traced_setup_s=setup_wall, warm_calls=len(traced),
                 untraced_calls=len(untraced))
    return {"metrics": metrics, "metrics_extra": extra}


def _report(result: dict, spec: dict) -> dict:
    """Print the human-readable block; return the contract's JSON line."""
    section = "per_layer" if result["trace"] else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in spec[section]}
    metrics = result["metrics"]
    if not result["trace"]:
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
    if set(wanted) != set(metrics):
        missing = sorted(set(wanted) - set(metrics))
        unknown = sorted(set(metrics) - set(wanted))
        raise SystemExit(f"error: metrics out of step with BENCHMARK.json "
                         f"{section}: missing {missing}, unknown {unknown}")
    prov = result["provenance"]
    extra = result["metrics_extra"]
    print(f"# perfbench {result['workload']} seed={prov['seed']} "
          f"trace={result['trace']} host={prov['host']} nproc={prov['nproc']} "
          f"python={prov['python']} numpy={prov['numpy']} "
          f"commit={prov['commit']} src_sha256={prov['src_sha256'][:16]}")
    print(f"# {prov['simulator_validation']}")
    for name in (m["name"] for m in spec[section]):
        print(f"{name:<28} {metrics[name]:.6g} {wanted[name]}")
    if not result["trace"]:
        samples = extra["samples"]
        setups = ", ".join(f"{t:.3f}" for t in extra["setup_times"])
        per = result["requests_per_call"]
        shape = f" of {per} requests each" if per > 1 else ""
        print(f"# setup_s is the median of {len(extra['setup_times'])} cold "
              f"set-ups, each in its own process (raw host seconds "
              f"{setups}); call figures over {samples} warm calls{shape}")
        for name, unit in UNITS.items():
            value = extra.get(name)
            shown = "n/a" if value is None else f"{value:.6g} {unit}"
            note = ""
            if name == "call_s_p90" and value is None:
                note = f" (needs >= 100 samples, have {samples})"
            if name == "serve_p99_s" and value is None:
                note = " (serving workload only)"
            print(f"{name:<28} {shown}{note}")
    else:
        print(f"# traced set-up {extra['traced_setup_s']:.3f} s; "
              f"{extra['untraced_calls']} untraced + {extra['warm_calls']} "
              f"traced warm calls")
        for line in extra["verdicts"]:
            print(f"# {line}")
    for line in extra.get("fig13_rows", []):
        print(f"# {line}")
    print(f"# attempted={result['attempted']} failed={result['failed']}")
    for note in result["failures"]:
        print(f"# FAILED: {note}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": wanted[name]}
                    for name in wanted},
    }


def _write(result: dict) -> None:
    OUT.mkdir(exist_ok=True)
    stem = (f"{result['workload']}-seed{result['provenance']['seed']}"
            f"-trace{result['trace']}")
    with open(OUT / f"{stem}.json", "w") as handle:
        json.dump(result, handle, indent=2, default=float)
    rows = result["metrics_extra"].get("fig13_rows")
    if rows:
        with open(OUT / f"fig13-trace{result['trace']}.txt", "w") as handle:
            handle.write("\n".join(rows) + "\n")


def self_check() -> int:
    """Every workload at minimum size on the held-out seed; the second
    warm call's output is deliberately corrupted and must be counted."""
    from workloads import WORKLOADS

    passed = True
    for name in WORKLOADS:
        result = run(name, HELD_OUT_SEED, seconds=0, trace=False, setups=1,
                     corrupt_call=1)
        good = result["failed"] == 1 and result["attempted"] >= 3
        passed &= good
        print(f"{name:<18} seed={HELD_OUT_SEED} attempted="
              f"{result['attempted']} failed={result['failed']} "
              f"error_rate={result['metrics_extra']['error_rate']:.3f} -> "
              f"{'ok' if good else 'FAIL'} (expects exactly the one "
              f"corrupted call to fail)")
        for note in result["failures"]:
            print(f"    {note}")
    print("self-check " + ("passed" if passed else "FAILED"))
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, one process each")
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--setup-child", type=int, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for var in CLEARED_ENV:
        os.environ.pop(var, None)
    _import_stack()
    spec = _load_spec()
    if args.self_check:
        return self_check()
    if args.setup_child is not None:
        print(json.dumps(setup_child(args.workload, args.seed,
                                     args.setup_child)))
        return 0
    from workloads import WORKLOADS

    names = [w["name"] for w in spec["workloads"]]
    if args.all:
        status = 0
        for name in names:
            done = subprocess.run([
                sys.executable, __file__, "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)])
            status = status or done.returncode
        return status
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    line = _report(result, spec)
    _write(result)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
