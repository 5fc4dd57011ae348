"""Per-layer metrics of a traced run and the verdicts on the ROADMAP's
three hotspot leads.

Set-up metrics (compile, lowering, gate building, capture, optimizer,
replay-plan build, cache misses) cover the one traced cold set-up.
Every other time or count is per warm call (per request on
``serve_pooled``), taken from the traced warm calls; counters read from
the backends (cache hits, emission levels, replay engines, driver
micro-ops) use the traced and untraced warm calls alike, since tracing
does not change them.
"""

from __future__ import annotations

from collections import Counter
from statistics import median
from typing import Dict, List

#: The traced layers, for the per-layer self-time split.
LAYERS = ("pim", "backend", "driver", "sim", "pool", "serve")

#: Claimed shares from the ROADMAP's profile, and the tolerance within
#: which a measured share confirms a claim.
LEAD1_CLAIM = 0.56
LEAD2_CLAIM = 0.37
SHARE_TOLERANCE = 0.15


def backend_counters(devices) -> Counter:
    """Cumulative counters summed over the devices' backends."""
    total: Counter = Counter()
    for device in devices:
        backend = device.backend
        hits, misses, evictions = backend.cache_counters()
        total["cache.hits"] += hits
        total["cache.misses"] += misses
        total["cache.evictions"] += evictions
        for key, value in backend.emit_counters().items():
            total["emit." + key] += value
        for key, value in backend.replay_counters().items():
            total["replay." + key] += value
        driver = getattr(backend, "driver", None)
        if driver is not None:
            total["driver.macro"] += driver.macro_count
            total["driver.micro"] += driver.micro_count
        total["micro_ops"] += backend.stats.micro_ops
    return total


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(setup_tr, warm_tr, setup_wall: float, counters: Dict[str, Counter],
              untraced: List, traced: List, requests_per_call: int,
              extras: Dict[str, float], cycles: float, gap: float,
              cells_peak: int) -> Dict[str, float]:
    """All per-layer metrics; a metric that does not apply reads 0."""
    n = max(len(traced), 1) * requests_per_call
    n_warm = max(len(untraced) + len(traced), 1) * requests_per_call
    warm = counters["end"] - counters["setup"]
    per_call = lambda name: warm_tr.seconds(name) / n  # noqa: E731
    calls = lambda name: warm_tr.calls(name) / n  # noqa: E731
    sim_s = warm_tr.seconds("sim.execute") + warm_tr.seconds("sim.execute_program")
    hits, misses = warm["cache.hits"], warm["cache.misses"]
    untraced_s = median(c.seconds for c in untraced)
    traced_s = median(c.seconds for c in traced)

    metrics = {
        "sim.execute.calls": calls("sim.execute"),
        "sim.execute_s": per_call("sim.execute"),
        "sim.uops_per_s": _ratio(counters["traced"]["micro_ops"], sim_s),
        "sim.execute_program_s": per_call("sim.execute_program"),
        "sim.replay.vectorized": warm["replay.vectorized"] / n_warm,
        "sim.replay.thunk": warm["replay.thunk"] / n_warm,
        "sim.replay.fallback_ops": extras.get("sim.replay.fallback_ops", 0),
        "sim.replay.plan_build_s": setup_tr.seconds("sim.replay.plan_build"),
        "sim.replay.lane_share": _ratio(
            warm_tr.seconds("sim.replay.lane"),
            warm_tr.seconds("sim.execute_program")),
        "sim.cycles_per_call": cycles,
        "sim.theory_gap": gap,
        "driver.compile_s": setup_tr.seconds("driver.compile"),
        "driver.lower_s": setup_tr.seconds("driver.lower"),
        "driver.gate_build_s": setup_tr.seconds("driver.gates"),
        "driver.gate_build_share": _ratio(
            setup_tr.seconds("driver.gates"), setup_wall),
        "driver.micro_ops": warm["driver.micro"] / n_warm,
        "driver.macro_ops": warm["driver.macro"] / n_warm,
        "driver.emit_uops_per_s": extras.get("driver.emit_uops_per_s", 0.0),
        "backend.emit.stream": warm["emit.stream"] / n_warm,
        "backend.emit.macro": warm["emit.macro"] / n_warm,
        "backend.cache.hits": hits / n_warm,
        "backend.cache.misses": counters["setup"]["cache.misses"],
        "backend.cache.evictions": counters["end"]["cache.evictions"],
        "backend.cache.hit_ratio": _ratio(hits, hits + misses),
        "pim.compile.capture_s": setup_tr.seconds("pim.compile.capture"),
        "pim.graph.lower_s": setup_tr.seconds("pim.graph.lower"),
        "pim.graph.instrs": extras.get("pim.graph.instrs", 0),
        "pim.optimizer.s": setup_tr.seconds("pim.optimizer"),
        "pim.optimizer.instrs_removed": extras.get(
            "pim.optimizer.instrs_removed", 0),
        "pim.optimizer.cycles_saved": extras.get("pim.optimizer.cycles_saved", 0),
        "pim.device.dma_s": per_call("pim.device.dma"),
        "pim.device.dma_bytes": warm_tr.counts["pim.device.dma_bytes"] / n,
        "pim.device.macros": warm_tr.counts["pim.device.macros"] / n,
        "pim.device.macros.move": warm_tr.counts["pim.device.macros.move"] / n,
        "pim.malloc.cells_peak": cells_peak,
        "pool.execute_s": per_call("pool.execute"),
        "pool.run_program_s": per_call("pool.run_program"),
        "pool.bridges": warm_tr.counts["pool.bridges"] / n,
        "pool.shard_imbalance": extras.get("pool.shard_imbalance", 0.0),
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    }
    for attr in ("execute", "run_stream", "compile", "run_program"):
        metrics[f"backend.{attr}_s"] = per_call(f"backend.{attr}")
        metrics[f"backend.{attr}.calls"] = calls(f"backend.{attr}")
    for key in ("serve.batches", "serve.batch_size_mean", "serve.handler_s",
                "serve.overhead_s", "serve.worker_busy_frac", "serve.timeouts",
                "serve.retries", "serve.sim_p50_s", "serve.sim_p99_s"):
        metrics[key] = extras.get(key, 0)
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = warm_tr.self_seconds(layer) / n
    return metrics


def verdicts(workload: str, metrics: Dict[str, float]) -> List[str]:
    """The ROADMAP's three hotspot leads, judged on their own workload."""
    lines = []
    if workload == "compiled_o3_sim":
        share = metrics["sim.replay.lane_share"]
        lines.append(
            f"lead 1 (warm simulator replay in sim.replay lane programs, "
            f"claimed ~{LEAD1_CLAIM:.0%}): measured {share:.1%} of "
            f"Simulator.execute_program time -> "
            f"{_confirm(share, LEAD1_CLAIM)}")
    if workload in ("fig13_cold_numpy", "serve_pooled"):
        share = metrics["driver.gate_build_share"]
        lines.append(
            f"lead 2 (cold NumPy-backend compile spent building gates, "
            f"claimed ~{LEAD2_CLAIM:.0%}): measured {share:.1%} of the "
            f"traced cold set-up -> {_confirm(share, LEAD2_CLAIM)}")
    if workload == "fig12_eager_sim":
        moves = metrics["pim.device.macros.move"]
        macros = metrics["pim.device.macros"]
        verdict = "confirmed" if moves > macros / 2 else "not confirmed"
        lines.append(
            f"lead 3 (eager z[::2].sum() is dominated by move "
            f"macro-instructions; ~450/call claimed at 8x64, n=512): "
            f"measured {moves:.0f} moves of {macros:.0f} macros per eager "
            f"myFunc at 4x16, n=64 -> {verdict} (moves are "
            f"{_ratio(moves, macros):.0%} of the macros)")
    return lines


def _confirm(measured: float, claimed: float) -> str:
    if abs(measured - claimed) <= SHARE_TOLERANCE:
        return f"confirmed (within {SHARE_TOLERANCE:.0%} of the claim)"
    if measured > claimed:
        return (f"confirmed as the hotspot, but larger than claimed (more "
                f"than {SHARE_TOLERANCE:.0%} above)")
    return f"not confirmed (more than {SHARE_TOLERANCE:.0%} below the claim)"
