"""Per-layer metrics of a traced run, and the machine fingerprint."""

from __future__ import annotations

import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np
from repro.data.generation import GenerationConfig
from repro.pipeline.training import TrainingConfig

from perfbench import stats
from perfbench.tracing import Span, self_times, within

# name -> (unit, end-to-end metric it should move)
PER_LAYER = {
    "qaoa.sim_calls": ("count", "label_graphs_per_s, eval_graphs_per_s, flywheel_cycle_s"),
    "qaoa.sim_self_s": ("s", "label_graphs_per_s, eval_graphs_per_s, flywheel_cycle_s"),
    "qaoa.bytes_computed": ("B", "label_graphs_per_s, eval_graphs_per_s, flywheel_cycle_s"),
    "runtime.tasks": ("count", "label_graphs_per_s"),
    "runtime.retried": ("count", "label_graphs_per_s"),
    "runtime.busy_s": ("s", "label_graphs_per_s"),
    "maxcut.cache_hit_ratio": ("ratio", "eval_graphs_per_s, flywheel_cycle_s"),
    "maxcut.optimum_s": ("s", "eval_graphs_per_s, flywheel_cycle_s"),
    "data.compile_s": ("s", "setup_s, train_epochs_per_s"),
    "graphs.features_s": ("s", "setup_s, train_epochs_per_s"),
    "nn.forward_ms": ("ms", "train_epochs_per_s"),
    "nn.backward_ms": ("ms", "train_epochs_per_s"),
    "nn.optim_ms": ("ms", "train_epochs_per_s"),
    "nn.realize_ms": ("ms", "train_epochs_per_s"),
    "nn.kernels_per_step": ("count", "train_epochs_per_s"),
    "nn.ops_per_step": ("count", "train_epochs_per_s"),
    "pipeline.train_loss_vs_const": ("ratio", "warmstart_gain_pp"),
    "pipeline.eval_prepare_s": ("s", "eval_graphs_per_s"),
    "pipeline.eval_optimize_s": ("s", "eval_graphs_per_s"),
    "flywheel.select_s": ("s", "flywheel_cycle_s"),
    "flywheel.relabel_s": ("s", "flywheel_cycle_s"),
    "flywheel.retrain_s": ("s", "flywheel_cycle_s"),
    "flywheel.gate_s": ("s", "flywheel_cycle_s"),
    "flywheel.publish_s": ("s", "flywheel_cycle_s"),
    "flywheel.labeled": ("count", "flywheel_cycle_s"),
    "flywheel.promoted": ("count", "flywheel_cycle_s"),
    "serving.http.transport_p50_ms": ("ms", "p50_ms, qps"),
    "serving.http.transport_p99_ms": ("ms", "p99_ms"),
    "serving.service_p50_ms": ("ms", "p50_ms"),
    "serving.service_p99_ms": ("ms", "p99_ms"),
    "serving.cache.hit_ratio": ("ratio", "p50_ms, qps"),
    "serving.cache.evictions": ("count", "p50_ms"),
    "serving.batcher.mean_occupancy": ("count", "p50_ms, qps"),
    "serving.batcher.wait_ms": ("ms", "p50_ms, qps"),
    "graphs.wl_hash_ms": ("ms", "p50_ms"),
    "graphs.features_ms": ("ms", "p50_ms"),
    "gnn.forward_ms": ("ms", "p50_ms"),
    "serving.fallback.share": ("ratio", "p99_ms"),
    "serving.fallback.share.fixed_angle": ("ratio", "p99_ms"),
    "serving.fallback.share.analytic": ("ratio", "p99_ms"),
    "serving.fallback.share.random": ("ratio", "p99_ms"),
    "serving.fallback.ms": ("ms", "p99_ms"),
    "flywheel.replay.logged": ("count", "p50_ms, qps"),
    "flywheel.replay.drops": ("count", "p50_ms, qps"),
    "flywheel.replay.append_ms": ("ms", "p50_ms, qps"),
    "trace.offline_overhead": ("ratio", "all offline metrics"),
    "trace.serving_overhead": ("ratio", "qps, p50_ms, p99_ms"),
}


def _self_total(spans: List[Span], name: str) -> float:
    chosen = [s for s in spans if s.name == name]
    if not chosen:
        return 0.0
    selfs = self_times(spans)
    return float(sum(selfs[s.id] for s in chosen))


def _total(spans: List[Span], name: str) -> float:
    return float(sum(s.duration for s in spans if s.name == name))


def _mean_ms(spans: List[Span], name: str) -> float:
    durations = [s.duration for s in spans if s.name == name]
    return 1e3 * stats.mean(durations)


def _mean_self_ms(spans: List[Span], name: str) -> float:
    selfs = self_times(spans)
    return 1e3 * stats.mean(selfs[s.id] for s in spans if s.name == name)


def offline_layers(pipeline, spans: List[Span], engine_steps: Dict[str, float]) -> dict:
    """Offline per-layer metrics. Counts and most times are taken over
    pass 0, which is the same work in every run; the training step
    breakdown uses the warm refits of the rounds."""
    pass0 = within(spans, "stage.pass0")
    # Stage spans are inclusive: a flywheel stage's time covers the
    # simulator and training calls it makes.
    sims = [s for s in pass0 if s.name == "qaoa.sim"]
    first_reports = pipeline.runtime_reports[: pipeline.pass0_label_calls]
    hits = sum(c.hits for c in pipeline.pass0_caches)
    lookups = hits + sum(c.misses for c in pipeline.pass0_caches)
    warm = [
        s for s in within(spans, "stage.train") if s.start >= pipeline.pass0_end
    ]
    steps = sum(1 for s in warm if s.name == "nn.backward")
    per_step = (lambda name: 1e3 * _self_total(warm, name) / steps) if steps else (lambda name: 0.0)
    phases: Dict[str, float] = {}
    for profiler in pipeline.eval_profilers[: pipeline.pass0_profilers]:
        for name, phase in (profiler.report() or {}).get("phases", {}).items():
            phases[name] = phases.get(name, 0.0) + phase["total_s"]
    fly = within(spans, "stage.flywheel")
    cycles = max(1, sum(1 for s in fly if s.name == "stage.flywheel"))
    first_cycle = pipeline.cycle_reports[0]
    return {
        "qaoa.sim_calls": len(sims),
        "qaoa.sim_self_s": _self_total(pass0, "qaoa.sim"),
        "qaoa.bytes_computed": pipeline.pass0_sim_bytes,
        "runtime.tasks": sum(r.total_tasks for r in first_reports),
        "runtime.retried": sum(r.retried for r in first_reports),
        "runtime.busy_s": sum(r.wall_time for r in first_reports),
        "maxcut.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "maxcut.optimum_s": _self_total(pass0, "maxcut.optimum"),
        "data.compile_s": _self_total(pass0, "data.compile"),
        "graphs.features_s": _self_total(pass0, "graphs.features"),
        "nn.forward_ms": per_step("nn.forward"),
        "nn.backward_ms": per_step("nn.backward"),
        "nn.optim_ms": per_step("nn.optim"),
        "nn.realize_ms": per_step("nn.realize"),
        "nn.kernels_per_step": engine_steps.get("kernels", 0.0),
        "nn.ops_per_step": engine_steps.get("ops", 0.0),
        "pipeline.train_loss_vs_const": pipeline.val_mse / pipeline.const_mse,
        "pipeline.eval_prepare_s": phases.get("prepare", 0.0),
        "pipeline.eval_optimize_s": phases.get("optimize", 0.0),
        "flywheel.select_s": _total(fly, "flywheel.select") / cycles,
        "flywheel.relabel_s": _total(fly, "flywheel.relabel") / cycles,
        "flywheel.retrain_s": _total(fly, "flywheel.retrain") / cycles,
        "flywheel.gate_s": _total(fly, "flywheel.gate") / cycles,
        "flywheel.publish_s": _total(fly, "flywheel.publish") / cycles,
        "flywheel.labeled": first_cycle.get("labeled", 0),
        "flywheel.promoted": int(bool(first_cycle.get("promoted"))),
    }


def serving_layers(answered, spans: List[Span], before: dict, after: dict) -> dict:
    """Serving per-layer metrics over the timed windows; ``answered``
    pairs each valid client sample with its parsed answer."""
    client_ms = np.array([s.latency_s * 1e3 for s, _ in answered])
    service_ms = np.array([a["latency_ms"] for _, a in answered])
    transport = client_ms - service_ms
    requests = after["requests"] - before["requests"]
    hits = after["cache_hits"] - before["cache_hits"]

    def evictions(snapshot: dict) -> int:
        cache = snapshot.get("cache", {})
        return sum(v for k, v in cache.items() if k.startswith("evictions"))

    def batcher(snapshot: dict, key: str) -> int:
        return sum(b.get(key, 0) for b in (snapshot.get("batcher") or {}).values())

    batches = batcher(after, "batches") - batcher(before, "batches")
    batched = batcher(after, "requests") - batcher(before, "requests")
    sources = {
        name: after["sources"].get(name, 0) - before["sources"].get(name, 0)
        for name in ("fixed_angle", "analytic", "random")
    }
    replay_after = after.get("flywheel", {})
    replay_before = before.get("flywheel", {})
    # Time a request spends in the batcher beyond the forward it joined.
    wait_ms = _mean_ms(spans, "serving.batcher") - _mean_ms(spans, "gnn.predict")
    share = (lambda n: n / requests) if requests else (lambda n: 0.0)
    return {
        "serving.http.transport_p50_ms": stats.percentile(transport, 50.0)[0],
        "serving.http.transport_p99_ms": stats.percentile(transport, 99.0)[0],
        "serving.service_p50_ms": stats.percentile(service_ms, 50.0)[0],
        "serving.service_p99_ms": stats.percentile(service_ms, 99.0)[0],
        "serving.cache.hit_ratio": share(hits),
        "serving.cache.evictions": evictions(after) - evictions(before),
        "serving.batcher.mean_occupancy": batched / batches if batches else 0.0,
        "serving.batcher.wait_ms": max(0.0, wait_ms),
        "graphs.wl_hash_ms": _mean_ms(spans, "graphs.wl_hash"),
        "graphs.features_ms": _mean_ms(spans, "graphs.features"),
        # ``predict`` less featurisation: batch assembly, the forward
        # and, on the lazy engine, the realize that runs the forward.
        "gnn.forward_ms": _mean_self_ms(spans, "gnn.predict"),
        "serving.fallback.share": share(sum(sources.values())),
        "serving.fallback.share.fixed_angle": share(sources["fixed_angle"]),
        "serving.fallback.share.analytic": share(sources["analytic"]),
        "serving.fallback.share.random": share(sources["random"]),
        "serving.fallback.ms": _mean_ms(spans, "serving.fallback"),
        "flywheel.replay.logged": replay_after.get("replay_logged", 0) - replay_before.get("replay_logged", 0),
        "flywheel.replay.drops": replay_after.get("replay_drops", 0) - replay_before.get("replay_drops", 0),
        "flywheel.replay.append_ms": _mean_ms(spans, "flywheel.replay.append"),
    }


# ---------------------------------------------------------------------------
# Fingerprint
# ---------------------------------------------------------------------------
def _cpu_model() -> Optional[str]:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit(root: Path) -> Optional[str]:
    if not (root / ".git").exists() or shutil.which("git") is None:
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def fingerprint(root: Path, seed: int, health: dict) -> dict:
    """Machine and configuration the numbers were measured on."""
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    try:
        from repro.nn.backends import get_backend_name

        backend = get_backend_name()
    except ImportError:
        backend = None
    cc = os.environ.get("CC") or "cc"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version")},
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "c_toolchain": shutil.which(cc) is not None,
        "tensor_engine": TrainingConfig().engine,
        "kernel_backend": backend,
        "labeling_backend": GenerationConfig().backend,
        "server_config": health.get("config"),
        "git_commit": _git_commit(root),
        "seed": seed,
    }
