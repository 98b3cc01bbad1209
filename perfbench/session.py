"""One benchmark run: set-up, pass 0, interleaved rounds, checks, metrics."""

from __future__ import annotations

import json
import logging
import time
from pathlib import Path
from typing import List, Tuple

from repro.serving import PredictionService
from repro.serving.http import graph_from_payload
from repro.serving.registry import load_checkpoint

from perfbench import inputs as bench_inputs
from perfbench import stats
from perfbench.layers import install_offline
from perfbench.report import PER_LAYER, fingerprint, offline_layers, serving_layers
from perfbench.tracing import Tracer, from_payload
from perfbench.workload import (
    CLIENTS,
    END_TO_END,
    MIN_TIMED_REQUESTS,
    ROUNDS,
    SETUP_REPEATS,
    Ledger,
    Pipeline,
    Serving,
    validate_answer,
)

#: Untraced serving window of a traced run, the base of its overhead.
OVERHEAD_WINDOW_S = 3.0
#: Longest the serving phase may be stretched to reach enough samples.
EXTEND_LIMIT_S = 60.0


def _engine_counters():
    try:
        from repro.nn.realize import counters
    except ImportError:
        return None
    return counters


def run(workload: str, seed: int, seconds: float, trace: bool,
        root: Path, workdir: Path, import_s: float) -> Tuple[dict, dict]:
    """One run; ``import_s`` is how long importing the program took."""
    logging.getLogger("repro").setLevel(logging.WARNING)
    ledger = Ledger()
    pipeline = Pipeline(seed, workdir, ledger)
    checkpoint = workdir / "model.json"
    serving = Serving(workload, seed, root, workdir, checkpoint, ledger)
    tracer = None
    if trace:
        tracer = Tracer()
        install_offline(tracer)
        pipeline.tracer = tracer
        pipeline.engine_counters = _engine_counters()
    try:
        return _run(
            workload, seed, seconds, trace, root, workdir, import_s,
            ledger, pipeline, serving, tracer,
        )
    finally:
        serving.stop()
        if tracer is not None:
            tracer.restore()


def _run(workload, seed, seconds, trace, root, workdir, import_s,
         ledger, pipeline, serving, tracer):
    replay_s = [pipeline.prepare_replay(i) for i in range(SETUP_REPEATS)]

    # Measured: pass 0, then offline rounds alternating with serving
    # windows sized so that together they fill the run's seconds.
    # Pass 0 is the paper pipeline once, in order; it trains the model
    # the server loads and gives the warm-start gain.
    stage = pipeline.stage
    started = time.perf_counter()
    with stage("stage.pass0"):
        pipeline.pass_zero()
    pipeline.pass0_end = time.perf_counter()
    pipeline.pass0_label_calls = len(pipeline.runtime_reports)
    pipeline.pass0_caches = list(pipeline.problem_caches)
    pipeline.pass0_profilers = len(pipeline.eval_profilers)
    pipeline.pass0_sim_bytes = tracer.counts["qaoa.sim"] if tracer else 0.0
    pass0_s = pipeline.pass0_end - started
    pipeline.save_checkpoint(serving.checkpoint)

    # Server start-up, several times; the last server stays up. Set-up
    # time is not part of the measured seconds.
    server_s = []
    untraced_ms = None
    spans_path = workdir / "server-spans.json"
    for i in range(SETUP_REPEATS):
        last = i == SETUP_REPEATS - 1
        server_s.append(serving.start(traced=trace and last, spans=spans_path))
        if trace and i == SETUP_REPEATS - 2:
            serving.loop.window(OVERHEAD_WINDOW_S)
            untraced_ms = 1e3 * stats.mean(
                s.latency_s for s in serving.loop.result.samples
            )
        if not last:
            serving.stop()
    rounds_start = time.perf_counter()
    deadline = rounds_start + seconds - pass0_s
    before = serving.get("/metrics")
    loop = serving.loop
    for index in range(ROUNDS):
        with stage("stage.round"):
            pipeline.round(index)
        left = ROUNDS - index
        per_round = stats.median(pipeline.samples.rounds)
        remaining = deadline - time.perf_counter() - (left - 1) * per_round
        loop.window(max(1.0, remaining / left))
    extend_until = time.perf_counter() + EXTEND_LIMIT_S
    while len(loop.result.samples) < MIN_TIMED_REQUESTS and time.perf_counter() < extend_until:
        served = len(loop.result.samples)
        rate = served / sum(e - s for s, e in loop.result.windows)
        loop.window(max(1.0, (MIN_TIMED_REQUESTS - served) / max(rate, 1.0) + 0.5))
    after = serving.get("/metrics")
    measured_s = pass0_s + time.perf_counter() - rounds_start

    # Tracing overhead: the same round with and without the wrappers,
    # alternated twice. An untraced round takes the code path of a
    # timed run: no wrappers, stage spans, profilers or counters.
    overhead = {}
    offline_spans = list(tracer.spans) if tracer is not None else []
    if tracer is not None:
        counters = pipeline.engine_counters
        walls = {True: 0.0, False: 0.0}
        for traced in (False, True, False, True):
            tracer.restore()
            pipeline.tracer = tracer if traced else None
            pipeline.engine_counters = counters if traced else None
            if traced:
                install_offline(tracer)
            start = time.perf_counter()
            pipeline.round(0)
            walls[traced] += time.perf_counter() - start
        tracer.restore()
        pipeline.tracer = None
        pipeline.engine_counters = counters
        overhead["trace.offline_overhead"] = walls[True] / walls[False] - 1.0
        traced_ms = 1e3 * stats.mean(s.latency_s for s in loop.result.samples)
        overhead["trace.serving_overhead"] = traced_ms / untraced_ms - 1.0

    # Correctness: every timed answer, then a sample re-derived in process.
    samples = loop.result.samples
    answered = []
    for sample in samples:
        answer = validate_answer(sample.body) if sample.status == 200 else None
        if ledger.check(answer is not None, f"request {sample.index}: status {sample.status} or bad schema"):
            answered.append((sample, answer))
    _check_in_process(serving, samples, ledger)
    health = serving.health
    serving.stop()

    details = {
        "workload": workload,
        "fingerprint": fingerprint(root, seed, health),
        "measured_s": measured_s,
        "pass0_s": pass0_s,
        # The labeled graphs come from the program's own sampler; this
        # digest changes when that sampler does.
        "pass0_labeled_graphs_sha256": pipeline.labeled_digest,
        "round_s": pipeline.samples.rounds,
        "stage_samples_s": {
            "label_by_size": pipeline.samples.label,
            "eval_by_size": pipeline.samples.evaluate,
            "flywheel_cycle": pipeline.samples.cycles,
            "reference_loop": pipeline.samples.reference,
        },
        "window_s": [end - start for start, end in loop.result.windows],
        "setup": {
            "import_s": import_s, "replay_s": replay_s,
            "cold_epochs_s": pipeline.cold_s, "server_start_s": server_s,
        },
        "samples": {
            "label_calls": sum(map(len, pipeline.samples.label.values())),
            "warm_epochs": len(pipeline.samples.epochs),
            "eval_calls": sum(map(len, pipeline.samples.evaluate.values())),
            "flywheel_cycles": len(pipeline.samples.cycles),
            "requests": len(samples),
            "serving_windows": len(loop.result.windows),
            "clients": CLIENTS,
        },
        "serving_inputs": {
            "pool": len(serving.inputs.pool),
            "large_share": serving.inputs.large_share,
            "checked": len(serving.inputs.check_indices),
        },
        "failures": ledger.failures,
    }
    if trace:
        metrics = _per_layer(pipeline, tracer, offline_spans, loop, answered, before, after, spans_path, overhead)
        details["per_layer"] = _describe_layers(metrics)
        details["missing_wrap_targets"] = sorted(set(tracer.missing))
        details["train_loss_vs_const_flag"] = metrics["pipeline.train_loss_vs_const"]["value"] >= 1.0
    else:
        metrics, extra = _end_to_end(import_s, replay_s, server_s, pipeline, loop)
        details.update(extra)
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    return details, result


def _check_in_process(serving: Serving, samples, ledger: Ledger) -> None:
    """Sampled HTTP answers must equal an in-process service's, bit for bit."""
    first = {}
    for sample in samples:
        if sample.status == 200:
            first.setdefault(sample.index, sample.body)
    service = PredictionService(model=load_checkpoint(serving.checkpoint))
    try:
        for index in serving.inputs.check_indices:
            body = first.get(index)
            if body is None:
                ledger.check(False, f"check sample {index} was never answered")
                continue
            http = json.loads(body)
            local = service.predict(
                graph_from_payload(json.loads(serving.inputs.pool[index]))
            ).to_dict()
            same = all(http[k] == local[k] for k in ("gammas", "betas", "source"))
            ledger.check(same, f"request {index}: HTTP answer differs from in-process")
    finally:
        service.close()


def _end_to_end(import_s, replay_s, server_s, pipeline, loop):
    samples = loop.result.samples
    latencies_ms = [s.latency_s * 1e3 for s in samples]
    p50, _ = stats.percentile(latencies_ms, 50.0)
    p99, beyond = stats.percentile(latencies_ms, 99.0)
    counts = stats.per_second_counts((s.done for s in samples), loop.result.windows)
    setup_s = (
        import_s + stats.median(replay_s) + pipeline.cold_s + stats.median(server_s)
    )
    values = {
        "setup_s": setup_s,
        **_stage_figures(pipeline.scaled),
        "warmstart_gain_pp": pipeline.gain_pp,
        "qps": stats.percentile(counts, 50.0)[0],
        "p50_ms": p50,
        "p99_ms": p99,
    }
    metrics = stats.as_metrics({k: (v, END_TO_END[k]) for k, v in values.items()})
    extra = {
        "stage_figures_unscaled": _stage_figures(pipeline.samples),
        "reference_loop_s": {
            "trimmed_mean": stats.trimmed_mean(pipeline.samples.reference),
            "min": min(pipeline.samples.reference),
            "max": max(pipeline.samples.reference),
            "count": len(pipeline.samples.reference),
        },
        "p99_samples_beyond": beyond,
        "p99_supported": beyond >= stats.MIN_BEYOND,
        "qps_seconds": len(counts),
    }
    return metrics, extra


def _stage_figures(samples) -> dict:
    """The offline stage metrics from one set of stage samples."""
    sizes = bench_inputs.PIPELINE_SIZES
    label_mix = {n: bench_inputs.LABEL_PER_SIZE for n in sizes}
    eval_mix = {n: bench_inputs.EVAL_PER_SIZE for n in sizes}
    return {
        "label_graphs_per_s": stats.mix_rate(samples.label, label_mix),
        "train_epochs_per_s": 1.0 / stats.trimmed_mean(samples.epochs),
        "eval_graphs_per_s": stats.mix_rate(samples.evaluate, eval_mix),
        "flywheel_cycle_s": stats.trimmed_mean(samples.cycles),
    }


def _per_layer(pipeline, tracer, offline_spans, loop, answered, before, after, spans_path, overhead):
    totals = pipeline.engine_totals
    steps = totals["steps"]
    engine = {k: totals[k] / steps for k in ("kernels", "ops")} if steps and pipeline.engine_counters else {}
    values = offline_layers(pipeline, offline_spans, engine)
    server = from_payload(json.loads(spans_path.read_text()))
    tracer.missing.extend(m for m in server.missing if m not in tracer.missing)
    windows = loop.result.windows
    timed = [
        s for s in server.spans
        if any(start <= s.start < end for start, end in windows)
    ]
    values.update(serving_layers(answered, timed, before, after))
    values.update(overhead)
    return stats.as_metrics({k: (values[k], PER_LAYER[k][0]) for k in PER_LAYER})


def _describe_layers(metrics: dict) -> List[dict]:
    return [
        {"name": name, "value": m["value"], "unit": m["unit"], "moves": PER_LAYER[name][1]}
        for name, m in metrics.items()
    ]

