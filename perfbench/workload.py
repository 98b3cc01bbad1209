"""One benchmark run: the whole system, offline pipeline plus HTTP serving.

A run goes through the paper's pipeline once, end to end, and then
alternates offline rounds with serving windows for its measured seconds:

1. set-up: imports and replay-log preparation (three times);
2. pass 0: label the training set, train the paper GIN, evaluate it
   against random initialisation on the held-out set, run one flywheel
   cycle, and save the checkpoint the server loads;
3. set-up, continued: ``repro serve`` start-up (three times);
4. measured: rounds of one labeling unit, one training run, one
   evaluation unit and one flywheel cycle on the same inputs as pass 0,
   each followed by a closed-loop serving window.

The stage figures are trimmed means (see ``stats.trimmed_mean``) over
the samples of pass 0 and of every round; the warm-start gain is pass
0's, and the serving figures come from the windows. Alternating spreads
every stage's samples over the whole measured stretch. Repeated units
must reproduce pass 0 exactly, which doubles as a determinism check.

Stage samples are also scaled to a reference speed. A shared machine
runs the same code at two speeds about 1.6x apart, switching every few
seconds, so the share of a run spent at the slow speed moved the stage
figures by up to a third between runs. Right before and right after
every stage call the benchmark times :func:`reference_loop`, a fixed
pure-Python loop of its own, and scales that call's samples by
``REFERENCE_S`` over the mean of the two. The loop slows with the
machine but not with the program, so a change to the program moves the
scaled figures as much as the raw ones. The raw samples and figures
are in the run's details.
"""

from __future__ import annotations

import contextlib
import json
import math
import shutil
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from perfbench import inputs as bench_inputs
from perfbench import stats
from perfbench.client import ClosedLoop, KeepAliveClient, Server, server_env
from perfbench.tracing import Tracer
from repro.data.dataset import QAOADataset
from repro.data.generation import GenerationConfig, generate_dataset
from repro.flywheel import FlywheelConfig, ReplayLog, run_cycle
from repro.gnn.predictor import QAOAParameterPredictor
from repro.maxcut.cache import ProblemCache
from repro.pipeline.evaluation import WarmStartEvaluator
from repro.pipeline.training import Trainer, TrainingConfig
from repro.profiling import EvaluationProfiler
from repro.serving import PredictionService
from repro.serving.registry import save_checkpoint

#: End-to-end metrics and their units (trace 0).
END_TO_END = {
    "setup_s": "s",
    "label_graphs_per_s": "1/s",
    "train_epochs_per_s": "1/s",
    "eval_graphs_per_s": "1/s",
    "flywheel_cycle_s": "s",
    "warmstart_gain_pp": "pp",
    "qps": "req/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
}

TRAIN_EPOCHS = 40
BATCH_SIZE = 32
#: Epochs of the process's first fit that are cold (engine set-up);
#: their time counts toward ``setup_s``, not the epoch rate.
COLD_EPOCHS = 2
#: Optimizer budget per arm of the warm-start comparison.
EVAL_ITERS = 10
#: Offline round + serving window pairs in the measured seconds.
ROUNDS = 10
SETUP_REPEATS = 3
#: Timed requests needed so that p99 has ten samples above it.
MIN_TIMED_REQUESTS = stats.samples_needed(99.0)
#: Closed-loop clients (one process, one keep-alive connection each).
CLIENTS = 2
SOURCES = ("model", "fixed_angle", "analytic", "random")
#: Iterations of :func:`reference_loop`, and the seconds they are taken
#: to last at reference speed: stage samples are reported as if the
#: machine ran the loop in ``REFERENCE_S``.
REFERENCE_ITERS = 200_000
REFERENCE_S = 0.010


def reference_loop() -> float:
    """Seconds a fixed pure-Python loop takes now: the machine's speed."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERS):
        total += i
    return time.perf_counter() - start


@dataclass
class Ledger:
    """Operations attempted and failed, with a reason for each failure."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


@dataclass
class Samples:
    #: Seconds per labeling call and per evaluation call, by graph size.
    label: Dict[int, List[float]] = field(default_factory=lambda: defaultdict(list))
    evaluate: Dict[int, List[float]] = field(default_factory=lambda: defaultdict(list))
    epochs: List[float] = field(default_factory=list)  # s per warm epoch
    cycles: List[float] = field(default_factory=list)  # s per cycle
    rounds: List[float] = field(default_factory=list)  # s per offline round
    reference: List[float] = field(default_factory=list)  # s per reference_loop


class Pipeline:
    """The offline stages, driven through the program's public entry points."""

    def __init__(self, seed: int, workdir: Path, ledger: Ledger):
        self.seed = seed
        self.workdir = workdir
        self.ledger = ledger
        self.inputs = bench_inputs.pipeline_inputs(seed)
        #: As measured, and scaled to reference speed.
        self.samples = Samples()
        self.scaled = Samples()
        self._reference_s = 0.0
        self.cold_s = 0.0
        self.label_records: Dict[int, list] = {}
        self.eval_results: Dict[int, list] = {}
        self.runtime_reports: list = []
        self.problem_caches: list = []
        self.cycle_reports: list = []
        self.weights: Optional[bytes] = None
        self.model = None
        self.replay_dir: Optional[Path] = None
        self.eval_profilers: list = []
        #: Set on traced runs: spans around each stage, the evaluation
        #: profiler, and engine counters over the warm refits.
        self.tracer: Optional[Tracer] = None
        self.engine_counters = None
        self.engine_totals = {"kernels": 0.0, "ops": 0.0, "steps": 0.0}
        self._cycle_index = 0
        self._first_fit = True

    def stage(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def _time_reference(self) -> None:
        self._reference_s = reference_loop()
        self.samples.reference.append(self._reference_s)

    def _scale(self) -> float:
        """The factor for the samples of the stage call that just ended:
        ``REFERENCE_S`` over the reference loop's mean time right before
        and right after it."""
        before = self._reference_s
        self._time_reference()
        return 2.0 * REFERENCE_S / (before + self._reference_s)

    # -- set-up ---------------------------------------------------------
    def prepare_replay(self, index: int) -> float:
        """Seeded in-process traffic into a fresh replay log; seconds taken."""
        directory = self.workdir / f"replay-{index}"
        start = time.perf_counter()
        log = ReplayLog(directory, seed=self.seed)
        service = PredictionService(replay_log=log)
        graphs = self.inputs.replay_graphs
        for graph in graphs + graphs:
            service.predict(graph)
        service.close()
        elapsed = time.perf_counter() - start
        self.replay_dir = directory
        return elapsed

    # -- stages -----------------------------------------------------------
    def label_unit(self, unit: int) -> list:
        records = []
        reports = []
        times = []
        with self.stage("stage.label"):
            for call in self.inputs.label_units[unit]:
                config = GenerationConfig(**call)
                executor = config.executor()
                start = time.perf_counter()
                records.extend(generate_dataset(config, executor=executor))
                times.append((call["min_nodes"], time.perf_counter() - start))
                reports.append(executor.last_report)
        scale = self._scale()
        for n, seconds in times:
            self.samples.label[n].append(seconds)
            self.scaled.label[n].append(seconds * scale)
        self.runtime_reports.extend(reports)
        ok = all(0.0 < r.approximation_ratio <= 1.0 for r in records)
        payload = [(r.gammas, r.betas, r.approximation_ratio) for r in records]
        previous = self.label_records.setdefault(unit, payload)
        self.ledger.check(ok, f"label unit {unit}: AR outside (0, 1]")
        self.ledger.check(
            previous == payload, f"label unit {unit}: relabel differs from pass 0"
        )
        return records

    def fit(self, train, validation):
        model = QAOAParameterPredictor(
            arch="gin", p=1, hidden_dim=32, num_layers=2,
            feature_kind="degree_onehot", rng=self.inputs.model_seed,
        )
        trainer = Trainer(
            model,
            TrainingConfig(
                epochs=TRAIN_EPOCHS, batch_size=BATCH_SIZE,
                seed=self.inputs.model_seed,
            ),
        )
        counters = None if self._first_fit else self.engine_counters
        before = counters.snapshot() if counters is not None else None
        with self.stage("stage.train"):
            history = trainer.fit(train)
        scale = self._scale()
        if before is not None:
            after = counters.snapshot()
            for key in ("kernels", "ops"):
                self.engine_totals[key] += after[key] - before[key]
            self.engine_totals["steps"] += TRAIN_EPOCHS * math.ceil(
                len(train) / BATCH_SIZE
            )
        times = list(history.epoch_times)
        if self._first_fit:
            self.cold_s = sum(times[:COLD_EPOCHS])
            times = times[COLD_EPOCHS:]
            self._first_fit = False
        self.samples.epochs.extend(times)
        self.scaled.epochs.extend(t * scale for t in times)
        weights = b"".join(
            np.ascontiguousarray(v).tobytes()
            for _, v in sorted(model.state_dict().items())
        )
        finite = all(math.isfinite(x) for x in history.losses)
        self.ledger.check(finite, "training loss went non-finite")
        if self.weights is None:
            self.weights = weights
        self.ledger.check(weights == self.weights, "retrained weights differ from pass 0")
        model.eval()
        val_mse = trainer.evaluate_loss(validation)
        return model, val_mse

    def evaluate_unit(self, unit: int, model) -> list:
        """Warm-start comparison on one unit, one evaluator per size."""
        graphs = self.inputs.eval_units[unit]
        comparisons = []
        times = []
        with self.stage("stage.eval"):
            for n, seed in zip(bench_inputs.PIPELINE_SIZES, self.inputs.eval_seeds[unit]):
                group = [g for g in graphs if g.num_nodes == n]
                cache = ProblemCache()
                kwargs = {}
                if self.tracer is not None:
                    kwargs["profiler"] = EvaluationProfiler()
                    self.eval_profilers.append(kwargs["profiler"])
                evaluator = WarmStartEvaluator(
                    p=1, optimizer_iters=EVAL_ITERS, rng=seed,
                    problem_cache=cache, **kwargs,
                )
                start = time.perf_counter()
                result = evaluator.evaluate_model(group, model)
                times.append((n, time.perf_counter() - start))
                self.problem_caches.append(cache)
                comparisons.extend(result.comparisons)
        scale = self._scale()
        for n, seconds in times:
            self.samples.evaluate[n].append(seconds)
            self.scaled.evaluate[n].append(seconds * scale)
        rows = [(c.random_ratio, c.strategy_ratio) for c in comparisons]
        finite = len(rows) == len(graphs) and all(
            math.isfinite(a) and math.isfinite(b) for a, b in rows
        )
        self.ledger.check(finite, f"eval unit {unit}: non-finite result")
        previous = self.eval_results.setdefault(unit, rows)
        self.ledger.check(previous == rows, f"eval unit {unit}: differs from pass 0")
        return comparisons

    def cycle(self, dataset) -> dict:
        """One flywheel cycle on a fresh store built from the same inputs."""
        self._cycle_index += 1
        base = self.workdir / f"cycle-{self._cycle_index}"
        shutil.copytree(self.replay_dir, base / "replay")
        dataset.save(base / "dataset.json")
        cache = ProblemCache()
        with self.stage("stage.flywheel"):
            start = time.perf_counter()
            report = run_cycle(
                base / "replay", base / "dataset.json", base / "store",
                FlywheelConfig.seeded(self.seed), problem_cache=cache,
            )
            seconds = time.perf_counter() - start
        self.samples.cycles.append(seconds)
        self.scaled.cycles.append(seconds * self._scale())
        self.problem_caches.append(cache)
        shutil.rmtree(base, ignore_errors=True)
        complete = {"promoted", "replay_records", "candidates", "labeled", "gate"} <= set(report)
        complete = complete and (report["promoted"] == ("fingerprint" in report))
        self.ledger.check(complete, f"flywheel cycle {self._cycle_index}: incomplete report")
        first = self.cycle_reports[0] if self.cycle_reports else report
        self.ledger.check(
            report.get("fingerprint") == first.get("fingerprint"),
            "flywheel cycles disagree on the promoted fingerprint",
        )
        self.cycle_reports.append(report)
        return report

    # -- schedule ---------------------------------------------------------
    def pass_zero(self):
        """Label -> train -> evaluate -> flywheel, once, in order."""
        self._time_reference()
        records = []
        for unit in range(len(self.inputs.label_units)):
            records.extend(self.label_unit(unit))
        self.labeled_digest = bench_inputs.graphs_digest(r.graph for r in records)
        held = bench_inputs.VALIDATION_GRAPHS
        self.dataset = QAOADataset(records)
        self.train_set = QAOADataset(records[:-held])
        self.validation = QAOADataset(records[-held:])
        self.model, self.val_mse = self.fit(self.train_set, self.validation)
        targets = self.train_set.targets()
        const = self.validation.targets() - targets.mean(axis=0)
        self.const_mse = float(np.mean(const ** 2))
        comparisons = []
        for unit in range(len(self.inputs.eval_units)):
            comparisons.extend(self.evaluate_unit(unit, self.model))
        self.gain_pp = float(np.mean([c.improvement for c in comparisons]))
        self.cycle(self.dataset)

    def round(self, index: int) -> None:
        start = time.perf_counter()
        self._time_reference()
        self.label_unit(index % len(self.inputs.label_units))
        self.fit(self.train_set, self.validation)
        self.evaluate_unit(index % len(self.inputs.eval_units), self.model)
        self.cycle(self.dataset)
        self.samples.rounds.append(time.perf_counter() - start)

    def save_checkpoint(self, path: Path) -> None:
        save_checkpoint(self.model, path)


# ---------------------------------------------------------------------------
# Serving
# ---------------------------------------------------------------------------
class Serving:
    """``repro serve`` children and the closed-loop load against them."""

    def __init__(self, workload: str, seed: int, root: Path, workdir: Path,
                 checkpoint: Path, ledger: Ledger):
        self.workload = workload
        self.inputs = bench_inputs.serving_inputs(seed, workload)
        self.root = root
        self.workdir = workdir
        self.checkpoint = checkpoint
        self.ledger = ledger
        self.env = server_env(root, workdir)
        self.server: Optional[Server] = None
        self.loop: Optional[ClosedLoop] = None
        self._spawns = 0
        self.health: dict = {}

    def _argv(self, traced: bool, spans: Optional[Path]) -> List[str]:
        args = ["serve", "--model", str(self.checkpoint), "--port", "0"]
        if self.workload == "miss":
            replay = self.workdir / f"serve-replay-{self._spawns}"
            args += ["--replay-log", str(replay)]
        if traced:
            launcher = str(self.root / "perfbench" / "launcher.py")
            return [sys.executable, launcher, str(spans)] + args
        return [sys.executable, "-m", "repro.cli"] + args

    def start(self, traced: bool = False, spans: Optional[Path] = None) -> float:
        """Spawn, wait for ``/healthz``, warm up; returns seconds taken."""
        self._spawns += 1
        log = self.workdir / f"server-{self._spawns}.log"
        start = time.perf_counter()
        self.server = Server(self._argv(traced, spans), self.env, log)
        self.server.wait_ready()
        self.loop = ClosedLoop(self.server.port, self.inputs.pool, CLIENTS)
        for status in self.loop.send_all(self.inputs.warmup):
            self.ledger.check(status == 200, f"warm-up request answered {status}")
        elapsed = time.perf_counter() - start
        self.health = self.get("/healthz")
        return elapsed

    def get(self, path: str) -> dict:
        conn = KeepAliveClient(self.server.port)
        try:
            return conn.get_json(path)
        finally:
            conn.close()

    def stop(self) -> None:
        if self.loop is not None:
            self.loop.close()
            self.loop = None
        if self.server is not None:
            self.server.stop()
            self.server = None


def validate_answer(body: bytes) -> Optional[dict]:
    """The parsed ``/predict`` answer if it matches the schema, else None."""
    try:
        answer = json.loads(body)
    except ValueError:
        return None
    if not isinstance(answer, dict):
        return None
    p = answer.get("p")
    ok = (
        isinstance(p, int) and p == 1
        and all(
            isinstance(answer.get(k), list) and len(answer[k]) == p
            and all(isinstance(x, float) and math.isfinite(x) for x in answer[k])
            for k in ("gammas", "betas")
        )
        and answer.get("source") in SOURCES
        and isinstance(answer.get("cached"), bool)
        and isinstance(answer.get("latency_ms"), (int, float))
        and answer["latency_ms"] >= 0
    )
    return answer if ok else None
