"""Which program functions the traced run wraps, layer by layer.

Each entry names a public function or method of the program and the
span name its calls are recorded under. Targets that a later version of
the program no longer has are skipped and listed as missing in the
traced result, so refactors degrade a layer metric to 0 instead of
breaking the benchmark.
"""

from __future__ import annotations

import contextlib
import importlib

from perfbench.tracing import Tracer


def _class(module: str, name: str):
    try:
        return getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError):
        return None


def _wrap_methods(tracer: Tracer, module: str, cls: str, methods, span: str, count=None):
    owner = _class(module, cls)
    if owner is None:
        tracer.missing.append(f"{module}.{cls}")
        return
    for method in methods:
        tracer.wrap(owner, method, span, count=count)


def _state_bytes(sim, *args, **kwargs) -> float:
    """Bytes of statevector the call computes on: rows x 2^n x 16 B."""
    rows = getattr(sim, "num_instances", 1)
    return float(rows * (1 << sim.num_qubits) * 16)


def install_offline(tracer: Tracer) -> None:
    """Wrap the layers the offline stages run through."""
    _wrap_methods(
        tracer, "repro.qaoa.simulator", "QAOASimulator",
        ("expectation", "expectation_and_gradient"), "qaoa.sim", _state_bytes,
    )
    _wrap_methods(
        tracer, "repro.qaoa.batched", "BatchedQAOASimulator",
        ("expectations", "expectations_and_gradients"), "qaoa.sim", _state_bytes,
    )
    _wrap_methods(
        tracer, "repro.maxcut.problem", "MaxCutProblem",
        ("cost_diagonal", "optimum"), "maxcut.optimum",
    )
    _wrap_methods(tracer, "repro.data.compiled", "CompiledDataset", ("__init__",), "data.compile")
    importlib.import_module("repro.gnn.batching")
    tracer.wrap_function("repro.graphs.features", "build_features", "graphs.features")
    _wrap_methods(tracer, "repro.gnn.predictor", "QAOAParameterPredictor", ("forward",), "nn.forward")
    _wrap_methods(tracer, "repro.nn.tensor", "Tensor", ("backward",), "nn.backward")
    # On the lazy engine, forward and backward only record graphs; the
    # compute runs here, when a value or gradient is first read.
    with contextlib.suppress(ImportError):
        importlib.import_module("repro.nn.realize")
    tracer.wrap_function("repro.nn.realize", "realize", "nn.realize")
    _wrap_methods(tracer, "repro.nn.optim", "Adam", ("step",), "nn.optim")
    _wrap_methods(tracer, "repro.nn.optim", "GradClipper", ("__call__",), "nn.optim")
    loop = importlib.import_module("repro.flywheel.loop")
    for attr, span in (
        ("select_candidates", "flywheel.select"),
        ("relabel_candidates", "flywheel.relabel"),
        ("fit_model", "flywheel.retrain"),
        ("gate_candidate", "flywheel.gate"),
    ):
        tracer.wrap(loop, attr, span)
    _wrap_methods(
        tracer, "repro.flywheel.versions", "VersionStore",
        ("stage_candidate", "promote_candidate", "record_promotion"),
        "flywheel.publish",
    )


def install_serving(tracer: Tracer) -> None:
    """Wrap the layers one ``/predict`` request runs through."""
    http = importlib.import_module("repro.serving.http")
    # Parsing is the first program call of a request: it opens the
    # request id that the request's later spans in this thread carry.
    tracer.wrap(http, "graph_from_payload", "serving.parse", starts_request=True)
    _wrap_methods(tracer, "repro.serving.service", "PredictionService", ("predict",), "serving.predict")
    importlib.import_module("repro.serving.cache")
    importlib.import_module("repro.serving.fallbacks")
    tracer.wrap_function("repro.graphs.canonical", "wl_canonical_hash", "graphs.wl_hash")
    _wrap_methods(tracer, "repro.serving.cache", "PredictionCache", ("get", "put"), "serving.cache")
    _wrap_methods(tracer, "repro.serving.batcher", "MicroBatcher", ("predict",), "serving.batcher")
    importlib.import_module("repro.gnn.batching")
    tracer.wrap_function("repro.graphs.features", "build_features", "graphs.features")
    # Not ``forward``: on the lazy engine the forward compute runs when
    # ``predict`` reads the output, after ``forward`` has returned.
    _wrap_methods(tracer, "repro.gnn.predictor", "QAOAParameterPredictor", ("predict",), "gnn.predict")
    _wrap_methods(tracer, "repro.serving.fallbacks", "FallbackChain", ("resolve",), "serving.fallback")
    _wrap_methods(tracer, "repro.flywheel.replay", "ReplayLog", ("log_prediction",), "flywheel.replay.append")

