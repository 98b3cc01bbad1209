"""The closed-loop client against a live server: hit warm-up, schema."""

import pytest

from perfbench import inputs
from perfbench.client import ClosedLoop
from perfbench.workload import validate_answer
from repro.gnn.predictor import QAOAParameterPredictor
from repro.serving import PredictionService, ServingHTTPServer


@pytest.fixture()
def server():
    model = QAOAParameterPredictor(arch="gin", p=1, rng=0)
    service = PredictionService(model=model)
    http = ServingHTTPServer(service, port=0).start_background()
    try:
        yield http
    finally:
        http.close()


def _metrics(loop):
    return loop.connections[0].get_json("/metrics")


def test_hit_warmup_gives_a_full_hit_ratio(server):
    hit = inputs.serving_inputs(11, "hit")
    loop = ClosedLoop(server.port, hit.pool, clients=2)
    try:
        for i, body in enumerate(hit.warmup):
            status, _ = loop.connections[i % 2].request("POST", "/predict", body)
            assert status == 200
        before = _metrics(loop)
        loop.window(0.5)
        after = _metrics(loop)
    finally:
        loop.close()
    samples = loop.result.samples
    assert len(samples) > 2
    answers = [validate_answer(s.body) for s in samples]
    assert all(s.status == 200 for s in samples)
    assert all(a is not None and a["cached"] for a in answers)
    requests = after["requests"] - before["requests"]
    assert requests == len(samples)
    assert after["cache_hits"] - before["cache_hits"] == requests


def test_miss_pool_never_hits(server):
    miss = inputs.serving_inputs(11, "miss")
    loop = ClosedLoop(server.port, miss.pool, clients=2)
    try:
        loop.window(0.5)
        metrics = _metrics(loop)
    finally:
        loop.close()
    assert metrics["requests"] == len(loop.result.samples) > 2
    assert metrics["cache_hits"] == 0
    assert sorted(s.index for s in loop.result.samples) == list(range(len(loop.result.samples)))


def test_schema_check_rejects_malformed_answers():
    good = b'{"gammas": [0.1], "betas": [0.2], "p": 1, "source": "model", "cached": false, "latency_ms": 1.5}'
    assert validate_answer(good) is not None
    assert validate_answer(b"not json") is None
    assert validate_answer(good.replace(b'"model"', b'"oracle"')) is None
    assert validate_answer(good.replace(b"[0.1]", b"[0.1, 0.3]")) is None
