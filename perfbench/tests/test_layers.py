"""The traced run's training-step split follows where each engine computes."""

import pytest

from perfbench import inputs
from perfbench.layers import install_offline
from perfbench.tracing import Tracer, self_times
from repro.data.dataset import QAOADataset
from repro.data.generation import GenerationConfig, generate_dataset
from repro.gnn.predictor import QAOAParameterPredictor
from repro.pipeline.training import Trainer, TrainingConfig


@pytest.fixture(scope="module")
def dataset():
    unit = inputs.pipeline_inputs(3).label_units[0][:2]
    records = []
    for call in unit:
        records.extend(generate_dataset(GenerationConfig(**call)))
    return QAOADataset(records)


def _step_spans(dataset, engine):
    model = QAOAParameterPredictor(
        arch="gin", p=1, hidden_dim=8, num_layers=1,
        feature_kind="degree_onehot", rng=0,
    )
    tracer = Tracer()
    install_offline(tracer)
    try:
        Trainer(model, TrainingConfig(epochs=2, batch_size=2, seed=0, engine=engine)).fit(dataset)
    finally:
        tracer.restore()
    assert not [m for m in tracer.missing if "realize" in m]
    return tracer.spans


def test_lazy_engine_computes_in_realize_under_backward(dataset):
    spans = _step_spans(dataset, "lazy")
    by_id = {s.id: s for s in spans}
    realizes = [s for s in spans if s.name == "nn.realize"]
    assert realizes
    assert any(by_id[s.parent].name == "nn.backward" for s in realizes if s.parent)
    selfs = self_times(spans)
    # The backward span's own time is recording; its realize child is not in it.
    backward = [s for s in spans if s.name == "nn.backward"]
    assert sum(selfs[s.id] for s in backward) < sum(s.duration for s in backward)


def test_eager_engine_never_realizes(dataset):
    spans = _step_spans(dataset, "eager")
    assert [s for s in spans if s.name == "nn.forward"]
    assert not [s for s in spans if s.name == "nn.realize"]
