"""Properties and seed determinism of the benchmark's generated inputs."""

import json

import pytest

from perfbench import inputs
from repro.data.dataset import QAOADataset
from repro.data.generation import GenerationConfig, generate_dataset
from repro.graphs.canonical import wl_canonical_hash
from repro.serving.http import graph_from_payload
from repro.serving.service import ServingConfig


def _hashes(bodies):
    return [wl_canonical_hash(graph_from_payload(json.loads(b))) for b in bodies]


@pytest.fixture(scope="module")
def miss():
    return inputs.serving_inputs(7, "miss")


def test_miss_pool_is_distinct_and_outgrows_the_default_cache(miss):
    pool = _hashes(miss.pool)
    assert len(set(pool)) == len(pool)
    assert len(pool) > ServingConfig().cache_size
    assert not set(_hashes(miss.warmup)) & set(pool)


def test_large_share_is_recorded(miss):
    large = sum(json.loads(b)["num_nodes"] > 15 for b in miss.pool)
    assert miss.large_share == large / len(miss.pool)
    assert 0.05 < miss.large_share < 0.25


def test_hit_pool_is_distinct_and_warmed_whole():
    hit = inputs.serving_inputs(7, "hit")
    hashes = _hashes(hit.pool)
    assert len(hashes) == len(set(hashes)) == inputs.HIT_POOL
    assert hit.warmup == hit.pool


def test_check_sample_lies_in_the_pool_head(miss):
    assert len(miss.check_indices) == inputs.CHECK_SAMPLE
    assert all(0 <= i < 512 for i in miss.check_indices)


def test_same_seed_same_bytes_other_seed_other_bytes():
    a, b = inputs.serving_inputs(3, "hit"), inputs.serving_inputs(3, "hit")
    assert a.pool == b.pool and a.check_indices == b.check_indices
    assert inputs.serving_inputs(4, "hit").pool != a.pool
    p, q = inputs.pipeline_inputs(3), inputs.pipeline_inputs(3)
    assert p.label_units == q.label_units
    assert p.eval_seeds == q.eval_seeds and p.model_seed == q.model_seed
    assert [[g.edges for g in u] for u in p.eval_units] == [
        [g.edges for g in u] for u in q.eval_units
    ]
    assert [g.edges for g in p.replay_graphs] == [g.edges for g in q.replay_graphs]
    assert inputs.pipeline_inputs(4).label_units != p.label_units


def test_labeled_dataset_is_byte_identical_per_seed(tmp_path):
    unit = inputs.pipeline_inputs(5).label_units[0][:2]
    paths = []
    for attempt in range(2):
        records = []
        for call in unit:
            records.extend(generate_dataset(GenerationConfig(**call)))
        paths.append(tmp_path / f"d{attempt}.json")
        QAOADataset(records).save(paths[-1])
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_eval_units_hold_every_size_equally():
    unit = inputs.pipeline_inputs(1).eval_units[0]
    sizes = [g.num_nodes for g in unit]
    for n in inputs.PIPELINE_SIZES:
        assert sizes.count(n) == inputs.EVAL_PER_SIZE
    for g in unit:
        degrees = {sum(1 for e in g.edges if v in e) for v in range(g.num_nodes)}
        assert len(degrees) == 1


def test_graphs_digest_follows_the_graphs():
    a = inputs.pipeline_inputs(1).eval_units[0]
    b = inputs.pipeline_inputs(1).eval_units[0]
    assert inputs.graphs_digest(a) == inputs.graphs_digest(b)
    assert inputs.graphs_digest(a) != inputs.graphs_digest(a[::-1])
    assert inputs.graphs_digest(a) != inputs.graphs_digest(inputs.pipeline_inputs(2).eval_units[0])
