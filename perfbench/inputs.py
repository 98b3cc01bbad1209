"""Seeded inputs of the benchmark.

Every input is derived from the workload seed through
``numpy.random.SeedSequence``, so one seed gives byte-identical labeling
configs, held-out graphs, replay traffic and HTTP request bodies.

The held-out graphs, the replay traffic and the request bodies are
drawn here, so a change to the program's graph generators cannot change
them. The labeled set is different: a labeling unit is a list of
``GenerationConfig`` seeds, and ``generate_dataset``, the program's
labeling entry point, draws those graphs with the program's own
sampler. A change to that sampler changes the labeled set, the model
and ``warmstart_gain_pp``; :func:`graphs_digest` of pass 0's labeled
graphs is in every run's details so that such a change is visible.

The serving traffic mix (sizes, share above 15 nodes, graph shape) is a
synthetic choice. The repository has no record of served traffic to
derive it from; the reason for each number is given where it is set.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.graphs.canonical import wl_canonical_hash
from repro.graphs.graph import Graph

Edges = List[Tuple[int, int]]

#: Regular-graph sizes of the offline pipeline. Every labeling and
#: evaluation unit holds the same number of graphs of each size, so a
#: unit costs about the same under every seed.
PIPELINE_SIZES = (5, 6, 7, 8, 9, 10)
#: Graphs per size in one labeling unit (6 graphs per unit).
LABEL_PER_SIZE = 1
#: Labeling units making up the labeled set (60 graphs).
LABEL_UNITS = 10
#: Held-out graphs per size in one evaluation unit (24 graphs per unit).
EVAL_PER_SIZE = 4
#: Evaluation units (288 held-out graphs); the warm-start gain is the
#: mean over all of them, enough for it to vary little between seeds.
EVAL_UNITS = 12
#: Labeled graphs held out of training to score the trained model
#: against the constant label-mean predictor.
VALIDATION_GRAPHS = 12

#: Distinct replay classes per pipeline size written before the
#: flywheel runs (12 in all); each one is requested twice, so the
#: selector sees a frequency signal.
REPLAY_PER_SIZE = 2

#: Miss pool size: larger than the server's default cache (4096
#: entries), so cycling through it in order misses an LRU cache on
#: every request, however fast the server gets.
MISS_POOL = 4608
#: Graphs requested before timing on the miss workload; WL-distinct
#: from the pool, so they warm the batcher without caching a pool graph.
MISS_WARMUP = 8
#: Hit pool size: every graph is requested once before timing.
HIT_POOL = 64
#: Share of serving draws above 15 nodes, past the paper model's
#: feature cap, which the fallback chain answers. Synthetic: chosen as a
#: minority so the model path sets ``p50_ms`` while ``p99_ms`` sees the
#: fallbacks. Small graphs repeat a WL class more often and are skipped,
#: so the deduplicated pools hold about 12% large graphs (the measured
#: share is in the details).
LARGE_SHARE = 0.1
#: Sizes the paper model answers itself: up to its 15-node feature cap;
#: from 6 up, because smaller sizes hold too few WL classes to fill the
#: miss pool with distinct graphs.
SERVE_NODES = (6, 15)
#: The smallest sizes past the cap, so a fallback request costs about
#: as much to parse and hash as a model request.
LARGE_NODES = (16, 20)
#: Timed answers compared bit for bit against an in-process service.
CHECK_SAMPLE = 24

# Stream tags: one independent SeedSequence branch per input kind.
_LABEL, _EVAL, _REPLAY, _MISS, _HIT, _CHECK, _MODEL = range(1, 8)


def derive(seed: int, *keys: int) -> int:
    """A 32-bit seed for the input stream ``keys`` of workload ``seed``."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def _rng(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *keys]))


# ---------------------------------------------------------------------------
# Graph generators
# ---------------------------------------------------------------------------
def random_regular_edges(
    n: int, degree: int, rng: np.random.Generator
) -> Edges:
    """A uniform-ish random ``degree``-regular simple graph on ``n`` nodes.

    Stub pairing with rejection; degrees above half the size are built
    as the complement of the complementary degree, which keeps the
    rejection rate low on small dense graphs.
    """
    if n * degree % 2 or not 0 < degree < n:
        raise ValueError(f"no {degree}-regular graph on {n} nodes")
    if degree > (n - 1) // 2 and n - 1 - degree > 0:
        sparse = set(random_regular_edges(n, n - 1 - degree, rng))
        return [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if (u, v) not in sparse
        ]
    if degree == n - 1:
        return [(u, v) for u in range(n) for v in range(u + 1, n)]
    stubs = np.repeat(np.arange(n), degree)
    for _ in range(10000):
        pairs = rng.permutation(stubs).reshape(-1, 2)
        edges = {tuple(sorted((int(u), int(v)))) for u, v in pairs}
        if len(edges) == len(pairs) and all(u != v for u, v in edges):
            return sorted(edges)
    raise RuntimeError(f"could not draw a {degree}-regular graph on {n} nodes")


def random_connected_edges(n: int, rng: np.random.Generator) -> Edges:
    """A random connected graph: a random tree plus up to ``n`` chords.

    The serving pools use these irregular graphs, not regular ones like
    the offline pipeline: 1-WL gives every ``d``-regular graph on ``n``
    nodes the same hash, so regular graphs cannot fill a pool of
    thousands of WL-distinct requests.
    """
    order = rng.permutation(n)
    edges = set()
    for i in range(1, n):
        parent = int(order[rng.integers(0, i)])
        edges.add(tuple(sorted((int(order[i]), parent))))
    for _ in range(int(rng.integers(0, n + 1))):
        u, v = rng.choice(n, size=2, replace=False)
        edges.add(tuple(sorted((int(u), int(v)))))
    return sorted(edges)


def regular_graphs(seed: int, unit: int, per_size: int) -> List[Graph]:
    """One held-out evaluation unit: ``per_size`` regular graphs per size."""
    rng = _rng(seed, _EVAL, unit)
    graphs = []
    for n in PIPELINE_SIZES:
        degrees = [d for d in range(2, n) if n * d % 2 == 0]
        for k in range(per_size):
            degree = int(degrees[rng.integers(0, len(degrees))])
            graphs.append(
                Graph.from_edges(
                    n,
                    random_regular_edges(n, degree, rng),
                    name=f"eval-u{unit}-n{n}-{k}",
                )
            )
    return graphs


def distinct_graphs(
    rng: np.random.Generator,
    count: int,
    nodes: Tuple[int, int],
    large_share: float = 0.0,
) -> List[Graph]:
    """``count`` connected graphs with pairwise-distinct 1-WL hashes.

    A seeded share of draws (``large_share``) uses :data:`LARGE_NODES`.
    Draws whose hash is already taken are skipped, so the result is
    deterministic in the seed.
    """
    seen = set()
    graphs: List[Graph] = []
    while len(graphs) < count:
        low, high = LARGE_NODES if rng.random() < large_share else nodes
        n = int(rng.integers(low, high + 1))
        graph = Graph.from_edges(n, random_connected_edges(n, rng))
        digest = wl_canonical_hash(graph)
        if digest not in seen:
            seen.add(digest)
            graphs.append(graph)
    return graphs


def graphs_digest(graphs: Iterable[Graph]) -> str:
    """SHA-256 over the node counts, edges and weights of ``graphs``, in order."""
    digest = hashlib.sha256()
    for graph in graphs:
        digest.update(
            json.dumps(
                [graph.num_nodes, [list(e) for e in graph.edges], list(graph.weights)],
                separators=(",", ":"),
            ).encode()
        )
    return digest.hexdigest()


def request_body(graph: Graph) -> bytes:
    """The ``/predict`` body for ``graph`` (compact, key-sorted JSON)."""
    return json.dumps(
        {"num_nodes": graph.num_nodes, "edges": [list(e) for e in graph.edges]},
        separators=(",", ":"),
        sort_keys=True,
    ).encode()


# ---------------------------------------------------------------------------
# Workload inputs
# ---------------------------------------------------------------------------
@dataclass
class PipelineInputs:
    """Inputs of the offline stages (label, train, evaluate, flywheel)."""

    #: Per labeling unit, the ``generate_dataset`` calls that make it:
    #: ``{"num_graphs", "min_nodes", "max_nodes", "seed"}``.
    label_units: List[List[Dict[str, int]]]
    eval_units: List[List[Graph]]
    #: Per evaluation unit, one evaluator seed per size group.
    eval_seeds: List[List[int]]
    replay_graphs: List[Graph]
    model_seed: int


def pipeline_inputs(seed: int) -> PipelineInputs:
    label_units = [
        [
            {
                "num_graphs": LABEL_PER_SIZE,
                "min_nodes": n,
                "max_nodes": n,
                "seed": derive(seed, _LABEL, unit, n),
            }
            for n in PIPELINE_SIZES
        ]
        for unit in range(LABEL_UNITS)
    ]
    eval_units = [
        regular_graphs(seed, unit, EVAL_PER_SIZE) for unit in range(EVAL_UNITS)
    ]
    rng = _rng(seed, _REPLAY)
    replay_graphs = [
        graph
        for n in PIPELINE_SIZES
        for graph in distinct_graphs(rng, REPLAY_PER_SIZE, (n, n))
    ]
    return PipelineInputs(
        label_units=label_units,
        eval_units=eval_units,
        eval_seeds=[
            [derive(seed, _EVAL, 1000 + u, n) for n in PIPELINE_SIZES]
            for u in range(EVAL_UNITS)
        ],
        replay_graphs=replay_graphs,
        model_seed=derive(seed, _MODEL),
    )


@dataclass
class ServingInputs:
    """Request bodies of one serving workload."""

    #: Requested before timing (the hit pool itself on ``hit``).
    warmup: List[bytes]
    #: Cycled through in order by the timed clients.
    pool: List[bytes]
    #: Pool indices whose answers are re-derived in process.
    check_indices: List[int]
    large_share: float


def serving_inputs(seed: int, workload: str) -> ServingInputs:
    if workload == "miss":
        graphs = distinct_graphs(
            _rng(seed, _MISS), MISS_WARMUP + MISS_POOL, SERVE_NODES, LARGE_SHARE
        )
        warmup, pool = graphs[:MISS_WARMUP], graphs[MISS_WARMUP:]
    elif workload == "hit":
        pool = distinct_graphs(
            _rng(seed, _HIT), HIT_POOL, SERVE_NODES, LARGE_SHARE
        )
        warmup = pool
    else:
        raise ValueError(f"unknown serving workload {workload!r}")
    bodies = [request_body(g) for g in pool]
    # Drawn from the head of the pool, which every run reaches.
    head = min(len(pool), 512)
    check = _rng(seed, _CHECK).choice(
        head, size=min(CHECK_SAMPLE, head), replace=False
    )
    return ServingInputs(
        warmup=[request_body(g) for g in warmup],
        pool=bodies,
        check_indices=sorted(int(i) for i in check),
        large_share=sum(g.num_nodes > 15 for g in pool) / len(pool),
    )
