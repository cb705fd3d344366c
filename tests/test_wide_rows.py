"""Monte Carlo trials beyond 64 vertices, as rows of several uint64 words.

Beyond 64 vertices distributions._rows packs a block's graphs as (T, n, W)
uint64 words, W = ceil(n / 64) > 1, and the batch kernels evaluate them;
helpers.sample_rows draws and packs such a block for many seeds.
Each piece is compared here with the per-graph form it stands for: the
rows of sample(model, seed).graph, a functional's fn on each graph's
Graph, and the harness's per-trial values.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from depgraphs import distributions, graphs, harness
from depgraphs.distributions import (_trial_values, blocks_from_text,
                                     connectivity_gadget,
                                     correlated_star, custom_blocks,
                                     edge_block_exact, erdos_renyi, sample)
from depgraphs.graphs import (Graph, batch_edges_between, clique_number,
                              count_edges_between, num_edges, row_graphs,
                              row_ints, row_words, vertex_mask, zero_rows)
from depgraphs.predicates import (Predicate, connected, degree_in_range,
                                  edge_count_statistic, edge_deviation_exceeds,
                                  edges_between_statistic, evaluate_rows,
                                  isolated_count_statistic, negate,
                                  parse_predicate)
from depgraphs.rng import derive_seed, derive_seeds

from helpers import sample_rows

WIDE_NS = (65, 127, 128, 129, 200)
SEEDS = (0, 7, 2 ** 64 - 1)


def _wide(graphs):
    """Graphs as (T, n, W) uint64 rows, split into words by Python int
    arithmetic."""
    n = graphs[0].n
    width = row_words(n)
    return np.array([[[row >> (64 * i) & (2 ** 64 - 1) for i in range(width)]
                      for row in g.rows] for g in graphs], dtype=np.uint64)


def _models(n, p):
    """One model of every kind at n: the coin kinds at p, an edge-block
    model at the a/m its edge count allows."""
    yield erdos_renyi(n, p)
    yield custom_blocks(n, p, blocks_from_text(n, "0 1 2 3; 5 9; 64 65 66"))
    yield correlated_star(n, p, 4)
    yield connectivity_gadget(n, p, 8)
    m = next(m for m in (3, 4, 5) if num_edges(n) % m == 0)
    yield edge_block_exact(n, 1 if p == 0 else m if p == 1 else 2, m)


@pytest.mark.parametrize("p", [0, 0.05, 1])
@pytest.mark.parametrize("n", WIDE_NS)
def test_sample_rows_are_the_words_of_sample(n, p):
    for model in _models(n, p):
        rows = sample_rows(model, SEEDS)
        assert rows.dtype == np.uint64
        assert rows.shape == (len(SEEDS), n, row_words(n))
        want = [sample(model, seed).graph.rows for seed in SEEDS]
        assert [tuple(row_ints(words)) for words in rows] == want, model
        assert [g.rows for g in row_graphs(rows)] == want, model


def _graphs(n):
    """Empty and complete graphs, sampled ones, and graphs whose only
    isolated vertex sits on either side of a word boundary, where n has
    one."""
    full = (1 << n) - 1
    gs = [Graph.empty(n), Graph.complete(n)]
    gs += [sample(erdos_renyi(n, p), seed).graph
           for p in (2 * math.log(n) / n, 0.3) for seed in (1, 2)]
    for v in sorted({0, 63, 64, n - 1} - {n}):
        gs.append(Graph(n, [0 if u == v else full ^ (1 << u) ^ (1 << v)
                            for u in range(n)]))
    return gs


WIDE_PREDICATES = ("connected", "not-connected", "isolated-vertex",
                   "degree-in:3:200", "true", "contains:k2", "contains:k3",
                   "contains:k4", "lacks:k3", "lacks:k4")


@pytest.mark.parametrize("n", (64,) + WIDE_NS)
def test_wide_kernels_match_fn(n):
    # at one word per row and at several
    gs = _graphs(n)
    rows = _wide(gs)
    a, b = tuple(sorted({0, 5, 63, 64, n - 1} - {n})), tuple(range(60, n, 3))
    preds = [parse_predicate(text) for text in WIDE_PREDICATES]
    preds += [negate(degree_in_range(3, 200)), edge_deviation_exceeds(1.5, a, b, 0.3),
              parse_predicate(f"edge-count:{gs[2].edge_count()}")]
    for pred in preds:
        got = pred.batch(rows)
        assert got.dtype == bool and got.shape == (len(gs),)
        assert got.tolist() == [pred(g) for g in gs], pred.name
    for stat in (edge_count_statistic(), isolated_count_statistic(),
                 edges_between_statistic(a, b)):
        got = stat.batch(rows)
        assert got.dtype == np.int64
        assert got.tolist() == [stat(g) for g in gs], stat.name


def test_wide_connected_on_sampled_blocks():
    # near the threshold some graphs of a block connect and some do not,
    # and a long path needs a round per vertex
    n = 150
    model = correlated_star(n, 1.2 * math.log(n) / n, 3)
    rows = sample_rows(model, derive_seeds(4, 0, 0, 40))
    path = Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])
    rows = np.concatenate([rows, _wide([path])])
    want = [connected()(g) for g in row_graphs(rows)]
    assert 0 < sum(want) < len(want) and want[-1]
    assert connected().batch(rows).tolist() == want


def test_functionals_without_a_kernel_take_each_graph():
    n = 70
    gs = _graphs(n)
    rows = _wide(gs)
    for text in ("contains:c4", "contains:path2"):
        pred = parse_predicate(text)
        assert pred.batch is None
        assert list(evaluate_rows(pred, rows)) == [pred(g) for g in gs], text
    clique = Predicate("clique-number", clique_number)
    assert evaluate_rows(clique, rows[:3]) == [clique_number(g) for g in gs[:3]]


def test_numpy_integer_vertices_keep_every_bit():
    # numpy integers name vertices and edges as Python ints do, past bit
    # 63 too; floats are still refused.  Edge 2414 is (68, 69).
    n = 70
    want = Graph.from_edges(n, [(0, 1), (68, 69)])
    assert Graph.from_edge_indices(n, np.array([0, 2414])) == want
    assert Graph.from_edges(n, [(np.int64(0), np.int64(1)),
                                (np.int64(68), np.int64(69))]) == want
    a, b = np.array([0, 68, 69]), np.array([1, 69])
    assert vertex_mask(a, n) == 1 | 3 << 68
    assert count_edges_between(want, a, b) == 2
    rows = _wide([want, Graph.empty(n)])
    assert batch_edges_between(rows, a, b).tolist() == [2, 0]
    pred = edge_deviation_exceeds(1.0, a, b, 0.1)
    assert [pred(want), pred(Graph.empty(n))] == [True, False]
    assert pred.batch(rows).tolist() == [True, False]
    for bad in (lambda: Graph.from_edges(n, [(0.0, 1)]),
                lambda: Graph.from_edge_indices(n, [2.0]),
                lambda: vertex_mask([1.5], n)):
        with pytest.raises(TypeError):
            bad()


@pytest.mark.parametrize("n,d", [(30, 3), (100, 3), (129, 8), (200, 70)])
def test_witness_kernel_matches_witness_beats_floor(n, d):
    # hub sets inside one word and, at d = 70, across two
    trial = harness._witness(correlated_star(n, 0.2, d), None, None)
    model = correlated_star(n, 0.2, d)
    seeds = derive_seeds(6, n, 0, 30)
    rows = sample_rows(model, seeds)
    gs = [sample(model, seed).graph for seed in seeds.tolist()]
    empty = Graph.empty(n)
    gs.append(empty)
    rows = np.concatenate([rows, zero_rows(1, n)])
    want = [trial.fn(g) for g in gs]
    assert trial.batch(rows).tolist() == want


def test_witness_kernel_decides_both_ways():
    # p near the floor gives witnesses that beat it and ones that do not
    for n, d in ((40, 3), (100, 3)):
        trial = harness._witness(correlated_star(n, 0.3, d), None, None)
        rows = sample_rows(correlated_star(n, 0.3, d), derive_seeds(2, n, 0, 60))
        want = [trial.fn(g) for g in row_graphs(rows)]
        assert 0 < sum(want) < len(want), (n, sum(want))
        assert trial.batch(rows).tolist() == want


@pytest.mark.parametrize("workers", [1, 2])
def test_run_trials_beyond_64_vertices_are_the_per_trial_values(workers, monkeypatch):
    # a small budget and two CPUs give two spans of several blocks at 2 workers
    monkeypatch.setattr(graphs, "BATCH_BYTES", 10000)
    monkeypatch.setattr(distributions, "_cpus", lambda: 2)
    witness = harness._witness(correlated_star(100, 0.1, 3), None, None)
    cases = [
        (erdos_renyi(65, 0.05), parse_predicate("connected")),
        (connectivity_gadget(129, 0.05, 8), parse_predicate("not-connected")),
        (correlated_star(100, 0.1, 3), witness),
        (edge_block_exact(128, 1, 4), parse_predicate("isolated-vertex")),
        (erdos_renyi(70, Fraction(1, 4)), parse_predicate("lacks:k4")),
        (erdos_renyi(66, 0.2), edge_count_statistic()),
    ]
    for point, (model, fn) in enumerate(cases):
        got = _trial_values(model, derive_seeds(5, point, 0, 9), 9, fn, workers)
        want = [fn(sample(model, derive_seed(5, point, t)).graph) for t in range(9)]
        assert got.tolist() == [float(v) for v in want]
