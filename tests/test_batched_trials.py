"""Batched Monte Carlo trials, checked against the per-trial path.

Up to 64 vertices the harness derives a block's seeds at once
(rng.derive_seeds), draws the block's graphs as bitset rows
(distributions.sample_rows) and evaluates them with a batch kernel.
sample_rows and sample pack latent values with the same packer
(distributions._rows, checked against Graph.from_edge_indices in
test_sampler_path), so comparing sample_rows with the rows of
sample(model, seed).graph checks the block draws: each trial's raw words
compared with a threshold a buffer at a time, and its keys picked a block
at a time.  The other pieces are compared with the per-trial forms they
stand for: derive_seed, and the trial function on one Graph.
"""

import itertools
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from depgraphs import graphs, harness, rng
from depgraphs.distributions import (_draw_latents, _independent_pairs,
                                     _latent_rows, _picks, _present,
                                     audit_model, blocks_from_text,
                                     connectivity_gadget, correlated_star,
                                     custom_blocks, edge_block_exact,
                                     erdos_renyi, sample, sample_rows)
from depgraphs.graphs import (Graph, batch_dtype, batch_size, clique_number,
                              num_edges, row_bytes, zero_rows)
from depgraphs.harness import ExperimentConfig
from depgraphs.predicates import (connected, degree_in_range, evaluate_rows,
                                  negate, parse_predicate)
from depgraphs.rng import derive_seed, derive_seeds

U64 = st.integers(0, 2 ** 64 - 1)
WIDE = st.integers(-2 ** 66, 2 ** 66) | U64


@settings(max_examples=200, deadline=None)
@given(WIDE, WIDE, WIDE, st.integers(0, 40))
@example(2 ** 64 - 1, 2 ** 63, 2 ** 64 - 3, 6)
@example(-1, -2 ** 63, -4, 8)
@example(2 ** 63 + 1, 0, 2 ** 63 - 2, 5)
def test_derive_seeds_match_derive_seed(master, point, start, count):
    seeds = derive_seeds(master, point, start, start + count)
    assert seeds.dtype == np.uint64
    assert seeds.tolist() == [derive_seed(master, point, t)
                              for t in range(start, start + count)]


def test_derive_seeds_of_an_empty_range():
    assert derive_seeds(1, 2, 5, 5).size == 0
    assert derive_seeds(1, 2, 5, 3).size == 0


# -- sample_rows against sample --------------------------------------------

@pytest.mark.parametrize("n,width,dtype", [
    (1, 1, np.uint8), (8, 1, np.uint8), (9, 1, np.uint16), (16, 1, np.uint16),
    (17, 1, np.uint32), (32, 1, np.uint32), (33, 1, np.uint64), (64, 1, np.uint64),
    (65, 2, np.uint64), (128, 2, np.uint64), (129, 3, np.uint64)])
def test_every_block_is_row_words_of_batch_dtype(n, width, dtype):
    # one layout at every n: (T, n, ceil(n / 64)) words, of the narrowest
    # unsigned dtype that holds a row up to 64 vertices, uint64 beyond
    rows = zero_rows(3, n)
    assert rows.shape == (3, n, width)
    assert rows.dtype == batch_dtype(n) == np.dtype(dtype)
    assert row_bytes(n) == zero_rows(1, n).nbytes


ROW_NS = (1, 2, 7, 8, 9, 16, 17, 63, 64)
ROW_PS = (0, 1, 2.0 ** -53)
ROW_SEEDS = (0, 1, 12345, 2 ** 63, 2 ** 63 + 5, 2 ** 64 - 1)


def _models(n, p):
    """Every kind that exists at n: the coin kinds at p, edge blocks at the
    a/m their block sizes allow."""
    yield erdos_renyi(n, p)
    L = num_edges(n)
    yield custom_blocks(n, p, blocks_from_text(n, " ".join(map(str, range(L // 2)))))
    for d in (1, 3, 8):
        for make in (correlated_star, connectivity_gadget):
            try:
                yield make(n, p, d)
            except ValueError:    # n too small for this construction
                pass
    for m in (1, 2, 3, 4, 5):
        if n >= 2 and L % m == 0:
            for a in sorted({1, max(1, m - 2), m}):
                yield edge_block_exact(n, a, m)


def _sampled_rows(model, seeds):
    return [list(sample(model, s).graph.rows) for s in seeds]


@pytest.mark.parametrize("p", ROW_PS)
@pytest.mark.parametrize("n", ROW_NS)
def test_sample_rows_are_the_rows_of_sample(n, p):
    kinds = set()
    for model in _models(n, p):
        rows = sample_rows(model, ROW_SEEDS)
        assert rows.dtype == batch_dtype(n) and rows.shape == (len(ROW_SEEDS), n, 1)
        assert rows[..., 0].tolist() == _sampled_rows(model, ROW_SEEDS), model
        kinds.add(model.kind)
    assert len(kinds) == (5 if n >= 7 else 2 + (n >= 2) + (n >= 3))


def test_sample_rows_across_blocks(monkeypatch):
    # a small budget splits one call into blocks of a few trials each
    seeds = derive_seeds(3, 1, 0, 23)
    models = [erdos_renyi(20, 0.3), correlated_star(33, Fraction(1, 3), 3),
              edge_block_exact(9, 1, 3), edge_block_exact(16, 2, 5)]
    want = [_sampled_rows(model, seeds.tolist()) for model in models]
    monkeypatch.setattr(graphs, "BATCH_BYTES", 5000)
    assert batch_size(20 * 32) < 23
    for model, rows in zip(models, want):
        assert sample_rows(model, seeds)[..., 0].tolist() == rows
    assert sample_rows(models[0], []).shape == (0, 20, 1)


class _Keys:
    """Stands in for a generator whose random() repeats the given keys."""

    def __init__(self, keys):
        self.keys = np.asarray(keys, dtype=float)

    def random(self, shape):
        return np.resize(self.keys, shape)


@pytest.mark.parametrize("n,m", [(4, 2), (3, 3)])
def test_single_picks_take_the_first_of_equal_keys(n, m):
    # every key row over {0, 1/2, 3/4}, ties at the minimum included: the
    # pick is the one argpartition(keys, 0) makes, on single draws and on
    # a draw of several trials into one array
    keys = list(itertools.product((0.0, 0.5, 0.75), repeat=m))
    model = edge_block_exact(n, 1, m)
    blocks = model.layout.block_count
    for row in keys:
        got = _draw_latents(model, _Keys([row]))
        want = np.argpartition(np.resize(row, (blocks, m)), 0, axis=1)[:, :1]
        assert np.array_equal(got, want), row
    out = np.empty((len(keys), blocks, 1), dtype=np.intp)
    stub = _Keys(keys)
    want = np.argpartition(stub.random(out.shape[:-1] + (m,)), 0, axis=-1)[..., :1]
    assert np.array_equal(_draw_latents(model, stub, out), want)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 9])
def test_single_picks_are_the_first_minimum(m):
    # integer-valued keys tie often; every pick is argmin's, the first of
    # the equal minima, with and without leading axes, also on the longer
    # rows where argpartition(keys, 0) may keep a later one
    gen = np.random.default_rng(m)
    for shape in ((m,), (200, m), (7, 40, m), (3, 5, 9, m)):
        keys = gen.integers(0, 3, shape).astype(float)
        got = _picks(keys, 1)
        assert got.shape == shape[:-1] + (1,)
        assert np.array_equal(got, keys.argmin(-1, keepdims=True)), shape


def _present_tallies(model, trials, seed, pairs):
    """The audit's pairs, per-edge counts and pair joints, tallied from a
    presence bitmap per batch of trials."""
    L = num_edges(model.n)
    gen = rng.generator(seed)
    pair_list = _independent_pairs(model, gen, pairs) if L >= 2 else []
    e1s = np.array([a for a, _ in pair_list], dtype=np.int64)
    e2s = np.array([b for _, b in pair_list], dtype=np.int64)
    values = _latent_rows(model, trials, 8 * L)
    counts = np.zeros(L, dtype=np.int64)
    joint = np.zeros(len(pair_list), dtype=np.int64)
    for start in range(0, trials, len(values)):
        drawn = _draw_latents(model, gen, values[:min(len(values), trials - start)])
        on = _present(model, drawn)
        counts += on.sum(axis=0)
        joint += (on[:, e1s] & on[:, e2s]).sum(axis=0)
    return pair_list, counts.tolist(), joint.tolist()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2), st.integers(2, 5), st.integers(2, 14),
       st.integers(1, 400), U64, st.integers(0, 12))
def test_uniform_audit_tallies_equal_presence_tallies(a, m, n, trials, seed, pairs):
    n = next(k for k in range(n, n + 2 * m) if num_edges(k) % m == 0)
    model = edge_block_exact(n, a, m)
    report = audit_model(model, trials, seed, pairs)
    pair_list, counts, joint = _present_tallies(model, trials, seed, pairs)
    assert [e.successes for e in report.marginals] == counts
    assert [(q.edge_a, q.edge_b) for q in report.pairs] == pair_list
    assert [q.table[0] for q in report.pairs] == joint


def test_one_block_at_64_vertices_stays_within_a_few_budgets():
    # the harness's block at n = 64 is 512 trials, whose rows take one
    # budget; drawn whole, its coins would take 1 MiB more and the bits
    # gathered for packing 2 MiB, where each chunk's arrays fit a budget
    block = batch_size(64 * 8)
    assert block == 512
    seeds = derive_seeds(7, 0, 0, block)
    for model, pred in ((erdos_renyi(64, 0.1), connected()),
                        (edge_block_exact(64, 1, 3), parse_predicate("isolated-vertex"))):
        sample_rows(model, seeds[:1])
        tracemalloc.start()
        try:
            values = evaluate_rows(pred, sample_rows(model, seeds))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(values) == block
        assert peak < 6 * graphs.BATCH_BYTES, (model, peak)


# -- harness blocks against single trials ----------------------------------

def test_degree_violation_is_the_negated_degree_range():
    lo, hi = 2.5, 6.0
    pred = negate(degree_in_range(lo, hi))
    model = erdos_renyi(12, 0.4)
    seeds = derive_seeds(5, 0, 0, 200).tolist()
    rows = sample_rows(model, seeds)
    old = [any(not lo <= r.bit_count() <= hi for r in sample(model, s).graph.rows)
           for s in seeds]
    assert 0 < sum(old) < len(old)
    assert [pred(sample(model, s).graph) for s in seeds] == old
    assert evaluate_rows(pred, rows).tolist() == old


def _witness(n, p, d):
    s = d + 1
    smask = (1 << s) - 1

    def fn(g: Graph) -> bool:
        b = sum(1 << x for x in range(s, n) if g.rows[x] & smask == smask)
        return sum((g.rows[v] & b).bit_count() for v in range(s)) > p * s * b.bit_count()
    return fn


@pytest.mark.parametrize("workers", [1, 3])
def test_run_trials_values_are_the_per_trial_values(workers):
    config = ExperimentConfig(ns=(30,), ps=(0.2,), trials=70, seed=9, workers=workers)
    cases = [
        (erdos_renyi(30, 0.2), parse_predicate("connected"), "predicate"),
        (correlated_star(24, 0.3, 2), _witness(24, 0.3, 2), "predicate"),
        (edge_block_exact(12, 1, 3), clique_number, "statistic"),
        (erdos_renyi(66, 0.1), parse_predicate("isolated-vertex"), "predicate"),
    ]
    for point, (model, fn, mode) in enumerate(cases):
        got = harness._run_trials(config, point, model, fn, mode)
        want = [fn(sample(model, derive_seed(9, point, t)).graph) for t in range(70)]
        assert got.tolist() == [bool(v) if mode == "predicate" else float(v) for v in want]


def test_batched_points_run_in_the_calling_thread():
    # threads would contend for the GIL on the interpreter-bound draw, so
    # only blocks beyond 64 vertices spread over workers
    config = ExperimentConfig(ns=(64,), ps=(0.2,), trials=90, seed=9, workers=3)
    for model, in_caller in ((erdos_renyi(64, 0.1), True), (erdos_renyi(66, 0.1), False)):
        seen = set()

        def fn(g):
            seen.add(threading.get_ident())
            return True
        assert harness._run_trials(config, 0, model, fn, "predicate").all()
        assert (seen == {threading.get_ident()}) == in_caller
