"""Batched Monte Carlo trials, checked against the per-trial path.

The harness derives a grid point's seeds at once (rng.derive_seeds), and
the trial runner (distributions._trial_values) draws each block of them,
packs the block's graphs as bitset rows and evaluates them with a batch
kernel.  The runner, helpers.sample_rows and sample pack latent values with
the same packer (distributions._rows, checked against
Graph.from_edge_indices in test_sampler_path), so comparing
helpers.sample_rows with the rows of
sample(model, seed).graph checks the block draws: each trial's raw words
compared with a threshold a buffer at a time, and its keys picked a buffer
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

from depgraphs import distributions, graphs, rng
from depgraphs.distributions import (_column_counts, _draw, _independent_pairs,
                                     _latent_blocks, _latent_rows, _picks,
                                     _trial_values, audit_model,
                                     blocks_from_text,
                                     connectivity_gadget, correlated_star,
                                     custom_blocks, edge_block_exact,
                                     erdos_renyi, sample)
from depgraphs.graphs import (Graph, batch_dtype, batch_size, clique_number,
                              num_edges, row_bytes, row_graphs, zero_rows)
from depgraphs.predicates import (Predicate, connected, degree_in_range,
                                  evaluate_rows, negate, parse_predicate)
from depgraphs.rng import derive_seed, derive_seeds

from helpers import sample_rows
from test_sampler_path import _Words

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
    # a small budget splits one call into blocks of a few trials each, and
    # shrinks the drawer's word buffer to 625 words: the 190 coins of
    # erdos_renyi(20, .) fill it three trials at a time and leave 55 words
    # unfilled, while one trial of the star at n = 70 is a run of 2281
    # coins, drawn chunk by chunk past the buffer
    seeds = derive_seeds(3, 1, 0, 23)
    models = [erdos_renyi(20, 0.3), erdos_renyi(20, 0), erdos_renyi(20, 1),
              correlated_star(33, Fraction(1, 3), 3), correlated_star(33, 1, 3),
              correlated_star(70, 0.3, 2), correlated_star(70, 0, 2),
              edge_block_exact(9, 1, 3), edge_block_exact(16, 2, 5),
              edge_block_exact(9, 3, 3)]
    want = [_sampled_rows(model, seeds.tolist()) for model in models]
    monkeypatch.setattr(graphs, "BATCH_BYTES", 5000)
    assert batch_size(20 * 32) < 23
    assert batch_size(8) == 625 and 625 % 190 and models[5].latent_count() == 2281
    for model, rows in zip(models, want):
        assert [list(g.rows) for g in row_graphs(sample_rows(model, seeds))] == rows, model
    assert sample_rows(models[0], []).shape == (0, 20, 1)


@pytest.mark.parametrize("model", [
    erdos_renyi(10, 0.3), correlated_star(12, Fraction(1, 3), 2),
    edge_block_exact(10, 1, 3), edge_block_exact(9, 2, 4)],
    ids=["er", "star", "edge-block-1-3", "edge-block-2-4"])
def test_audit_is_the_same_at_every_budget(model, monkeypatch):
    # the default budget draws the 400 trials as one block; the small one
    # splits them into many, each a run of the audit's generator
    want = audit_model(model, 400, 11, 20)
    monkeypatch.setattr(graphs, "BATCH_BYTES", 500)
    assert len(_latent_rows(model, 400)) <= 20
    assert audit_model(model, 400, 11, 20) == want


class _Keys:
    """Stands in for a generator whose raw words repeat the given keys, as
    the words whose doubles, (raw >> 11) * 2**-53, they are."""

    def __init__(self, keys):
        self.words = (np.asarray(keys, dtype=float).ravel() * 2.0 ** 53).astype(np.uint64)
        self.words <<= np.uint64(11)
        self.bit_generator = self

    def random_raw(self, count):
        return np.resize(self.words, count)


def _kept(picks, m):
    """Per trial (the first axis), the presence of each block's m edges
    when the picks are kept, blocks in turn: the values _draw writes."""
    present = np.zeros(picks.shape[:-1] + (m,), dtype=bool)
    np.put_along_axis(present, picks, True, axis=-1)
    return present.reshape(len(present), -1)


@pytest.mark.parametrize("n,m", [(4, 2), (3, 3)])
def test_single_picks_take_the_first_of_equal_keys(n, m):
    # every key row over {0, 1/2, 3/4}, ties at the minimum included: the
    # pick is the one argpartition(keys, 0) makes, on single draws, on a
    # draw of several trials into one array, and on one run per trial
    keys = list(itertools.product((0.0, 0.5, 0.75), repeat=m))
    model = edge_block_exact(n, 1, m)
    blocks = model.block_count
    out = np.empty((len(keys), num_edges(n)), dtype=bool)
    for row in keys:
        _draw(model, [(_Keys([row]), 1)], out[:1])
        want = np.argpartition(np.resize(row, (1, blocks, m)), 0, axis=-1)[..., :1]
        assert np.array_equal(out[:1], _kept(want, m)), row
    want = np.argpartition(np.resize(keys, (len(keys), blocks, m)), 0, axis=-1)[..., :1]
    _draw(model, [(_Keys(keys), len(keys))], out)
    assert np.array_equal(out, _kept(want, m))
    want = np.argpartition(np.array([np.resize(row, (blocks, m)) for row in keys]),
                           0, axis=-1)[..., :1]
    _draw(model, [(_Keys([row]), 1) for row in keys], out)
    assert np.array_equal(out, _kept(want, m))


@pytest.mark.parametrize("n,m", [(4, 2), (3, 3)])
def test_single_picks_read_only_the_key_bits_of_a_word(n, m):
    # words that agree in their top 53 bits are equal keys, whatever their
    # low 11 bits, in either order: the first of the equal least keys is
    # kept, as argmin over the keys raw >> 11 keeps it; keys 4 and 5 differ
    # only in bit 11 of their words, so a mask of one bit more shows too
    model = edge_block_exact(n, 1, m)
    blocks = model.block_count
    out = np.empty((1, num_edges(n)), dtype=bool)
    for keys in itertools.product((4, 5), repeat=m):
        for lows in itertools.product((0, 1, 0x400, 0x7FF), repeat=m):
            row = [k << 11 | low for k, low in zip(keys, lows)]
            _draw(model, [(_Words(np.resize(row, num_edges(n))), 1)], out)
            want = np.argmin(np.resize(keys, (1, blocks, m)), axis=-1)[..., None]
            assert np.array_equal(out, _kept(want, m)), row


@pytest.mark.parametrize("W", range(1, 18))
def test_column_counts_equal_the_column_sums(W):
    # every W mod 8, and trial counts about the 255-word lane limit and the
    # g = 8 / gcd(W, 8) rows a group of words takes
    gen = np.random.default_rng(W)
    for T in (1, 7, 254, 255, 256, 2040, 2041):
        for block in (np.ones((T, W), dtype=bool), gen.random((T, W)) < 0.5):
            got = _column_counts(block)
            assert got.dtype == np.int64 and got.tolist() == block.sum(axis=0).tolist(), T


@pytest.mark.parametrize("a,m", [(1, 3), (2, 5), (3, 4)])
def test_uniform_runs_equal_one_draw(a, m):
    # trials drawn in runs of any length from one generator pick what one
    # draw of all their keys does
    model = edge_block_exact(9 if 36 % m == 0 else 16, a, m)
    shape = (13, model.block_count)
    for runs in ([13], [1] * 13, [5, 1, 7]):
        gen = rng.generator(len(runs))
        want = _kept(_picks(rng.generator(len(runs)).random(shape + (m,)), a), m)
        out = np.empty((13, model.slots), dtype=bool)
        _draw(model, [(gen, k) for k in runs], out)
        assert np.array_equal(out, want), runs


def test_a_trial_past_the_word_buffer_settles_whole_blocks():
    # one trial's 44 850 keys pass the 32 768-word buffer, so it settles
    # chunk by chunk as it is drawn; the chunks hold whole blocks of 3, and
    # together they keep what one _picks call over all the keys keeps
    model = edge_block_exact(300, 1, 3)
    assert model.slots == 44850 > batch_size(8) == 32768
    out = np.empty((1, 44850), dtype=bool)
    _draw(model, [(rng.generator(5), 1)], out)
    assert np.array_equal(out, _kept(_picks(rng.generator(5).random((1, 14950, 3)), 1), 3))


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
    """The audit's pairs, per-edge counts and pair joints, tallied from
    presence formed the plain way: every trial's keys drawn in turn from the
    audit's generator, and the a smallest of each block's m kept."""
    L = num_edges(model.n)
    gen = rng.generator(seed)
    pair_list = _independent_pairs(model, gen, pairs) if L >= 2 else []
    e1s = np.array([a for a, _ in pair_list], dtype=np.int64)
    e2s = np.array([b for _, b in pair_list], dtype=np.int64)
    shape = (trials, model.block_count, model.m)
    keys = gen.random(shape) if model.a < model.m else np.zeros(shape)
    on = _kept(np.argsort(keys, axis=-1, kind="stable")[..., :model.a], model.m)
    joint = (on[:, e1s] & on[:, e2s]).sum(axis=0)
    return pair_list, on.sum(axis=0).tolist(), joint.tolist()


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
    # the rows of 512 trials at n = 64 take one budget; drawn whole, their
    # coins would take 1 MiB more and the bits gathered for packing 2 MiB,
    # where each block's and each gather chunk's arrays fit a budget
    block = batch_size(64 * 8)
    assert block == 512
    seeds = derive_seeds(7, 0, 0, block)
    for model, pred in ((erdos_renyi(64, 0.1), connected()),
                        (edge_block_exact(64, 1, 3), parse_predicate("isolated-vertex"))):
        sample_rows(model, seeds[:1])
        for run in (lambda: evaluate_rows(pred, sample_rows(model, seeds)),
                    lambda: _trial_values(model, seeds, block, pred)):
            tracemalloc.start()
            try:
                values = run()
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
def test_run_trials_values_are_the_per_trial_values(workers, monkeypatch):
    # a small budget and three CPUs give the point beyond 64 vertices
    # three spans of several blocks at 3 workers
    monkeypatch.setattr(graphs, "BATCH_BYTES", 20000)
    monkeypatch.setattr(distributions, "_cpus", lambda: 3)
    cases = [
        (erdos_renyi(30, 0.2), parse_predicate("connected")),
        (correlated_star(24, 0.3, 2), Predicate("witness", _witness(24, 0.3, 2))),
        (edge_block_exact(12, 1, 3), Predicate("clique-number", clique_number)),
        (erdos_renyi(66, 0.1), parse_predicate("isolated-vertex")),
    ]
    for point, (model, fn) in enumerate(cases):
        got = _trial_values(model, derive_seeds(9, point, 0, 70), 70, fn, workers)
        want = [fn(sample(model, derive_seed(9, point, t)).graph) for t in range(70)]
        assert got.tolist() == [float(v) for v in want]


def test_batched_points_run_in_the_calling_thread(monkeypatch):
    # the per-trial resets hold the GIL, so threads would only contend for
    # it: up to 64 vertices seeds run in one span, whatever the blocks,
    # CPUs and workers; beyond, their blocks spread over threads
    monkeypatch.setattr(graphs, "BATCH_BYTES", 5000)
    monkeypatch.setattr(distributions, "_cpus", lambda: 3)
    seeds = derive_seeds(9, 0, 0, 90)
    for model, in_caller in ((erdos_renyi(64, 0.1), True), (erdos_renyi(66, 0.1), False)):
        assert len(_latent_rows(model, 90)) <= 30
        seen = set()

        def fn(g):
            seen.add(threading.get_ident())
            return True
        assert _trial_values(model, seeds, 90, Predicate("seen", fn), 3).all()
        assert (seen == {threading.get_ident()}) == in_caller
