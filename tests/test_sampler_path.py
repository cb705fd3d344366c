"""The sampler's path from seed to rows, checked piece by piece.

sample(model, seed) resets a per-thread generator instead of building one,
draws coins by comparing raw Philox words with a threshold, and packs the
latent values into adjacency rows with the one packer every sampling path
shares (distributions._rows).  Each step is compared here with the plain
form it replaces: rng.generator(seed), gen.random(L) < p, and
Graph.from_edge_indices, which the packer meets on both sides of every
word boundary of its rows.
"""

import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depgraphs import rng
from depgraphs.distributions import (_draw, _edge_slots, _latent_blocks, _rows,
                                     blocks_from_text,
                                     connectivity_gadget, correlated_star,
                                     custom_blocks, edge_block_exact,
                                     erdos_renyi, sample)
from depgraphs.graphs import Graph, num_edges, row_graphs
from test_stream_digests import CASES, SEEDS

WORD_BOUNDARY_NS = (1, 2, 63, 64, 65, 127, 128, 129)


@st.composite
def edge_sets(draw):
    n = draw(st.sampled_from(WORD_BOUNDARY_NS))
    L = num_edges(n)
    if L == 0:
        return n, []
    return n, draw(st.lists(st.integers(0, L - 1), unique=True, max_size=300))


def _packed(n: int, edges) -> Graph:
    """The graph _rows packs from one draw of erdos_renyi(n, .) whose coins
    are on at exactly the given edge indices."""
    coins = np.zeros((1, num_edges(n)), dtype=bool)
    coins[0, edges] = True
    (g,) = row_graphs(_rows(erdos_renyi(n, 0.5), coins))
    return g


@settings(max_examples=150, deadline=None)
@given(edge_sets())
def test_packer_matches_from_edge_indices(case):
    n, edges = case
    assert _packed(n, edges).rows == Graph.from_edge_indices(n, edges).rows


@pytest.mark.parametrize("n", WORD_BOUNDARY_NS + (2000,))
def test_packer_complete_and_empty(n):
    everything = list(range(num_edges(n)))
    assert _packed(n, everything).rows == Graph.complete(n).rows
    assert _packed(n, []).rows == Graph.empty(n).rows


COIN_PS = (0, 1, 2.0 ** -53, 1 - 2.0 ** -53, Fraction(1, 3), 12345 * 2.0 ** -53,
           Fraction(3, 8), 0.3)


def _coins(gen, runs, p):
    """The coins _draw gives for sum(runs) trials of a one-coin model,
    drawn in runs of the given lengths in turn from gen."""
    out = np.empty((sum(runs), 1), dtype=bool)
    _draw(erdos_renyi(2, p), [(gen, k) for k in runs], out)
    return out[:, 0]


# the trials whole, and cut into runs that fit a word buffer of
# graphs.BATCH_BYTES (32768 words) or not: runs of 7 leave part of it
# unfilled, and the long run is drawn chunk by chunk before or after them
RUN_SPLITS = {0: ([0],), 1: ([1],), 7: ([7], [1] * 7, [3, 4]),
              70001: ([70001], [7] * 5000 + [35001], [35001] + [7] * 5000)}


@pytest.mark.parametrize("p", COIN_PS)
@pytest.mark.parametrize("count", (0, 1, 7, 70001))
def test_coins_equal_uniform_comparison(p, count):
    for seed in (0, 9, 2 ** 64 - 1):
        for runs in RUN_SPLITS[count]:
            fast, plain = rng.generator(seed), rng.generator(seed)
            coins = _coins(fast, runs, p)
            assert np.array_equal(coins, plain.random(count) < float(p)), runs
            # both forms consume the same words, so shared-generator streams agree
            assert fast.bit_generator.random_raw() == plain.bit_generator.random_raw()


class _Words:
    """Stands in for a generator whose bit generator yields given raw words."""

    def __init__(self, words):
        self.bit_generator = self
        self.words = np.array(words, dtype=np.uint64)

    def random_raw(self, size):
        out, self.words = self.words[:size], self.words[size:]
        return out


@pytest.mark.parametrize("p", COIN_PS)
def test_coin_threshold_at_its_boundary(p):
    # a Philox double is (raw >> 11) * 2**-53; probe the words on both
    # sides of the threshold and at both ends of the word range
    c = int(np.ceil(float(p) * 2.0 ** 53))
    probes = {0, 1, 2 ** 11 - 1, 2 ** 11, 2 ** 64 - 1, 2 ** 64 - 2 ** 11}
    for k in (c - 1, c, c + 1):
        if 0 <= k < 2 ** 53:
            probes |= {k << 11, (k << 11) + 2 ** 11 - 1, max((k << 11) - 1, 0)}
    words = np.array(sorted(probes), dtype=np.uint64)
    doubles = (words >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    assert np.array_equal(_coins(_Words(words), [words.size], p), doubles < float(p))


def _check_reset(seed):
    gen = rng.seeded(seed)
    fresh = rng.generator(seed)
    got, want = gen.bit_generator.state, fresh.bit_generator.state
    for key in ("buffer_pos", "has_uint32", "uinteger"):
        assert got[key] == want[key]
    assert np.array_equal(got["buffer"], want["buffer"])
    for key in ("counter", "key"):
        assert np.array_equal(got["state"][key], want["state"][key])
    assert np.array_equal(gen.bit_generator.random_raw(5),
                          fresh.bit_generator.random_raw(5))
    assert np.array_equal(gen.integers(0, 1000, size=3, dtype=np.uint32),
                          fresh.integers(0, 1000, size=3, dtype=np.uint32))
    assert np.array_equal(gen.random(4), fresh.random(4))


def test_seeded_reproduces_generator_after_dirty_use():
    for seed in (0, 77, 2 ** 63 + 5, 2 ** 64 - 1, 2 ** 64 + 3):
        rng.seeded(123).random(7)       # odd length: buffer left part-used
        _check_reset(seed)
        rng.seeded(456).integers(0, 10, size=3, dtype=np.uint32)  # has_uint32
        _check_reset(seed)


def _draws(gen):
    return gen.bit_generator.random_raw(3).tolist() + gen.random(2).tolist()


def test_seeded_interleaved_across_threads_matches_generator():
    # thread a halts before every bytecode of its seeded() calls, the first
    # (which makes its generator) and a later one, while thread b resets and
    # draws in full; a key list or generator shared across threads would
    # hand b's seed or words to a
    a_seeds, b_seeds = (11, 2 ** 64 - 3), iter(range(10 ** 6, 2 ** 62))
    go, done = threading.Semaphore(0), threading.Semaphore(0)
    got_a, got_b = [], []

    def tracer(frame, event, arg):
        if frame.f_code is not rng.seeded.__code__:
            return None
        frame.f_trace_opcodes = True
        if event == "opcode":
            go.release()
            done.acquire()
        return tracer

    def thread_a():
        for s in a_seeds:
            sys.settrace(tracer)
            try:
                gen = rng.seeded(s)
            finally:
                sys.settrace(None)
            got_a.append((s, _draws(gen)))
        go.release()        # wakes b to see that a is done

    def thread_b():
        while True:
            go.acquire()
            if len(got_a) == len(a_seeds):
                return
            s = next(b_seeds)
            got_b.append((s, _draws(rng.seeded(s))))
            done.release()

    threads = [threading.Thread(target=f, daemon=True) for f in (thread_a, thread_b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert len(got_b) > 20
    for s, draws in got_a + got_b:
        assert draws == _draws(rng.generator(s)), s


MODELS = (
    erdos_renyi(30, 0.2),
    erdos_renyi(70, Fraction(1, 10)),
    correlated_star(40, Fraction(1, 3), 3),
    connectivity_gadget(80, 0.1, 3),
    edge_block_exact(20, 1, 5),
    custom_blocks(8, 0.4, blocks_from_text(8, "27 0 5; 3 4 1 2; 26 9")),
)


def _reference(model, seed) -> Graph:
    """One draw by the plain path: a fresh generator, uniforms, a Python
    scatter over the declared latents and from_edge_indices."""
    gen = rng.generator(seed)
    if model.uniform:
        keys = gen.random((model.block_count, model.m))
        picks = np.argpartition(keys, model.a - 1, axis=1)[:, :model.a]
        edges = [b[i] for b, row in zip(model.blocks, picks.tolist()) for i in row]
    else:
        on = (gen.random(model.latent_count()) < float(model.p)).tolist()
        edges = [e for b, bit in zip(model.blocks, on) if bit for e in b]
        edges += [int(e) for e, bit in zip(model.singles, on[len(model.blocks):])
                  if bit]
    return Graph.from_edge_indices(model.n, edges)


@pytest.mark.parametrize("model", MODELS, ids=repr)
def test_sample_matches_plain_reference(model):
    for seed in (0, 5, 2 ** 64 - 1):
        assert sample(model, seed).graph == _reference(model, seed)


def test_concurrent_samples_equal_serial():
    jobs = [(model, seed) for model in MODELS for seed in range(25)]
    serial = [sample(model, seed).graph.rows for model, seed in jobs]
    results = [None] * 4
    barrier = threading.Barrier(4)

    def worker(k):
        got = [None] * len(jobs)
        start = k * len(jobs) // 4       # each thread starts at another job
        barrier.wait()
        for i in [*range(start, len(jobs)), *range(start)]:
            got[i] = sample(*jobs[i]).graph.rows
        results[k] = got

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)      # switch threads often, mid-sample too
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [serial] * 4


@pytest.mark.parametrize("name", sorted(CASES))
def test_each_edge_reads_its_value_column(name):
    # coins, uniform subsets with a = 1, a >= 2 and a = m, p = 0 and p = 1:
    # the value column _edge_slots gives each edge is that edge's presence
    # in the sampled graph
    model = CASES[name]()
    slots = _edge_slots(model)
    for seed in SEEDS:
        (values,) = _latent_blocks(model, [seed], 1)
        present = np.flatnonzero(values[0][slots]).tolist()
        assert present == list(sample(model, seed).graph.edge_indices()), seed
