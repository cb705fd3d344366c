"""Wide rows packed from the colex presence bitmap, with no edge list.

Beyond 64 vertices the packer that sample, realize, the trial runner and
helpers.sample_rows share (distributions._rows) packs a trial's presence
bitmap into row words: the lower triangle's words are windows of the
packed bitmap, and the upper triangle is their 64x64 bit-block transpose.
Each piece is compared here with a plainer form: the packer with
Graph.from_edge_indices over the same latent values, the transpose with
unpackbits, a transpose and packbits.  The memory a trial takes and the
lifetime of the per-model arrays are checked too, and so is the one
check of a model's blocks.
"""

import gc
import hashlib
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from depgraphs import distributions, graphs
from depgraphs.distributions import (DistributionModel, _latent_blocks,
                                     blocks_from_text, connectivity_gadget,
                                     correlated_star, custom_blocks,
                                     edge_block_exact, erdos_renyi, realize,
                                     sample)
from depgraphs.graphs import (Graph, num_edges, packed_words, presence_rows,
                              row_ints, transpose_blocks)

from helpers import sample_rows

PACKED_NS = (65, 127, 128, 129, 191, 192, 193, 200, 2000)
PACKED_PS = (0, 2.0 ** -53, 0.03, 0.5, 1)


def _models(n, p):
    """One model of every kind at n: the coin kinds at p, an edge-block
    model whose a/m is the nearest to p that its edge count allows."""
    yield erdos_renyi(n, p)
    # the blocks that custom_blocks keeps from a partition with these blocks
    yield DistributionModel("custom-blocks", n, p, 3,
                            ((0, 1, 2, 3), (5, 9), (64, 65, 66), (2000, 31, 100)))
    yield correlated_star(n, p, 4)
    yield connectivity_gadget(n, p, 8)
    m = next(m for m in (2, 3, 4, 5) if num_edges(n) % m == 0)
    yield edge_block_exact(n, min(m, max(1, round(p * m))), m)


def _edges(model, values):
    """The present edges of one trial's values (distributions._draw), read
    from the blocks and private coins rather than the sampler's column map:
    the edges of each coin block whose coin is on and each private coin's
    edge that is on; for uniform subsets block j's kept positions q, as
    edges j * m + q, a of them in every block."""
    if model.uniform:
        block, pick = np.nonzero(values.reshape(model.block_count, model.m))
        assert (np.bincount(block, minlength=model.block_count) == model.a).all()
        return block * model.m + pick
    return np.concatenate((model.flat[values[model.bid]],
                           model.singles[np.flatnonzero(values[model.block_count:])]))


# Graph.from_edge_indices takes about 1.5 s a million edges, so each edge
# set's rows are formed once: every kind gives the complete graph at p = 1
_REFERENCE_ROWS = {}


def _reference_rows(n, edges):
    key = (n, hashlib.sha256(edges).hexdigest())
    if key not in _REFERENCE_ROWS:
        _REFERENCE_ROWS[key] = Graph.from_edge_indices(n, edges.tolist()).rows
    return _REFERENCE_ROWS[key]


@pytest.mark.parametrize("p", PACKED_PS)
@pytest.mark.parametrize("n", PACKED_NS)
def test_packer_matches_from_edge_indices(n, p):
    for model in _models(n, p):
        for seed in (1, 2) if n < 2000 else (1,):
            (values,) = _latent_blocks(model, [seed], 1)
            want = _reference_rows(n, np.sort(_edges(model, values[0])))
            assert sample(model, seed).graph.rows == want, model
            assert tuple(row_ints(sample_rows(model, [seed])[0])) == want, model
            state = sample(model, seed, keep_latents=True).latent_state
            assert realize(model, state).rows == want, model


@pytest.mark.parametrize("n", (70, 129))
def test_packer_without_private_coins(n):
    """Blocks that cover every edge leave no single to spread."""
    size = num_edges(n)
    model = custom_blocks(n, 0.5, [range(i, min(i + 7, size)) for i in range(0, size, 7)])
    assert model.singles.size == 0
    for seed in (1, 2):
        (values,) = _latent_blocks(model, [seed], 1)
        want = Graph.from_edge_indices(n, _edges(model, values[0]).tolist()).rows
        assert sample(model, seed).graph.rows == want


@pytest.mark.parametrize("n", (1, 2, 63, 64, 65, 127, 128, 129, 300))
def test_presence_rows_of_random_bitmaps(n):
    """presence_rows at every n, on bitmaps with no model behind them."""
    gen = np.random.default_rng(n)
    for p in (0, 0.1, 0.5, 1):
        present = gen.random(num_edges(n)) < p
        want = Graph.from_edge_indices(n, np.flatnonzero(present).tolist()).rows
        assert tuple(row_ints(presence_rows(n, packed_words(present)))) == want


def test_packed_words_end_in_a_zero_word():
    bits = np.ones(130, dtype=bool)
    words = packed_words(bits)
    assert words.tolist() == [2 ** 64 - 1, 2 ** 64 - 1, 3, 0]
    assert packed_words(bits[:0]).tolist() == [0]


@pytest.mark.parametrize("count", (1, 2, 7, 528))
def test_transpose_blocks_matches_unpacked_transpose(count):
    gen = np.random.default_rng(count)
    blocks = gen.integers(0, 2 ** 64, size=(64, count), dtype=np.uint64)
    blocks[:, 0] &= gen.integers(0, 2 ** 64, size=64, dtype=np.uint64)  # sparser
    bits = np.unpackbits(np.ascontiguousarray(blocks.T).astype("<u8").view(np.uint8),
                         bitorder="little").reshape(count, 64, 64)
    want = np.packbits(bits.transpose(0, 2, 1), bitorder="little")
    want = want.view("<u8").reshape(count, 64).T
    before = blocks.copy()
    got = transpose_blocks(blocks)
    assert np.array_equal(got, want)
    assert np.array_equal(blocks, before)
    assert np.array_equal(transpose_blocks(got), blocks)


def _mc_large_models():
    n = 2000
    ln = math.log(n)
    return [erdos_renyi(n, 2 * ln / n), correlated_star(n, 8 * ln / n, 7),
            connectivity_gadget(n, 0.01, 15)]


# the same trial packed from its edge list, by scattering both endpoints'
# bits into a bool array of n * 64 * ceil(n / 64) entries and packing that,
# peaks at 5.2-6.3 MiB, most of it the bool array
WIDE_TRIAL_PEAK = 5 * 2 ** 20


@pytest.mark.parametrize("index", range(3))
def test_one_wide_trial_stays_within_the_edge_list_packers_peak(index):
    model = _mc_large_models()[index]
    sample_rows(model, [1])    # forms the model's views and the per-n windows
    tracemalloc.start()
    try:
        sample_rows(model, [2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= WIDE_TRIAL_PEAK, peak


def _view_dies_with_the_model(n: int, view: str) -> None:
    model = correlated_star(n, 0.1, 3)
    sample_rows(model, [1])
    assert view in vars(model)
    # the last array of the view: Spread's masks, the columns' row masks
    gone = weakref.ref(vars(model)[view][-1])
    del model
    gc.collect()
    assert gone() is None


def test_per_layout_arrays_die_with_the_model():
    # the spread of the private coins beyond 64 vertices, the column table
    # of the packer up to 64
    _view_dies_with_the_model(300, "spread")
    _view_dies_with_the_model(40, "columns")


def test_windows_read_zeros_before_the_stream():
    words = packed_words(np.ones(64, dtype=bool))
    at = graphs.windows(np.array([-64, -5, 0, 3, 64]))
    assert graphs.read_windows(words, at).tolist() == [
        0, (2 ** 59 - 1) << 5, 2 ** 64 - 1, 2 ** 61 - 1, 0]


# -- the blocks are checked once -----------------------------------------

def _count_block_checks(monkeypatch):
    calls = []
    check = distributions._check_blocks

    def counted(n, flat):
        calls.append(n)
        return check(n, flat)
    monkeypatch.setattr(distributions, "_check_blocks", counted)
    return calls


@pytest.mark.parametrize("make", [
    lambda: correlated_star(70, 0.1, 3),
    lambda: connectivity_gadget(200, 0.1, 8),
    lambda: edge_block_exact(9, 1, 4),
    lambda: custom_blocks(6, 0.5, blocks_from_text(6, "0 1 2; 3 4")),
])
def test_blocks_are_checked_once_per_model(monkeypatch, make):
    calls = _count_block_checks(monkeypatch)
    model = make()
    assert len(calls) == 1
    covered = np.zeros(num_edges(model.n), dtype=bool)
    covered[model.flat] = True
    assert not covered[model.singles].any()
    assert np.count_nonzero(covered) + model.singles.size == num_edges(model.n)


def test_erdos_renyi_checks_no_blocks(monkeypatch):
    calls = _count_block_checks(monkeypatch)
    assert erdos_renyi(70, 0.1).singles.size == num_edges(70)
    assert calls == []


@pytest.mark.parametrize("blocks, message", [
    ([(0, 1), (1, 2)], "edge index 1 appears in two blocks"),
    ([(0, 1, 9)], "edge index 9 out of range for n=4"),
    ([(0, 1), (2,)], "blocks do not cover edge index 3"),
    ([(0, 1), ()], "empty block in partition"),
])
def test_custom_block_errors_keep_their_messages(blocks, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        custom_blocks(4, 0.5, blocks)


def test_model_block_errors_keep_their_messages():
    with pytest.raises(ValueError, match="^edge index 1 appears in two blocks$"):
        DistributionModel("custom-blocks", 4, 0.5, 2, ((0, 1), (1, 2)))
    with pytest.raises(ValueError, match="^edge index 6 out of range for n=4$"):
        DistributionModel("custom-blocks", 4, 0.5, 2, ((0, 6),))
