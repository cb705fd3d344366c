"""A model's blocks stored as two int64 arrays, and the private coins'
edges formed only when read.

The constructions emit their blocks as (flat, sizes) arrays by numpy
broadcasting; they are pinned here against the tuple-building code they
replaced, kept below as the reference.  The memory a build and a draw hold
at n = 2000 is guarded too, and so are the model's views of its latents:
each formed once, read-only, and no part of the model's equality.
"""

import math
import tracemalloc
from fractions import Fraction
from math import ceil, isqrt, log

import numpy as np
import pytest

from depgraphs.distributions import (DistributionModel, _gadget_layout, build,
                                     connectivity_gadget, correlated_star,
                                     custom_blocks, edge_block_exact, erdos_renyi,
                                     sample)
from depgraphs.graphs import num_edges

from helpers import sample_rows


def _tri(v):
    return v * (v - 1) // 2


def _reference_star(n, d):
    s = d + 1
    xs = np.arange(s, n, dtype=np.int64)[:, None]
    return tuple(map(tuple, (_tri(xs) + np.arange(s)).tolist())) if d >= 1 else ()


def _reference_gadget(n, d):
    d1 = d + 1
    s = isqrt(d1)
    a_size = ceil(n / (log(n) * s))
    a_groups = [np.arange(i, min(i + s, a_size)) for i in range(0, a_size, s)]
    blocks = []
    for i, gi in enumerate(a_groups):
        iu, iv = np.triu_indices(gi.size, 1)
        blocks.append((_tri(gi[iv]) + gi[iu]).tolist())
        for gj in a_groups[i + 1:]:
            blocks.append((_tri(gj) + gi[:, None]).ravel().tolist())
    tri_b = _tri(np.arange(a_size, n, dtype=np.int64))
    full = tri_b.size - tri_b.size % d1
    xs = np.arange(a_size)[:, None]
    runs = (tri_b[:full].reshape(1, -1, d1) + xs[:, :, None]).tolist()
    tails = (tri_b[full:] + xs).tolist()
    for x in range(a_size):
        blocks.extend(runs[x])
        blocks.append(tails[x])
    return tuple(tuple(b) for b in blocks if len(b) >= 2)


def _reference_edge_blocks(n, m):
    return tuple(tuple(range(i, i + m)) for i in range(0, num_edges(n), m))


def _pin(model, blocks):
    assert model.blocks == blocks
    assert all(type(e) is int for b in blocks for e in b)
    assert model.sizes.tolist() == [len(b) for b in blocks]
    assert model.flat.tolist() == [e for b in blocks for e in b]
    covered = sum(map(len, blocks))
    assert model.latent_count() == len(blocks) + num_edges(model.n) - covered
    assert model.max_dependency_degree() == max([1, *map(len, blocks)]) - 1


@pytest.mark.parametrize("n, d", [(3, 1), (5, 0), (5, 3), (12, 2), (70, 7), (301, 4)])
def test_star_blocks_match_the_tuple_reference(n, d):
    _pin(correlated_star(n, 0.3, d), _reference_star(n, d))


# (21, 3), (22, 8), (53, 15) and (106, 24): the last B-run has one edge;
# (40, 8): it has none; (9, 0): every block has one edge and is folded
@pytest.mark.parametrize("n, d", [(9, 0), (21, 3), (22, 8), (40, 8), (53, 15),
                                  (106, 24), (200, 3), (500, 15)])
def test_gadget_blocks_match_the_tuple_reference(n, d):
    model = connectivity_gadget(n, 0.1, d)
    a_size = _gadget_layout(n, d)[0]
    _pin(model, _reference_gadget(n, d))
    if (n, d) in ((21, 3), (22, 8), (53, 15), (106, 24)):
        assert (n - a_size) % (d + 1) == 1


@pytest.mark.parametrize("n, a, m", [(2, 1, 1), (4, 2, 3), (9, 1, 4), (12, 3, 6),
                                     (48, 1, 3)])
def test_edge_blocks_match_the_tuple_reference(n, a, m):
    _pin(edge_block_exact(n, a, m), _reference_edge_blocks(n, m))


@pytest.mark.parametrize("make", [
    lambda: erdos_renyi(30, 0.2),
    lambda: correlated_star(80, 0.1, 5),
    lambda: connectivity_gadget(200, 0.1, 8),
    lambda: edge_block_exact(9, 2, 4),
    lambda: custom_blocks(5, 0.5, [(0, 1, 2), (3, 4), (5,), (6, 7), (8,), (9,)]),
])
def test_two_builds_are_equal_and_hash_alike(make):
    first, second = make(), make()
    assert first == second and hash(first) == hash(second)


def test_one_changed_custom_edge_changes_equality_and_hash():
    base = [(0, 1, 2), (3, 4), (5,), (6, 7), (8,), (9,)]
    moved = [(0, 1, 2), (3, 5), (4,), (6, 7), (8,), (9,)]
    first, second = custom_blocks(5, 0.5, base), custom_blocks(5, 0.5, moved)
    assert first.sizes.tolist() == second.sizes.tolist()
    assert first != second and hash(first) != hash(second)


def test_block_arrays_are_read_only():
    model = correlated_star(10, 0.5, 2)
    for arr in (model.flat, model.sizes, model.bid, model.singles):
        with pytest.raises(ValueError):
            arr[0] = 1


# -- one model object ------------------------------------------------------

VIEWS = ("bid", "singles", "spread", "columns", "blocks")

# up to 64 vertices, where every view, the packer's columns too, is formed
SMALL_BUILDS = [
    lambda: erdos_renyi(10, 0.3),
    lambda: correlated_star(40, Fraction(1, 3), 3),
    lambda: connectivity_gadget(21, 0.1, 3),
    lambda: edge_block_exact(9, 1, 3),
    lambda: custom_blocks(5, 0.5, [(0, 1, 2), (3, 4), (5,), (6, 7), (8,), (9,)]),
]


def _arrays(view):
    if isinstance(view, np.ndarray):
        yield view
    elif isinstance(view, tuple):
        for part in view:
            yield from _arrays(part)


@pytest.mark.parametrize("make", SMALL_BUILDS)
def test_each_view_is_formed_once_and_read_only(make):
    model = make()
    for name in VIEWS:
        assert name not in vars(model)
        view = getattr(model, name)
        assert getattr(model, name) is view, name
        arrays = list(_arrays(view))
        assert arrays or name == "blocks"
        assert not any(arr.flags.writeable for arr in arrays), name
    assert all(type(block) is tuple for block in model.blocks)


@pytest.mark.parametrize("make", SMALL_BUILDS)
def test_a_model_with_its_views_read_equals_a_fresh_build(make):
    used = make()
    for name in VIEWS:
        getattr(used, name)
    sample(used, 1, keep_latents=True)
    fresh = make()
    assert used == fresh and hash(used) == hash(fresh)


def test_only_edge_block_models_carry_a_and_m():
    model = edge_block_exact(9, 1, 3)
    assert (model.a, model.m) == (1, 3)
    for make in SMALL_BUILDS:
        coins = make()
        if coins.kind != "edge-block-exact":
            assert (coins.a, coins.m) == (None, None), coins.kind
    for gone in ("params", "layout", "latents"):
        assert not hasattr(model, gone)


def test_a_and_m_go_with_the_edge_block_kind():
    with pytest.raises(ValueError, match="^a and m are set for edge-block-exact"):
        DistributionModel("edge-block-exact", 3, Fraction(1, 3), 2, ((0, 1, 2),))
    with pytest.raises(ValueError, match="^a and m are set for edge-block-exact"):
        DistributionModel("custom-blocks", 3, 0.5, 2, ((0, 1, 2),), a=1, m=3)


def test_an_index_beyond_int64_is_out_of_range():
    with pytest.raises(ValueError, match=f"^edge index {2 ** 70} out of range for n=4$"):
        custom_blocks(4, 0.5, [(0, 1), (2 ** 70, 2), (3,), (4,), (5,)])


# -- memory ---------------------------------------------------------------

# with blocks stored as tuples and an eager index of the private-coin edges
# the peak read 21.4 MiB (star) and 27.5 MiB (gadget); with the two arrays
# and no eager index, 5.6 and 8.0 MiB
BUILD_AND_SAMPLE_PEAK = 12 * 2 ** 20


@pytest.mark.parametrize("kind, p, d", [("star", 8, 7), ("gadget", 1, 15)])
def test_build_and_one_sample_at_2000_vertices_stay_small(kind, p, d):
    n = 2000
    tracemalloc.start()
    try:
        sample(build(kind, n, p * math.log(n) / n, d), 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < BUILD_AND_SAMPLE_PEAK, peak


@pytest.mark.parametrize("make", [
    lambda: erdos_renyi(70, 0.1),
    lambda: correlated_star(70, 0.1, 3),
    lambda: connectivity_gadget(70, 0.1, 8),
])
def test_draws_beyond_64_vertices_form_no_index_of_the_private_coins(make):
    model = make()
    sample(model, 1)
    sample(model, 2, keep_latents=True)
    sample_rows(model, [3, 4])
    assert "singles" not in vars(model)
    singles = model.singles    # formed on first read
    assert singles.size == model.latent_count() - model.block_count
    assert vars(model)["singles"] is singles


def test_the_layout_counts_latents_without_the_private_coins_index():
    model = custom_blocks(4, 0.5, [(2, 4), (0,), (1,), (3,), (5,)])
    assert model.latent_count() == 5
    assert "singles" not in vars(model)
