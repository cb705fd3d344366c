"""Exact oracles: latent enumeration, closed-form cross-checks, exhaustive scans.

The point of this file is independence: every oracle value is recomputed
here through a different route (closed-form recursion, scipy, raw python
loops) before the rest of the suite is allowed to trust it.
"""

import itertools
import math
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from depgraphs import graphs, oracle, rng
from depgraphs.distributions import (DistributionModel, _latent_blocks,
                                     blocks_from_text, connectivity_gadget,
                                     correlated_star, custom_blocks,
                                     edge_block_exact, erdos_renyi, realize,
                                     sample)
from depgraphs.errors import ResourceLimitError
from depgraphs.graphs import Graph, _endpoints, count_edges_between, num_edges
from depgraphs.oracle import (ENUMERATION_BUDGET, JUMBLEDNESS_MAX_N,
                              JumblednessViolation, er_connectivity_probability,
                              exact_binomial_two_sided_tail,
                              exact_edge_marginals, exact_event_probability,
                              exhaustive_jumbledness_check,
                              mean_variance_check, state_space_size, _collapser,
                              _walk_batches)
from depgraphs.predicates import (Predicate, connected,
                                  edge_count_statistic,
                                  edges_between_statistic,
                                  edge_deviation_exceeds,
                                  isolated_count_statistic, parse_predicate)


# -- the scalar Gray walk: the reference for the oracle's batched one ------

def _next_combination(x: int) -> int:
    """The next larger int with as many bits set (Gosper's hack)."""
    low = x & -x
    r = x + low
    return (((r ^ x) >> 2) // low) | r


def _walk(model: DistributionModel):
    """Yield (k, rows) once for every joint latent outcome, in Gray order.

    k is the number of coins set and rows the outcome's adjacency, one int
    per vertex.  rows is one list updated in place between outcomes, so a
    consumer that keeps it must copy it.  Each step moves one latent, and
    only that latent's edges are toggled in rows.
    """
    n = model.n
    rows = [0] * n
    u, v = _endpoints(n, np.concatenate([model.flat, model.singles]))
    pairs = list(zip(u.tolist(), v.tolist()))
    if model.uniform:
        yield from _walk_subsets(model, rows, pairs)
        return
    # per latent, the XOR toggle of its edges: (vertex, row mask) pairs
    owner = model.bid.tolist() + list(range(model.block_count, model.latent_count()))
    masks = [{} for _ in range(model.latent_count())]
    for j, (u, v) in zip(owner, pairs):
        masks[j][u] = masks[j].get(u, 0) | (1 << v)
        masks[j][v] = masks[j].get(v, 0) | (1 << u)
    toggles = [tuple(t.items()) for t in masks]
    # reflected binary Gray order: step i flips latent ctz(i)
    on = 0
    k = 0
    yield k, rows
    for i in range(1, 1 << model.latent_count()):
        j = (i & -i).bit_length() - 1
        for v, mask in toggles[j]:
            rows[v] ^= mask
        on ^= 1 << j
        k += 1 if (on >> j) & 1 else -1
        yield k, rows


def _walk_subsets(model, rows: list[int], pairs: list[tuple[int, int]]):
    """_walk for uniform-subset models: every block keeps a of its m slots.

    A block's choice is an m-bit mask with a bits set, and its choices run
    in increasing order of that mask.  The blocks move in reflected
    mixed-radix Gray order (TAOCP 7.2.1.1, Algorithm H), so each step
    moves one block to its next or previous choice.
    """
    a, m, blocks = model.a, model.m, model.block_count
    full = (1 << m) - 1

    def toggle(j: int, diff: int) -> None:
        base = j * m
        while diff:
            u, v = pairs[base + (diff & -diff).bit_length() - 1]
            rows[u] ^= 1 << v
            rows[v] ^= 1 << u
            diff &= diff - 1

    choice = [(1 << a) - 1] * blocks
    for j in range(blocks):
        toggle(j, choice[j])
    radix = comb(m, a)
    if radix == 1:
        yield 0, rows
        return
    digit = [0] * blocks
    step = [1] * blocks
    focus = list(range(blocks + 1))
    while True:
        yield 0, rows
        j = focus[0]
        focus[0] = 0
        if j == blocks:
            return
        old = choice[j]
        if step[j] > 0:
            choice[j] = _next_combination(old)
        else:
            choice[j] = full ^ _next_combination(full ^ old)
        toggle(j, old ^ choice[j])
        digit[j] += step[j]
        if digit[j] == 0 or digit[j] == radix - 1:
            step[j] = -step[j]
            focus[j] = focus[j + 1]
            focus[j + 1] = j + 1


# -- event probabilities against the independent recursion --------------

def test_connectivity_frozen_anchors():
    assert exact_event_probability(
        erdos_renyi(3, Fraction(1, 2)), connected()) == Fraction(1, 2)
    assert exact_event_probability(
        erdos_renyi(4, Fraction(1, 2)), connected()) == Fraction(19, 32)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)])
def test_connectivity_dual_route(n, p):
    # latent enumeration vs closed-form recursion: equal exact rationals
    via_enum = exact_event_probability(erdos_renyi(n, p), connected())
    via_recursion = er_connectivity_probability(n, p)
    assert via_enum == via_recursion
    assert isinstance(via_enum, Fraction)


def test_connectivity_float_route():
    f = exact_event_probability(erdos_renyi(4, 0.5), connected())
    assert isinstance(f, float)
    assert f == pytest.approx(19 / 32, abs=1e-12)
    assert er_connectivity_probability(4, 0.5) == pytest.approx(19 / 32)


def test_star_triangle_anchor():
    m = correlated_star(3, Fraction(1, 2), 1)
    p = exact_event_probability(m, parse_predicate("contains:k3"))
    # S = {0,1}; vertex 2 bonds to both on one coin; triangle iff that
    # coin and the 01 edge both land: 1/2 * 1/2
    assert p == Fraction(1, 4)


def test_star_triangle_by_hand_enumeration():
    # independent recomputation straight from the latent semantics
    m = correlated_star(3, Fraction(1, 2), 1)
    total = Fraction(0)
    for coin in (0, 1):          # bonds vertex 2 to 0 and 1
        for e01 in (0, 1):       # private edge inside S
            g = Graph.from_edges(3, ([(0, 2), (1, 2)] if coin else [])
                                 + ([(0, 1)] if e01 else []))
            weight = Fraction(1, 4)
            if g.edge_count() == 3:
                total += weight
    assert total == Fraction(1, 4)
    assert exact_event_probability(m, parse_predicate("contains:k3")) == total


def test_trivial_predicate_is_one():
    m = edge_block_exact(4, 1, 2)
    assert exact_event_probability(m, parse_predicate("true")) == Fraction(1)


def test_edge_block_exact_count_probability():
    # 3 blocks of 2, keep 1 each: the edge count is always 3
    m = edge_block_exact(4, 1, 2)
    assert exact_event_probability(m, parse_predicate("edge-count:3")) == 1
    assert exact_event_probability(m, parse_predicate("edge-count:2")) == 0


def test_custom_block_triangle():
    # edges 0,1,2 form the triangle on {0,1,2}, coupled on one coin;
    # remaining slots private: P(K3) = p + (1-p) P(triangle elsewhere),
    # and in n=4 any triangle through vertex 3 needs two private slots
    # plus one coupled slot, enumerated exactly below
    m = custom_blocks(4, Fraction(1, 2), blocks_from_text(4, "0 1 2"))
    got = exact_event_probability(m, parse_predicate("contains:k3"))
    brute = Fraction(0)
    slots = [(0, 1, 2), (3,), (4,), (5,)]
    for bits in itertools.product((0, 1), repeat=4):
        edges = [e for b, block in zip(bits, slots) if b for e in block]
        g = Graph.from_edge_indices(4, edges)
        if any(g.has_edge(u, v) and g.has_edge(u, w) and g.has_edge(v, w)
               for u, v, w in itertools.combinations(range(4), 3)):
            brute += Fraction(1, 16)
    assert got == brute


# -- the Gray walk against brute force through realize --------------------

WALK_PREDICATES = ["connected", "not-connected", "contains:k3", "lacks:k3",
                   "contains:k4", "isolated-vertex", "contains:path2",
                   "edge-count:3", "degree-in:1:3", "true"]
WALK_PROBABILITIES = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 7),
                      Fraction(12345, 54321)]


@st.composite
def walk_models(draw):
    """Small models of the three latent shapes, at most 2^12 outcomes."""
    shape = draw(st.sampled_from(["custom", "star", "edge-block"]))
    if shape == "edge-block":
        n = draw(st.integers(2, 7))
        L = n * (n - 1) // 2
        m = draw(st.sampled_from([d for d in range(1, L + 1) if L % d == 0]))
        model = edge_block_exact(n, draw(st.integers(1, m)), m)
    elif shape == "star":
        n = draw(st.integers(2, 7))
        model = correlated_star(n, draw(st.sampled_from(WALK_PROBABILITIES)),
                                draw(st.integers(0, n - 2)))
    else:
        n = draw(st.integers(1, 6))
        L = n * (n - 1) // 2
        labels = draw(st.lists(st.integers(0, 11), min_size=L, max_size=L))
        blocks = {}
        for e, label in enumerate(labels):
            blocks.setdefault(label, []).append(e)
        model = custom_blocks(n, draw(st.sampled_from(WALK_PROBABILITIES)),
                              list(blocks.values()))
    assume(state_space_size(model) <= 1 << 12)
    return model


def _brute_outcomes(model):
    """(weight, graph) for every latent state, through the sampler's realize."""
    if model.uniform:
        choices = list(itertools.combinations(range(model.m), model.a))
        per_latent = [choices] * model.latent_count()
        combos = len(choices) ** model.latent_count()
    else:
        per_latent = [(False, True)] * model.latent_count()
        combos = 1
    p = model.p
    for state in itertools.product(*per_latent):
        k = sum(1 for value in state if value is True)
        weight = p ** k * (1 - p) ** (model.coins - k) / combos
        yield weight, realize(model, state)


@settings(max_examples=40, deadline=None)
@given(walk_models(), st.sampled_from(WALK_PREDICATES))
def test_walk_matches_brute_force_through_realize(model, text):
    predicate = parse_predicate(text)
    outcomes = list(_brute_outcomes(model))
    L = model.n * (model.n - 1) // 2
    assert exact_event_probability(model, predicate) == sum(
        (w for w, g in outcomes if predicate(g)), Fraction(0))
    marginals = [Fraction(0)] * L
    for w, g in outcomes:
        for e in g.edge_indices():
            marginals[e] += w
    assert exact_edge_marginals(model) == marginals
    # every outcome is visited once: the walk's graphs are the realized ones
    walked = {tuple(rows) for _, rows in _walk(model)}
    assert len(walked) == state_space_size(model)
    assert walked == {g.rows for _, g in outcomes}


def test_walk_steps_one_latent_at_a_time():
    # Gray order: consecutive outcomes differ in one latent's edges, and k
    # moves by one as that latent's coin turns on or off
    model = correlated_star(6, Fraction(1, 2), 2)
    latents = ([frozenset(b) for b in model.blocks]
               + [frozenset([int(e)]) for e in model.singles])
    previous = None
    for k, rows in _walk(model):
        edges = set(Graph(model.n, rows).edge_indices())
        if previous is not None:
            old_k, old_edges = previous
            assert edges ^ old_edges in latents
            assert k - old_k == (1 if edges > old_edges else -1)
        previous = k, edges
    # uniform subsets: each step moves one block to another choice
    model = edge_block_exact(5, 2, 5)
    previous = None
    for k, rows in _walk(model):
        assert k == 0
        edges = set(Graph(model.n, rows).edge_indices())
        assert len(edges) == 4
        if previous is not None:
            assert len({e // 5 for e in edges ^ previous}) == 1
        previous = edges


# -- the batched walk against the scalar walk -----------------------------

@st.composite
def batch_models(draw):
    """A small model of each of the five kinds, n from 1 to 8, at most 2^14
    outcomes."""
    kind = draw(st.sampled_from(["er", "star", "gadget", "edge-block", "custom"]))
    p = draw(st.sampled_from(WALK_PROBABILITIES))
    if kind == "er":
        model = erdos_renyi(draw(st.integers(1, 5)), p)
    elif kind == "star":
        n = draw(st.integers(2, 8))
        model = correlated_star(n, p, draw(st.integers(0, n - 2)))
    elif kind == "gadget":
        model = connectivity_gadget(draw(st.integers(4, 8)), p, draw(st.sampled_from([0, 3])))
    elif kind == "edge-block":
        n = draw(st.integers(2, 8))
        L = n * (n - 1) // 2
        m = draw(st.sampled_from([d for d in range(1, L + 1) if L % d == 0]))
        model = edge_block_exact(n, draw(st.integers(1, m)), m)
    else:
        n = draw(st.integers(1, 8))
        L = n * (n - 1) // 2
        labels = draw(st.lists(st.integers(0, 13), min_size=L, max_size=L))
        blocks = {}
        for e, label in enumerate(labels):
            blocks.setdefault(label, []).append(e)
        model = custom_blocks(n, p, list(blocks.values()))
    assume(state_space_size(model) <= 1 << 14)
    return model


@settings(max_examples=60, deadline=None)
@given(batch_models(), st.sampled_from([1, 3, 16, 1 << 16]),
       st.randoms(use_true_random=False))
@example(erdos_renyi(1, Fraction(1, 2)), 1, random.Random(0))
def test_walk_batches_match_scalar_walk(model, cap, rnd):
    n = model.n
    # the blocks hold every outcome once, with its number of coins set; a
    # small block cap leaves latents above the low table, and a cap below
    # one latent's values reads that latent in slices
    scalar = Counter((k, tuple(rows)) for k, rows in _walk(model))
    blocks = list(_walk_batches(model, cap))
    assert all(len(k) <= cap for k, _ in blocks)
    batched = Counter()
    for k, rows in blocks:
        assert k.dtype == np.int64 and rows.shape == (len(k), n, 1)
        batched.update(zip(k.tolist(), map(tuple, rows[..., 0].tolist())))
    assert batched == scalar
    # every kernel tallies per k what its fn tallies over the scalar walk
    a = tuple(rnd.sample(range(n), rnd.randint(0, n)))
    b = tuple(rnd.sample(range(n), rnd.randint(0, n)))
    functionals = [parse_predicate(text) for text in WALK_PREDICATES]
    functionals += [edge_deviation_exceeds(0.5, a, b, model.p), edge_count_statistic(),
                    isolated_count_statistic(), edges_between_statistic(a, b)]
    for f in functionals:
        if f.batch is None:
            continue
        want, got = Counter(), Counter()
        for k, rows in _walk(model):
            want[k] += f.fn(Graph._from_rows_unchecked(n, rows))
        for k, rows in blocks:
            for kk, value in zip(k.tolist(), f.batch(rows).tolist()):
                got[kk] += value
        assert got == want, f.name


@pytest.mark.parametrize("n", [1, 2, 4, 8, 65, 130])
def test_walk_blocks_are_views_of_vertex_major_tables(n):
    # every block is the (T, n, W) view of one (n W, T) table, so a
    # kernel's vertex-major columns are the block's own words, not a copy;
    # the caps leave the low table alone, read the next latent in slices,
    # and XOR blocks with the latents above
    L = num_edges(n)
    models = [erdos_renyi(n, Fraction(1, 3))] if n <= 4 else []
    models += [custom_blocks(n, Fraction(1, 3), [list(range(j, L, 5)) for j in range(min(5, L))])]
    if L:
        models.append(edge_block_exact(n, 1, L))
    for model in models:
        for cap in (1, 3, 16, 1 << 16):
            for k, rows in _walk_batches(model, cap):
                assert k.dtype == np.int64
                assert rows.transpose(1, 2, 0).flags.c_contiguous
                if rows.shape[2] == 1:
                    assert np.shares_memory(graphs._columns(rows[..., 0]), rows)


def test_exact_beyond_64_vertices_walks_scalar():
    # n = 66 has no machine-word rows: two blocks cover every slot, the star
    # at vertex 0 and the clique on the rest, so the walk has 4 outcomes
    n = 66
    star = [v * (v - 1) // 2 for v in range(1, n)]
    rest = sorted(set(range(n * (n - 1) // 2)) - set(star))
    p = Fraction(1, 3)
    model = custom_blocks(n, p, [star, rest])
    assert state_space_size(model) == 4
    q = 1 - p
    for text, want in [("connected", p), ("isolated-vertex", q),
                       ("contains:k3", p), ("contains:path2", 1 - q * q),
                       ("edge-count:65", p * q), ("true", 1)]:
        assert exact_event_probability(model, parse_predicate(text)) == want, text
    assert exact_edge_marginals(model) == [p] * (n * (n - 1) // 2)
    rep = mean_variance_check(model, edge_count_statistic(), trials=2, seed=0)
    assert rep.exact_mean == p * len(star) + p * len(rest)
    assert rep.exact_variance == p * q * (len(star) ** 2 + len(rest) ** 2)
    # eight coins: 256 outcomes, tallied one at a time; a (T, L) table of
    # their edge bits as Python ints would take about 30 MiB
    L = n * (n - 1) // 2
    model = custom_blocks(n, p, [list(range(j, L, 8)) for j in range(8)])
    assert state_space_size(model) == 256
    assert exact_edge_marginals(model) == [p] * L
    assert _peak_bytes(exact_edge_marginals, model) < 4 << 20


def test_exact_beyond_64_vertices_on_uniform_subsets():
    # one uniform block of all 2145 slots at n = 66 keeping one: every
    # outcome is a single edge, so no outcome is connected, every marginal
    # is 1/2145, and the edge count is 1 with variance 0
    n = 66
    model = edge_block_exact(n, 1, 2145)
    assert num_edges(n) == 2145 and state_space_size(model) == 2145
    assert exact_event_probability(model, connected()) == 0
    assert exact_edge_marginals(model) == [Fraction(1, 2145)] * 2145
    rep = mean_variance_check(model, edge_count_statistic(), trials=2, seed=0)
    assert rep.exact_mean == 1 and rep.exact_variance == 0


def test_blocks_beyond_64_vertices_are_wide_rows_within_the_cap():
    # beyond 64 vertices the blocks are wide (T, n, W) uint64 rows, as many
    # as keep `columns` row-sized cells per outcome within the byte budget
    n = 66
    model = edge_block_exact(n, 1, 2145)
    walked = Counter((k, tuple(rows)) for k, rows in _walk(model))
    for columns in (n, 2145):
        blocks = list(_walk_batches(model, oracle._batch_cap(n, columns)))
        assert len(blocks) > 1
        batched = Counter()
        for k, rows in blocks:
            assert rows.dtype == np.uint64 and rows.shape == (len(k), n, 2)
            assert len(k) * columns * graphs.row_bytes(n) // n <= graphs.BATCH_BYTES
            batched.update(zip(k.tolist(), (tuple(graphs.row_ints(w)) for w in rows)))
        assert batched == walked

    # only the kernels see the outcomes and the sampled trials: no Graph is
    # formed for them
    def refuse(g):
        raise AssertionError("an outcome reached fn")

    isolated = Predicate("isolated-vertex", refuse,
                         lambda rows: graphs.batch_isolated(rows).any(axis=1))
    assert exact_event_probability(model, isolated) == 1
    edges = Predicate("edge-count", refuse, graphs.batch_edge_counts)
    rep = mean_variance_check(model, edges, trials=2, seed=0)
    assert rep.exact_mean == 1 and rep.exact_variance == 0
    assert rep.empirical_mean == 1 and rep.empirical_variance == 0


def _reference_models(n):
    """Models at n > 64 whose outcomes the scalar walk visits quickly: a
    custom one of six coins (the stars of vertices 0 and n - 1, the rest
    round robin in four), and one uniform block of every slot keeping 1."""
    L = num_edges(n)
    first = {v * (v - 1) // 2 for v in range(1, n)}
    last = {graphs.edge_index(u, n - 1, n) for u in range(1, n - 1)}
    rest = sorted(set(range(L)) - first - last)
    blocks = [sorted(first), sorted(last)] + [rest[j::4] for j in range(4)]
    return [custom_blocks(n, Fraction(1, 3), blocks), edge_block_exact(n, 1, L)]


@pytest.mark.parametrize("n", [65, 66, 130])
def test_wide_walk_batches_match_scalar_walk(n):
    # past one word the blocks hold every outcome once, as rows of several
    # words, and every kernel tallies per k what its fn tallies over the
    # scalar walk; a cap of 7 leaves latents above the low table and
    # reads a latent in slices
    rnd = random.Random(n)
    a = tuple(rnd.sample(range(n), 9))
    b = tuple(rnd.sample(range(n), 7))
    for model in _reference_models(n):
        functionals = [parse_predicate(text) for text in WALK_PREDICATES]
        functionals += [edge_deviation_exceeds(0.5, a, b, model.p),
                        edge_count_statistic(), isolated_count_statistic(),
                        edges_between_statistic(a, b)]
        functionals = [f for f in functionals if f.batch is not None]
        want = [Counter() for _ in functionals]
        scalar = Counter()
        for k, rows in _walk(model):
            scalar[k, tuple(rows)] += 1
            g = Graph._from_rows_unchecked(n, rows)
            for f, tally in zip(functionals, want):
                tally[k] += f.fn(g)
        blocks = list(_walk_batches(model, 7))
        batched = Counter()
        for k, rows in blocks:
            assert len(k) <= 7 and rows.dtype == np.uint64
            assert rows.shape == (len(k), n, graphs.row_words(n))
            batched.update(zip(k.tolist(), (tuple(graphs.row_ints(w)) for w in rows)))
        assert batched == scalar
        for f, tally in zip(functionals, want):
            got = Counter()
            for k, rows in blocks:
                for kk, value in zip(k.tolist(), f.batch(rows).tolist()):
                    got[kk] += value
            assert got == tally, (model, f.name)


def test_exact_edge_marginals_at_130_vertices():
    model = _reference_models(130)[0]
    assert exact_edge_marginals(model) == [model.p] * num_edges(130)


def test_exact_at_1000_vertices_reads_wide_blocks():
    # the two-block model of 4 outcomes at n = 1000, each query through the
    # kernels on wide rows (contains:k3 on each outcome's Graph)
    start = time.perf_counter()
    n = 1000
    star = [v * (v - 1) // 2 for v in range(1, n)]
    rest = sorted(set(range(num_edges(n))) - set(star))
    p = Fraction(1, 3)
    q = 1 - p
    model = custom_blocks(n, p, [star, rest])
    for text, want in [("connected", p), ("isolated-vertex", q), ("contains:k3", p)]:
        assert exact_event_probability(model, parse_predicate(text)) == want, text
    rep = mean_variance_check(model, edge_count_statistic(), trials=2, seed=0)
    assert rep.exact_mean == p * len(star) + p * len(rest)
    assert rep.exact_variance == p * q * (len(star) ** 2 + len(rest) ** 2)
    assert time.perf_counter() - start < 2.0


def test_exact_uniform_block_at_300_vertices_forms_no_slot_table():
    # one block of all 44850 slots keeping one: every outcome has a single
    # edge; a (slots, n, W) table of the slots' rows would take 538 MB
    model = edge_block_exact(300, 1, 44850)
    pred = parse_predicate("isolated-vertex")
    assert _peak_bytes(exact_event_probability, model, pred) < 32 << 20
    assert exact_event_probability(model, pred) == 1


def test_exact_moments_of_large_integral_values(monkeypatch):
    # float64 sums of these values round past 2^53, and int64 squares of
    # the second wrap; the exact moments need neither
    model = erdos_renyi(6, Fraction(1, 3))
    stat = Predicate("scaled", lambda g: g.edge_count() * 2 ** 20 + 1,
                     lambda rows: graphs.batch_edge_counts(rows) * 2 ** 20 + 1)
    rep = mean_variance_check(model, stat, trials=2, seed=0)
    assert rep.exact_mean == 5 * 2 ** 20 + 1
    assert rep.exact_variance == Fraction(10, 3) * 2 ** 40
    model = erdos_renyi(3, Fraction(1, 2))
    stat = Predicate("shifted", lambda g: g.edge_count() << 32,
                     lambda rows: graphs.batch_edge_counts(rows) << 32)
    rep = mean_variance_check(model, stat, trials=2, seed=0)
    assert rep.exact_mean == 3 * 2 ** 31
    assert rep.exact_variance == Fraction(3, 4) * 2 ** 64
    # one outcome per block: each block's sums are exact in float64, and
    # their total per number of coins set is not
    monkeypatch.setattr(graphs, "BATCH_BYTES", 5)
    assert oracle._batch_cap(5, 5) == 1
    model = erdos_renyi(5, Fraction(1, 3))
    stat = Predicate("scaled", lambda g: g.edge_count() * 2 ** 22 + 1,
                     lambda rows: graphs.batch_edge_counts(rows) * 2 ** 22 + 1)
    rep = mean_variance_check(model, stat, trials=2, seed=0)
    assert rep.exact_mean == Fraction(10, 3) * 2 ** 22 + 1
    assert rep.exact_variance == Fraction(20, 9) * 2 ** 44


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_walk_batches_read_a_large_latent_in_slices(monkeypatch):
    # one uniform block of all 28 slots keeping 4 has comb(28, 4) = 20475
    # values: with a budget of 64 outcomes (8 one-byte rows each) per block,
    # its values are formed 64 at a time, never as one table
    model = edge_block_exact(8, 4, 28)
    pred = parse_predicate("connected")
    want = exact_event_probability(model, pred)
    counts = Counter()
    for k, rows in _walk(model):
        counts[k] += pred(Graph._from_rows_unchecked(8, rows))
    assert want == _collapser(model)([counts[0]])
    monkeypatch.setattr(graphs, "BATCH_BYTES", 64 * 8)
    assert oracle._batch_cap(8, 8) == 64
    assert all(len(k) <= 64 for k, _ in _walk_batches(model, 64))
    assert exact_event_probability(model, pred) == want
    # the full table of the values' rows alone would take 160 KiB
    assert _peak_bytes(exact_event_probability, model, pred) < 64 << 10


def test_mean_variance_statistic_without_kernel():
    # a statistic without a batch kernel is evaluated on each outcome's Graph
    model = correlated_star(5, Fraction(1, 3), 2)
    stat = Predicate("max-degree", lambda g: max(r.bit_count() for r in g.rows))
    collapse = _collapser(model)
    s1 = [0] * (model.coins + 1)
    s2 = [0] * (model.coins + 1)
    for k, rows in _walk(model):
        v = stat(Graph._from_rows_unchecked(model.n, rows))
        s1[k] += v
        s2[k] += v * v
    rep = mean_variance_check(model, stat, trials=200, seed=4)
    assert rep.exact_mean == collapse(s1)
    assert rep.exact_variance == collapse(s2) - collapse(s1) ** 2


def test_budget_enforced():
    big = erdos_renyi(50, Fraction(1, 2))
    assert state_space_size(big) > ENUMERATION_BUDGET
    with pytest.raises(ResourceLimitError):
        exact_event_probability(big, connected())
    with pytest.raises(ResourceLimitError):
        exact_edge_marginals(big)


def test_budget_check_forms_no_giant_integer():
    # 2^1999000 outcomes once took ~100 s to form and then overflowed the
    # int -> str digit limit while formatting the error message
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=r"has 2\^1999000 outcomes"):
        exact_event_probability(erdos_renyi(2000, 0.01), connected())
    with pytest.raises(ResourceLimitError, match=r"has 2\^780 outcomes"):
        exact_edge_marginals(erdos_renyi(40, Fraction(1, 2)))
    with pytest.raises(ResourceLimitError, match=r"has comb\(3,1\)\^145 outcomes"):
        exact_edge_marginals(edge_block_exact(30, 1, 3))
    # one block of all 499500 slots keeping half: comb(499500, 249750) alone
    # took 3 s to form
    with pytest.raises(ResourceLimitError, match=r"comb\(499500,249750\)\^1 "):
        exact_edge_marginals(edge_block_exact(1000, 249750, 499500))
    assert time.perf_counter() - start < 1.0


def test_state_space_size():
    assert state_space_size(erdos_renyi(4, 0.5)) == 2 ** 6
    # 3 blocks of 2 slots keeping 1: 2 choices each
    assert state_space_size(edge_block_exact(4, 1, 2)) == 8
    # star n=4 d=1: 2 block coins + 2 private edges (01 and 23)
    assert state_space_size(correlated_star(4, 0.5, 1)) == 2 ** 4
    assert state_space_size(edge_block_exact(6, 2, 5)) == math.comb(5, 2) ** 3
    assert state_space_size(erdos_renyi(40, 0.5)) == 2 ** 780


# -- binomial tail -----------------------------------------------------

def test_binomial_tail_edge_cases():
    assert exact_binomial_two_sided_tail(10, 0.5, 0.0) == 1.0
    assert exact_binomial_two_sided_tail(10, 0.5, -3.0) == 1.0
    assert exact_binomial_two_sided_tail(10, 0.0, 1.0) == 0.0
    assert exact_binomial_two_sided_tail(10, 1.0, 1.0) == 0.0
    assert exact_binomial_two_sided_tail(10, 0.5, 100.0) == 0.0


def test_binomial_tail_refuses_a_non_finite_t():
    # t = nan or inf kept no term and answered 0.0
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="t must be finite"):
            exact_binomial_two_sided_tail(10, 0.3, t)


def test_binomial_tail_small_case_by_hand():
    # N=2, p=1/2, t=1: |X-1| >= 1 iff X in {0, 2}: probability 1/2
    assert exact_binomial_two_sided_tail(2, 0.5, 1.0) == pytest.approx(0.5)


def test_binomial_tail_against_scipy():
    for N, p, t in [(10, 0.3, 2.0), (100, 0.5, 10.0), (200, 0.1, 7.5),
                    (50, 0.9, 4.0)]:
        mu = N * p
        ks = [k for k in range(N + 1) if abs(k - mu) >= t]
        ref = float(sum(sps.binom.pmf(k, N, p) for k in ks))
        assert exact_binomial_two_sided_tail(N, p, t) == pytest.approx(
            ref, rel=1e-10, abs=1e-300)


@given(st.integers(1, 150), st.floats(0.01, 0.99), st.floats(0.1, 50))
def test_binomial_tail_decreasing_in_t(N, p, t):
    a = exact_binomial_two_sided_tail(N, p, t)
    b = exact_binomial_two_sided_tail(N, p, t + 1)
    assert 0.0 <= b <= a <= 1.0


def test_binomial_tail_threshold_strict():
    # the event is |X - mu| >= t with >=: at t exactly hitting a support
    # point, that point is included
    #  N=4, p=1/2: mu=2; t=1 includes X in {0,1,3,4}: 1 - C(4,2)/16 = 5/8
    assert exact_binomial_two_sided_tail(4, 0.5, 1.0) == pytest.approx(5 / 8)


# -- exhaustive jumbledness check --------------------------------------

def test_jumbledness_k4_sparse_p_violation():
    # K4 pretending p = 0.01: A = B = V gives e = 12, expected 0.16,
    # deviation 11.84 against allowance 10 sqrt(16 * 4 * 0.01) = 8
    v = exhaustive_jumbledness_check(Graph.complete(4), 0.01, 0)
    assert v is not None
    assert v.a_vertices == (0, 1, 2, 3) and v.b_vertices == (0, 1, 2, 3)
    assert v.edges == 12
    assert v.deviation == pytest.approx(11.84)
    assert v.allowance == pytest.approx(8.0)
    assert v.slack == pytest.approx(3.84)


def test_jumbledness_empty_graph_clean():
    # deviation p|A||B| <= n^2 p; allowance C sqrt(|A||B| n p) >= C sqrt(np)
    # comfortably dominates at n <= 10, p >= 0.1
    assert exhaustive_jumbledness_check(Graph.empty(8), 0.3, 0) is None


def test_jumbledness_budget():
    with pytest.raises(ResourceLimitError):
        exhaustive_jumbledness_check(Graph.empty(JUMBLEDNESS_MAX_N + 1), 0.5, 0)


@pytest.mark.parametrize("p, C", [(0.5, math.nan), (0.5, math.inf),
                                  (math.nan, 1.0), (-0.1, 1.0),
                                  (math.inf, 1.0), (0.5, -math.inf),
                                  (1e300, 1e300), (1e308, 1e300),
                                  (5e307, 1e-300)])
def test_jumbledness_nan_slack_gives_none(p, C):
    # a NaN slack (C NaN or infinite at |A||B| = 0, p NaN or infinite,
    # sqrt of a negative scale, an allowance that overflows) gives None,
    # even where other pairs violate, and no overflow warning
    assert exhaustive_jumbledness_check(Graph.complete(5), p, 0, C=C) is None


def _prefix_sum_jumbledness(g: Graph, p, d: int,
                            C: float = 10.0) -> JumblednessViolation | None:
    """The check over all 2^n masks at once, the reference up to n = 16 (uint16 masks).

    For a fixed A, e(A,B) sums the weights w(x) = |N(x) & A| over x in B,
    so over |B| = k it runs from the sum of the k smallest weights to the
    sum of the k largest.  Sorted prefix sums of the weights give every
    (A, k)'s largest slack from the same float expressions as a pair's, and
    only the first best A's 2^n sets B are scanned, all at once.
    """
    n = g.n
    if n > JUMBLEDNESS_MAX_N:
        raise ResourceLimitError(
            f"jumbledness scan covers 4^{n} pairs; limit is n <= {JUMBLEDNESS_MAX_N}")
    pf = float(p)
    full = 1 << n
    masks = np.arange(full, dtype=np.uint16)
    pop = np.bitwise_count(masks).astype(np.int64)
    adj = np.array(g.rows, dtype=np.uint16)
    # weight[A, x] = |N(x) intersect A|; e(A,B) = sum over x in B
    weight = np.bitwise_count(masks[:, None] & adj[None, :]).astype(np.int64)
    ranked = np.sort(weight, axis=1)
    zero = np.zeros((full, 1), dtype=np.int64)
    lowest = np.hstack([zero, np.cumsum(ranked, axis=1)])
    highest = np.hstack([zero, np.cumsum(ranked[:, ::-1], axis=1)])
    scale = n * pf * (d + 1)

    def slack(counts, sizes):
        deviation = np.abs(counts - pf * sizes)
        allowance = C * np.sqrt(sizes * scale)
        return deviation, allowance, deviation - allowance

    # sizes[A, k] = |A| k; a NaN slack (p < 0 or NaN, C NaN or infinite)
    # reaches the maximum and gives None, as it did in the full scan
    sizes = pop[:, None] * np.arange(n + 1, dtype=np.int64)[None, :]
    best = np.maximum(slack(lowest, sizes)[2], slack(highest, sizes)[2]).max(axis=1)
    if not best.max() > 0:
        return None
    a_mask = int(np.argmax(best))
    bits = ((masks[:, None] >> np.arange(n, dtype=np.uint16)[None, :]) & 1
            ).astype(np.int64)
    counts = bits @ weight[a_mask]
    deviation, allowance, row = slack(counts, pop[a_mask] * pop)
    b_mask = int(np.argmax(row))
    a = tuple(v for v in range(n) if (a_mask >> v) & 1)
    b = tuple(v for v in range(n) if (b_mask >> v) & 1)
    return JumblednessViolation(a, b, int(counts[b_mask]), pf * (len(a) * len(b)),
                                float(deviation[b_mask]), float(allowance[b_mask]),
                                float(row[b_mask]))


@pytest.mark.parametrize("n", [13, 14, 15, 16])
@pytest.mark.parametrize("density", [0.15, 0.6])
@pytest.mark.parametrize("C", [0.1, 1.0, 10.0])
def test_jumbledness_matches_prefix_sum_reference(n, density, C):
    # past 2^14 masks (n = 15, 16) both A and B run in several chunks
    rnd = random.Random(n * 100 + int(density * 10))
    g = Graph.from_edges(n, [(u, v) for v in range(n) for u in range(v)
                             if rnd.random() < density])
    for p, d in ((density, n % 3), (density / 2, 0), (min(1.0, 2 * density), 1)):
        assert (repr(exhaustive_jumbledness_check(g, p, d, C=C))
                == repr(_prefix_sum_jumbledness(g, p, d, C=C)))


@pytest.mark.parametrize("edges, n, p, C, chunk, want", [
    # A = {0} (mask 1, chunk 0) and A = {1, 2, 3} (mask 14, chunk 1) tie
    ([(0, 1), (0, 2), (0, 3)], 4, 0.2, 0.3, 8, ((0,), (1, 2, 3))),
    # one mask a chunk: A = {0} and {1} tie, and so do B = {0} and {1}
    ([(0, 1)], 2, 0.5, 0.1, 1, ((0,), (0,))),
])
def test_jumbledness_tie_across_chunks_keeps_first_pair(monkeypatch, edges, n, p,
                                                        C, chunk, want):
    g = Graph.from_edges(n, edges)
    slack, arg = brute_jumbledness(g, p, 0, C=C)
    assert arg == want
    monkeypatch.setattr(oracle, "JUMBLEDNESS_CHUNK", chunk)
    v = exhaustive_jumbledness_check(g, p, 0, C=C)
    assert (v.a_vertices, v.b_vertices) == want and v.slack == slack


def test_jumbledness_complete_graph_past_16_bit_masks():
    # K_n at p = 0.01: A = B = V, e = n(n - 1), allowance 10 sqrt(n^2 n p);
    # at n = 17 the masks pass 16 bits and A and B each take 8 chunks
    n = 17
    v = exhaustive_jumbledness_check(Graph.complete(n), 0.01, 0)
    assert v.a_vertices == v.b_vertices == tuple(range(n))
    assert v.edges == n * (n - 1)
    assert v.deviation == pytest.approx(n * (n - 1) - 0.01 * n * n)
    assert v.allowance == pytest.approx(10 * math.sqrt(n * n * n * 0.01))


def test_merge_exchange_sorts_every_key_count():
    # every 0-1 input up to n = 16, which proves the network sorts every
    # input (the 0-1 principle); random bytes up to the limit
    def run(n, w):
        for lower, upper in oracle._merge_exchange(n):
            low, high = w[lower], w[upper]
            w[lower] = np.minimum(low, high)
            w[upper] = np.maximum(low, high)
        return w

    gen = np.random.default_rng(7)
    for n in range(1, JUMBLEDNESS_MAX_N + 1):
        if n <= 16:
            cols = np.arange(1 << n, dtype=np.uint32)
            w = ((cols >> np.arange(n, dtype=np.uint32)[:, None]) & 1).astype(np.uint8)
        else:
            w = gen.integers(0, n + 1, size=(n, 4096), dtype=np.uint8)
        assert (run(n, w.copy()) == np.sort(w, axis=0)).all(), n


def brute_jumbledness(g, p, d, C=10.0):
    """Plain double loop over all subset pairs; returns the max slack.

    Each pair's slack uses the scan's float expressions, with the size
    |A||B| formed as an integer first, so the two agree to the bit.
    """
    n = g.n
    scale = n * p * (d + 1)
    best = 0.0
    arg = None
    subsets = []
    for mask in range(1, 1 << n):
        subsets.append([v for v in range(n) if (mask >> v) & 1])
    for a in subsets:
        for b in subsets:
            e = count_edges_between(g, a, b)
            size = len(a) * len(b)
            dev = abs(e - p * size)
            allow = C * math.sqrt(size * scale)
            if dev - allow > best:
                best = dev - allow
                arg = (tuple(a), tuple(b))
    return best, arg


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.floats(0.0, 1.0), st.integers(1, 7),
       st.integers(0, 3), st.sampled_from([0.1, 1.0, 10.0]))
@example(seed=1, p=0.0, n=6, d=0, C=10.0)
@example(seed=2, p=1.0, n=7, d=3, C=0.1)
@example(seed=3, p=0.0, n=1, d=1, C=1.0)
def test_jumbledness_matches_brute(seed, p, n, d, C):
    # dense graphs against a spread of claimed p, p = 0 and 1 included
    rng = random.Random(seed)
    g = Graph.from_edges(n, [(u, v) for v in range(n) for u in range(v)
                             if rng.random() < 0.7])
    fast = exhaustive_jumbledness_check(g, p, d, C=C)
    slack, arg = brute_jumbledness(g, p, d, C=C)
    if fast is None:
        assert arg is None
    else:
        assert fast.slack == slack
        assert (fast.a_vertices, fast.b_vertices) == arg
        assert fast.edges == count_edges_between(g, *arg)


# (n, graph seed, p, d, C) and the violation a full 4^n scan returned
PINNED_VIOLATIONS = [
    ((10, 1, 0.3, 0, 1.0),
     "JumblednessViolation(a_vertices=(3, 6), b_vertices=(4, 5, 7, 8, 9), "
     "edges=10, expected=3.0, deviation=7.0, allowance=5.477225575051661, "
     "slack=1.5227744249483388)"),
    ((11, 2, 0.5, 2, 0.3),
     "JumblednessViolation(a_vertices=(0, 2, 4, 5, 6, 7, 8, 9, 10), "
     "b_vertices=(0, 2, 4, 5, 6, 7, 8, 9, 10), edges=24, expected=40.5, "
     "deviation=16.5, allowance=10.967451846258546, slack=5.532548153741454)"),
    ((11, 5, 0.5, 2, 1.0), "None"),
    ((12, 3, 0.2, 1, 0.5),
     "JumblednessViolation(a_vertices=(1, 2, 3, 4, 5, 6, 7, 8, 10, 11), "
     "b_vertices=(1, 2, 3, 4, 5, 6, 7, 8, 10, 11), edges=6, expected=20.0, "
     "deviation=14.0, allowance=10.954451150103322, slack=3.0455488498966776)"),
    ((12, 4, 0.6, 0, 0.5),
     "JumblednessViolation(a_vertices=(0, 2, 3, 6, 7, 9, 11), "
     "b_vertices=(0, 2, 3, 6, 7, 9, 11), edges=16, expected=29.4, "
     "deviation=13.399999999999999, allowance=9.391485505499116, "
     "slack=4.008514494500883)"),
]


@pytest.mark.parametrize("case, want", PINNED_VIOLATIONS)
def test_jumbledness_pinned_violations(case, want):
    # graphs with each pair present with probability p, seeded
    n, seed, p, d, C = case
    rng = random.Random(seed)
    g = Graph.from_edges(n, [(u, v) for v in range(n) for u in range(v)
                             if rng.random() < p])
    v = exhaustive_jumbledness_check(g, p, d, C=C)
    assert repr(v) == want
    assert v is None or v.deviation == abs(v.edges - v.expected)


def test_jumbledness_sampled_graphs_clean_at_true_p():
    # honest samples at their own p never violate at C = 10 for small n
    m = erdos_renyi(9, 0.4)
    for seed in range(25):
        g = sample(m, seed).graph
        assert exhaustive_jumbledness_check(g, 0.4, 0) is None


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([Fraction(1, 3), Fraction(0), Fraction(1), Fraction(5, 7),
                        Fraction(1, 1 << 17), 0.3]),
       st.lists(st.one_of(st.integers(0, 10 ** 6), st.fractions(0, 50),
                          st.floats(0, 50)), min_size=5, max_size=5))
def test_collapser_equals_direct_sum(p, counts):
    # weights formed once per call give what the sum formed per term gave
    m = erdos_renyi(3, p)       # 3 coins: counts per k = 0..3
    exact = isinstance(p, Fraction)
    pv, zero = (p, Fraction(0)) if exact else (float(p), 0.0)
    direct = zero
    for k, w in enumerate(counts[:4]):
        if w:
            direct = direct + w * pv ** k * (1 - pv) ** (3 - k)
    got = _collapser(m)(counts[:4])
    assert got == direct and type(got) is type(direct)
    blocks = edge_block_exact(4, 1, 2)      # no coins, 2^3 uniform combinations
    assert _collapser(blocks)(counts[4:]) == counts[4] / Fraction(8)


# -- mean/variance check -----------------------------------------------

def test_mean_variance_er_edge_count():
    m = erdos_renyi(5, Fraction(1, 2))
    rep = mean_variance_check(m, edge_count_statistic(), trials=4000, seed=8)
    assert rep.exact_mean == Fraction(5)          # 10 slots * 1/2
    assert rep.exact_variance == Fraction(5, 2)   # 10 * 1/4
    assert not rep.mean_flag and not rep.variance_flag
    assert rep.empirical_mean == pytest.approx(5.0, abs=0.2)


def test_mean_variance_constant_statistic():
    m = edge_block_exact(4, 1, 2)
    rep = mean_variance_check(m, edge_count_statistic(), trials=100, seed=3)
    assert rep.exact_mean == Fraction(3)
    assert rep.exact_variance == 0
    assert rep.empirical_variance == 0.0
    assert not rep.mean_flag and not rep.variance_flag


def test_mean_variance_star_crossing_frozen():
    # e({3}, S) for star n=4, d=1, p=1/2: vertex 3 bonds to S={0,1} on one
    # coin, so the count is 0 or 2, mean 1, variance 1
    m = correlated_star(4, Fraction(1, 2), 1)
    stat = edges_between_statistic((3,), (0, 1))
    rep = mean_variance_check(m, stat, trials=3000, seed=21)
    assert rep.exact_mean == Fraction(1)
    assert rep.exact_variance == Fraction(1)
    assert not rep.mean_flag and not rep.variance_flag


def test_mean_variance_er_crossing_independent():
    # same statistic under ER: sum of two independent coins, variance 1/2
    m = erdos_renyi(4, Fraction(1, 2))
    stat = edges_between_statistic((3,), (0, 1))
    rep = mean_variance_check(m, stat, trials=3000, seed=22)
    assert rep.exact_mean == Fraction(1)
    assert rep.exact_variance == Fraction(1, 2)


def test_mean_variance_budget_leaves_exact_none():
    m = erdos_renyi(40, 0.5)
    rep = mean_variance_check(m, edge_count_statistic(), trials=50, seed=0)
    assert rep.exact_mean is None and rep.exact_variance is None
    assert not rep.mean_flag and not rep.variance_flag
    assert rep.empirical_mean == pytest.approx(390.0, rel=0.05)


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


def _per_trial_moments(model, stat, trials, seed):
    """The empirical mean and variance the plain way: a fresh generator,
    one draw per trial, from_edge_indices and the statistic's fn."""
    gen = rng.generator(seed)
    values = np.empty(trials, dtype=np.float64)
    for i in range(trials):
        (drawn,) = _latent_blocks(model, gen, 1)
        edges = _edges(model, drawn[0]).tolist()
        g = Graph.from_edge_indices(model.n, edges)
        values[i] = stat.fn(g)
    return float(values.mean()), float(values.var(ddof=1))


@pytest.mark.parametrize("model, stat", [
    (erdos_renyi(5, Fraction(2, 5)), edge_count_statistic()),
    (correlated_star(70, 0.1, 3), isolated_count_statistic()),
    (edge_block_exact(8, 2, 4), edges_between_statistic((0, 1, 2), (5, 6, 7))),
    (custom_blocks(6, 0.3, blocks_from_text(6, "0 1 2; 5 9")),
     Predicate("max-degree", lambda g: max(graphs.degree_sequence(g)))),
], ids=["er-5", "star-70", "edge-block-8", "no-kernel"])
@pytest.mark.parametrize("budget", [None, 3000], ids=["default-budget", "small-budget"])
def test_mean_variance_empirical_moments_equal_per_trial_draws(
        monkeypatch, model, stat, budget):
    # the check draws its trials a block at a time and packs and evaluates
    # them a block at a time; a small budget splits them into many blocks
    want = _per_trial_moments(model, stat, 300, 17)
    if budget is not None:
        monkeypatch.setattr(graphs, "BATCH_BYTES", budget)
    rep = mean_variance_check(model, stat, trials=300, seed=17)
    assert (rep.empirical_mean, rep.empirical_variance) == want


def test_mean_variance_needs_two_trials():
    with pytest.raises(ValueError):
        mean_variance_check(erdos_renyi(4, 0.5), edge_count_statistic(), 1, 0)


# -- marginal oracle vs direct block reasoning --------------------------

def test_marginals_rational_exactness_large_denominator():
    m = erdos_renyi(3, Fraction(12345, 54321))
    for mg in exact_edge_marginals(m):
        assert mg == Fraction(12345, 54321)


def test_rational_p_stays_rational_at_any_denominator():
    # a Fraction p gives Fractions however large its denominator
    p = Fraction(1, 65537)
    for mg in exact_edge_marginals(erdos_renyi(3, p)):
        assert mg == p and type(mg) is Fraction
    for n in range(1, 5):
        got = exact_event_probability(erdos_renyi(n, p), connected())
        assert got == er_connectivity_probability(n, p) and type(got) is Fraction, n
    rep = mean_variance_check(erdos_renyi(3, p), edge_count_statistic(), 10, 1)
    assert rep.exact_mean == 3 * p and type(rep.exact_mean) is Fraction
    assert rep.exact_variance == 3 * p * (1 - p) and type(rep.exact_variance) is Fraction


def test_er_connectivity_monotone_in_p():
    vals = [er_connectivity_probability(6, Fraction(k, 10)) for k in range(1, 10)]
    assert vals == sorted(vals)


def test_er_connectivity_complete_and_empty():
    assert er_connectivity_probability(5, Fraction(1)) == 1
    assert er_connectivity_probability(5, Fraction(0)) == 0
    assert er_connectivity_probability(1, Fraction(0)) == 1


def _recursive_connectivity(n, p, memo):
    # the recursion as first written, top down; memo holds one p's values
    one = Fraction(1) if isinstance(p, Fraction) else 1.0
    if n == 1:
        return one
    if n not in memo:
        q = one - p
        total = one * 0
        for k in range(1, n):
            total += (comb(n - 1, k - 1) * _recursive_connectivity(k, p, memo)
                      * q ** (k * (n - k)))
        memo[n] = one - total
    return memo[n]


@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(2, 7), Fraction(12345, 54321),
                               0.5, 0.1, 0.37, 1e-3])
def test_er_connectivity_bottom_up_equals_recursion(p):
    # same expression in the same order: bit-identical floats and Fractions,
    # and a refusal where the float sum cancels out of [0, 1] (p = 1e-3, n = 9)
    for n in range(1, 31):
        want = _recursive_connectivity(n, p, {})
        if not 0 <= want <= 1:
            with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
                er_connectivity_probability(n, p)
            continue
        got = er_connectivity_probability(n, p)
        assert got == want and type(got) is type(want), n


def test_er_connectivity_float_out_of_range_raises():
    # the float sum reads -7.8e-15 here; the exact path gives a probability
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        er_connectivity_probability(13, 0.0076)
    exact = er_connectivity_probability(13, Fraction(19, 2500))
    assert type(exact) is Fraction and 0 <= exact <= 1
