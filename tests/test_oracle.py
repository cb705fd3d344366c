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

from depgraphs import graphs, oracle
from depgraphs.distributions import (blocks_from_text, connectivity_gadget,
                                     correlated_star, custom_blocks,
                                     edge_block_exact, erdos_renyi, realize,
                                     sample)
from depgraphs.errors import ResourceLimitError
from depgraphs.graphs import Graph, count_edges_between, num_edges
from depgraphs.oracle import (ENUMERATION_BUDGET, er_connectivity_probability,
                              exact_binomial_two_sided_tail,
                              exact_edge_marginals, exact_event_probability,
                              exhaustive_jumbledness_check,
                              mean_variance_check, state_space_size, _collapser,
                              _walk, _walk_batches)
from depgraphs.predicates import (Predicate, Statistic, connected,
                                  edge_count_statistic,
                                  edges_between_statistic,
                                  edge_deviation_exceeds,
                                  isolated_count_statistic, parse_predicate)


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
    layout = model.layout
    if layout.uniform:
        choices = list(itertools.combinations(range(layout.m), layout.a))
        per_latent = [choices] * layout.latents
        combos = len(choices) ** layout.latents
    else:
        per_latent = [(False, True)] * layout.latents
        combos = 1
    p = model.p
    for state in itertools.product(*per_latent):
        k = sum(1 for value in state if value is True)
        weight = p ** k * (1 - p) ** (layout.coins - k) / combos
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
               + [frozenset([int(e)]) for e in model.layout.singles])
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
        assert k.dtype == np.int64 and rows.shape == (len(k), n)
        batched.update(zip(k.tolist(), map(tuple, rows.tolist())))
    assert batched == scalar
    # every kernel tallies per k what its fn tallies over the scalar walk
    a = tuple(rnd.sample(range(n), rnd.randint(0, n)))
    b = tuple(rnd.sample(range(n), rnd.randint(0, n)))
    functionals = [parse_predicate(text) for text in WALK_PREDICATES]
    functionals += [edge_deviation_exceeds(a, b, model.p, 0.5), edge_count_statistic(),
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


def test_blocks_beyond_64_vertices_keep_the_cap_and_reach_no_kernel():
    # beyond 64 vertices the blocks are the scalar walk's outcomes as object
    # rows of Python ints, as many as keep `columns` pointers per outcome
    # within the byte budget
    n = 66
    model = edge_block_exact(n, 1, 2145)
    walked = Counter((k, tuple(rows)) for k, rows in _walk(model))
    for columns in (n, 2145):
        blocks = list(oracle._blocks(model, columns))
        assert len(blocks) > 1
        batched = Counter()
        for k, rows in blocks:
            assert rows.dtype == object and rows.shape == (len(k), n)
            assert len(k) * columns * np.dtype(object).itemsize <= graphs.BATCH_BYTES
            batched.update(zip(k.tolist(), map(tuple, rows.tolist())))
        assert batched == walked

    def refuse(rows):
        raise AssertionError("object rows reached a batch kernel")

    isolated = Predicate("isolated-vertex", lambda g: 0 in g.rows, refuse)
    assert exact_event_probability(model, isolated) == 1
    edges = Statistic("edge-count", lambda g: g.edge_count(), refuse)
    rep = mean_variance_check(model, edges, trials=2, seed=0)
    assert rep.exact_mean == 1 and rep.exact_variance == 0


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
    stat = Statistic("max-degree", lambda g: max(r.bit_count() for r in g.rows))
    collapse = _collapser(model)
    s1 = [0] * (model.layout.coins + 1)
    s2 = [0] * (model.layout.coins + 1)
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
        exhaustive_jumbledness_check(Graph.empty(13), 0.5, 0)


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
     "b_vertices=(0, 2, 3, 6, 7, 9, 11), edges=16, expected=29.400000000000002, "
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
    assert repr(exhaustive_jumbledness_check(g, p, d, C=C)) == want


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
    exact = isinstance(p, Fraction) and p.denominator <= 1 << 16
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


def test_mean_variance_needs_two_trials():
    with pytest.raises(ValueError):
        mean_variance_check(erdos_renyi(4, 0.5), edge_count_statistic(), 1, 0)


# -- marginal oracle vs direct block reasoning --------------------------

def test_marginals_rational_exactness_large_denominator():
    m = erdos_renyi(3, Fraction(12345, 54321))
    for mg in exact_edge_marginals(m):
        assert mg == Fraction(12345, 54321)


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
    # same expression in the same order: bit-identical floats and Fractions
    for n in range(1, 31):
        got = er_connectivity_probability(n, p)
        want = _recursive_connectivity(n, p, {})
        assert got == want and type(got) is type(want), n
