"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test name states its criterion; pytest -v therefore prints one
pass/fail line per criterion.  Statistical criteria run at fixed seeds
that were checked to give covering draws; roughly one seed in a hundred
would fail the 99% checks by construction, and that is a property of the
intervals, not of the code under test.  Runtime ceilings are asserted
with time.perf_counter around the expensive section.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np

from depgraphs import rng
from depgraphs.bounds import (connectivity_example_threshold,
                              containment_failure_bound,
                              containment_hypothesis, jumbledness_hypothesis)
from depgraphs.distributions import (_latent_blocks, _rows,
                                     blocks_from_text, connectivity_gadget,
                                     correlated_star, custom_blocks,
                                     edge_block_exact, erdos_renyi, sample)
from depgraphs.graphs import (Graph, SubgraphPattern, clique_number,
                              edge_cover_number, max_subgraph_density,
                              named_pattern, row_graphs)
from depgraphs.harness import ExperimentConfig, run_experiment
from depgraphs.oracle import (exact_binomial_two_sided_tail,
                              exact_edge_marginals, exact_event_probability,
                              exhaustive_jumbledness_check)
from depgraphs.predicates import evaluate_rows, parse_predicate
from depgraphs.stats import wilson_interval
from depgraphs.bounds import janson_bernstein, janson_phi


def test_criterion_01_janson_bounds_dominate_exact_binomial_tail():
    t0 = time.perf_counter()
    for N in (10, 50, 100, 200):
        for p in (0.1, 0.3, 0.5):
            mu = N * p
            for k in range(1, 21):
                t = N * k / 20
                bound = min(janson_bernstein(mu, t, 0), janson_phi(mu, t, 0))
                exact = exact_binomial_two_sided_tail(N, p, t)
                assert bound >= exact, (N, p, t, bound, exact)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_per_edge_marginals_exactly_p():
    t0 = time.perf_counter()
    models = [
        erdos_renyi(6, Fraction(1, 3)),
        correlated_star(6, Fraction(2, 5), 2),
        connectivity_gadget(6, Fraction(1, 4), 3),
        edge_block_exact(6, 2, 5),
        edge_block_exact(4, 1, 3),
        custom_blocks(5, Fraction(3, 7), blocks_from_text(5, "0 1 2; 4 7")),
    ]
    for model in models:
        marginals = exact_edge_marginals(model)
        want = Fraction(model.p)
        assert all(isinstance(mg, Fraction) for mg in marginals)
        assert all(mg == want for mg in marginals), model.kind
    assert time.perf_counter() - t0 < 10.0


def test_criterion_03_dependency_degree_never_exceeds_d():
    models = []
    for n, p in itertools.product((4, 9, 16, 30), (0.1, Fraction(1, 3), 0.9)):
        models.append(erdos_renyi(n, p))
    for n, p, d in itertools.product((8, 15, 30), (0.2, 0.5), (1, 3, 6)):
        models.append(correlated_star(n, p, d))
    for n, p, d in itertools.product((50, 120), (0.1, 0.3), (0, 3, 8)):
        models.append(connectivity_gadget(n, p, d))
    for n, a, m in [(4, 1, 2), (4, 1, 3), (5, 2, 5), (6, 1, 3), (6, 2, 5),
                    (10, 1, 3)]:
        models.append(edge_block_exact(n, a, m))
    models.append(custom_blocks(5, 0.5, blocks_from_text(5, "0 1 2; 4 7")))
    models.append(custom_blocks(6, 0.3, blocks_from_text(6, "0 1; 2 3 4 5")))
    assert len(models) == 50
    for model in models:
        assert model.max_dependency_degree() <= model.d, model


def test_criterion_04_degree_concentration_violation_rate():
    t0 = time.perf_counter()
    n = 2000
    er = run_experiment(ExperimentConfig(
        task="degree-violation", kind="er", ns=(n,),
        ps=(2 * math.log(n) / n,), trials=200, seed=17))
    (pt,) = er.points
    assert pt.error is None and pt.hypothesis is True
    assert pt.estimate <= 0.05

    star = run_experiment(ExperimentConfig(
        task="degree-violation", kind="star", ns=(n,),
        ps=(8 * math.log(n) / n,), ds=(7,), trials=200, seed=18))
    (pt,) = star.points
    assert pt.error is None and pt.hypothesis is True
    assert pt.estimate <= 0.05
    assert time.perf_counter() - t0 < 120.0


def test_criterion_05_exhaustive_jumbledness_clean_under_hypothesis():
    t0 = time.perf_counter()
    models = [
        erdos_renyi(10, 0.3),
        correlated_star(10, 0.4, 2),
        connectivity_gadget(10, 0.3, 3),
        edge_block_exact(10, 1, 3),
        custom_blocks(8, 0.5, blocks_from_text(8, "0 1 2; 5 9 14")),
    ]
    checked = 0
    for j, model in enumerate(models):
        p = float(model.p)
        for t in range(200):
            g = sample(model, rng.derive_seed(50, j, t)).graph
            delta = max(row.bit_count() for row in g.rows)
            if not jumbledness_hypothesis(model.n, p, model.d, delta):
                continue
            violation = exhaustive_jumbledness_check(g, p, model.d, C=10.0)
            assert violation is None, (model.kind, t, violation)
            checked += 1
    assert checked > 0
    assert time.perf_counter() - t0 < 120.0


def test_criterion_06_witness_pair_beats_scaled_floor():
    t0 = time.perf_counter()
    result = run_experiment(ExperimentConfig(
        task="witness", kind="star", ns=(4000,), ps=(0.2,), ds=(39,),
        trials=100, seed=23))
    (pt,) = result.points
    assert pt.error is None
    assert pt.theory_value > 0
    assert pt.successes >= 90
    assert time.perf_counter() - t0 < 120.0


def test_criterion_07_connectivity_threshold_directions():
    t0 = time.perf_counter()
    for n in (200, 500, 1000):
        above = run_experiment(ExperimentConfig(
            task="probability", kind="er", ns=(n,),
            ps=(2 * math.log(n) / n,), trials=200, seed=31)).points[0]
        assert above.estimate >= 0.9, (n, above.estimate)
        below = run_experiment(ExperimentConfig(
            task="probability", kind="er", ns=(n,), ps=(0.2 / n,),
            trials=200, seed=32)).points[0]
        assert below.estimate <= 0.1, (n, below.estimate)

    n, d = 2000, 15
    p = 0.5 * connectivity_example_threshold(n, d, 0.1)
    gadget = run_experiment(ExperimentConfig(
        task="probability", kind="gadget", ns=(n,), ps=(p,), ds=(d,),
        trials=100, seed=33, predicate="not-connected")).points[0]
    assert gadget.error is None
    assert gadget.estimate >= 0.7, gadget.estimate
    assert time.perf_counter() - t0 < 300.0


def test_criterion_08_containment_bound_respected_where_informative():
    t0 = time.perf_counter()
    k3 = named_pattern("k3")
    grid = [("er", n, p, 0) for n in (50, 100, 200) for p in (0.1, 0.3, 0.5)]
    grid += [("star", n, p, d) for n in (50, 100, 200) for p in (0.1, 0.3, 0.5)
             for d in (0, 3)]
    gated = 0
    for kind, n, p, d in grid:
        bound = containment_failure_bound(k3, n, p, d)
        if bound >= 0.5:
            continue            # vacuous here; checked non-vacuously below
        gated += 1
        result = run_experiment(ExperimentConfig(
            task="containment", kind=kind, ns=(n,), ps=(p,), ds=(d,),
            trials=2000, seed=71, pattern="k3"))
        (pt,) = result.points
        half = (pt.ci_high - pt.ci_low) / 2
        assert pt.estimate <= bound + 3 * half, (kind, n, p, d)
    # at desk scale (n <= 200) 10 Phi never drops under 0.5, so the grid
    # above proves nothing by itself; rerun at a size where it bites
    large = run_experiment(ExperimentConfig(
        task="containment", kind="star", ns=(2000,), ps=(0.5,), ds=(0, 3),
        trials=200, seed=77, pattern="k3"))
    for pt in large.points:
        assert pt.error is None and pt.hypothesis is True
        assert pt.theory_value < 0.5        # informative at this scale
        half = (pt.ci_high - pt.ci_low) / 2
        assert pt.estimate <= pt.theory_value + 3 * half
    assert gated == 0
    assert time.perf_counter() - t0 < 300.0


def test_criterion_09_edge_block_exact_counts_and_frequencies():
    t0 = time.perf_counter()
    model = edge_block_exact(10, 1, 3)
    trials = 100_000
    gen = rng.generator(1)
    counts = np.zeros(45, dtype=np.int64)
    spot = 200
    # the trials are drawn in turn from gen, a block at a time; a uniform
    # subset's values are its edges' presence, one block of 3 after another
    for present in _latent_blocks(model, gen, trials):
        assert (present.reshape(len(present), 15, 3).sum(axis=2) == 1).all()
        if spot:
            # spot check that the packed Graphs of the first 200 trials
            # agree with the raw vectors
            for g in row_graphs(_rows(model, present[:spot])):
                assert g.edge_count() == 15
            spot -= min(spot, len(present))
        counts += present.sum(axis=0)
    for e in range(45):
        lo, hi = wilson_interval(int(counts[e]), trials)
        assert lo <= 1 / 3 <= hi, (e, counts[e])
    assert time.perf_counter() - t0 < 30.0


def test_criterion_10_monte_carlo_agrees_with_exact_oracle():
    t0 = time.perf_counter()
    half = Fraction(1, 2)
    pairs = [
        (erdos_renyi(3, half), "connected"),
        (erdos_renyi(4, half), "connected"),
        (correlated_star(3, half, 1), "contains:k3"),
        (erdos_renyi(4, Fraction(1, 3)), "edge-count:3"),
        (erdos_renyi(5, Fraction(2, 5)), "isolated-vertex"),
        (correlated_star(4, half, 1), "connected"),
        (correlated_star(5, Fraction(1, 4), 2), "contains:k3"),
        (edge_block_exact(4, 1, 3), "connected"),
        (custom_blocks(4, half, blocks_from_text(4, "0 1 2")), "contains:k3"),
        (erdos_renyi(5, Fraction(3, 5)), "degree-in:1:3"),
    ]
    exact_by_pair = []
    for model, text in pairs:
        pred = parse_predicate(text, p=model.p)
        exact_by_pair.append((model, pred, exact_event_probability(model, pred)))
    # anchor values pinned independently of the enumeration code path
    assert exact_by_pair[0][2] == Fraction(1, 2)
    assert exact_by_pair[1][2] == Fraction(19, 32)
    assert exact_by_pair[2][2] == Fraction(1, 4)

    # each pair's trials are drawn in turn from its generator, a block at a
    # time, and packed and evaluated a block at a time
    trials = 100_000
    inside = 0
    for j, (model, pred, exact) in enumerate(exact_by_pair):
        gen = rng.generator(rng.derive_seed(0, j))
        hits = 0
        for drawn in _latent_blocks(model, gen, trials):
            hits += int(np.count_nonzero(evaluate_rows(pred, _rows(model, drawn))))
        lo, hi = wilson_interval(hits, trials)
        inside += lo <= float(exact) <= hi
    assert inside >= 9, inside
    assert time.perf_counter() - t0 < 60.0


def test_criterion_11_combinatorial_oracles_match_brute_force():
    t0 = time.perf_counter()

    def bf_clique(g):
        best = 1
        for size in range(2, g.n + 1):
            for vs in itertools.combinations(range(g.n), size):
                if all(g.has_edge(u, v)
                       for u, v in itertools.combinations(vs, 2)):
                    best = max(best, size)
        return best

    def bf_cover(g):
        es = list(g.edges())
        need = frozenset(v for e in es for v in e)
        for k in range(1, len(es) + 1):
            if any(frozenset(v for e in pick for v in e) == need
                   for pick in itertools.combinations(es, k)):
                return k

    def bf_density(g):
        es = list(g.edges())
        best = Fraction(0)
        for size in range(1, g.n + 1):
            for vs in itertools.combinations(range(g.n), size):
                inner = sum(1 for u, v in es if u in vs and v in vs)
                best = max(best, Fraction(inner, size))
        return best

    draw = random.Random(2718)
    done = 0
    while done < 500:
        n = draw.randint(2, 7)
        p = draw.uniform(0.15, 0.95)
        g = Graph.from_edges(n, [(u, v) for v in range(n) for u in range(v)
                                 if draw.random() < p])
        if g.edge_count() == 0:
            continue
        pat = SubgraphPattern(g)
        assert clique_number(g) == bf_clique(g)
        assert edge_cover_number(pat) == bf_cover(g)
        assert max_subgraph_density(pat).value == bf_density(g)
        done += 1
    assert time.perf_counter() - t0 < 60.0


def test_criterion_12_csv_bytes_identical_across_worker_counts():
    configs = [
        dict(task="probability", kind="er", ns=(12, 16), ps=(0.3, 0.5),
             trials=60, seed=5),
        dict(task="sweep", kind="er", ns=(25,), ps=(0.05, 0.1, 0.2),
             trials=50, seed=6),
        dict(task="containment", kind="star", ns=(40,), ps=(0.4,), ds=(2,),
             trials=40, seed=7, pattern="k3"),
    ]
    for base in configs:
        serial = run_experiment(ExperimentConfig(workers=1, **base))
        threaded = run_experiment(ExperimentConfig(workers=4, **base))
        assert serial.to_csv() == threaded.to_csv(), base["task"]
