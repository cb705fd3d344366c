"""Predicate and statistic parsing plus their graph semantics."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depgraphs.distributions import correlated_star, erdos_renyi
from depgraphs.graphs import Graph, SubgraphPattern, batch_dtype, named_pattern
from depgraphs.oracle import exact_event_probability
from depgraphs.predicates import (FORMS, connected, contains_pattern,
                                  degree_in_range, edge_count_equals,
                                  edge_count_statistic,
                                  edge_deviation_exceeds,
                                  edges_between_statistic, has_isolated_vertex,
                                  isolated_count_statistic, lacks_pattern,
                                  negate, parse_predicate, resolve_pattern)
from depgraphs.rng import derive_seeds

from helpers import example_predicate, sample_rows

KERNEL_PREDICATES = ["true", "connected", "not-connected", "isolated-vertex",
                     "contains:edge", "contains:k2", "contains:k3", "lacks:k3",
                     "contains:k4", "lacks:k4", "edge-count:3",
                     "degree-in:1:3", "degree-in:0.5:2.5"]

K3 = Graph.complete(3)
PATH = Graph.from_edges(3, [(0, 1), (1, 2)])


def test_connected_predicate():
    assert connected()(K3)
    assert not connected()(Graph.empty(2))


def test_contains_and_lacks_are_complements():
    pat = named_pattern("k3")
    for g in (K3, PATH, Graph.empty(4)):
        assert contains_pattern(pat)(g) != lacks_pattern(pat)(g)


def test_isolated_vertex():
    assert has_isolated_vertex()(Graph.from_edges(3, [(0, 1)]))
    assert not has_isolated_vertex()(PATH)


def test_degree_in_range_inclusive():
    pred = degree_in_range(1, 2)
    assert pred(PATH)           # degrees 1, 2, 1
    assert not pred(Graph.empty(3))
    assert degree_in_range(0, 2)(Graph.empty(3))


def test_edge_count_equals():
    assert edge_count_equals(3)(K3)
    assert not edge_count_equals(2)(K3)


def test_edge_deviation_exceeds():
    # A=B=V on K3 with p=0.1: e=6, expected 0.9, deviation 5.1
    assert edge_deviation_exceeds(5.0, (0, 1, 2), (0, 1, 2), 0.1)(K3)
    assert not edge_deviation_exceeds(5.2, (0, 1, 2), (0, 1, 2), 0.1)(K3)


def test_negate():
    pred = negate(connected())
    assert pred(Graph.empty(2))
    assert not pred(K3)
    assert pred.name != connected().name


def test_parse_predicate_grammar():
    assert parse_predicate("true")(Graph.empty(1))
    assert parse_predicate("connected")(K3)
    assert parse_predicate("not-connected")(Graph.empty(2))
    assert parse_predicate("isolated-vertex")(Graph.from_edges(3, [(0, 1)]))
    assert parse_predicate("contains:k3")(K3)
    assert not parse_predicate("lacks:k3")(K3)
    assert parse_predicate("edge-count:3")(K3)
    assert parse_predicate("degree-in:1:2")(PATH)
    with pytest.raises(ValueError):
        parse_predicate("nosuch")
    with pytest.raises(ValueError):
        parse_predicate("edge-count:x")


@pytest.mark.parametrize("text, syntax", [
    ("degree-in:nan:3", "degree-in:<low>:<high>"),
    ("degree-in:0:inf", "degree-in:<low>:<high>"),
    ("deviation:-inf:0:1", "deviation:<t>:<a>:<b>"),
])
def test_parse_refuses_a_non_finite_number(text, syntax):
    # a NaN bound would make every degree test false, so the event never holds
    with pytest.raises(ValueError, match=f"^predicate form is {syntax}; not a finite"):
        parse_predicate(text, p=0.4)


def test_parse_deviation_needs_p():
    with pytest.raises(ValueError):
        parse_predicate("deviation:5.0:0,1,2:0,1,2")
    pred = parse_predicate("deviation:5.0:0,1,2:0,1,2", p=0.1)
    assert pred(K3)


def test_every_form_round_trips_through_its_name():
    for form in FORMS:
        pred = parse_predicate(example_predicate(form), p=0.5)
        assert parse_predicate(pred.name, p=0.5).name == pred.name, form


def test_deviation_names_its_sets():
    first = parse_predicate("deviation:1:0:1", p=0.5)
    second = parse_predicate("deviation:1:2,3:0", p=0.5)
    assert (first.name, second.name) == ("deviation:1.0:0:1", "deviation:1.0:2,3:0")
    assert first != second


def test_deviation_refuses_a_repeated_vertex():
    # e(A, B) reads A and B as sets, p|A||B| would count the repeat twice
    model = erdos_renyi(4, Fraction(1, 2))
    assert exact_event_probability(model, parse_predicate("deviation:0.5:0:1",
                                                          p=model.p)) == 0
    for text in ("deviation:0.5:0,0:1", "deviation:0.5:1:2,0,2"):
        with pytest.raises(ValueError, match="repeat a vertex"):
            parse_predicate(text, p=model.p)
    with pytest.raises(ValueError, match="repeat a vertex"):
        edge_deviation_exceeds(0.5, (0, 0), (1,), 0.5)


def test_resolve_pattern_names_and_files(tmp_path):
    assert resolve_pattern("k4").edge_count == 6
    f = tmp_path / "h.edges"
    f.write_text("n 3\n0 1\n1 2\n")
    pat = resolve_pattern(str(f))
    assert pat.vertex_count == 3 and pat.edge_count == 2
    with pytest.raises(ValueError):
        resolve_pattern("no-such-pattern-or-file")


def test_statistics():
    assert edge_count_statistic()(K3) == 3
    assert edges_between_statistic((0,), (1, 2))(K3) == 2
    assert isolated_count_statistic()(Graph.from_edges(4, [(0, 1)])) == 2


def test_predicate_names_stable():
    assert parse_predicate("connected").name == "connected"
    assert parse_predicate("contains:k3").name.endswith("k3")


# -- batch kernels against the per-graph functions -------------------------

def _random_graph(rnd, n, density):
    return Graph.from_edges(n, [(u, v) for v in range(n) for u in range(v)
                                if rnd.random() < density])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2, 7, 8, 9, 16, 17, 63, 64]), st.integers(0, 2 ** 32),
       st.lists(st.sampled_from([0.0, 0.03, 0.1, 0.3, 0.6, 1.0]), min_size=1, max_size=6))
def test_kernels_match_fn(n, seed, densities):
    # a kernel gives, graph by graph, what fn gives on the same rows,
    # at widths on both sides of each unsigned dtype's bit count
    rnd = random.Random(seed)
    gs = [_random_graph(rnd, n, density) for density in densities]
    rows = np.array([g.rows for g in gs], dtype=batch_dtype(n))[..., None]
    a = tuple(rnd.sample(range(n), rnd.randint(0, n)))
    b = tuple(rnd.sample(range(n), rnd.randint(0, n)))
    preds = [parse_predicate(text) for text in KERNEL_PREDICATES]
    preds += [negate(connected()), edge_deviation_exceeds(1.5, a, b, 0.3),
              edge_count_equals(gs[0].edge_count())]
    for pred in preds:
        got = pred.batch(rows)
        assert got.dtype == bool and got.shape == (len(gs),)
        assert got.tolist() == [pred(g) for g in gs], pred.name
    for stat in (edge_count_statistic(), isolated_count_statistic(),
                 edges_between_statistic(a, b)):
        got = stat.batch(rows)
        assert got.dtype == np.int64
        assert got.tolist() == [stat(g) for g in gs], stat.name


@pytest.mark.parametrize("n", [33, 48, 64])
def test_kernels_match_fn_on_sampled_blocks(n):
    # one block of 300 sampled graphs, so each kernel's vectorized union
    # runs over many graphs' different masks at once; at this p about 70%
    # of the graphs are connected and about a third hold a k4
    model = correlated_star(n, 1.3 * math.log(n) / n, 3)
    rows = sample_rows(model, derive_seeds(11, n, 0, 300))
    gs = [Graph(n, [int(r) for r in row]) for row in rows[..., 0]]
    preds = [parse_predicate(text) for text in KERNEL_PREDICATES]
    preds += [edge_deviation_exceeds(1.5, range(n // 2), range(n // 3, n), 0.3)]
    for pred in preds:
        want = [pred(g) for g in gs]
        assert pred.batch(rows).tolist() == want, pred.name
        if pred.name in ("connected", "isolated-vertex", "contains:k4"):
            assert 0 < sum(want) < len(want), pred.name
    for stat in (edge_count_statistic(), isolated_count_statistic(),
                 edges_between_statistic(range(n // 2), range(n // 3, n))):
        assert stat.batch(rows).tolist() == [stat(g) for g in gs], stat.name


def test_kernels_only_for_small_cliques():
    # other patterns fall back to fn in the oracle; a file named like a
    # clique gets no clique kernel unless its graph is one
    for name in ("k5", "c4", "path2"):
        assert parse_predicate(f"contains:{name}").batch is None
        assert parse_predicate(f"lacks:{name}").batch is None
    fake = SubgraphPattern(PATH, name="k3")
    assert contains_pattern(fake).batch is None
    assert negate(contains_pattern(fake)).batch is None
