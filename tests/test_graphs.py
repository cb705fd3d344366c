"""Graph core: indexing, counting, connectivity, patterns, densities.

Every nontrivial operation is checked against a brute-force reimplementation
written here, so a bug would have to appear twice to slip through.
"""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csgraph, csr_matrix

from depgraphs import graphs as G
from depgraphs.graphs import (Graph, SubgraphPattern, clique_number,
                              contains_subgraph, count_edges_between,
                              degree_sequence, edge_cover_number,
                              edge_endpoints, edge_index, from_edge_list,
                              is_connected, max_subgraph_density,
                              named_pattern, num_edges, to_edge_list)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for v in range(n) for u in range(v) if rng.random() < p]
    return Graph.from_edges(n, edges)


# -- edge indexing -----------------------------------------------------

def test_num_edges():
    assert [num_edges(n) for n in range(1, 6)] == [0, 1, 3, 6, 10]


@given(st.integers(2, 200))
def test_edge_index_roundtrip(n):
    # colex order: all pairs with smaller v first
    idx = 0
    for v in range(1, min(n, 12)):
        for u in range(v):
            assert edge_index(u, v, n) == idx
            assert edge_endpoints(idx, n) == (u, v)
            idx += 1


@given(st.integers(0, num_edges(1000) - 1))
def test_edge_endpoints_large(i):
    u, v = edge_endpoints(i, 1000)
    assert 0 <= u < v < 1000
    assert edge_index(u, v, 1000) == i


def test_edge_endpoints_first_and_last_of_each_row():
    # integer decoding: exact at row boundaries, where a float square root
    # of 8 index + 1 rounds across, up to n = 2^32
    n = 1 << 32
    rows = set(range(1, 300))
    for k in range(9, 33):
        rows.update(v for v in ((1 << k) - 1, 1 << k, (1 << k) + 1) if v < n)
    rows.update(random.Random(5).sample(range(1, n), 200))
    for v in rows:
        for u in (0, v - 1):
            assert edge_endpoints(edge_index(u, v, n), n) == (u, v)


@pytest.mark.parametrize("n", [2, 3, 64, 65, 1000, 5000])
def test_edge_endpoints_match_array_decoder(n):
    rng = np.random.default_rng(n)
    edges = np.concatenate([[0, num_edges(n) - 1], rng.integers(0, num_edges(n), 500)])
    u, v = G._endpoints(n, edges)
    assert [edge_endpoints(int(e), n) for e in edges] == list(zip(u.tolist(), v.tolist()))


def test_edge_index_validation():
    with pytest.raises(ValueError):
        edge_index(2, 2, 5)
    with pytest.raises(ValueError):
        edge_endpoints(num_edges(4), 4)


# -- construction and basics -------------------------------------------

def test_from_edges_symmetry():
    g = Graph.from_edges(4, [(0, 1), (2, 1)])
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert not g.has_edge(0, 2)
    assert g.edge_count() == 2


def test_rejects_self_loop():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])


def test_rejects_out_of_range():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])


def test_complete_graph():
    g = Graph.complete(5)
    assert g.edge_count() == 10
    assert degree_sequence(g) == [4] * 5


def test_edges_iteration_sorted():
    g = Graph.from_edges(4, [(2, 3), (0, 1), (0, 3)])
    assert list(g.edges()) == [(0, 1), (0, 3), (2, 3)]
    assert list(g.edge_indices()) == sorted(g.edge_indices())


def test_from_edge_indices_matches_from_edges():
    n = 6
    pairs = [(0, 2), (1, 4), (3, 5)]
    idx = [edge_index(u, v, n) for u, v in pairs]
    assert Graph.from_edge_indices(n, idx) == Graph.from_edges(n, pairs)


# -- e(A,B) ------------------------------------------------------------

def test_count_edges_between_triangle():
    # A={0,1}, B={1,2}: edges 01, 02? no -- 01 once (0 in A, 1 in B),
    # 12 once, 02 once (0 in A, 2 in B); the shared vertex creates no
    # double count here because edge 01 lies in A but only half in B
    g = Graph.complete(3)
    assert count_edges_between(g, [0, 1], [1, 2]) == 3


def test_count_edges_between_double_counts_interior():
    g = Graph.complete(3)
    # A = B = V: every edge counted twice
    assert count_edges_between(g, [0, 1, 2], [0, 1, 2]) == 6
    assert count_edges_between(g, [0], [1]) == 1
    assert count_edges_between(g, [0], [0]) == 0


def brute_e(g: Graph, a, b) -> int:
    a, b = set(a), set(b)
    total = 0
    for u, v in g.edges():
        if u in a and v in b:
            total += 1
        if v in a and u in b:
            total += 1
    return total


@settings(max_examples=60)
@given(st.data())
def test_count_edges_between_matches_brute(data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    n = data.draw(st.integers(1, 9))
    g = random_graph(rng, n, 0.5)
    a = data.draw(st.sets(st.integers(0, n - 1)))
    b = data.draw(st.sets(st.integers(0, n - 1)))
    assert count_edges_between(g, a, b) == brute_e(g, a, b)


# -- connectivity ------------------------------------------------------

def brute_components(g: Graph) -> int:
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.edges():
        parent[find(u)] = find(v)
    return len({find(v) for v in range(g.n)})


@settings(max_examples=80)
@given(st.integers(0, 2**32), st.integers(1, 12), st.floats(0.0, 1.0))
def test_connectivity_matches_union_find(seed, n, p):
    g = random_graph(random.Random(seed), n, p)
    assert is_connected(g) == (brute_components(g) == 1)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32),
       st.one_of(st.sampled_from([1, 63, 64, 65]), st.integers(1, 130)),
       st.floats(0.0, 4.0))
@example(seed=1, n=1, c=0.0)
@example(seed=2, n=63, c=3.0)
@example(seed=3, n=64, c=1.0)
@example(seed=4, n=65, c=4.0)
def test_connectivity_matches_scipy(seed, n, c):
    # average degree near c straddles the connectivity threshold at every n
    g = random_graph(random.Random(seed), n, min(1.0, c / n))
    edges = list(g.edges())
    rows = [u for u, _ in edges]
    cols = [v for _, v in edges]
    adj = csr_matrix(([1] * len(edges), (rows, cols)), shape=(n, n))
    count, _ = csgraph.connected_components(adj, directed=False)
    assert is_connected(g) == (count == 1)


def test_single_vertex_connected():
    assert is_connected(Graph.empty(1))
    assert not is_connected(Graph.empty(2))


# -- cliques -----------------------------------------------------------

def brute_clique(g: Graph) -> int:
    best = 0
    for k in range(g.n, 0, -1):
        for sub in itertools.combinations(range(g.n), k):
            if all(g.has_edge(u, v) for u, v in itertools.combinations(sub, 2)):
                return k
    return best


@settings(max_examples=80)
@given(st.integers(0, 2**32), st.integers(1, 9), st.floats(0.1, 0.9))
def test_clique_number_matches_brute(seed, n, p):
    g = random_graph(random.Random(seed), n, p)
    assert clique_number(g) == brute_clique(g)


def test_clique_number_matches_networkx_find_cliques():
    nx = pytest.importorskip("networkx")
    rng = random.Random(40417)
    cases = [Graph.empty(1), Graph.empty(40), Graph.complete(1), Graph.complete(40)]
    cases += [random_graph(rng, rng.randint(1, 40), rng.choice([0.05, 0.2, 0.5, 0.8]))
              for _ in range(40)]
    # dense graphs, where coloring skips the most classes below the bound
    cases += [random_graph(rng, rng.randint(20, 45), rng.choice([0.9, 0.95]))
              for _ in range(12)]
    for g in cases:
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        assert clique_number(g) == max(len(c) for c in nx.find_cliques(h)), g


def test_clique_number_examples():
    assert clique_number(Graph.empty(5)) == 1
    assert clique_number(Graph.complete(7)) == 7
    assert clique_number(named_pattern("c5").graph) == 2
    # the batch kernel answers the same at every k, the k = 1 base case too
    gs = [Graph.empty(5), named_pattern("c5").graph, Graph.complete(5)]
    rows = np.array([g.rows for g in gs], dtype=G.batch_dtype(5))[..., None]
    for k in range(1, 6):
        assert G.batch_has_clique(rows, k).tolist() == [clique_number(g) >= k
                                                        for g in gs], k


def test_graph_requires_a_vertex():
    with pytest.raises(ValueError):
        Graph.empty(0)


# -- subgraph containment ----------------------------------------------

def brute_contains(g: Graph, h: Graph) -> bool:
    if h.n > g.n:
        return False
    hedges = list(h.edges())
    for perm in itertools.permutations(range(g.n), h.n):
        if all(g.has_edge(perm[u], perm[v]) for u, v in hedges):
            return True
    return False


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(2, 7), st.floats(0.2, 0.8),
       st.sampled_from(["k3", "k4", "c4", "c5", "path2", "path3", "edge"]))
def test_contains_matches_brute(seed, n, p, name):
    g = random_graph(random.Random(seed), n, p)
    pat = named_pattern(name)
    assert contains_subgraph(g, pat) == brute_contains(g, pat.graph)


def test_contains_matches_networkx_vf2():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher
    rng = random.Random(20240)
    patterns = [named_pattern(name) for name in
                ("k3", "k4", "c4", "c5", "path2", "path3", "edge")]
    patterns += [SubgraphPattern(random_graph(rng, rng.randint(2, 5), 0.6))
                 for _ in range(8)]

    def to_nx(g):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        return h

    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 9), rng.uniform(0.2, 0.8))
        big = to_nx(g)
        for pat in patterns:
            want = (pat.graph.n <= g.n and GraphMatcher(
                big, to_nx(pat.graph)).subgraph_is_monomorphic())
            assert contains_subgraph(g, pat) == want, (to_edge_list(g), pat)


def test_contains_k3_in_triangle():
    assert contains_subgraph(Graph.complete(3), named_pattern("k3"))
    assert not contains_subgraph(named_pattern("c4").graph, named_pattern("k3"))


def test_pattern_library():
    assert named_pattern("k4").edge_count == 6
    assert named_pattern("c6").vertex_count == 6
    assert named_pattern("path3").edge_count == 3
    assert named_pattern("edge").vertex_count == 2
    with pytest.raises(ValueError):
        named_pattern("q7")
    with pytest.raises(ValueError):
        named_pattern("c2")


# -- edge cover number -------------------------------------------------

def brute_edge_cover(g: Graph) -> int:
    """Smallest edge subset covering all non-isolated vertices."""
    edges = list(g.edges())
    support = {v for e in edges for v in e}
    if not support:
        return 0
    for k in range(1, len(edges) + 1):
        for sub in itertools.combinations(edges, k):
            if {v for e in sub for v in e} == support:
                return k
    raise AssertionError("unreachable")


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 7), st.floats(0.1, 0.9))
def test_edge_cover_matches_brute(seed, n, p):
    g = random_graph(random.Random(seed), n, p)
    assume(g.edge_count() > 0)
    assert edge_cover_number(SubgraphPattern(g)) == brute_edge_cover(g)


def test_edge_cover_rejects_edgeless():
    with pytest.raises(ValueError):
        edge_cover_number(SubgraphPattern(Graph.empty(3)))


def test_edge_cover_examples():
    assert edge_cover_number(named_pattern("edge")) == 1
    assert edge_cover_number(named_pattern("k3")) == 2
    assert edge_cover_number(named_pattern("path2")) == 2
    assert edge_cover_number(named_pattern("c4")) == 2
    assert edge_cover_number(named_pattern("c5")) == 3
    assert edge_cover_number(named_pattern("k4")) == 2


def test_edge_cover_gallai_identity():
    # cover = support size - maximum matching, on graphs with no isolated
    # vertex in support; spot check against the identity directly
    rng = random.Random(7)
    for _ in range(50):
        g = random_graph(rng, 6, 0.5)
        if g.edge_count() == 0:
            continue
        cover = edge_cover_number(SubgraphPattern(g))
        assert cover >= (sum(1 for v in range(6) if g.degree(v)) + 1) // 2


# -- max subgraph density ----------------------------------------------

def brute_density(g: Graph):
    best = Fraction(0)
    for k in range(1, g.n + 1):
        for sub in itertools.combinations(range(g.n), k):
            inside = sum(1 for u, v in g.edges() if u in sub and v in sub)
            best = max(best, Fraction(inside, k))
    return best


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 8), st.floats(0.1, 0.9))
def test_density_matches_brute(seed, n, p):
    g = random_graph(random.Random(seed), n, p)
    assume(g.edge_count() > 0)
    res = max_subgraph_density(SubgraphPattern(g))
    assert res.value == brute_density(g)


def test_density_rejects_edgeless():
    with pytest.raises(ValueError):
        max_subgraph_density(SubgraphPattern(Graph.empty(4)))


def test_density_examples():
    assert max_subgraph_density(named_pattern("edge")).value == Fraction(1, 2)
    assert max_subgraph_density(named_pattern("k3")).value == Fraction(1)
    assert max_subgraph_density(named_pattern("k4")).value == Fraction(3, 2)
    assert max_subgraph_density(named_pattern("c5")).value == Fraction(1)


def test_density_witness_achieves_value():
    for name in ("k4", "c5", "path3"):
        res = max_subgraph_density(named_pattern(name))
        vs = {v for e in res.witness for v in e}
        assert Fraction(len(res.witness), len(vs)) == res.value


# -- serialization -----------------------------------------------------

def test_edge_list_roundtrip():
    rng = random.Random(3)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 15), 0.4)
        assert from_edge_list(to_edge_list(g)) == g


def test_edge_list_format():
    g = Graph.from_edges(3, [(0, 1)])
    assert to_edge_list(g) == "n 3\n0 1\n"


def test_edge_list_skips_comments():
    g = from_edge_list("# produced by whatever\nn 3\n# a note\n0 2\n")
    assert g == Graph.from_edges(3, [(0, 2)])


def test_edge_list_rejects_garbage():
    with pytest.raises(ValueError):
        from_edge_list("3\n0 1\n")
    with pytest.raises(ValueError):
        from_edge_list("n 3\n0\n")


@pytest.mark.parametrize("n", [0, -2])
def test_no_constructor_makes_a_graph_without_vertices(n):
    for make in (lambda: from_edge_list(f"n {n}\n"), lambda: Graph.from_edges(n, []),
                 lambda: Graph.from_edge_indices(n, []), lambda: Graph(n)):
        with pytest.raises(ValueError, match="^graph needs at least one vertex$"):
            make()


def test_graph_equality_and_hash():
    a = Graph.from_edges(4, [(0, 1), (2, 3)])
    b = Graph.from_edges(4, [(2, 3), (0, 1)])
    assert a == b and hash(a) == hash(b)
    assert a != Graph.from_edges(4, [(0, 1)])
    assert a != Graph.from_edges(5, [(0, 1), (2, 3)])
    assert repr(a) == "Graph(n=4, edges=2)"
    # a pattern is its graph: the name is not compared, only shown
    k3, unnamed = named_pattern("k3"), SubgraphPattern(Graph.complete(3))
    assert k3 == unnamed and hash(k3) == hash(unnamed)
    assert k3 != named_pattern("path2") and k3 != Graph.complete(3)
    assert repr(k3) == "SubgraphPattern('k3')"
    assert repr(unnamed) == "SubgraphPattern(Graph(n=3, edges=3))"
