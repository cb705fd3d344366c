"""Closed-form bounds: frozen values, high-precision cross-checks, dispatch."""

import itertools
import math
import warnings
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depgraphs import bounds
from depgraphs.errors import ResourceLimitError
from depgraphs.graphs import (Graph, SubgraphPattern, edge_cover_number,
                              named_pattern)


# -- tail bound shapes -------------------------------------------------

def test_phi_convexity_function():
    assert bounds.phi(0.0) == 0.0
    assert bounds.phi(1.0) == pytest.approx(2 * math.log(2) - 1)
    # phi(x) ~ x^2/2 near zero
    assert bounds.phi(1e-4) == pytest.approx(0.5e-8, rel=1e-3)


def test_janson_bernstein_frozen():
    # mu=100, t=50, d=0: exponent 8*2500 / (50 * (100 + 50/3)) = 24/7
    assert bounds.janson_bernstein(100, 50, 0) == pytest.approx(
        2 * math.exp(-24 / 7), rel=1e-14)


def test_janson_phi_frozen():
    # mu=100, t=125, d=0: (mu/2) phi(4t/5mu) = 50 phi(1)
    assert bounds.janson_phi(100, 125, 0) == pytest.approx(
        2 * math.exp(-50 * (2 * math.log(2) - 1)), rel=1e-14)


def test_janson_bernstein_high_precision():
    with mpmath.workdps(50):
        for mu, t, d in [(10, 3, 0), (100, 40, 2), (7.5, 7.5, 5)]:
            d1 = d + 1
            ref = 2 * mpmath.exp(-8 * mpmath.mpf(t) ** 2
                                 / (50 * d1 * (mpmath.mpf(mu) + mpmath.mpf(t) / 3)))
            assert bounds.janson_bernstein(mu, t, d) == pytest.approx(
                float(ref), rel=1e-13)


def test_janson_phi_high_precision():
    with mpmath.workdps(50):
        for mu, t, d in [(10, 3, 0), (100, 40, 2), (7.5, 7.5, 5)]:
            d1 = d + 1
            x = 4 * mpmath.mpf(t) / (5 * mpmath.mpf(mu))
            ref = 2 * mpmath.exp(-(mpmath.mpf(mu) / (2 * d1))
                                 * ((1 + x) * mpmath.log(1 + x) - x))
            assert bounds.janson_phi(mu, t, d) == pytest.approx(
                float(ref), rel=1e-13)


@given(st.floats(0.1, 1000), st.floats(0.01, 1000), st.integers(0, 50))
def test_janson_bounds_positive_and_monotone_in_d(mu, t, d):
    b0 = bounds.janson_bernstein(mu, t, d)
    b1 = bounds.janson_bernstein(mu, t, d + 1)
    assert 0 < b0 <= b1 <= 2.0
    p0 = bounds.janson_phi(mu, t, d)
    p1 = bounds.janson_phi(mu, t, d + 1)
    # at extreme t/mu the phi rate tops 745 and exp underflows to +0.0,
    # so only nonnegativity and d-monotonicity survive in float64
    assert 0 <= p0 <= p1 <= 2.0


@given(st.floats(1, 100), st.integers(0, 10))
def test_janson_decreasing_in_t(mu, d):
    ts = [mu / 4, mu / 2, mu, 2 * mu]
    vals = [bounds.janson_bernstein(mu, t, d) for t in ts]
    assert vals == sorted(vals, reverse=True)
    vals = [bounds.janson_phi(mu, t, d) for t in ts]
    assert vals == sorted(vals, reverse=True)


def test_janson_rejects_bad_inputs():
    with pytest.raises(ValueError):
        bounds.janson_bernstein(10, 0, 0)
    with pytest.raises(ValueError):
        bounds.janson_bernstein(-1, 1, 0)
    with pytest.raises(ValueError):
        bounds.janson_phi(0, 1, 0)
    with pytest.raises(ValueError):
        bounds.janson_phi(10, -1, 0)
    with pytest.raises(ValueError):
        bounds.janson_bernstein(10, 1, -1)
    # mu = 0 is a fine degenerate case for the bernstein form
    assert bounds.janson_bernstein(0, 1, 0) < 2.0


# -- degree concentration ----------------------------------------------

def test_degree_interval_symmetric():
    lo, hi = bounds.degree_interval(100, 0.5, 2)
    np_ = 50.0
    assert lo + hi == pytest.approx(2 * np_)
    assert hi - np_ == pytest.approx(4 * math.sqrt(50 * 3 * math.log(100)))


def test_degree_interval_p_zero():
    assert bounds.degree_interval(2, 0.0, 0) == (0.0, 0.0)


def test_degree_hypothesis():
    n = 1000
    assert bounds.degree_hypothesis(n, 2 * math.log(n) / n, 0)
    assert not bounds.degree_hypothesis(n, 0.5 * math.log(n) / n, 0)
    assert not bounds.degree_hypothesis(n, 2 * math.log(n) / n, 3)


# -- jumbledness -------------------------------------------------------

def test_jumbledness_deviation_value():
    # C sqrt(|A||B| n p (d+1))
    v = bounds.jumbledness_deviation(4, 4, 4, 0.01, 0)
    assert v == pytest.approx(10 * math.sqrt(16 * 0.04))
    assert v == pytest.approx(8.0)


def test_jumbledness_deviation_warns_below_proved_constant():
    with pytest.warns(UserWarning):
        bounds.jumbledness_deviation(2, 2, 10, 0.5, 0, C=5.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bounds.jumbledness_deviation(2, 2, 10, 0.5, 0, C=10.0)


def test_jumbledness_deviation_rejects_bad_sizes():
    with pytest.raises(ValueError):
        bounds.jumbledness_deviation(0, 2, 10, 0.5, 0)
    with pytest.raises(ValueError):
        bounds.jumbledness_deviation(2, 11, 10, 0.5, 0)


def test_jumbledness_hypothesis_is_max_degree_gate():
    # Delta <= (C^2/14) n p
    assert bounds.jumbledness_hypothesis(10, 0.3, 0, max_degree=9)
    assert not bounds.jumbledness_hypothesis(10, 0.01, 0, max_degree=9)


def test_witness_floor_value():
    v = bounds.jumbledness_witness_floor(40, 792, 4000, 0.2, 39)
    ref = 0.8 * math.sqrt(1 - 39 / 4000) * math.sqrt(40 * 792 * 4000 * 0.2 * 40)
    assert v == pytest.approx(ref, rel=1e-12)


def test_witness_floor_below_allowance():
    # the lower construction must not contradict the upper bound at C=10
    for s, b, n, p, d in [(5, 50, 100, 0.3, 2), (40, 792, 4000, 0.2, 39)]:
        floor = bounds.jumbledness_witness_floor(s, b, n, p, d)
        allow = bounds.jumbledness_deviation(s, b, n, p, d)
        assert floor < allow


def test_witness_floor_rejects_dense_dependence():
    with pytest.raises(ValueError):
        bounds.jumbledness_witness_floor(2, 2, 100, 0.5, 99)


# -- connectivity thresholds -------------------------------------------

def test_connectivity_thresholds():
    n, d = 2000, 15
    up = bounds.connectivity_upper_threshold(n, d)
    ex = bounds.connectivity_example_threshold(n, d, 0.1)
    assert up == pytest.approx(16 * math.log(2000) / 2000)
    assert ex == pytest.approx(0.9 * 16 * math.log(2000 / 4.0) / 2000)
    assert ex < up


def test_connectivity_threshold_f_shift():
    base = bounds.connectivity_upper_threshold(100, 0)
    assert bounds.connectivity_upper_threshold(100, 0, fval=3.0) == pytest.approx(
        base + 3.0 / 100)


def test_example_threshold_eps_validation():
    with pytest.raises(ValueError):
        bounds.connectivity_example_threshold(100, 3, 0.0)
    with pytest.raises(ValueError):
        bounds.connectivity_example_threshold(100, 3, 1.0)


def test_dependence_ratio():
    assert bounds.dependence_ratio(100, 0) == 0.0
    assert bounds.dependence_ratio(100, 2) == pytest.approx(2 * math.log(100) / 100)


# -- containment functional --------------------------------------------

def brute_phi(h: Graph, n: int, p: float, d: int) -> float:
    """Independent recomputation with its own edge-cover brute force."""
    edges = list(h.edges())
    total = 0.0
    for r in range(1, len(edges) + 1):
        for sub in itertools.combinations(edges, r):
            vs = {v for e in sub for v in e}
            # minimum edges of sub covering vs
            f = next(k for k in range(1, r + 1)
                     for cover in itertools.combinations(sub, k)
                     if {v for e in cover for v in e} == vs)
            total += ((20.0 * h.n / n) ** len(vs)) * ((d + 1) ** f) / (p ** r)
    return total


def test_phi_k3_frozen_value():
    # base 20*3/100 = 0.6 at n=100 hand-sum: 3*(0.36/0.5) + 3*(0.216/0.25)
    # + 0.216/0.125 = 2.16 + 2.592 + 1.728 = 6.48
    assert bounds.phi_functional(named_pattern("k3"), 100, 0.5, 0) == pytest.approx(
        6.48, rel=1e-12)


@pytest.mark.parametrize("name", ["k3", "k4", "c4", "c5", "path2", "path3"])
def test_phi_matches_brute(name):
    pat = named_pattern(name)
    for n, p, d in [(100, 0.5, 0), (200, 0.3, 3), (50, 0.1, 1)]:
        assert bounds.phi_functional(pat, n, p, d) == pytest.approx(
            brute_phi(pat.graph, n, p, d), rel=1e-9)


def reference_phi_profile(h: Graph) -> list[tuple[int, int, int]]:
    """(|V|, |E|, edge cover number) per nonempty edge subset, in mask order,
    one pattern graph and one edge_cover_number call per subset."""
    edges = tuple(h.edges())
    out = []
    for mask in range(1, 1 << len(edges)):
        chosen = [edges[i] for i in range(len(edges)) if (mask >> i) & 1]
        endpoints = 0
        for u, v in chosen:
            endpoints |= (1 << u) | (1 << v)
        sub = SubgraphPattern(Graph.from_edges(h.n, chosen))
        out.append((endpoints.bit_count(), len(chosen), edge_cover_number(sub)))
    return out


@st.composite
def small_patterns(draw):
    n = draw(st.integers(2, 70))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda e: e[0] != e[1]), min_size=1, max_size=10))
    return Graph.from_edges(n, pairs)


@settings(max_examples=60, deadline=None)
@given(small_patterns())
def test_phi_profile_matches_per_subset_edge_cover(h):
    nv, ne, f = bounds._phi_profile(h)
    assert list(zip(nv.tolist(), ne.tolist(), f.tolist())) == reference_phi_profile(h)


@settings(max_examples=40, deadline=None)
@given(small_patterns(), st.sampled_from([(500, 0.2, 3), (100, 0.5, 0), (50, 0.1, 1)]))
def test_phi_equals_sequential_sum(h, args):
    # the value of a plain float loop over the subsets in mask order, to the bit
    n, p, d = args
    base = 20.0 * h.n / n
    total = 0.0
    for nv, ne, f in reference_phi_profile(h):
        total += base ** nv * (d + 1) ** f / p ** ne
    assert bounds.phi_functional(h, n, p, d) == total


def test_phi_k6_in_8_frozen_value():
    k6 = Graph.from_edges(8, itertools.combinations((0, 2, 3, 5, 6, 7), 2))
    assert bounds.phi_functional(k6, 500, 0.2, 3) == 32399670632.018284


def test_phi_k7_in_9_frozen_value():
    # 21 edges, the largest pattern within PHI_MAX_EDGES
    k7 = Graph.from_edges(9, itertools.combinations((0, 1, 3, 4, 6, 7, 8), 2))
    assert bounds.phi_functional(k7, 500, 0.2, 3) == 4400624658224438.5


def test_phi_monotone_in_d():
    pat = named_pattern("k3")
    v0 = bounds.phi_functional(pat, 100, 0.5, 0)
    v3 = bounds.phi_functional(pat, 100, 0.5, 3)
    assert v3 > v0


def test_phi_budget():
    with pytest.raises(ResourceLimitError):
        bounds.phi_functional(named_pattern("k8"), 100, 0.5, 0)


def test_phi_rejects_zero_p():
    with pytest.raises(ValueError):
        bounds.phi_functional(named_pattern("k3"), 100, 0.0, 0)


@pytest.mark.parametrize("n", [0, -3])
def test_phi_and_its_hypothesis_reject_n_below_1(n):
    with pytest.raises(ValueError, match="need n >= 1"):
        bounds.phi_functional(named_pattern("k3"), n, 0.3, 2)
    with pytest.raises(ValueError, match="need n >= 1"):
        bounds.containment_hypothesis(named_pattern("k3"), n, 2)


def test_containment_failure_bound_is_ten_phi():
    pat = named_pattern("c4")
    assert bounds.containment_failure_bound(pat, 300, 0.3, 2) == pytest.approx(
        10 * bounds.phi_functional(pat, 300, 0.3, 2))


def test_containment_hypothesis_gate():
    k3 = named_pattern("k3")
    assert bounds.containment_hypothesis(k3, 100, 0)     # 0 < 0.9
    assert bounds.containment_hypothesis(k3, 1000, 3)    # 27/1000
    assert not bounds.containment_hypothesis(k3, 10, 1)  # 9/10 not < 0.9


# -- clique window -----------------------------------------------------

def test_clique_bounds_window():
    lo, hi = bounds.clique_bounds(1000, 0.25, 3)
    base = math.log(1000) / math.log(4)
    assert lo == pytest.approx(base)
    assert hi == pytest.approx(4 * base)


def test_clique_bounds_rejects_degenerate_p():
    with pytest.raises(ValueError):
        bounds.clique_bounds(100, 0.0, 0)
    with pytest.raises(ValueError):
        bounds.clique_bounds(100, 1.0, 0)


def test_clique_hypothesis():
    assert bounds.clique_hypothesis(10000, 0.25, 1)
    assert not bounds.clique_hypothesis(10000, 0.3, 1)     # p > 1/4
    assert not bounds.clique_hypothesis(100, 0.25, 10)     # p below slack*d/sqrt(n)


# -- report dispatch ---------------------------------------------------

def test_evaluate_names_cover_everything():
    for name in bounds.BOUND_NAMES:
        assert isinstance(name, str)
    assert "phi" in bounds.BOUND_NAMES
    assert "degree-interval" in bounds.BOUND_NAMES


def test_evaluate_unknown_name_lists_options():
    with pytest.raises(ValueError, match="degree-interval"):
        bounds.evaluate("nosuch", n=10)


def test_evaluate_interval_reports():
    reports = bounds.evaluate("degree-interval", n=100, p=0.5, d=0)
    names = [r.name for r in reports]
    assert names == ["degree-interval.low", "degree-interval.high"]
    lo, hi = bounds.degree_interval(100, 0.5, 0)
    assert reports[0].value == lo and reports[1].value == hi
    assert reports[0].hypothesis is True


def test_evaluate_vacuous_flag():
    # janson bound above 1 carries no information
    reports = bounds.evaluate("janson-bernstein", mu=10.0, t=0.1, d=0)
    assert reports[0].vacuous is True
    reports = bounds.evaluate("janson-bernstein", mu=100.0, t=90.0, d=0)
    assert reports[0].vacuous is False


def test_evaluate_phi_pair():
    reports = bounds.evaluate("phi", pattern=named_pattern("k3"),
                              n=2000, p=0.5, d=0)
    assert [r.name for r in reports] == ["phi", "phi.failure-bound"]
    assert reports[1].value == pytest.approx(10 * reports[0].value)
    assert reports[1].vacuous is False
    assert reports[0].hypothesis is True


def test_evaluate_inputs_echoed():
    (r,) = bounds.evaluate("witness-floor", s=5, b=50, n=100, p=0.3, d=2)
    assert r.inputs["n"] == 100 and r.inputs["s"] == 5
    assert r.value == pytest.approx(bounds.jumbledness_witness_floor(5, 50, 100, 0.3, 2))


def test_evaluate_refuses_a_count_that_is_not_a_finite_integer():
    # a fractional count was truncated (computed at n = 10, d = 1 but
    # echoed as 10.7 and 1.5), and an infinite one raised OverflowError
    with pytest.raises(ValueError, match="n must be an integer, not 10.7"):
        bounds.evaluate("degree-interval", n=10.7, p=0.5, d=1.5)
    with pytest.raises(ValueError, match="n must be an integer, not inf"):
        bounds.evaluate("degree-interval", n=float("inf"), p=0.5, d=1)
    with pytest.raises(ValueError, match="d must be an integer, not nan"):
        bounds.evaluate("degree-interval", n=10, p=0.5, d=float("nan"))
    with pytest.raises(ValueError, match="s must be an integer, not 2.5"):
        bounds.evaluate("witness-floor", s=2.5, b=50, n=100, p=0.3, d=2)
    # an integral float is a count: it evaluates as its int
    assert bounds.evaluate("degree-interval", n=10.0, p=0.5, d=1.0) == [
        r._replace(inputs={"n": 10.0, "p": 0.5, "d": 1.0})
        for r in bounds.evaluate("degree-interval", n=10, p=0.5, d=1)]


def test_pattern_coercion_from_graph():
    g = Graph.complete(3)
    assert bounds.phi_functional(g, 100, 0.5, 0) == pytest.approx(
        bounds.phi_functional(SubgraphPattern(g), 100, 0.5, 0))
