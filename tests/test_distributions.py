"""Model constructions, sampling, audits, and descriptor round-trips."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depgraphs import distributions, rng
from depgraphs.distributions import (DistributionModel, audit_model,
                                     blocks_from_text, build,
                                     connectivity_gadget, correlated_star,
                                     custom_blocks, edge_block_exact,
                                     erdos_renyi, format_probability,
                                     from_descriptor, parse_probability,
                                     realize, sample, to_descriptor)
from depgraphs.graphs import edge_index, num_edges
from depgraphs.oracle import exact_edge_marginals


# -- probability parsing -----------------------------------------------

def test_parse_probability_forms():
    assert parse_probability("1/3") == Fraction(1, 3)
    assert parse_probability("0.25") == 0.25
    assert parse_probability("1") == 1.0
    with pytest.raises(ValueError):
        parse_probability("2/1")
    with pytest.raises(ValueError):
        parse_probability("-0.1")
    with pytest.raises(ValueError):
        parse_probability("x")


@given(st.fractions(min_value=0, max_value=1))
def test_format_parse_roundtrip_rational(q):
    assert parse_probability(format_probability(q)) == q


@given(st.floats(0.0, 1.0))
def test_format_parse_roundtrip_float(x):
    assert parse_probability(format_probability(x)) == x


# -- constructions -----------------------------------------------------

def test_er_has_no_blocks():
    m = erdos_renyi(6, 0.3)
    assert m.d == 0 and m.blocks == ()
    assert m.latent_count() == 15
    assert m.singles.tolist() == list(range(15))


def test_star_blocks_are_stars():
    n, d = 7, 2
    m = correlated_star(n, 0.5, d)
    s = d + 1
    assert len(m.blocks) == n - s
    for x, block in zip(range(s, n), m.blocks):
        assert set(block) == {edge_index(x, v, n) for v in range(s)}
    # edges inside S and outside S keep private coins
    assert m.latent_count() == len(m.blocks) + (num_edges(n) - len(m.blocks) * s)


def test_star_d0_is_er_in_law():
    m = correlated_star(8, 0.4, 0)
    assert m.blocks == ()
    assert m.max_dependency_degree() == 0


def test_star_needs_room_for_s():
    with pytest.raises(ValueError):
        correlated_star(4, 0.5, 3)   # S would be all of V
    correlated_star(5, 0.5, 3)       # boundary case fine


def test_gadget_block_sizes_respect_d():
    m = connectivity_gadget(100, 0.1, 3)
    assert all(2 <= len(b) <= 4 for b in m.blocks)
    assert m.max_dependency_degree() <= 3


def test_gadget_square_requirement():
    with pytest.raises(ValueError):
        connectivity_gadget(100, 0.1, 2)   # d+1 = 3 not a square
    connectivity_gadget(100, 0.1, 0)
    connectivity_gadget(100, 0.1, 8)       # d+1 = 9


def test_gadget_too_small():
    with pytest.raises(ValueError):
        connectivity_gadget(3, 0.1, 8)


def test_edge_block_structure():
    m = edge_block_exact(4, 1, 2)
    assert m.p == Fraction(1, 2)
    assert m.d == 1
    assert m.blocks == ((0, 1), (2, 3), (4, 5))
    assert m.latent_count() == 3


def test_edge_block_divisibility():
    with pytest.raises(ValueError):
        edge_block_exact(4, 1, 4)    # 6 slots, m=4 does not divide
    with pytest.raises(ValueError):
        edge_block_exact(4, 3, 2)    # a > m
    with pytest.raises(ValueError):
        edge_block_exact(4, 0, 2)


def test_custom_blocks_validation():
    with pytest.raises(ValueError, match="two blocks"):
        custom_blocks(4, 0.5, [(0, 1), (1, 2), (3,), (4,), (5,)])
    with pytest.raises(ValueError, match="cover"):
        custom_blocks(4, 0.5, [(0, 1, 2)])
    with pytest.raises(ValueError, match="range"):
        custom_blocks(4, 0.5, [(0, 1, 2, 3, 4, 5, 6)])
    with pytest.raises(ValueError, match=f"index {2 ** 70} out of range"):
        custom_blocks(4, 0.5, [(0, 1, 2, 3, 4, 5), (2 ** 70,)])
    with pytest.raises(ValueError, match="empty"):
        custom_blocks(4, 0.5, [(), (0, 1, 2, 3, 4, 5)])


def test_custom_blocks_d_from_largest():
    m = custom_blocks(4, 0.5, [(0, 1, 2), (3, 4), (5,)])
    assert m.d == 2
    assert m.blocks == ((0, 1, 2), (3, 4))   # singleton folded away


def test_blocks_from_text():
    blocks = blocks_from_text(4, "0 1 2; 3 4")
    assert blocks == [(0, 1, 2), (3, 4), (5,)]
    assert blocks_from_text(3, "") == [(0,), (1,), (2,)]


def test_build_aliases():
    assert build("er", 5, p=0.5).kind == "erdos-renyi"
    assert build("star", 5, p=0.5, d=1).kind == "correlated-star"
    assert build("edge-block", 4, a=1, m=2).kind == "edge-block-exact"
    assert build("gadget", 50, p=0.1, d=3).kind == "connectivity-gadget"
    m = build("custom", 4, p=0.5, blocks=blocks_from_text(4, "0 1"))
    assert m.kind == "custom-blocks"
    with pytest.raises(ValueError):
        build("nosuch", 5, p=0.5)
    with pytest.raises(ValueError):
        build("er", 5)               # p required
    with pytest.raises(ValueError):
        build("edge-block", 4)       # a, m required


def test_model_rejects_bad_probability():
    with pytest.raises(ValueError):
        erdos_renyi(4, 1.5)
    with pytest.raises(ValueError):
        erdos_renyi(4, Fraction(3, 2))
    with pytest.raises(ValueError):
        erdos_renyi(4, -0.0001)


def test_model_rejects_overlapping_blocks():
    with pytest.raises(ValueError):
        DistributionModel("custom-blocks", 4, 0.5, 2, ((0, 1), (1, 2)))


# -- dependency degree and latent order --------------------------------

def test_max_dependency_degree_is_largest_block_minus_one():
    assert custom_blocks(4, 0.5, [(0, 1, 2), (3, 4), (5,)]).max_dependency_degree() == 2
    assert custom_blocks(4, 0.5, [(e,) for e in range(6)]).max_dependency_degree() == 0
    assert erdos_renyi(5, 0.5).max_dependency_degree() == 0
    assert edge_block_exact(6, 1, 3).max_dependency_degree() == 2


def test_declared_order_blocks_then_singles():
    m = custom_blocks(4, 0.5, [(2, 4), (0,), (1,), (3,), (5,)])
    assert m.block_count == 1 and m.latent_count() == 5
    assert m.flat.tolist() == [2, 4] and m.bid.tolist() == [0, 0]
    assert m.singles.tolist() == [0, 1, 3, 5]


# -- sampling ----------------------------------------------------------

def test_sampling_deterministic():
    m = correlated_star(20, 0.3, 4)
    assert sample(m, 7).graph == sample(m, 7).graph
    assert sample(m, 7).graph != sample(m, 8).graph


def test_sample_without_latents_has_none():
    assert sample(erdos_renyi(5, 0.5), 1).latent_state is None


def test_capture_realize_roundtrip():
    for m in [erdos_renyi(6, 0.4), correlated_star(7, 0.5, 2),
              edge_block_exact(4, 1, 3), connectivity_gadget(40, 0.2, 3),
              custom_blocks(4, 0.5, blocks_from_text(4, "0 3; 1 2"))]:
        for seed in (0, 1, 99):
            out = sample(m, seed, keep_latents=True)
            assert out.latent_state is not None
            assert realize(m, out.latent_state) == out.graph


class _Index:
    """An int-like object: bytes() and operator.index take it, numpy does not."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def _realized_or_error(model, state):
    try:
        return list(realize(model, state).edge_indices())
    except ValueError as exc:
        return str(exc)


def test_realize_accepts_zero_one_coins():
    m = correlated_star(7, 0.5, 2)
    state = sample(m, 3, keep_latents=True).latent_state
    assert realize(m, tuple(int(v) for v in state)) == realize(m, state)
    assert realize(m, np.array(state)) == realize(m, state)
    m = erdos_renyi(4, 0.5)
    state = (True, False, True, True, False, True)
    want = list(realize(m, state).edge_indices())
    assert want == [0, 2, 3, 5]
    ints = tuple(int(v) for v in state)
    # bytes() of the int64 array is its 48-byte buffer, not six coins
    for same in (list(state), list(ints),
                 np.array(ints), np.array(ints, dtype=np.uint8), np.array(state),
                 tuple(map(np.int64, ints)), tuple(map(np.bool_, state)),
                 (True, 0, 1, True, False, 1),                     # True mixed with 1
                 [np.int64(1), False, True, np.uint8(1), 0, True]):
        assert list(realize(m, same).edge_indices()) == want, same
    assert realize(erdos_renyi(1, 0.5), ()).n == 1


# edge_block_exact(4, 2, 3): two blocks of three slots, two kept in each
@pytest.mark.parametrize("state", [
    ((0, 1), (-1, 2)),       # a negative position would wrap to another edge
    ((0, 1), (1, 3)),        # position past the block
    ((0, 1), (2,)),          # too few positions
    ((0, 1), (0, 1, 2)),     # too many positions
    ((0, 1), (2, 2)),        # a repeated position
    ((0, 1), "ab"),
    ((0, 1), 2),
    ((0, 1, 2), (1,)),       # wrong lengths that still total blocks * a
    ((0,), (1, 2, 0)),
    ((True, False), (True, False)),
    ((0, 1), (_Index(1), 2)),
    ((0, 1), (0.0, 1.0)),
    ((0, 1), (np.uint64(0), np.int64(1))),    # promoted to float64
], ids=["negative", "out-of-range", "too-few", "too-many", "duplicate",
        "text", "scalar", "lengths-3-1", "lengths-1-3", "bools", "index",
        "floats", "mixed-unsigned"])
def test_realize_rejects_malformed_subset_entry(state):
    with pytest.raises(ValueError, match=r"2 distinct positions in range\(3\)"):
        realize(edge_block_exact(4, 2, 3), state)


def test_realize_accepts_subset_states_in_any_integer_form():
    m = edge_block_exact(4, 2, 3)
    state = sample(m, 5, keep_latents=True).latent_state
    want = list(realize(m, state).edge_indices())
    for same in (list(state), [list(e) for e in state], np.array(state),
                 tuple(tuple(reversed(e)) for e in state),
                 tuple(tuple(map(np.int64, e)) for e in state)):
        assert list(realize(m, same).edge_indices()) == want, same
    # positions of 256 and more: one block of 276 slots keeps two
    wide = edge_block_exact(24, 2, 276)
    assert list(realize(wide, ((256, 275),)).edge_indices()) == [256, 275]
    assert list(realize(wide, ([275, 3],)).edge_indices()) == [3, 275]
    assert list(realize(wide, ((np.int64(256), 275),)).edge_indices()) == [256, 275]
    for bad in (((256, 276),), ((256, 256),), ((2 ** 31, 1),), ((2 ** 40, 1),)):
        with pytest.raises(ValueError, match=r"2 distinct positions in range\(276\)"):
            realize(wide, bad)


@pytest.mark.parametrize("bad", [2, -1, "x", 0.5, None, (True,), 255, 256,
                                 _Index(1), np.int64(2), 1.0, b"\x01"],
                         ids=["two", "minus-one", "text", "float", "none", "tuple",
                              "255", "256", "index", "int64-two", "float-one",
                              "bytes"])
def test_realize_rejects_non_coin_values(bad):
    m = erdos_renyi(4, 0.5)
    with pytest.raises(ValueError, match="bool or 0/1"):
        realize(m, (True, False, True, bad, False, True))
    with pytest.raises(ValueError, match="bool or 0/1"):
        realize(m, [True, False, True, bad, False, True])


@pytest.mark.parametrize("bad", [
    np.array([1, 0, 1, 2, 0, 1]),
    np.ones((6, 1), dtype=bool),             # six entries of one coin each
    np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0]),
    np.array([True, False, True, True, False, True], dtype=object),
    (np.uint64(1), np.int64(0), 1, 1, 0, 1),  # promoted to float64
], ids=["int64-two", "two-d", "float-array", "object-array", "mixed-unsigned"])
def test_realize_rejects_non_coin_arrays(bad):
    with pytest.raises(ValueError, match="bool or 0/1"):
        realize(erdos_renyi(4, 0.5), bad)


STATE_CASES = [
    (erdos_renyi(4, 0.5), (True, False, True, True, False, True)),
    (erdos_renyi(4, 0.5), (1, 0, 1, 1, 0, 1)),
    (erdos_renyi(4, 0.5), (1, 0, 1, 2, 0, 1)),
    (erdos_renyi(4, 0.5), (True, False, True, 255, False, True)),
    (erdos_renyi(4, 0.5), (True, False, True, _Index(0), False, True)),
    (erdos_renyi(4, 0.5), ["T", "F", "T", "T", "F", "T"]),
    (erdos_renyi(4, 0.5), (True, False, True, (), False, True)),
    (edge_block_exact(4, 2, 3), ((0, 1), (1, 2))),
    (edge_block_exact(4, 2, 3), [[2, 1], [1, 0]]),
    (edge_block_exact(4, 2, 3), ((0, 1), [1, 2])),
    (edge_block_exact(4, 2, 3), ((0, 1), (1, 3))),
    (edge_block_exact(4, 2, 3), ((0, 1, 2), (1,))),
    (edge_block_exact(4, 2, 3), ((0, 1), (1, True))),
    (edge_block_exact(4, 2, 3), ((0, 1), {1, 2})),
    (edge_block_exact(4, 1, 3), ((0,), (2,))),
    (edge_block_exact(4, 1, 3), ((0,), 2)),
    (edge_block_exact(24, 1, 276), ((275,),)),
    (edge_block_exact(24, 1, 276), ((2 ** 31,),)),
]


@pytest.mark.parametrize("model,state", STATE_CASES)
def test_realize_judges_states_as_asarray_does(monkeypatch, model, state):
    # the state image is only a faster np.asarray: realize with np.asarray
    # in its place gives the same graph, or the same error
    got = _realized_or_error(model, state)
    monkeypatch.setattr(distributions, "_state_array",
                        lambda model, state: np.asarray(state))
    assert _realized_or_error(model, state) == got


def test_captured_states_are_read_from_their_image(monkeypatch):
    # capture's tuples, and lists of the same entries, never reach np.asarray
    class NoAsarray:
        def __getattr__(self, name):
            return getattr(np, name)

        def asarray(self, *args, **kwargs):
            raise AssertionError("np.asarray read a captured state")

    models = [correlated_star(9, 0.5, 2), erdos_renyi(1, 0.5),
              edge_block_exact(6, 1, 3), edge_block_exact(6, 2, 5),
              edge_block_exact(24, 2, 276)]
    states = [sample(m, 7, keep_latents=True) for m in models]
    monkeypatch.setattr(distributions, "np", NoAsarray())
    for m, out in zip(models, states):
        assert realize(m, out.latent_state) == out.graph
        assert realize(m, [list(e) if m.uniform else e
                           for e in out.latent_state]) == out.graph


def test_realize_rejects_wrong_length():
    with pytest.raises(ValueError, match="6 latents"):
        realize(erdos_renyi(4, 0.5), (True,) * 5)
    with pytest.raises(ValueError, match="2 latents"):
        realize(edge_block_exact(4, 2, 3), ((0, 1),))


def test_star_all_or_nothing():
    # the defining property: an outside vertex is bonded to all of S or none
    n, d = 10, 3
    m = correlated_star(n, 0.5, d)
    s = d + 1
    for seed in range(30):
        g = sample(m, seed).graph
        for x in range(s, n):
            hits = sum(g.has_edge(x, v) for v in range(s))
            assert hits in (0, s)


def test_edge_block_exact_count():
    m = edge_block_exact(6, 2, 5)     # 15 slots, 3 blocks, 2 kept each
    for seed in range(30):
        g = sample(m, seed).graph
        assert g.edge_count() == 6
        # exactly 2 per consecutive block of 5
        idx = set(g.edge_indices())
        for start in range(0, 15, 5):
            assert len(idx & set(range(start, start + 5))) == 2


def test_single_vertex_graph_samples():
    m = erdos_renyi(1, 0.7)
    g = sample(m, 3).graph
    assert g.n == 1 and g.edge_count() == 0


def test_p_one_gives_complete_graph():
    g = sample(erdos_renyi(6, 1.0), 0).graph
    assert g.edge_count() == 15
    g = sample(edge_block_exact(4, 2, 2), 0).graph
    assert g.edge_count() == 6


def test_p_zero_gives_empty_graph():
    assert sample(erdos_renyi(6, 0.0), 0).graph.edge_count() == 0


def test_empirical_marginals_near_p():
    # quick sanity at 3000 trials; the audit covers this rigorously
    m = correlated_star(8, Fraction(1, 4), 2)
    L = num_edges(8)
    counts = np.zeros(L)
    gen = rng.generator(424242)
    from depgraphs.distributions import _edge_slots, _latent_blocks
    trials = 3000
    for _ in range(trials):
        (values,) = _latent_blocks(m, gen, 1)
        counts += values[0][_edge_slots(m)]
    freq = counts / trials
    assert np.all(np.abs(freq - 0.25) < 0.05)


def test_rational_p_sampling_uses_float_value():
    a = sample(erdos_renyi(10, Fraction(1, 2)), 5).graph
    b = sample(erdos_renyi(10, 0.5), 5).graph
    assert a == b


# -- exact marginals for every construction ----------------------------

@pytest.mark.parametrize("make", [
    lambda: erdos_renyi(5, Fraction(1, 3)),
    lambda: correlated_star(5, Fraction(2, 7), 2),
    lambda: connectivity_gadget(6, Fraction(1, 4), 3),
    lambda: edge_block_exact(5, 3, 5),
    lambda: custom_blocks(5, Fraction(3, 5), blocks_from_text(5, "0 1 2; 4 7")),
])
def test_exact_marginal_equals_p(make):
    m = make()
    marginals = exact_edge_marginals(m)
    assert len(marginals) == num_edges(m.n)
    assert all(mg == Fraction(m.p) for mg in marginals)


# -- audit -------------------------------------------------------------

def test_audit_passes_honest_models():
    for m in [erdos_renyi(6, 0.3), correlated_star(6, 0.5, 2),
              edge_block_exact(4, 1, 2)]:
        rep = audit_model(m, 4000, seed=31)
        assert rep.degree_ok
        assert not rep.flagged, (m.kind, rep.marginal_misses, rep.pair_misses)


def test_audit_catches_understated_d():
    lying = DistributionModel("custom-blocks", 4, 0.5, 0, ((0, 1, 2),))
    rep = audit_model(lying, 300, seed=1)
    assert not rep.degree_ok
    assert rep.max_dependency_degree == 2
    assert rep.flagged


def test_audit_pair_selection_avoids_blocks():
    m = edge_block_exact(6, 1, 3)
    rep = audit_model(m, 500, seed=9, pairs=30)
    block_of = {}
    for i, b in enumerate(m.blocks):
        for e in b:
            block_of[e] = i
    for q in rep.pairs:
        assert block_of[q.edge_a] != block_of[q.edge_b]


def test_audit_trials_validation():
    # 2^63 trials would overflow the int64 tallies; refused before a draw
    for trials, pairs in ((0, 50), (10, -3), (1 << 63, 50)):
        with pytest.raises(ValueError):
            audit_model(erdos_renyi(4, 0.5), trials, seed=0, pairs=pairs)


def test_audit_single_edge_graph():
    rep = audit_model(erdos_renyi(2, 0.5), 200, seed=4)
    assert len(rep.marginals) == 1
    assert rep.pairs == ()


# -- descriptors -------------------------------------------------------

@pytest.mark.parametrize("model", [
    erdos_renyi(10, Fraction(1, 3)),
    erdos_renyi(10, 0.37),
    correlated_star(10, 0.25, 3),
    connectivity_gadget(60, Fraction(1, 10), 3),
    edge_block_exact(5, 2, 5),
    custom_blocks(5, Fraction(1, 2), blocks_from_text(5, "0 1 2; 3 4")),
])
def test_descriptor_roundtrip(model):
    assert from_descriptor(to_descriptor(model)) == model


def test_descriptor_is_readable_ini():
    text = to_descriptor(edge_block_exact(5, 2, 5))
    assert "[model]" in text
    assert "kind = edge-block-exact" in text


def test_descriptor_errors():
    with pytest.raises(ValueError, match="section"):
        from_descriptor("[other]\nkind = er\n")
    with pytest.raises(ValueError):
        from_descriptor("[model]\nkind = nosuch\nn = 4\np = 0.5\n")
    with pytest.raises(ValueError, match="missing"):
        from_descriptor("[model]\nkind = er\n")
    with pytest.raises(ValueError, match="d = 0"):
        from_descriptor("[model]\nkind = er\nn = 4\np = 0.5\nd = 2\n")
    with pytest.raises(ValueError):
        from_descriptor("not ini at [all")


@pytest.mark.parametrize("text, key", [
    ("[model]\nkind = er\nn = 5\n", "p"),
    ("[model]\nkind = star\nn = 5\nd = 1\n", "p"),
    ("[model]\nkind = custom\nn = 5\n", "p"),
    ("[model]\nkind = edge-block\nn = 4\nm = 2\n", "a"),
    ("[model]\nkind = edge-block\nn = 4\na = 1\n", "m"),
    ("[model]\nn = 4\np = 0.5\n", "kind"),
    ("[model]\nkind = er\np = 0.5\n", "n")])
def test_descriptor_missing_key_is_a_value_error(text, key):
    with pytest.raises(ValueError, match=f"model descriptor missing key '{key}'"):
        from_descriptor(text)


def test_descriptor_refuses_an_edge_block_p_other_than_a_over_m():
    text = "[model]\nkind = edge-block\nn = 4\na = 1\nm = 2\n"
    assert from_descriptor(text + "p = 1/2\n") == edge_block_exact(4, 1, 2)
    with pytest.raises(ValueError, match=r"have p = 1/2, not p = 0.9"):
        from_descriptor(text + "p = 0.9\n")


def test_descriptor_revalidates():
    # a descriptor cannot smuggle in an invalid construction
    with pytest.raises(ValueError):
        from_descriptor("[model]\nkind = edge-block-exact\nn = 4\na = 1\nm = 4\n")


# -- seed derivation ---------------------------------------------------

def test_derive_seed_spreads():
    seen = {rng.derive_seed(0, i, t) for i in range(10) for t in range(100)}
    assert len(seen) == 1000


def test_derive_seed_sensitive_to_master():
    assert rng.derive_seed(1, 0, 0) != rng.derive_seed(2, 0, 0)


@given(st.integers(0, 2**64 - 1), st.integers(0, 1000), st.integers(0, 1000))
def test_derive_seed_in_range(master, i, t):
    s = rng.derive_seed(master, i, t)
    assert 0 <= s < 2**64


def test_default_seed_env(monkeypatch):
    monkeypatch.delenv(rng.SEED_ENV, raising=False)
    assert rng.default_seed() == 0
    monkeypatch.setenv(rng.SEED_ENV, "123")
    assert rng.default_seed() == 123
    monkeypatch.setenv(rng.SEED_ENV, "0x10")
    assert rng.default_seed() == 16
    monkeypatch.setenv(rng.SEED_ENV, "junk")
    with pytest.raises(ValueError):
        rng.default_seed()
