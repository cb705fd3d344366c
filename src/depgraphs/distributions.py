"""Locally dependent edge distributions and their samplers.

Each model describes a distribution over graphs on n vertices in which
every potential edge is present with probability exactly p, but edges may
share latent coins.  A latent is either a Bernoulli(p) coin driving a
block of edges (all-or-nothing) or, for the exact-count construction, a
uniform choice of a edges out of a block of m.  Edges not covered by any
explicit block get one private coin each.

The declared latent order is: explicit blocks in listed order, then the
private coins ascending by edge index.  A model is its latents, in one
object: it stores its blocks as two int64 arrays, their edges
concatenated (flat) and their lengths (sizes), and for edge-block-exact
the a kept of each block of m as the attributes a and m (None for the
coin kinds; there is no params dict).  The views that index the latents
(bid, singles, spread, columns) are formed on first read and held by the
model; the private coins' edges are formed only when read
(singles).  Everything that maps latents to edges reads the model.  A
trial's values are one bool per value column: a coin per column in
declared order for the coin models, an edge's presence per column for
uniform subsets, so _edge_slots is the one map from an edge to the value
that records it.  One drawer (_draw) writes the values of a block of
trials, the trials drawn in turn from one generator or each from its
seed's reset generator (which pins down sample(model, seed) bit for bit),
and settles the raw words it buffers per kind.  One packer (_rows) turns a
block's values into bitset rows: up to 64 vertices it gathers each row
bit from the value behind it through a table each model forms once;
beyond, it reads the rows from the packed colex presence bitmap
(_presence_words, graphs.presence_rows), and no edge index is
formed.  Blocks are sized in one place (_latent_rows) and drawn one at a
time (_latent_blocks).

Every Monte Carlo consumer splits its trials into spans of whole blocks,
at most one per CPU, each run in a thread of its own (_spans): a span
drawn from a generator starts from one forwarded to its first trial's
words (rng.forward), a span of seeds at its first trial's seed, so no
result depends on the span count.  The harness and
oracle.mean_variance_check draw, pack and evaluate through one runner
(_trial_values); the audit tallies the drawn values and reads block
ownership from the model; sample and realize pack through _rows; latent
capture reads its state from the drawn values, and realize turns a state
back into them; the oracle sizes its state space by the model's counts.

Each kind is one row of KINDS: its short alias and its constructor, whose
parameters after n are the kind's settings.  build calls the constructor
with them and refuses a given p or d other than the built model's, so the
command line, descriptor files and harness grids follow one rule set;
to_descriptor writes the settings and from_descriptor reads them back
through build.

Dependence bookkeeping: two edges are dependent iff they share a latent,
so the dependency graph is a disjoint union of cliques, one per block.
The model rejects blocks that overlap, so the max degree is the largest
block size minus 1 (max_dependency_degree), which the audit checks
against d.
"""

from __future__ import annotations

import configparser
import inspect
import io
import marshal
import os
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice, repeat
from math import ceil, gcd, isqrt, log
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import rng as rngmod
from . import stats
from .graphs import (BATCH_MAX_N, Graph, Windows, batch_dtype, batch_size,
                     num_edges, packed_words, presence_rows, read_windows,
                     row_bytes, row_graphs, row_words, windows, zero_rows)
from .predicates import Predicate, evaluate_rows

ERDOS_RENYI = "erdos-renyi"
CORRELATED_STAR = "correlated-star"
CONNECTIVITY_GADGET = "connectivity-gadget"
EDGE_BLOCK_EXACT = "edge-block-exact"
CUSTOM_BLOCKS = "custom-blocks"


def parse_probability(text: str):
    """Parse "a/b" to an exact Fraction, anything else to a float.

    Rational inputs stay rational all the way into the enumeration oracle:
    a Fraction p gives Fractions at every denominator, a float p floats.
    """
    text = text.strip()
    try:
        value = Fraction(text) if "/" in text else float(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad probability {text!r}") from None
    _check_probability(value)
    return value


def format_probability(p) -> str:
    """Inverse of parse_probability; Fractions always keep a denominator."""
    if isinstance(p, Fraction):
        return f"{p.numerator}/{p.denominator}"
    return repr(float(p))


def _check_probability(p) -> None:
    if not 0 <= p <= 1:
        raise ValueError(f"edge probability {p} outside [0, 1]")


class SampleOutcome(NamedTuple):
    """A sampled graph, and its latent state when capture was asked for.

    latent_state lists one value per latent in declared order: a bool per
    Bernoulli coin, or for uniform-subset latents the sorted tuple of the
    a positions (in range(m)) kept in that block.
    """
    graph: Graph
    latent_state: tuple | None


class Spread(NamedTuple):
    """The private coins' place in the packed presence bitmap, as pieces.

    The singles fall in runs of consecutive edge indices between the block
    edges.  A piece is the part of a run inside one 64-bit word of the
    bitmap: word words[k] is the OR of pieces heads[k] .. heads[k+1] - 1,
    and piece j is the window at[j] of the singles' packed coins, masked
    by masks[j].  Words without a single are absent.
    """
    words: np.ndarray
    heads: np.ndarray
    at: Windows
    masks: np.ndarray


# _LOW_BITS[k] has bits 0 .. k - 1 set, k = 0 .. 64
_LOW_BITS = np.array([(1 << k) - 1 for k in range(65)], dtype=np.uint64)


def _spread(size: int, flat: np.ndarray) -> Spread:
    """The Spread of the private coins of a model with size edges whose
    block edges are flat; every array is sized by the blocks and words,
    not by the singles."""
    # the block edges ascending between two sentinels: a run of singles
    # spans bounds[k] + 1 .. bounds[k + 1] - 1 when that is not empty, and
    # k block edges lie before it
    bounds = np.concatenate(([-1], np.sort(flat), [size]))
    k = np.flatnonzero(np.diff(bounds) > 1)
    lo, hi = bounds[k] + 1, bounds[k + 1]
    rank = lo - k
    first = lo >> 6
    count = ((hi - 1) >> 6) - first + 1
    run = np.repeat(np.arange(lo.size), count)
    word = np.arange(run.size) - np.repeat(np.cumsum(count) - count - first, count)
    base = 64 * word
    lo, hi = lo[run] - base, hi[run] - base
    # the window starts at the single behind bit 0 of the word, which is
    # > -64: a run's first word starts at most 63 bits before it
    at = windows(rank[run] - lo)
    masks = _LOW_BITS[np.minimum(hi, 64)] & ~_LOW_BITS[np.maximum(lo, 0)]
    heads = np.flatnonzero(np.diff(word, prepend=-1))
    spread = Spread(word[heads], heads, at, masks)
    for arr in (spread.words, heads, masks, *at):
        arr.flags.writeable = False
    return spread


def _block_arrays(blocks: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Blocks given as sequences of edge indices, as (flat, sizes) int64
    arrays; an index beyond int64 leaves flat an object array, which
    _check_blocks rejects."""
    sizes = np.fromiter(map(len, blocks), dtype=np.int64, count=len(blocks))
    try:
        flat = np.fromiter(chain.from_iterable(blocks), dtype=np.int64)
    except OverflowError:
        flat = np.array(list(chain.from_iterable(blocks)), dtype=object)
    return flat, sizes


def _check_blocks(n: int, flat: np.ndarray) -> None:
    """Raise ValueError unless every edge index in flat is in range for n and
    none appears twice; the first offending entry in declared order names
    the error."""
    limit = num_edges(n)
    if flat.dtype == np.int64 and ((flat >= 0) & (flat < limit)).all():
        covered = np.zeros(limit, dtype=bool)
        covered[flat] = True
        if np.count_nonzero(covered) == flat.size:
            return
    seen = set()
    for e in flat.tolist():
        if not 0 <= e < limit:
            raise ValueError(f"edge index {e} out of range for n={n}")
        if e in seen:
            raise ValueError(f"edge index {e} appears in two blocks")
        seen.add(e)
    raise AssertionError("unreachable: the checks above found a bad entry")


class DistributionModel:
    """Immutable description of one dependent edge distribution: its
    latents, as read-only index arrays and views of them, in declared order.

    The explicit latent blocks are two read-only int64 arrays: flat, their
    edges concatenated in declared order, and sizes, their lengths.  For the
    bernoulli kinds only blocks with >= 2 edges are kept (a one-edge block
    is indistinguishable in law from a private coin and is folded into the
    singleton stream).  For edge-block-exact the blocks are the full
    partition into consecutive index ranges of size m, each keeping a of
    its edges; a and m are None for the coin kinds.

    Latent j < block_count drives the edges flat[bid == j]; latent
    block_count + i is the private coin of edge singles[i].  The views
    (blocks, bid, singles, spread, columns) are formed on first read and
    held as long as the model is; singles is read by the oracle, the audit
    and the paths up to 64 vertices, and so never by the draws beyond 64
    vertices.
    """

    def __init__(self, kind: str, n: int, p, d: int,
                 blocks: Sequence[Sequence[int]] = (), *,
                 arrays: tuple[np.ndarray, np.ndarray] | None = None,
                 a: int | None = None, m: int | None = None):
        # arrays: the blocks as (flat, sizes), in place of blocks
        if kind not in KINDS:
            raise ValueError(f"unknown distribution kind {kind!r}")
        if (kind == EDGE_BLOCK_EXACT) != (a is not None and m is not None):
            raise ValueError("a and m are set for edge-block-exact models only")
        if n < 1:
            raise ValueError("need at least one vertex")
        _check_probability(p)
        if d < 0:
            raise ValueError("dependence bound d must be nonnegative")
        flat, sizes = _block_arrays(blocks) if arrays is None else arrays
        if flat.size:
            _check_blocks(n, flat)
        keep = sizes >= 2
        if kind != EDGE_BLOCK_EXACT and not keep.all():
            flat, sizes = flat[np.repeat(keep, sizes)], sizes[keep]
        for arr in (flat, sizes):
            arr.flags.writeable = False
        self.kind = kind
        self.n = n
        self.p = p
        self.d = d
        self.flat = flat
        self.sizes = sizes
        self.a = a
        self.m = m

    @cached_property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The explicit blocks in declared order."""
        edges = iter(self.flat.tolist())
        return tuple(tuple(islice(edges, k)) for k in self.sizes.tolist())

    # -- latent layout -------------------------------------------------

    @property
    def uniform(self) -> bool:
        return self.a is not None

    @property
    def slots(self) -> int:
        return num_edges(self.n)

    @property
    def block_count(self) -> int:
        return self.sizes.size

    def latent_count(self) -> int:
        return self.block_count + self.slots - int(self.flat.size)

    @property
    def width(self) -> int:
        """One trial's value columns (_draw): a coin per column, or for
        uniform subsets an edge per column."""
        return self.slots if self.uniform else self.latent_count()

    @property
    def draw_words(self) -> int:
        """The raw generator words one trial's draw takes (_draw): one per
        value, none when a uniform subset keeps all m edges."""
        return 0 if self.uniform and self.a == self.m else self.width

    @property
    def coins(self) -> int:
        """Number of Bernoulli latents."""
        return 0 if self.uniform else self.latent_count()

    @cached_property
    def bid(self) -> np.ndarray:
        """The block id of each entry of flat."""
        bid = np.repeat(np.arange(self.block_count, dtype=np.int64), self.sizes)
        bid.flags.writeable = False
        return bid

    @cached_property
    def singles(self) -> np.ndarray:
        """The private-coin edges, ascending."""
        covered = np.zeros(self.slots, dtype=bool)
        covered[self.flat] = True
        singles = np.flatnonzero(~covered)
        singles.flags.writeable = False
        return singles

    @cached_property
    def spread(self) -> "Spread":
        """Where the private coins go in the presence bitmap (_spread)."""
        return _spread(self.slots, self.flat)

    @cached_property
    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Up to graphs.BATCH_MAX_N vertices, the column (_edge_slots) behind
        bit w of row v at v * B + w, B the bits of a row word, 0 where v and
        w are not adjacent, and the (n, 1) mask of each row's adjacent bits
        (_rows)."""
        n = self.n
        dtype = batch_dtype(n)
        v = np.arange(n)[:, None]
        w = np.arange(8 * dtype.itemsize)
        lo, hi = np.minimum(v, w), np.maximum(v, w)
        edge = np.where((w < n) & (w != v), num_edges(hi) + lo, 0)
        table = _edge_slots(self)[edge].ravel()
        adjacent = dtype.type((1 << n) - 1) ^ (dtype.type(1) << v.astype(dtype))
        for arr in (table, adjacent):
            arr.flags.writeable = False
        return table, adjacent

    def max_dependency_degree(self) -> int:
        """The dependency graph's max degree: the largest block size minus
        1, or 0 without a block of 2 or more edges."""
        return int(self.sizes.max(initial=1)) - 1

    # -- plumbing ------------------------------------------------------

    def __eq__(self, other) -> bool:
        # kind, p and sizes fix a and m
        return (isinstance(other, DistributionModel)
                and self.kind == other.kind and self.n == other.n
                and self.p == other.p and self.d == other.d
                and np.array_equal(self.sizes, other.sizes)
                and np.array_equal(self.flat, other.flat))

    def __hash__(self) -> int:
        return hash((self.kind, self.n, self.p, self.d,
                     self.sizes.tobytes(), self.flat.tobytes()))

    def __repr__(self) -> str:
        return (f"DistributionModel(kind={self.kind!r}, n={self.n}, "
                f"p={format_probability(self.p)}, d={self.d})")


# -- constructions -----------------------------------------------------

def erdos_renyi(n: int, p) -> DistributionModel:
    """Every edge independent Bernoulli(p); the d = 0 baseline."""
    return DistributionModel(ERDOS_RENYI, n, p, 0)


def _star_blocks(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    # block x - s holds the edges from outside vertex x to S, S ascending
    s = d + 1
    xs = np.arange(s, n, dtype=np.int64)[:, None]
    return (num_edges(xs) + np.arange(s)).ravel(), np.full(n - s, s, dtype=np.int64)


def correlated_star(n: int, p, d: int) -> DistributionModel:
    """Hub set S = {0..d}; each outside vertex bonds to all of S on one coin.

    Edges inside S and edges outside S stay independent.  This is the
    construction whose witness pair (S, common neighborhood of S) meets
    the jumbledness lower bound.
    """
    if d + 1 > n - 1:
        raise ValueError(f"need d+1 <= n-1 so S is proper (got d={d}, n={n})")
    return DistributionModel(CORRELATED_STAR, n, p, d,
                             arrays=_star_blocks(n, d) if d >= 1 else None)


def _gadget_layout(n: int, d: int):
    d1 = d + 1
    s = isqrt(d1)
    if s * s != d1:
        raise ValueError(f"connectivity gadget needs d+1 a perfect square, got {d1}")
    if n < 2:
        raise ValueError("need n >= 2")
    a_size = ceil(n / (log(n) * s)) if n > 1 else n
    if a_size < s:
        raise ValueError(
            f"n={n} too small: |A|={a_size} is below the group size {s}")
    if a_size >= n:
        raise ValueError(f"n={n} too small: no vertices left for the B side")
    # edges inside and between A-groups, one coin per unordered group pair
    # (i, j), i <= j, in order of (i, j) and within a block of (u, v); pairs
    # without an edge give empty blocks
    u, v = np.triu_indices(a_size, 1)
    groups = -(-a_size // s)
    pair = u // s * groups + v // s
    a_flat = (num_edges(v) + u)[np.argsort(pair, kind="stable")]
    a_sizes = np.bincount(pair, minlength=groups * groups)
    # one coin per (A-vertex, B-run) pair: runs of d+1, the last maybe shorter
    tri_b = num_edges(np.arange(a_size, n, dtype=np.int64))
    full, tail = divmod(tri_b.size, d1)
    b_sizes = np.tile(np.append(np.full(full, d1), tail), a_size)
    b_flat = (tri_b + np.arange(a_size)[:, None]).ravel()
    return a_size, (np.concatenate((a_flat, b_flat)),
                    np.concatenate((a_sizes, b_sizes)))


def connectivity_gadget(n: int, p, d: int) -> DistributionModel:
    """Disconnection-prone construction matching the lower connectivity threshold.

    A small side A of ceil(n / (ln(n) sqrt(d+1))) vertices is cut into
    groups of sqrt(d+1); each group pair (including a group with itself)
    shares one coin.  The rest, B, is cut into runs of d+1; each
    (A-vertex, run) pair shares one coin.  Edges inside B are independent.
    Undersized trailing groups keep their own coin, which only lowers the
    dependency degree.
    """
    if d < 0:
        raise ValueError("dependence bound d must be nonnegative")
    _check_probability(p)
    _, arrays = _gadget_layout(n, d)
    return DistributionModel(CONNECTIVITY_GADGET, n, p, d, arrays=arrays)


def edge_block_exact(n: int, a: int, m: int) -> DistributionModel:
    """Partition the edge slots into runs of m; keep a uniform a of each run.

    The edge count is a n(n-1)/(2m) in every sample, the marginal is
    exactly a/m, and edges in different runs are independent, so d = m-1.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    L = num_edges(n)
    if not 1 <= a <= m:
        raise ValueError(f"need 1 <= a <= m (got a={a}, m={m})")
    if L % m != 0:
        raise ValueError(f"block size {m} does not divide {L} edge slots")
    return DistributionModel(EDGE_BLOCK_EXACT, n, Fraction(a, m), m - 1,
                             arrays=(np.arange(L, dtype=np.int64),
                                     np.full(L // m, m, dtype=np.int64)),
                             a=a, m=m)


def custom_blocks(n: int, p, blocks: Iterable[Iterable[int]]) -> DistributionModel:
    """Arbitrary all-or-nothing coupling: one coin per block of the partition.

    blocks must partition all n(n-1)/2 edge indices.  The dependence bound
    is max(block size) - 1.  Anticorrelated couplings are out of scope.
    """
    normalized = [tuple(int(e) for e in b) for b in blocks]
    if not all(normalized):
        raise ValueError("empty block in partition")
    flat, sizes = _block_arrays(normalized)
    model = DistributionModel(CUSTOM_BLOCKS, n, p, int(sizes.max(initial=1)) - 1,
                              arrays=(flat, sizes))
    if flat.size != num_edges(n):    # the model has checked them distinct
        missing = np.setdiff1d(np.arange(num_edges(n)), flat)[0]
        raise ValueError(f"blocks do not cover edge index {missing}")
    return model


def blocks_from_text(n: int, text: str) -> list[tuple[int, ...]]:
    """Parse "0 1 2; 3 4" into a full partition; unlisted edges become singletons."""
    listed = [tuple(int(tok) for tok in part.split())
              for part in text.split(";") if part.strip()]
    claimed = {e for b in listed for e in b}
    singles = [(e,) for e in range(num_edges(n)) if e not in claimed]
    return listed + singles


class Kind(NamedTuple):
    """One row of KINDS: the kind's alias, its constructor, and its
    settings, the constructor's parameters after n (_kind)."""
    alias: str
    construct: Callable[..., DistributionModel]
    settings: tuple[str, ...]


def _kind(alias: str, construct: Callable[..., DistributionModel]) -> Kind:
    # the settings are read from the constructor's signature once
    return Kind(alias, construct, tuple(inspect.signature(construct).parameters)[1:])


KINDS = {
    ERDOS_RENYI: _kind("er", erdos_renyi),
    CORRELATED_STAR: _kind("star", correlated_star),
    CONNECTIVITY_GADGET: _kind("gadget", connectivity_gadget),
    EDGE_BLOCK_EXACT: _kind("edge-block", edge_block_exact),
    CUSTOM_BLOCKS: _kind("custom", custom_blocks),
}

_KIND_ALIASES = {name: canonical for canonical, kind in KINDS.items()
                 for name in (kind.alias, canonical)}


def build(kind: str, n: int, p=None, d: int | None = None, a: int | None = None,
          m: int | None = None,
          blocks: Iterable[Iterable[int]] | None = None) -> DistributionModel:
    """Uniform entry point used by config files and the command line: the
    kind's constructor, called with its settings, d = 0 where none is
    given.  A given p or d other than the built model's is refused, and so
    is a given a, m or blocks that the kind does not take."""
    kind = _canonical_kind(kind)
    given = {"p": p, "d": 0 if d is None else d, "a": a, "m": m, "blocks": blocks}
    settings = KINDS[kind].settings
    for key in ("a", "m", "blocks"):
        if given[key] is not None and key not in settings:
            raise ValueError(f"{kind} models take no {key}")
    missing = [key for key in settings if given[key] is None]
    if missing:
        raise ValueError(f"missing required parameter {missing[0]!r}")
    model = KINDS[kind].construct(n, *(given[key] for key in settings))
    for key, value, show in (("p", p, format_probability), ("d", d, str)):
        if value is not None and value != getattr(model, key):
            raise ValueError(f"{kind} models have {key} = {show(getattr(model, key))}, "
                             f"not {key} = {show(value)}")
    return model


def _canonical_kind(kind: str) -> str:
    try:
        return _KIND_ALIASES[kind.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown distribution kind {kind!r}; "
                         f"known: {', '.join(sorted(_KIND_ALIASES))}") from None


# -- sampling ----------------------------------------------------------

def _presence_words(model: DistributionModel, values: np.ndarray) -> np.ndarray:
    """The colex presence bitmap for one trial's values (_draw), as
    graphs.packed_words.

    A model whose columns are its edges, uniform subsets or coins without
    blocks, packs its values as they are.  With blocks the private coins are
    packed and spread to their words (DistributionModel.spread), and the edges of
    the blocks whose coin is on are set in them.
    """
    if model.width == model.slots:
        return packed_words(values)
    words = np.zeros(row_words(model.slots) + 1, dtype="<u8")
    spread = model.spread
    if spread.words.size:
        pieces = read_windows(packed_words(values[model.block_count:]), spread.at)
        pieces &= spread.masks
        words[spread.words] = np.bitwise_or.reduceat(pieces, spread.heads)
    on = model.flat[values[model.bid]]
    np.bitwise_or.at(words, on >> 6, np.uint64(1) << (on & 63).astype(np.uint64))
    return words


def _coin_threshold(p) -> np.uint64 | None:
    """The largest raw Philox word that makes a coin of probability p come
    up, or None when p = 0 and no word does.

    A Philox double is (raw >> 11) * 2**-53 for a raw 64-bit word, so it is
    below p exactly when raw >> 11 < c = ceil(p * 2**53), that is when
    raw <= (c << 11) - 1.
    """
    c = ceil(float(p) * 2.0 ** 53)
    return np.uint64((c << 11) - 1) if c else None


def _picks(keys: np.ndarray, a: int) -> np.ndarray:
    """The positions of the a smallest keys along the last axis; for a = 1
    the first of equal minima, which argpartition need not pick."""
    if a > 1:
        return np.argpartition(keys, a - 1, axis=-1)[..., :a]
    return keys.argmin(-1, keepdims=True)


# the bits of a raw word above its low 11: raw & _KEY_BITS is (raw >> 11) << 11
_KEY_BITS = np.uint64(0xFFFF_FFFF_FFFF_F800)


def _one_hot(words: np.ndarray, present: np.ndarray) -> None:
    """Write into present, (B, m) bools for m = 2 or 3, the single pick of
    each row of words, (B, m) raw words: the first of the equal least keys
    raw >> 11, from elementwise compares.  key_i < key_j exactly when
    raw_i < raw_j & _KEY_BITS, so no key is formed.  Exactly one edge of a
    block is kept, so edge 0 is kept when neither later edge is."""
    w0, w1, last = words[:, 0], words[:, 1], words[:, -1]
    if words.shape[1] == 2:
        np.less(last, w0 & _KEY_BITS, out=present[:, 1])
        np.logical_not(present[:, 1], out=present[:, 0])
        return
    low = np.minimum(w0, w1)
    low &= _KEY_BITS
    np.less(last, low, out=present[:, 2])
    np.greater(w1 < (w0 & _KEY_BITS), present[:, 2], out=present[:, 1])
    np.equal(present[:, 1], present[:, 2], out=present[:, 0])


def _draw(model: DistributionModel, runs: Iterable[tuple[np.random.Generator, int]],
          out: np.ndarray) -> None:
    """Write the latent values of len(out) trials into out, a C-contiguous
    (T, model.width) array of bools: a coin per column for coin models, an
    edge's presence per column for uniform subsets.  runs yields (gen, k)
    pairs, k trials drawn in turn from gen, until they cover the T trials;
    each run's generator is used before the next one is taken.

    Each value is settled from the raw Philox word drawn for it.  A run no
    longer than a word buffer of graphs.BATCH_BYTES is copied into it, and
    the buffer is settled once it is full; a longer run is settled chunk by
    chunk as it is drawn.  A coin is gen.random() < float(p) bit for bit,
    its word compared with _coin_threshold(p), with no conversion to
    doubles.  A uniform block's m words are its keys, the doubles
    gen.random() would give as the integers raw >> 11 they scale, which
    order and tie as the doubles do; the buffer and the chunks hold whole
    blocks.  A single pick from blocks of 2 or 3 is written one-hot from
    elementwise compares of the raw words (_one_hot); otherwise the a keys
    _picks picks mark their edges present.  Keeping all m edges of each
    block draws nothing.
    """
    flat = out.reshape(-1)
    if not model.draw_words:
        flat[:] = True
        return
    group = model.m if model.uniform else 1
    chunk, per_trial = batch_size(8 * group) * group, model.draw_words
    size = min(chunk, flat.size)
    if model.uniform and model.a == 1 and model.m <= 3:
        def settle(words, at):
            _one_hot(words.reshape(-1, group), flat[at:at + len(words)].reshape(-1, group))
    elif model.uniform:
        a, starts = model.a, np.arange(0, size, group)[:, None]

        def settle(words, at):
            # words are the buffer's or a chunk's, which nothing reads again
            np.right_shift(words, 11, out=words)
            picks = _picks(words.reshape(-1, group), a)
            present = flat[at:at + len(words)]
            present[:] = False
            present[starts[:len(picks)] + picks] = True
    else:
        threshold = _coin_threshold(model.p)

        def settle(words, at):
            if threshold is None:
                flat[at:at + len(words)] = False
            else:
                np.less_equal(words, threshold, out=flat[at:at + len(words)])

    words = np.empty(size, dtype=np.uint64)
    at = fill = 0       # words[:fill] go to flat[at:]
    for gen, k in runs:
        count = k * per_trial
        bits = gen.bit_generator
        if fill + count > size:
            settle(words[:fill], at)
            at, fill = at + fill, 0
        if count <= size:
            words[fill:fill + count] = bits.random_raw(count)
            fill += count
            continue
        for i in range(0, count, chunk):
            settle(bits.random_raw(min(chunk, count - i)), at + i)
        at += count
    settle(words[:fill], at)


def _edge_slots(model: DistributionModel) -> np.ndarray:
    """Per edge index, the value column (_draw) that records whether the
    edge is present: its latent's for coins, where an edge is present iff
    its latent is on, and its own for uniform subsets."""
    if model.uniform:
        return np.arange(model.slots)
    slot = np.empty(model.slots, dtype=np.int64)
    slot[model.flat] = model.bid
    slot[model.singles] = np.arange(model.block_count, model.latent_count())
    return slot


def _latent_rows(model: DistributionModel, trials: int) -> np.ndarray:
    """An empty array for the latent values of T <= trials trials, the
    block that _latent_blocks draws into (see _draw), _rows packs and
    _trial_values evaluates.  T is as large as keeps the wider per-trial
    array of a block within graphs.BATCH_BYTES: one trial's values or its
    rows (graphs.row_bytes)."""
    width = model.width
    per_trial = max(width, row_bytes(model.n))
    return np.empty((min(trials, batch_size(per_trial)), width), dtype=bool)


def _latent_blocks(model: DistributionModel,
                   source: np.random.Generator | Sequence[int] | np.ndarray,
                   trials: int) -> Iterable[np.ndarray]:
    """The latent values of trials trials, as _draw writes them, in blocks
    of _latent_rows(model, trials) trials; each block is one array,
    written over by the next.

    source is one generator, which draws every trial in turn, or the
    trials' seeds, a sequence of ints or a uint64 array, each trial drawn
    from this thread's generator reset to its seed (rng.seeded) as sample
    does.  The resets are made lazily, so each generator is used before the
    next reset, and an array's seeds become ints a block at a time.
    """
    values = _latent_rows(model, trials)
    one = isinstance(source, np.random.Generator)
    for start in range(0, trials, max(1, len(values))):
        drawn = values[:min(len(values), trials - start)]
        if one:
            runs = ((source, len(drawn)),)
        else:
            seeds = source[start:start + len(drawn)]
            if isinstance(seeds, np.ndarray):
                seeds = seeds.tolist()
            runs = zip(map(rngmod.seeded, seeds), repeat(1))
        _draw(model, runs, drawn)
        yield drawn


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _spans(model: DistributionModel,
           source: np.random.Generator | Sequence[int] | np.ndarray, trials: int,
           work: Callable[[int, Iterable[np.ndarray]], object],
           limit: int | None = None) -> list:
    """work(start, blocks) for each span of the trials trials, where blocks
    yields the latent values of the span's trials from trial start on as
    _latent_blocks(model, source, trials) would; the results in span order.

    The spans are contiguous runs of whole blocks, min(limit, _cpus(),
    blocks) of them, one in the calling thread, more in a thread each, all
    ended on return.  A span drawn from a generator starts from one
    forwarded to its first trial's words (rng.forward), a span of seeds at
    its first trial's seed.  Up to graphs.BATCH_MAX_N vertices seeds run in
    one span: their per-trial resets hold the GIL, so threads would only
    contend for it.
    """
    per_block = len(_latent_rows(model, trials))
    blocks = -(-trials // per_block)
    one = isinstance(source, np.random.Generator)
    count = min(limit or blocks, _cpus(), blocks)
    if not one and model.n <= BATCH_MAX_N:
        count = 1
    starts = [i * blocks // count * per_block for i in range(count)]
    stops = starts[1:] + [trials]
    if one:
        words = model.draw_words
        sources = [source] + [rngmod.forward(source, start * words) for start in starts[1:]]
    else:
        sources = [source[start:stop] for start, stop in zip(starts, stops)]

    def run(i):
        return work(starts[i], _latent_blocks(model, sources[i], stops[i] - starts[i]))

    if count == 1:
        return [run(0)]
    with ThreadPoolExecutor(max_workers=count) as pool:
        return list(pool.map(run, range(count)))


def _trial_values(model: DistributionModel,
                  source: np.random.Generator | np.ndarray, trials: int,
                  functional: Predicate, limit: int | None = None) -> np.ndarray:
    """functional's value on each of the trials trials' graphs, in trial
    order, as float64.  The trials are drawn from source as _spans(model,
    source, trials, ..., limit) draws them, and each block is packed
    (_rows) and evaluated (predicates.evaluate_rows) into its slice of one
    values array, so the values do not depend on the span count."""
    values = np.empty(trials)

    def evaluate(start, blocks):
        for drawn in blocks:
            values[start:start + len(drawn)] = evaluate_rows(functional, _rows(model, drawn))
            start += len(drawn)

    _spans(model, source, trials, evaluate, limit)
    return values


def _rows(model: DistributionModel, values: np.ndarray) -> np.ndarray:
    """A block of T trials' latent values, as _latent_blocks yields them, as
    one (T, n, W) block in the layout of graphs.zero_rows.  Up to
    graphs.BATCH_MAX_N vertices one gather reads every row bit from the
    value column behind it (DistributionModel.columns), and one flat packbits
    packs the rows, each a whole number of bytes, into their words; the
    gather takes a bool per row bit, so it runs on chunks of as many trials
    as keep it within graphs.BATCH_BYTES.  Beyond, each trial's rows are
    read from its presence bitmap (_presence_words, graphs.presence_rows),
    with no edge index."""
    n, count = model.n, len(values)
    rows = zero_rows(count, n)
    if n > BATCH_MAX_N:
        for t in range(count):
            rows[t] = presence_rows(n, _presence_words(model, values[t]))
        return rows
    if not model.slots:
        return rows
    table, adjacent = model.columns
    step = batch_size(8 * row_bytes(n))
    for lo in range(0, count, step):
        chunk = values[lo:lo + step]
        packed = np.packbits(chunk.take(table, axis=1), bitorder="little")
        words = packed.view(adjacent.dtype.newbyteorder("<")).reshape(len(chunk), n, 1)
        np.bitwise_and(words, adjacent, out=rows[lo:lo + step])
    return rows


# A latent state's marshal image at format version 2, which has no
# back-references: a tuple "(" or list "[" is its type code and a 4-byte
# count, then its items; a bool is one type code, "T" or "F", and an int of
# 32 bits the type code "i" and 4 bytes.
_IMAGE_VERSION = 2
_IMAGE_HEAD = 5                                   # a sequence's code and count
_IMAGE_TRUE, _IMAGE_FALSE = np.uint8(ord("T")), np.uint8(ord("F"))


def _latent_state(model: DistributionModel, values: np.ndarray) -> tuple:
    """The latent state (SampleOutcome) of one trial's values (_draw)."""
    if model.uniform:
        # each block's kept positions, ascending; zip over the columns forms
        # the blocks' tuples without a call per row
        picks = np.flatnonzero(values).reshape(-1, model.a) % model.m
        return tuple(zip(*picks.T.tolist()))
    # the coins' image, read back as a tuple of bools in one pass
    codes = values.view(np.uint8) * (_IMAGE_TRUE - _IMAGE_FALSE) + _IMAGE_FALSE
    return marshal.loads(b"(" + values.size.to_bytes(4, "little") + codes.tobytes())


def _image_values(model: DistributionModel, state: tuple | list) -> np.ndarray | None:
    """The values of a state of capture's form, read at C speed from its
    marshal image; None for a state of any other form.

    Capture's form is a tuple or list of Python bools (coins), or of tuples
    or lists of a Python ints of 32 bits each (uniform subsets).  Its image
    has a fixed width, and its type codes and counts are checked at every
    position.  np.asarray makes an array of the same values and kind from
    such a state, so realize judges it the same either way.
    """
    try:
        image = marshal.dumps(state, _IMAGE_VERSION)
    except ValueError:       # an entry marshal does not write, like np.int64
        return None
    if not model.uniform:
        body = image[_IMAGE_HEAD:]
        if len(body) != len(state) or body.translate(None, b"TF"):
            return None
        return np.frombuffer(body, dtype=np.uint8) == _IMAGE_TRUE
    entry = np.dtype([("code", "u1"), ("count", "<i4"),
                      ("items", [("code", "u1"), ("value", "<i4")], (model.a,))])
    if len(image) != _IMAGE_HEAD + len(state) * entry.itemsize:
        return None
    entries = np.frombuffer(image, entry, offset=_IMAGE_HEAD)
    if not (np.isin(entries["code"], (ord("("), ord("["))).all()
            and (entries["count"] == model.a).all()
            and (entries["items"]["code"] == ord("i")).all()):
        return None
    return entries["items"]["value"]


def _state_array(model: DistributionModel, state: Sequence) -> np.ndarray:
    """np.asarray(state), from the state's image when it has capture's form."""
    values = _image_values(model, state) if type(state) in (tuple, list) else None
    return np.asarray(state) if values is None else values


def _state_values(model: DistributionModel, state: Sequence) -> np.ndarray:
    """One trial's values (_draw) from a latent state, rejecting bad
    entries; a uniform subset's positions become its edges' presence."""
    if len(state) != model.latent_count():
        raise ValueError(f"state has {len(state)} entries, "
                         f"model has {model.latent_count()} latents")
    try:
        values = _state_array(model, state)
    except (ValueError, TypeError, OverflowError):    # ragged entries
        values = None
    if model.uniform:
        a, m = model.a, model.m
        if (values is not None and values.shape == (model.block_count, a)
                and values.dtype.kind in "iu"
                and values.min() >= 0 and values.max() < m
                and (np.diff(np.sort(values, axis=1), axis=1) > 0).all()):
            present = np.zeros((model.block_count, m), dtype=bool)
            np.put_along_axis(present, values.astype(np.intp, copy=False), True, axis=1)
            return present.reshape(-1)
        raise ValueError(f"bad latent state: each entry must be {a} distinct "
                         f"positions in range({m})")
    if values is not None and values.ndim == 1 and (
            values.dtype == bool or values.size == 0
            or (values.dtype.kind in "iu" and ((values == 0) | (values == 1)).all())):
        return values.astype(bool, copy=False)
    raise ValueError("bad latent state: each entry must be a bool or 0/1")


def sample(model: DistributionModel, seed: int,
           keep_latents: bool = False) -> SampleOutcome:
    """Draw one graph; a pure function of (model, seed).

    With keep_latents the outcome also carries the latent state that
    realize() maps back to the same graph.  Capture reads it from the
    draw's values in one pass, but forms a Python object per latent, so at
    n = 300-500 a captured sample takes about 2-2.5 times as long as a
    plain one.  The draw comes from this thread's generator reset
    to rng.generator(seed)'s state, and _rows packs it as it packs the
    runner's blocks.
    """
    (values,) = _latent_blocks(model, (seed,), 1)
    graph = row_graphs(_rows(model, values))[0]
    state = _latent_state(model, values[0]) if keep_latents else None
    return SampleOutcome(graph, state)


def realize(model: DistributionModel, state: Sequence) -> Graph:
    """Graph determined by a full latent assignment (declared order).

    Raises ValueError unless state has one entry per latent: a bool or 0/1
    for each coin, and for each uniform subset a distinct positions in
    range(m).
    """
    values = _state_values(model, state)
    return row_graphs(_rows(model, values[None]))[0]


# -- marginal and independence audit -----------------------------------

class EdgeMarginal(NamedTuple):
    edge: int
    successes: int
    trials: int
    estimate: float
    ci_low: float
    ci_high: float
    flagged: bool


class PairIndependence(NamedTuple):
    edge_a: int
    edge_b: int
    table: tuple[int, int, int, int]    # (n11, n10, n01, n00)
    statistic: float
    p_value: float
    flagged: bool


class AuditReport(NamedTuple):
    """Empirical check that a model delivers its declared marginals and locality.

    Individual Wilson or chi-squared misses are expected at their nominal
    rates; the aggregate flag fires only when misses exceed the
    mean + 3 sigma + 1 tolerance for the batch, or when the dependency
    degree check fails outright.
    """
    kind: str
    n: int
    p: float
    declared_d: int
    trials: int
    seed: int
    marginals: tuple[EdgeMarginal, ...]
    pairs: tuple[PairIndependence, ...]
    max_dependency_degree: int
    degree_ok: bool
    marginal_misses: int
    marginal_tolerance: float
    pair_misses: int
    pair_tolerance: float

    @property
    def flagged(self) -> bool:
        return (not self.degree_ok
                or self.marginal_misses > self.marginal_tolerance
                or self.pair_misses > self.pair_tolerance)


def _independent_pairs(model: DistributionModel, gen: np.random.Generator,
                       want: int) -> list[tuple[int, int]]:
    L = num_edges(model.n)
    owner = np.full(L, -1, dtype=np.int64)
    owner[model.flat] = model.bid
    pairs: list[tuple[int, int]] = []
    seen = set()
    attempts = 0
    while len(pairs) < want and attempts < 50 * want:
        attempts += 1
        e1, e2 = (int(x) for x in gen.integers(0, L, size=2))
        if e1 == e2:
            continue
        if e1 > e2:
            e1, e2 = e2, e1
        if (e1, e2) in seen:
            continue
        seen.add((e1, e2))
        if owner[e1] >= 0 and owner[e1] == owner[e2]:
            continue    # same latent: dependent by design
        pairs.append((e1, e2))
    return pairs


def _column_counts(block: np.ndarray) -> np.ndarray:
    """block.sum(axis=0) as int64, for a C-contiguous (T, W) bool block,
    counted in byte lanes.  g = 8 / gcd(W, 8) rows are a whole number of
    uint64 words, and byte j of a group of g rows is column j mod W, so up
    to 255 such words add with no carry from one byte lane into the next
    (SWAR; Warren, Hacker's Delight, ch. 5) before the lanes are folded
    into the counts."""
    T, W = block.shape
    g = 8 // gcd(W, 8)
    whole = T - T % g
    counts = block[whole:].sum(axis=0)
    words = block[:whole].reshape(whole // g, g * W).view(np.uint64)
    lanes = np.zeros(g * W, dtype=np.int64)
    for lo in range(0, len(words), 255):
        lanes += words[lo:lo + 255].sum(axis=0).view(np.uint8)
    return counts + lanes.reshape(g, W).sum(axis=0)


def audit_model(model: DistributionModel, trials: int, seed: int,
                pairs: int = 50) -> AuditReport:
    """Marginal frequencies, dependency degree, and pairwise independence checks."""
    if not 1 <= trials < 1 << 63:
        raise ValueError("trials must be >= 1 and < 2^63 (the tallies are int64)")
    if pairs < 0:
        raise ValueError("pairs must be >= 0")
    L = num_edges(model.n)
    gen = rngmod.generator(seed)
    pair_list = _independent_pairs(model, gen, pairs) if L >= 2 else []
    e1s = np.array([a for a, _ in pair_list], dtype=np.int64)
    e2s = np.array([b for _, b in pair_list], dtype=np.int64)
    # the drawn values are tallied as they are and each edge reads its
    # column's tally (_edge_slots).  Trials are drawn a batch at a time, as
    # a loop drawing in turn from gen would draw them, and each span of
    # them (_spans) is tallied apart; the tallies are integers, so their
    # sum does not depend on the span count.
    slot = _edge_slots(model)
    s1, s2 = slot[e1s], slot[e2s]

    def tallies(start, blocks):
        tally = np.zeros(model.width, dtype=np.int64)
        joint = np.zeros(len(pair_list), dtype=np.int64)
        for drawn in blocks:
            tally += _column_counts(drawn)
            # take keeps the C order _column_counts reads; drawn[:, s1] does not
            joint += _column_counts(drawn.take(s1, axis=1) & drawn.take(s2, axis=1))
        return tally, joint

    parts = _spans(model, gen, trials, tallies)
    counts = sum(tally for tally, _ in parts)[slot].tolist()
    joint = sum(joint for _, joint in parts)

    # edges of one count share their estimate and interval
    pf = float(model.p)
    cells = {}
    for c in set(counts):
        lo, hi = stats.wilson_interval(c, trials)
        cells[c] = (c / trials, lo, hi, not lo <= pf <= hi)
    marginals = tuple(EdgeMarginal(e, c, trials, *cells[c]) for e, c in enumerate(counts))
    misses = sum(m.flagged for m in marginals)

    pair_reports = []
    pair_misses = 0
    for i, (a, b) in enumerate(pair_list):
        n11 = int(joint[i])
        n10 = counts[a] - n11
        n01 = counts[b] - n11
        n00 = trials - n11 - n10 - n01
        stat, pval = stats.chi2_independence_2x2(n11, n10, n01, n00)
        bad = pval < 0.001
        pair_misses += bad
        pair_reports.append(PairIndependence(a, b, (n11, n10, n01, n00),
                                             stat, pval, bad))

    max_deg = model.max_dependency_degree()
    return AuditReport(
        kind=model.kind, n=model.n, p=pf, declared_d=model.d,
        trials=trials, seed=seed,
        marginals=marginals, pairs=tuple(pair_reports),
        max_dependency_degree=max_deg, degree_ok=max_deg <= model.d,
        marginal_misses=misses,
        marginal_tolerance=stats.flag_tolerance(L, 0.01),
        pair_misses=pair_misses,
        pair_tolerance=stats.flag_tolerance(len(pair_list), 0.001),
    )


# -- descriptors -------------------------------------------------------

def _setting_text(model: DistributionModel, key: str) -> str:
    """The descriptor text of one of the model's settings."""
    if key == "p":
        return format_probability(model.p)
    if key == "blocks":
        return "; ".join(" ".join(str(e) for e in b) for b in model.blocks)
    return str(getattr(model, key))


def _read_setting(n: int, key: str, text: str):
    """Inverse of _setting_text, for a model on n vertices."""
    if key == "p":
        return parse_probability(text)
    if key == "blocks":
        return blocks_from_text(n, text)
    return int(text)


def to_descriptor(model: DistributionModel) -> str:
    """Key-value text form of a model: kind, n, p, d, then the kind's other
    settings; round-trips through from_descriptor."""
    cp = configparser.ConfigParser()
    cp["model"] = {"kind": model.kind, "n": str(model.n)}
    for key in dict.fromkeys(("p", "d", *KINDS[model.kind].settings)):
        cp["model"][key] = _setting_text(model, key)
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def from_descriptor(text: str) -> DistributionModel:
    """Rebuild a model from its descriptor through build, re-validating
    every precondition; d defaults as in build, custom blocks to singletons."""
    cp = configparser.ConfigParser(defaults={"blocks": ""})
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ValueError(f"bad model descriptor: {exc}") from None
    if "model" not in cp:
        raise ValueError('model descriptor needs a [model] section')
    sec = cp["model"]
    try:
        kind = _canonical_kind(sec["kind"])
        n = int(sec["n"])
        wanted = KINDS[kind].settings
        settings = {key: _read_setting(n, key, sec[key])
                    for key in dict.fromkeys((*wanted, "p", "d"))
                    if key in wanted or key in sec}
    except KeyError as exc:
        raise ValueError(f"model descriptor missing key {exc}") from None
    return build(kind, n, **settings)
