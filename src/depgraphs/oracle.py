"""Exact backends that validate the stochastic components.

Every exact query is the expectation of a per-outcome vector over one
enumeration of the joint latent space (`_expectation`): an event's
indicator, the edges' presence bits, a statistic's value and its square.
The enumeration reads the latents from the model itself (flat, singles,
bid, the counts, and a and m for uniform subsets) and gives each latent
value a table of the adjacency-row bits its edges set.  It never reads the
sampler's views of the model (spread, columns), so it shares no presence
code with the sampler, and an exact value and a Monte Carlo estimate of it
are computed independently.

One block source (`_walk_batches`) yields the outcomes at every
n as blocks of (T, n, W) row words, the shape of graphs.zero_rows that the
sampler gives and the batch kernels read, each the view of a vertex-major
(n W, T) table: a row word's T outcomes are contiguous, so the kernels'
vertex-major columns and the marginals' (L, T) bits are read with no
transpose.  Blocks are sized by one byte budget (graphs.BATCH_BYTES).
Each edge slot's two row bits are located once (graphs.row_bits); a low
table holds every joint value of the first latents, doubled in place by
one contiguous XOR per value; the next latent's values (a coin's toggle,
or a uniform block's subsets unranked in colex order, once per slice for
every block) are read in slices that fill a block with it, and each block
is XORed along T with every joint value of the latents above.  The tests
keep a scalar Gray walk over Python-int rows as the independent reference
for this one.

One tally sums the values per number of coins set, and each sum collapses
to a probability or moment at the end, from Python ints where the values
are integral, so the result does not depend on the order of the walk nor
on the values' magnitude.
Binomial tails come by direct summation.  The jumbledness check finds the
pair a scan of all 4^n subset pairs would, one chunk of subset masks at a
time: each set's neighbour weights are sorted once, and k = 0..n is
streamed with running sums of the k smallest and k largest weights that
index one slack table (O(2^n n log^2 n) time, chunk-sized memory).
Budgets are enforced, never silently degraded.
"""

from __future__ import annotations

import math
from functools import lru_cache
from fractions import Fraction
from math import comb, lgamma, log
from operator import mul
from typing import NamedTuple

import numpy as np

from . import rng as rngmod
from .distributions import DistributionModel, _trial_values
from .errors import ResourceLimitError
from .graphs import (Graph, _endpoints, batch_size, num_edges, row_bits,
                     row_bytes, zero_rows)
from .predicates import Predicate, evaluate_rows

ENUMERATION_BUDGET = 1 << 24

JUMBLEDNESS_MAX_N = 22

# subset masks A (and sets B) per step of the jumbledness scan; a power of two
JUMBLEDNESS_CHUNK = 1 << 14


def state_space_size(model: DistributionModel) -> int:
    """Number of joint latent assignments the enumeration must visit."""
    size = 1 << model.coins
    if model.uniform:
        size *= comb(model.m, model.a) ** model.block_count
    return size


def _check_budget(model: DistributionModel) -> None:
    if model.uniform:
        m, a, b = model.m, model.a, model.block_count
        log2_size = b * (lgamma(m + 1) - lgamma(a + 1) - lgamma(m - a + 1)) / log(2)
        text = f"comb({m},{a})^{b}"
    else:
        log2_size = model.coins
        text = f"2^{model.coins}"
    # log2_size is off by far less than a bit, so a size a bit past the
    # budget is rejected without forming it: it can run to millions of digits
    if (log2_size > ENUMERATION_BUDGET.bit_length()
            or state_space_size(model) > ENUMERATION_BUDGET):
        raise ResourceLimitError(
            f"latent space has {text} outcomes, budget is {ENUMERATION_BUDGET}")


def _subsets(ladders: list[np.ndarray], start: int, stop: int) -> np.ndarray:
    """The a-subsets of colex rank start .. stop - 1 (increasing bitmask
    order) of m slots, as a (stop - start, a) int64 array of slot indices.

    A subset c_1 < ... < c_a has rank sum comb(c_i, i), so its i-th slot is
    the largest x with comb(x, i) <= what is left of the rank; ladders[i-1]
    holds comb(x, i) for x < m.
    """
    rank = np.arange(start, stop, dtype=np.int64)
    slots = np.empty((len(rank), len(ladders)), dtype=np.int64)
    for i in reversed(range(len(ladders))):
        top = np.searchsorted(ladders[i], rank, side="right") - 1
        rank -= ladders[i][top]
        slots[:, i] = top
    return slots


def _join(op, values: np.ndarray, low: np.ndarray, out: np.ndarray) -> None:
    """Write op(values[..., i], low[..., l]) to out[..., i*h + l] for every
    value i and low entry l (h of them), the low entry varying fastest:
    one contiguous op per value, or per low entry where there are fewer."""
    r, h = values.shape[-1], low.shape[-1]
    if r <= h:
        for i in range(r):
            op(low, values[..., i, None], out=out[..., i * h:(i + 1) * h])
    else:
        for l in range(h):
            op(values, low[..., l, None], out=out[..., l::h])


def _joint_values(values, radix: int, step: int, latents: range, k: int,
                  row: np.ndarray):
    """Yield (k + c, row ^ r) for each joint value of the latents, where c
    counts the coins it sets and r is the XOR of its (n W,) row words; each
    latent's values are read step at a time."""
    if not latents:
        yield k, row
        return
    for start in range(0, radix, step):
        ks, rows = values(latents[:1], start, min(radix, start + step))
        for vk, vrow in zip(ks.tolist(), rows[0].T):
            yield from _joint_values(values, radix, step, latents[1:], k + vk, row ^ vrow)


def _walk_batches(model: DistributionModel, cap: int):
    """Yield (k, rows) for blocks of at most cap joint latent outcomes, each
    outcome once.

    rows is one block of (T, n, W) row words of graphs.zero_rows' shape
    and dtype, viewed as table.reshape(n, W, T).transpose(2, 0, 1) from a
    vertex-major (n W, T) table: each row word's T values are contiguous,
    so graphs._columns reads them with no copy.  k is the int64 number of
    coins set in each outcome.  A latent's value sets the row words of the
    edges it turns on and some number of coins: a coin is off or on, a
    uniform block keeps one of its a-subsets.  The first latents, as many
    as fit a block, form a low table of all their joint values, doubled in
    place by one contiguous XOR per value (_join).  The next latent's
    values are read in slices that fit a block with the low table, and
    each such block is XORed along T with every joint value of the latents
    above.  No table holds more than cap values, no array a row per edge
    slot, and only the model's latent arrays are shared with the sampler.
    """
    latents = model.latent_count()
    n = model.n
    zero = zero_rows(1, n)
    words = zero.size
    # per latent edge slot (the flat edges, then the singles), where its
    # edge's bit lies in row u and in row v of one graph's flattened rows
    u, v = _endpoints(n, np.concatenate([model.flat, model.singles]))
    at, bits = row_bits(zero, np.array([u, v]), np.array([v, u]))
    if model.uniform:
        m, a = model.m, model.a
        radix = comb(m, a)
        ladders = [np.array([comb(x, i) for x in range(m)], dtype=np.int64)
                   for i in range(1, a + 1)]
        # every block's values are the same subsets of its m slots, so a
        # slice's subsets are unranked once for all blocks, and all of them
        # once for the walk when they fit a block
        every = _subsets(ladders, 0, radix) if radix <= cap else None

        def values(js, start, stop):
            s = stop - start
            slots = every if s == radix else _subsets(ladders, start, stop)
            slot = np.add.outer(np.arange(js.start, js.stop) * m, slots)
            # [block, word, value]: each (block, value) toggles a distinct
            # slot per column of slots, but two slots can share a word
            at_word = (np.arange(len(js))[:, None, None] * words + at[:, slot]) * s
            out = np.zeros((len(js), words, s), dtype=zero.dtype)
            np.bitwise_xor.at(out.reshape(-1), at_word + np.arange(s)[:, None],
                              bits[:, slot])
            return np.zeros(s, dtype=np.int64), out
    else:
        radix = 2
        owner = np.concatenate([model.bid, np.arange(model.block_count, latents)])
        # [latent, word, value]: value 0 leaves the coin off, value 1 toggles it
        table = np.zeros((latents, words, 2), dtype=zero.dtype)
        np.bitwise_xor.at(table[..., 1], (np.concatenate([owner, owner]), at.ravel()),
                          bits.ravel())

        def values(js, start, stop):
            return np.arange(start, stop, dtype=np.int64), table[js.start:js.stop, :, start:stop]

    def outcomes(words_by_t):
        return words_by_t.reshape(*zero.shape[1:], words_by_t.shape[1]).transpose(2, 0, 1)

    split, size = 0, 1
    while split < latents and size * radix <= cap:
        split, size = split + 1, size * radix
    low = np.zeros((words, size), dtype=zero.dtype)
    low_k = np.zeros(size, dtype=np.int64)
    if split:
        # a latent's value 0 sets no coins; its rows are XORed into every
        # outcome, so each latent doubles the table by its other values
        # relative to value 0, and their XOR is applied to it once
        vk, rows = values(range(split), 0, radix)
        relative = rows[..., 1:] ^ rows[..., :1]
        h = 1
        for j in range(split):
            _join(np.bitwise_xor, relative[j], low[:, :h], low[:, h:h * radix])
            if not model.uniform:     # a uniform block sets no coins
                _join(np.add, vk[1:], low_k[:h], low_k[h:h * radix])
            h *= radix
        base = np.bitwise_xor.reduce(rows[..., 0], axis=0)
        if base.any():
            low ^= base[:, None]
    if split == latents:
        yield low_k, outcomes(low)
        return
    step = cap // size
    high = range(split + 1, latents)
    for start in range(0, radix, step):
        vk, rows = values(range(split, split + 1), start, min(radix, start + step))
        if split:
            mid_k = np.empty(len(vk) * size, dtype=np.int64)
            mid = np.empty((words, len(vk) * size), dtype=zero.dtype)
            _join(np.add, vk, low_k, mid_k)
            _join(np.bitwise_xor, rows[0], low, mid)
        else:       # the low table is the one outcome with no edge
            mid_k, mid = vk, np.ascontiguousarray(rows[0])
        if not high:
            yield mid_k, outcomes(mid)
            continue
        for k, row in _joint_values(values, radix, cap, high, 0, zero.reshape(-1)):
            yield mid_k + k, outcomes(mid ^ row[:, None])


def _batch_cap(n: int, columns: int) -> int:
    """Outcomes per block of _walk_batches: as many as keep an array of
    `columns` row-sized cells per outcome, the widest a consumer forms,
    within graphs.BATCH_BYTES; a cell is a row's share of one graph's
    rows, graphs.row_bytes(n) / n."""
    return batch_size(columns * row_bytes(n) // n)


def _exact_in_float(values: np.ndarray) -> bool:
    """Whether integers sum exactly in float64 in any order: their sum of
    |values| is below 2^53, so every partial sum is an integer that float64
    holds.  That sum is taken in float64 here, within far less than a
    factor of 2 of the true one, so it is compared with 2^52."""
    return np.abs(values, dtype=np.float64).sum() < 2.0 ** 52


def _expectation(model: DistributionModel, values_of, columns: int) -> list:
    """Per column, the expectation of values_of(rows), a block's (T, columns)
    values, over every joint latent outcome; raises ResourceLimitError past
    the 2^24-outcome budget.

    Each block's values are summed per column and number of coins set k,
    and the blocks' sums are added up in Python ints where the values are
    integral, so they come back as ints at any magnitude.  A block of
    bools, or of integers whose sum of |values| is below 2^53 (which keeps
    every partial float64 sum exact), sums by column where there is one k;
    else the bools are counted by one bincount of the (column, k) cells
    that hold True, and the integers sum in float64 by one bincount.
    Other integral values, and values of no fixed dtype, sum as Python
    objects.  Float values sum in float64.
    """
    _check_budget(model)
    size = model.coins + 1
    sums = 0
    for k, rows in _walk_batches(model, _batch_cap(model.n, max(model.n, columns))):
        values = values_of(rows)
        kind = values.dtype.kind
        exact = kind == "b" or (kind in "iu" and _exact_in_float(values))
        if size == 1 and exact:
            part = values.reshape(len(values), -1).sum(axis=0)
        else:
            at = k if columns == 1 else (np.arange(columns)[:, None] * size + k).ravel()
            cells = values.ravel(order="F")
            if kind == "b":
                part = np.bincount(at[cells], minlength=columns * size)
            elif exact or kind == "f":
                part = np.bincount(at, weights=cells, minlength=columns * size)
            else:
                part = np.zeros(columns * size, dtype=object)
                np.add.at(part, at, cells.astype(object))
        if exact:
            part = part.astype(np.int64).astype(object)
        sums = sums + part
    # equal count vectors, as every edge's is where all marginals are p,
    # collapse once
    collapse = _collapser(model)
    vectors = list(map(tuple, sums.reshape(columns, size).tolist()))
    collapsed = {counts: collapse(counts) for counts in dict.fromkeys(vectors)}
    return [collapsed[counts] for counts in vectors]


def _collapser(model: DistributionModel):
    """The map from outcome counts per number of coins set to a probability.

    counts[k] counts qualifying outcomes with exactly k coins on; each has
    weight p^k q^(coins-k) / combos, since every uniform combination carries
    the same 1/combos factor.  The weights are formed once, on the first
    collapse that needs them, not once per collapsed list.  A Fraction p
    gives exact Fractions from rational counts at every denominator, and a
    float p gives floats.
    """
    coins = model.coins
    combos = state_space_size(model) >> coins
    exact = isinstance(model.p, Fraction)
    pv, zero = (model.p, Fraction(0)) if exact else (float(model.p), 0.0)
    qv = 1 - pv
    powers = []

    def collapse(counts):
        if not powers:
            powers.extend((pv ** k, qv ** (coins - k)) for k in range(coins + 1))
        total = zero
        for w, (pk, qk) in zip(counts, powers):
            if w:
                total = total + w * pk * qk
        return total / combos

    if not exact:
        return collapse
    # with p = a/b every weight is an integer over b^coins * combos, so
    # rational counts collapse to one Fraction; float counts keep the loop
    a, b = pv.numerator, pv.denominator
    nums = [a ** k * (b - a) ** (coins - k) for k in range(coins + 1)]
    den = b ** coins * combos

    def collapse_exact(counts):
        if all(isinstance(w, (int, Fraction)) for w in counts):
            return Fraction(sum(map(mul, counts, nums)), den)
        return collapse(counts)
    return collapse_exact


def exact_event_probability(model: DistributionModel, predicate: Predicate):
    """P(predicate) by full latent enumeration; exact Fraction for rational p.

    Raises ResourceLimitError when the joint latent space exceeds the
    2^24-outcome budget.
    """
    [probability] = _expectation(
        model, lambda rows: np.asarray(evaluate_rows(predicate, rows), dtype=bool), 1)
    return probability


def exact_edge_marginals(model: DistributionModel) -> list:
    """Per-edge presence probability by full latent enumeration."""
    n = model.n
    u, v = _endpoints(n, np.arange(num_edges(n), dtype=np.int64))
    at, bits = row_bits(zero_rows(0, n), u, v)

    def held(rows):
        # per outcome, whether it holds each edge (u, v): bit v of row u,
        # read from the block's (n W, T) words as (L, T), whose transpose
        # is the tally's column-major (T, L)
        cells = rows.reshape(len(rows), -1).T[at]
        cells &= bits[:, None]
        return (cells != 0).T
    return _expectation(model, held, len(u))


def er_connectivity_probability(n: int, p):
    """P(independent-edge graph on n vertices is connected), by the standard
    recursion on the component containing vertex 1, evaluated bottom up.
    Independent of the latent enumeration; used to cross-check it.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    one = Fraction(1) if isinstance(p, Fraction) else 1.0
    q = one - p
    # connected[j] = P(the graph on j vertices is connected)
    connected = [None, one]
    for size in range(2, n + 1):
        total = one * 0
        for k in range(1, size):
            total += comb(size - 1, k - 1) * connected[k] * q ** (k * (size - k))
        connected.append(one - total)
    # the float sum cancels: at p = 0.0076 it reads -7.8e-15 at n = 13
    if not 0 <= connected[n] <= 1:
        raise ValueError(f"float evaluation at n = {n}, p = {p} gives "
                         f"{connected[n]}, outside [0, 1]; pass p as a Fraction")
    return connected[n]


def exact_binomial_two_sided_tail(N: int, p: float, t: float) -> float:
    """P(|X - Np| >= t) for X ~ Binomial(N, p), by direct stable summation."""
    if N < 1:
        raise ValueError("need N >= 1")
    p = float(p)
    if not 0 <= p <= 1:
        raise ValueError("p outside [0, 1]")
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    if t <= 0:
        return 1.0
    if p == 0.0 or p == 1.0:
        return 0.0    # X is deterministic, deviation 0 < t
    mu = N * p
    lp = math.log(p)
    lq = math.log1p(-p)
    lgn = math.lgamma(N + 1)
    terms = [math.exp(lgn - math.lgamma(k + 1) - math.lgamma(N - k + 1)
                      + k * lp + (N - k) * lq)
             for k in range(N + 1) if abs(k - mu) >= t]
    return min(1.0, math.fsum(terms))


class JumblednessViolation(NamedTuple):
    """A subset pair whose edge-count deviation beats its allowance."""
    a_vertices: tuple[int, ...]
    b_vertices: tuple[int, ...]
    edges: int            # e(A,B), edges inside the intersection twice
    expected: float       # p |A||B|
    deviation: float
    allowance: float
    slack: float          # deviation - allowance, > 0


@lru_cache(maxsize=None)
def _merge_exchange(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Batcher's merge exchange for n keys (Knuth, TAOCP 5.2.2, Algorithm M)
    as passes of disjoint (lower, upper) key index pairs: comparing and
    exchanging every pair of each pass in turn sorts any n keys."""
    passes = []
    t = max(n - 1, 1).bit_length()
    p = 1 << (t - 1)
    while p:
        q, r, d = 1 << (t - 1), 0, p
        while d:
            lower = np.array([i for i in range(n - d) if i & p == r], dtype=np.intp)
            passes.append((lower, lower + d))
            q, r, d = q >> 1, p, q - p
        p >>= 1
    return passes


def exhaustive_jumbledness_check(g: Graph, p, d: int,
                                 C: float = 10.0) -> JumblednessViolation | None:
    """Find the subset pair maximizing |e(A,B) - p|A||B|| - C sqrt(|A||B| n p d1).

    Returns the pair a scan of all 4^n pairs in (A, B) mask order would
    return: the first one maximizing the overshoot, or None when every pair
    is within its allowance.  For a fixed A, e(A,B) sums the weights
    w(x) = |N(x) & A| over x in B, so over |B| = k it runs from the sum of
    the k smallest weights to the sum of the k largest, and the deviation
    is largest at one of those two ends.

    One table holds the slack of every (|B|, |A|, e(A,B)) a pair can have,
    each from the same float expressions as a pair's; inputs that make a
    slack NaN (p < 0 or not finite, C not finite) or an allowance infinite
    give None, as the full scan did.  The masks A are taken
    JUMBLEDNESS_CHUNK at a time: their weights are sorted once by a sorting
    network, and k = 0..n is streamed with running sums of the k smallest
    and the k largest weights, which index the table, keeping each A's
    largest slack.  The first best A's sets B are then scanned the same
    number at a time, their counts formed by subset-sum doubling, so the
    work is O(2^n n log^2 n) and the memory a few arrays of one chunk.
    Feasible up to n = JUMBLEDNESS_MAX_N.
    """
    n = g.n
    if n > JUMBLEDNESS_MAX_N:
        raise ResourceLimitError(
            f"jumbledness scan covers 4^{n} pairs; limit is n <= {JUMBLEDNESS_MAX_N}")
    pf = float(p)
    scale = n * pf * (d + 1)
    # a non-finite p or C, or a negative scale, makes some slack NaN; an
    # allowance that overflows (the largest is at |A||B| = n^2) leaves no
    # slack above 0 or makes one NaN, so no table is formed for these
    if not (math.isfinite(C) and 0 <= scale < math.inf
            and math.isfinite(C * math.sqrt(n * n * scale))):
        return None
    span = n * n + 1            # e(A,B) <= |A||B|
    stride = (n + 1) * span
    sizes = np.arange(n + 1)[:, None, None] * np.arange(n + 1)[:, None]
    # [|B|, |A|, e(A,B)], flat as |B| * stride + |A| * span + e(A,B)
    deviation = np.abs(np.arange(span) - pf * sizes)
    allowance = C * np.sqrt(sizes * scale)
    slack = (deviation - allowance).reshape(n + 1, stride)
    # a float overflow at an absurd p can still make a slack NaN; whether
    # one is does not depend on e(A,B), and every (|B|, |A|) is some pair's
    if np.isnan(slack).any():
        return None
    adj = np.array(g.rows, dtype=np.uint32)
    top, a_mask = 0.0, None
    for start in range(0, 1 << n, JUMBLEDNESS_CHUNK):
        masks = np.arange(start, min(1 << n, start + JUMBLEDNESS_CHUNK), dtype=np.uint32)
        # ranked[j, A - start] = the j-th smallest weight |N(x) & A|
        ranked = np.bitwise_count(adj[:, None] & masks)
        for lower, upper in _merge_exchange(n):
            low, high = ranked[lower], ranked[upper]
            ranked[lower] = np.minimum(low, high)
            ranked[upper] = np.maximum(low, high)
        low = np.bitwise_count(masks).astype(np.intp) * span
        high = low.copy()
        best = slack[0].take(low)
        for k in range(1, n + 1):
            low += ranked[k - 1]
            high += ranked[n - k]
            np.maximum(best, slack[k].take(low), out=best)
            np.maximum(best, slack[k].take(high), out=best)
        i = int(np.argmax(best))
        if best[i] > top:
            top, a_mask = best[i], start + i
    if a_mask is None:
        return None
    # the first B whose slack is top (the set of the k smallest or largest
    # weights has it, and no B more), JUMBLEDNESS_CHUNK sets at a time: the
    # low bits' table index by doubling, plus each chunk's high bits' part
    weight = np.bitwise_count(adj & np.uint32(a_mask)).astype(np.intp)
    bits = min(n, JUMBLEDNESS_CHUNK.bit_length() - 1)
    at = np.zeros(1, dtype=np.intp)
    for x in range(bits):
        at = np.concatenate([at, at + weight[x]])
    at += np.bitwise_count(np.arange(1 << bits)).astype(np.intp) * stride
    at += a_mask.bit_count() * span
    flat = slack.reshape(-1)
    for start in range(0, 1 << n, 1 << bits):
        above = [x for x in range(bits, n) if (start >> x) & 1]
        row = flat.take(at + (len(above) * stride + int(weight[above].sum())))
        i = int(np.argmax(row))
        if row[i] == top:
            break
    b_mask = start + i
    a = tuple(v for v in range(n) if (a_mask >> v) & 1)
    b = tuple(v for v in range(n) if (b_mask >> v) & 1)
    edges = int(weight[list(b)].sum())
    return JumblednessViolation(a, b, edges, pf * (len(a) * len(b)),
                                float(deviation[len(b), len(a), edges]),
                                float(allowance[len(b), len(a), 0]), float(top))


class MeanVarianceReport(NamedTuple):
    """Empirical moments of a graph statistic against exact enumerated values.

    exact_* are None when the latent space exceeds the enumeration budget.
    Flags compare at 4 standard errors; the variance standard error uses
    the normal-theory approximation s^2 sqrt(2/(T-1)), which is rough but
    only steers a 4-sigma screen.
    """
    statistic: str
    trials: int
    seed: int
    empirical_mean: float
    empirical_variance: float
    mean_se: float
    variance_se: float
    exact_mean: object | None
    exact_variance: object | None
    mean_flag: bool
    variance_flag: bool


# the largest |x| whose square int64 holds
_SQUARE_MAX = math.isqrt((1 << 63) - 1)


def _exact(value):
    """An integral statistic value as a Python int, so its sums are exact."""
    return int(value) if float(value).is_integer() else value


def mean_variance_check(model: DistributionModel, statistic: Predicate,
                        trials: int, seed: int) -> MeanVarianceReport:
    """Compare sampled moments of a statistic with exact enumerated moments.

    The trials are drawn in turn from one generator and evaluated by the
    Monte Carlo runner the harness uses (distributions._trial_values), so
    the sampled moments do not depend on the span count."""
    if trials < 2:
        raise ValueError("need trials >= 2 for a sample variance")
    values = _trial_values(model, rngmod.generator(seed), trials, statistic)
    emp_mean = float(values.mean())
    emp_var = float(values.var(ddof=1))
    mean_se = math.sqrt(emp_var / trials)
    var_se = emp_var * math.sqrt(2.0 / (trials - 1))

    def moments(rows):
        x = evaluate_rows(statistic, rows)
        if not isinstance(x, np.ndarray):
            x = np.array([_exact(v) for v in x], dtype=object)
        elif x.dtype.kind in "iu" and x.size and max(-int(x.min()), int(x.max())) > _SQUARE_MAX:
            x = x.astype(object)    # Python ints square without wrapping
        return np.stack([x, x * x], axis=1)

    exact_mean = exact_var = None
    mean_flag = var_flag = False
    try:
        exact_mean, second = _expectation(model, moments, 2)
    except ResourceLimitError:
        pass
    else:
        exact_var = second - exact_mean * exact_mean
        mean_flag = abs(emp_mean - float(exact_mean)) > 4.0 * mean_se
        var_flag = abs(emp_var - float(exact_var)) > 4.0 * var_se

    return MeanVarianceReport(
        statistic=statistic.name, trials=trials, seed=seed,
        empirical_mean=emp_mean, empirical_variance=emp_var,
        mean_se=mean_se, variance_se=var_se,
        exact_mean=exact_mean, exact_variance=exact_var,
        mean_flag=mean_flag, variance_flag=var_flag)
