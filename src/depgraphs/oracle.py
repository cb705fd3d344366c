"""Exact backends that validate the stochastic components.

Every exact query is the expectation of a per-outcome vector over one
enumeration of the joint latent space (`_expectation`): an event's
indicator, the edges' presence bits, a statistic's value and its square.
The enumeration reads the latents from the model's LatentLayout and gives
each latent value a table of the adjacency-row bits its edges set, sharing
only the layout with the sampler, none of its presence code, so an exact
value and a Monte Carlo estimate of it are computed independently.

One block source (`_blocks`) yields the outcomes as (T, n) rows, one bitset
row per vertex, in blocks sized by one byte budget (graphs.BATCH_BYTES).
For n <= 64 the rows are unsigned words from `_walk_batches`: a low table
holds every joint value of the first latents, built by doubling; the next
latent's values (a uniform block's subsets unranked in colex order) are
read in slices that fill a block with it, and each block is XORed with
every joint value of the latents above.  Beyond 64 vertices the scalar
walk (`_walk`) gives the outcomes one at a time in Gray order, each step
toggling one latent's edges in Python-int rows: coins in reflected binary
Gray order with a running count of coins set, uniform subsets in reflected
mixed-radix Gray order over each block's choices.  They are gathered into
object rows, which reach `fn` on each outcome's Graph, never a batch
kernel.  The scalar walk is also the tests' reference for the batched one.

One tally sums the values per number of coins set, and each sum collapses
to a probability or moment at the end, from Python ints where the values
are integral, so the result does not depend on the order of the walk.
Binomial tails come by direct summation.  The jumbledness check finds the
pair a scan of all 4^n subset pairs would, from sorted prefix sums of each
set's neighbour weights (O(2^n n log n)).  Budgets are enforced, never
silently degraded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import comb, lgamma, log
from operator import mul

import numpy as np

from . import rng as rngmod
from .distributions import DistributionModel, _draw_latents, _edges, _graph_from_edges
from .errors import ResourceLimitError
from .graphs import (BATCH_MAX_N, Graph, _endpoints, batch_dtype, batch_size,
                     num_edges)
from .predicates import Predicate, evaluate_rows

ENUMERATION_BUDGET = 1 << 24

JUMBLEDNESS_MAX_N = 12

# rational arithmetic is used up to this denominator, floats beyond
RATIONAL_DENOMINATOR_LIMIT = 1 << 16


def state_space_size(model: DistributionModel) -> int:
    """Number of joint latent assignments the enumeration must visit."""
    layout = model.layout
    size = 1 << layout.coins
    if layout.uniform:
        size *= comb(layout.m, layout.a) ** layout.block_count
    return size


def _check_budget(model: DistributionModel) -> None:
    layout = model.layout
    if layout.uniform:
        m, a, b = layout.m, layout.a, layout.block_count
        log2_size = b * (lgamma(m + 1) - lgamma(a + 1) - lgamma(m - a + 1)) / log(2)
        text = f"comb({m},{a})^{b}"
    else:
        log2_size = layout.coins
        text = f"2^{layout.coins}"
    # log2_size is off by far less than a bit, so a size a bit past the
    # budget is rejected without forming it: it can run to millions of digits
    if (log2_size > ENUMERATION_BUDGET.bit_length()
            or state_space_size(model) > ENUMERATION_BUDGET):
        raise ResourceLimitError(
            f"latent space has {text} outcomes, budget is {ENUMERATION_BUDGET}")


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
    layout = model.layout
    n = model.n
    rows = [0] * n
    u, v = _endpoints(n, np.concatenate([layout.flat, layout.singles]))
    pairs = list(zip(u.tolist(), v.tolist()))
    if layout.uniform:
        yield from _walk_subsets(layout, rows, pairs)
        return
    # per latent, the XOR toggle of its edges: (vertex, row mask) pairs
    owner = layout.bid.tolist() + list(range(layout.block_count, layout.latents))
    masks = [{} for _ in range(layout.latents)]
    for j, (u, v) in zip(owner, pairs):
        masks[j][u] = masks[j].get(u, 0) | (1 << v)
        masks[j][v] = masks[j].get(v, 0) | (1 << u)
    toggles = [tuple(t.items()) for t in masks]
    # reflected binary Gray order: step i flips latent ctz(i)
    on = 0
    k = 0
    yield k, rows
    for i in range(1, 1 << layout.latents):
        j = (i & -i).bit_length() - 1
        for v, mask in toggles[j]:
            rows[v] ^= mask
        on ^= 1 << j
        k += 1 if (on >> j) & 1 else -1
        yield k, rows


def _walk_subsets(layout, rows: list[int], pairs: list[tuple[int, int]]):
    """_walk for uniform-subset models: every block keeps a of its m slots.

    A block's choice is an m-bit mask with a bits set, and its choices run
    in increasing order of that mask.  The blocks move in reflected
    mixed-radix Gray order (TAOCP 7.2.1.1, Algorithm H), so each step
    moves one block to its next or previous choice.
    """
    a, m, blocks = layout.a, layout.m, layout.block_count
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


def _slot_rows(model: DistributionModel, dtype: np.dtype) -> np.ndarray:
    """Per latent edge slot (the layout's flat edges, then its singles), the
    adjacency-row bits of its edge: one (n,) row of the given dtype each."""
    layout = model.layout
    n = model.n
    edges = np.concatenate([layout.flat, layout.singles])
    u, v = _endpoints(n, edges)
    at = np.arange(edges.size)
    one = dtype.type(1)
    slots = np.zeros((edges.size, n), dtype=dtype)
    slots[at, u] = one << v.astype(dtype)
    slots[at, v] = one << u.astype(dtype)
    return slots


def _subset_rows(slots: np.ndarray, ladders: list[np.ndarray], start: int,
                 stop: int) -> np.ndarray:
    """The XOR of the slot rows of each a-subset of the m slots, for the
    subsets of colex rank start .. stop - 1 (increasing bitmask order).

    A subset c_1 < ... < c_a has rank sum comb(c_i, i), so its i-th slot is
    the largest x with comb(x, i) <= what is left of the rank; ladders[i-1]
    holds comb(x, i) for x < m.
    """
    rank = np.arange(start, stop, dtype=np.int64)
    rows = np.zeros((stop - start, slots.shape[1]), dtype=slots.dtype)
    for ladder in reversed(ladders):
        top = np.searchsorted(ladder, rank, side="right") - 1
        rank -= ladder[top]
        rows ^= slots[top]
    return rows


def _joint_values(values, radix: int, step: int, latents: range, k: int,
                  row: np.ndarray):
    """Yield (k + c, row ^ r) for each joint value of the latents, where c
    counts the coins it sets and r is the XOR of its rows; each latent's
    values are read step at a time."""
    if not latents:
        yield k, row
        return
    for start in range(0, radix, step):
        ks, rows = values(latents[0], start, min(radix, start + step))
        for vk, vrow in zip(ks.tolist(), rows):
            yield from _joint_values(values, radix, step, latents[1:], k + vk, row ^ vrow)


def _walk_batches(model: DistributionModel, cap: int):
    """Yield (k, rows) for blocks of at most cap joint latent outcomes, each
    outcome once.

    rows is a (T, n) unsigned array, one bitset row per vertex (n <= 64),
    and k the int64 number of coins set in each outcome.  A latent's value
    sets the rows of the edges it turns on and some number of coins: a coin
    is off or on, a uniform block keeps one of its a-subsets.  The first
    latents, as many as fit a block, form a low table of all their joint
    values by doubling.  The next latent's values are read in slices that
    fit a block with the low table, and each such block is XORed with every
    joint value of the latents above.  No table holds more than cap values,
    and only the latent layout is shared with the sampler.
    """
    layout = model.layout
    n = model.n
    slots = _slot_rows(model, batch_dtype(n))
    if layout.uniform:
        m, a = layout.m, layout.a
        radix = comb(m, a)
        blocks = slots.reshape(layout.block_count, m, n)
        ladders = [np.array([comb(x, i) for x in range(m)], dtype=np.int64)
                   for i in range(1, a + 1)]

        def values(j, start, stop):
            return (np.zeros(stop - start, dtype=np.int64),
                    _subset_rows(blocks[j], ladders, start, stop))
    else:
        radix = 2
        owner = np.concatenate([layout.bid, np.arange(layout.block_count, layout.latents)])
        toggles = np.zeros((layout.latents, n), dtype=slots.dtype)
        np.bitwise_xor.at(toggles, owner, slots)
        table = np.stack([np.zeros_like(toggles), toggles], axis=1)

        def values(j, start, stop):
            return np.arange(start, stop, dtype=np.int64), table[j, start:stop]

    def spread(k, rows, low_k, low):
        # every value times every low entry, the low entry varying fastest
        return ((k[:, None] + low_k[None, :]).reshape(-1),
                (rows[:, None, :] ^ low[None, :, :]).reshape(-1, n))

    low_k = np.zeros(1, dtype=np.int64)
    low = np.zeros((1, n), dtype=slots.dtype)
    split = 0
    while split < layout.latents and len(low) * radix <= cap:
        low_k, low = spread(*values(split, 0, radix), low_k, low)
        split += 1
    if split == layout.latents:
        yield low_k, low
        return
    step = cap // len(low)
    high = range(split + 1, layout.latents)
    for start in range(0, radix, step):
        mid_k, mid = spread(*values(split, start, min(radix, start + step)), low_k, low)
        for k, row in _joint_values(values, radix, cap, high, 0, np.zeros(n, low.dtype)):
            yield mid_k + k, mid ^ row


def _batch_cap(n: int, columns: int) -> int:
    """Outcomes per block of _walk_batches: as many as keep an array of
    `columns` row-sized cells per outcome, the widest a consumer forms,
    within graphs.BATCH_BYTES."""
    return batch_size(columns * batch_dtype(n).itemsize)


def _blocks(model: DistributionModel, columns: int):
    """Yield (k, rows) blocks of every joint latent outcome, once each, as
    many per block as keep `columns` row-sized cells per outcome within
    graphs.BATCH_BYTES.  rows is (T, n): _walk_batches' unsigned words up to
    BATCH_MAX_N vertices, else the scalar walk's outcomes as object rows."""
    n = model.n
    if n <= BATCH_MAX_N:
        yield from _walk_batches(model, _batch_cap(n, columns))
        return
    cap = batch_size(columns * np.dtype(object).itemsize)
    outcomes = ((k, tuple(rows)) for k, rows in _walk(model))
    while block := list(islice(outcomes, cap)):
        ks, rows = zip(*block)
        yield np.array(ks, dtype=np.int64), np.array(rows, dtype=object)


def _expectation(model: DistributionModel, values_of, columns: int) -> list:
    """Per column, the expectation of values_of(rows), a block's (T, columns)
    values, over every joint latent outcome; raises ResourceLimitError past
    the 2^24-outcome budget.

    Each block's values are summed per column and number of coins set k,
    object values as Python objects.  A coinless model has one k, so its
    integral values sum by one integer sum per column.  Others sum by one
    float64 bincount that adds each cell in outcome order.  Integral values
    come back as ints: each float sum is exact below 2^53, as it takes at
    most 2^24 outcomes, and no kernel here gives more than 2016^2 (edges at
    64 vertices, squared).
    """
    _check_budget(model)
    size = model.layout.coins + 1
    sums = 0
    for k, rows in _blocks(model, max(model.n, columns)):
        values = values_of(rows)
        if size == 1 and values.dtype.kind in "biu":
            sums = sums + values.reshape(len(values), -1).sum(axis=0, dtype=np.int64)
            continue
        at = k if columns == 1 else (np.arange(columns)[:, None] * size + k).ravel()
        if values.dtype == object:
            part = np.zeros(columns * size, dtype=object)
            np.add.at(part, at, values.ravel(order="F"))
        else:
            part = np.bincount(at, weights=values.ravel(order="F"), minlength=columns * size)
        sums = sums + part
    if values.dtype.kind in "biu":
        sums = sums.astype(np.int64)
    collapse = _collapser(model)
    return [collapse(c) for c in sums.reshape(columns, size).tolist()]


def _exact_p_arithmetic(p):
    if isinstance(p, Fraction) and p.denominator <= RATIONAL_DENOMINATOR_LIMIT:
        return p, Fraction(1) - p, Fraction(0)
    pf = float(p)
    return pf, 1.0 - pf, 0.0


def _collapser(model: DistributionModel):
    """The map from outcome counts per number of coins set to a probability.

    counts[k] counts qualifying outcomes with exactly k coins on; each has
    weight p^k q^(coins-k) / combos, since every uniform combination carries
    the same 1/combos factor.  The weights are formed once here, not once
    per collapsed list.
    """
    coins = model.layout.coins
    combos = state_space_size(model) >> coins
    pv, qv, zero = _exact_p_arithmetic(model.p)
    powers = [(pv ** k, qv ** (coins - k)) for k in range(coins + 1)]

    def collapse(counts):
        total = zero
        for w, (pk, qk) in zip(counts, powers):
            if w:
                total = total + w * pk * qk
        return total / combos

    if not isinstance(pv, Fraction):
        return collapse
    # with p = a/b every weight is an integer over b^coins * combos, so
    # rational counts collapse to one Fraction; float counts keep the loop
    a, b = pv.numerator, pv.denominator
    nums = [a ** k * (b - a) ** (coins - k) for k in range(coins + 1)]
    den = b ** coins * combos

    def collapse_exact(counts):
        total = sum(map(mul, counts, nums))
        return collapse(counts) if isinstance(total, float) else Fraction(total, den)
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
    u, v = _endpoints(model.n, np.arange(num_edges(model.n), dtype=np.int64))
    # per outcome, 1 for each edge (u, v) it holds
    return _expectation(model, lambda rows: (rows[:, u] >> v.astype(rows.dtype)) & 1,
                        len(u))


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
    return connected[n]


def exact_binomial_two_sided_tail(N: int, p: float, t: float) -> float:
    """P(|X - Np| >= t) for X ~ Binomial(N, p), by direct stable summation."""
    if N < 1:
        raise ValueError("need N >= 1")
    p = float(p)
    if not 0 <= p <= 1:
        raise ValueError("p outside [0, 1]")
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


@dataclass(frozen=True)
class JumblednessViolation:
    """A subset pair whose edge-count deviation beats its allowance."""
    a_vertices: tuple[int, ...]
    b_vertices: tuple[int, ...]
    edges: int            # e(A,B), edges inside the intersection twice
    expected: float       # p |A||B|
    deviation: float
    allowance: float
    slack: float          # deviation - allowance, > 0


def exhaustive_jumbledness_check(g: Graph, p, d: int,
                                 C: float = 10.0) -> JumblednessViolation | None:
    """Find the subset pair maximizing |e(A,B) - p|A||B|| - C sqrt(|A||B| n p d1).

    Returns the pair a scan of all 4^n pairs in (A, B) mask order would
    return: the first one maximizing the overshoot, or None when every pair
    is within its allowance.  For a fixed A, e(A,B) sums the weights
    w(x) = |N(x) & A| over x in B, so over |B| = k it runs from the sum of
    the k smallest weights to the sum of the k largest, and the deviation
    is largest at one of those two ends.  Sorted prefix sums of the weights
    give every (A, k)'s largest slack from the same float expressions as a
    pair's, and only the first best A's 2^n sets B are scanned, so the work
    is O(2^n n log n).  Feasible up to n = 12.
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
    return JumblednessViolation(a, b, int(counts[b_mask]), pf * len(a) * len(b),
                                float(deviation[b_mask]), float(allowance[b_mask]),
                                float(row[b_mask]))


@dataclass(frozen=True)
class MeanVarianceReport:
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


def _exact(value):
    """An integral statistic value as a Python int, so its sums are exact."""
    return int(value) if float(value).is_integer() else value


def mean_variance_check(model: DistributionModel, statistic: Predicate,
                        trials: int, seed: int) -> MeanVarianceReport:
    """Compare sampled moments of a statistic with exact enumerated moments."""
    if trials < 2:
        raise ValueError("need trials >= 2 for a sample variance")
    gen = rngmod.generator(seed)
    n = model.n
    values = np.empty(trials, dtype=np.float64)
    for i in range(trials):
        g = _graph_from_edges(n, _edges(model, _draw_latents(model, gen)))
        values[i] = statistic(g)
    emp_mean = float(values.mean())
    emp_var = float(values.var(ddof=1))
    mean_se = math.sqrt(emp_var / trials)
    var_se = emp_var * math.sqrt(2.0 / (trials - 1))

    def moments(rows):
        x = evaluate_rows(statistic, rows)
        if not isinstance(x, np.ndarray):
            x = np.array([_exact(v) for v in x], dtype=object)
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
