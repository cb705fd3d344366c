"""Named graph events and statistics shared by the oracle and the harness.

Keeping these in one place guarantees that the exact enumeration and the
Monte Carlo estimate of the "same" event really evaluate the same
indicator function.  Events and statistics are one type, a named
functional (`Predicate`, also bound as `Statistic`).  A functional may
also carry `batch`, the same function over a block of graphs given as
(T, n, W) row words in the layout of `graphs.zero_rows` (see the kernels
in `graphs`).  The oracle's enumeration and the harness's trials both
reach a functional as such blocks at every n; they use its kernel when it
has one, and `fn` on each graph's Graph otherwise (`evaluate_rows`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import graphs
from .graphs import Graph, SubgraphPattern, named_pattern

# the largest clique pattern given a batch kernel; its cost grows as n^(k-2)
BATCH_CLIQUE_MAX = 4


@dataclass(frozen=True)
class Predicate:
    """A named graph functional: a boolean event or a numeric statistic."""
    name: str
    fn: Callable[[Graph], object] = field(compare=False)
    batch: Callable[[np.ndarray], np.ndarray] | None = field(default=None, compare=False)

    def __call__(self, g: Graph):
        return self.fn(g)


# a statistic is the same functional with numeric values
Statistic = Predicate


def evaluate_rows(functional: Callable[[Graph], object], rows: np.ndarray):
    """functional on each graph of a block of rows (graphs.zero_rows): its
    batch kernel when it has one, else the functional on each graph's
    Graph."""
    batch = getattr(functional, "batch", None)
    if batch is not None:
        return batch(rows)
    return [functional(g) for g in graphs.row_graphs(rows)]


def _complement(batch):
    """The batch kernel of the negated event, or None without a kernel."""
    return None if batch is None else lambda rows: ~batch(rows)


def always_true() -> Predicate:
    return Predicate("true", lambda g: True, lambda rows: np.ones(len(rows), dtype=bool))


def connected() -> Predicate:
    return Predicate("connected", graphs.is_connected, graphs.batch_connected)


def not_connected() -> Predicate:
    return Predicate("not-connected", lambda g: not graphs.is_connected(g),
                     _complement(graphs.batch_connected))


def has_isolated_vertex() -> Predicate:
    return Predicate("isolated-vertex", lambda g: any(r == 0 for r in g.rows),
                     lambda rows: graphs.batch_isolated(rows).any(axis=1))


def _contains_kernel(pattern: SubgraphPattern):
    """A batch kernel for containing the pattern, or None: cliques of 2 to
    BATCH_CLIQUE_MAX vertices (the edge is k2) have one."""
    h = pattern.graph
    if 2 <= h.n <= BATCH_CLIQUE_MAX and h == Graph.complete(h.n):
        return lambda rows: graphs.batch_has_clique(rows, h.n)
    return None


def contains_pattern(pattern: SubgraphPattern) -> Predicate:
    label = pattern.name or f"custom-{pattern.vertex_count}v{pattern.edge_count}e"
    return Predicate(f"contains:{label}",
                     lambda g: graphs.contains_subgraph(g, pattern),
                     _contains_kernel(pattern))


def lacks_pattern(pattern: SubgraphPattern) -> Predicate:
    label = pattern.name or f"custom-{pattern.vertex_count}v{pattern.edge_count}e"
    return Predicate(f"lacks:{label}",
                     lambda g: not graphs.contains_subgraph(g, pattern),
                     _complement(_contains_kernel(pattern)))


def edge_count_equals(k: int) -> Predicate:
    return Predicate(f"edge-count:{k}", lambda g: g.edge_count() == k,
                     lambda rows: graphs.batch_edge_counts(rows) == k)


def degree_in_range(low: float, high: float) -> Predicate:
    """Every vertex degree inside [low, high], endpoints included."""
    def fn(g: Graph) -> bool:
        return all(low <= r.bit_count() <= high for r in g.rows)

    def batch(rows: np.ndarray) -> np.ndarray:
        degrees = graphs.batch_degrees(rows)
        return ((low <= degrees) & (degrees <= high)).all(axis=1)
    return Predicate(f"degree-in:{low}:{high}", fn, batch)


def edge_deviation_exceeds(a: tuple[int, ...], b: tuple[int, ...], p,
                           t: float) -> Predicate:
    """|e(A,B) - p|A||B|| > t for one fixed pair of vertex sets."""
    a = tuple(a)
    b = tuple(b)
    expected = float(p) * len(a) * len(b)

    def fn(g: Graph) -> bool:
        return abs(graphs.count_edges_between(g, a, b) - expected) > t

    def batch(rows: np.ndarray) -> np.ndarray:
        return np.abs(graphs.batch_edges_between(rows, a, b) - expected) > t
    return Predicate(f"deviation:{t}", fn, batch)


def negate(pred: Predicate) -> Predicate:
    return Predicate(f"not({pred.name})", lambda g: not pred.fn(g),
                     _complement(pred.batch))


def resolve_pattern(spec: str) -> SubgraphPattern:
    """A library name (k3, c5, path2, ...) or a path to an edge-list file."""
    try:
        return named_pattern(spec)
    except ValueError:
        if os.path.exists(spec):
            with open(spec, encoding="utf-8") as fh:
                g = graphs.from_edge_list(fh.read())
            return SubgraphPattern(g, name=os.path.basename(spec))
        raise


def _ints(parts: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in parts.split(",") if tok.strip() != "")


def parse_predicate(text: str, p=None) -> Predicate:
    """Parse the command-line predicate syntax.

    Forms: true, connected, not-connected, isolated-vertex,
    contains:<pattern>, lacks:<pattern>, edge-count:<k>,
    degree-in:<low>:<high>, deviation:<t>:<A-list>:<B-list> (comma-separated
    vertex lists; needs the model's p, supplied by the caller).
    """
    text = text.strip()
    plain = {
        "true": always_true,
        "connected": connected,
        "not-connected": not_connected,
        "isolated-vertex": has_isolated_vertex,
    }
    if text in plain:
        return plain[text]()
    head, _, rest = text.partition(":")
    if head == "contains" and rest:
        return contains_pattern(resolve_pattern(rest))
    if head == "lacks" and rest:
        return lacks_pattern(resolve_pattern(rest))
    if head == "edge-count" and rest:
        return edge_count_equals(int(rest))
    if head == "degree-in" and rest:
        lo, _, hi = rest.partition(":")
        return degree_in_range(float(lo), float(hi))
    if head == "deviation" and rest:
        try:
            t_part, a_part, b_part = rest.split(":")
        except ValueError:
            raise ValueError(
                "deviation predicate form is deviation:<t>:<A-list>:<B-list>") from None
        if p is None:
            raise ValueError("deviation predicate needs the model's edge probability")
        return edge_deviation_exceeds(_ints(a_part), _ints(b_part), p, float(t_part))
    raise ValueError(f"unknown predicate {text!r}")


def edge_count_statistic() -> Statistic:
    return Statistic("edge-count", lambda g: g.edge_count(), graphs.batch_edge_counts)


def edges_between_statistic(a: tuple[int, ...], b: tuple[int, ...]) -> Statistic:
    a = tuple(a)
    b = tuple(b)
    return Statistic("edges-between",
                     lambda g: graphs.count_edges_between(g, a, b),
                     lambda rows: graphs.batch_edges_between(rows, a, b))


def isolated_count_statistic() -> Statistic:
    return Statistic("isolated-count",
                     lambda g: sum(1 for r in g.rows if r == 0),
                     lambda rows: np.count_nonzero(graphs.batch_isolated(rows),
                                                   axis=1).astype(np.int64))
