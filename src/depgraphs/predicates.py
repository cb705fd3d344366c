"""Named graph events and statistics shared by the oracle and the harness.

Keeping these in one place guarantees that the exact enumeration and the
Monte Carlo estimate of the "same" event really evaluate the same
indicator function.  Events and statistics are one type, a named
functional (`Predicate`).  A functional may also carry `batch`, the same
function over a block of graphs given as (T, n, W) row words in the layout
of `graphs.zero_rows` (see the kernels in `graphs`).  The oracle's
enumeration and the harness's trials both reach a functional as such
blocks at every n; they use its kernel when it has one, and `fn` on each
graph's Graph otherwise (`evaluate_rows`).

The command line names an event by a row of FORMS: the form's name, then
its constructor's parameters but p in signature order, each after a colon
(`form_syntax`) and read from its text by the READERS entry of its name.
"""

from __future__ import annotations

import inspect
import math
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


def evaluate_rows(functional: Callable[[Graph], object], rows: np.ndarray):
    """functional on each graph of a block of rows (graphs.zero_rows): its
    batch kernel when it has one, else the functional on each graph's
    Graph."""
    batch = getattr(functional, "batch", None)
    if batch is not None:
        return batch(rows)
    return [functional(g) for g in graphs.row_graphs(rows)]


def always_true() -> Predicate:
    return Predicate("true", lambda g: True, lambda rows: np.ones(len(rows), dtype=bool))


def connected() -> Predicate:
    return Predicate("connected", graphs.is_connected, graphs.batch_connected)


def not_connected() -> Predicate:
    return negate(connected(), "not-connected")


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
    contains = contains_pattern(pattern)
    return negate(contains, contains.name.replace("contains:", "lacks:", 1))


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


def edge_deviation_exceeds(t: float, a: tuple[int, ...], b: tuple[int, ...],
                           p) -> Predicate:
    """|e(A,B) - p|A||B|| > t for one fixed pair of vertex sets, named
    deviation:<t>:<A>:<B> with comma-separated vertex lists."""
    a, b = tuple(a), tuple(b)
    if len(set(a)) < len(a) or len(set(b)) < len(b):
        raise ValueError(f"deviation sets repeat a vertex: A = {a}, B = {b}")
    expected = float(p) * len(a) * len(b)

    def fn(g: Graph) -> bool:
        return abs(graphs.count_edges_between(g, a, b) - expected) > t

    def batch(rows: np.ndarray) -> np.ndarray:
        return np.abs(graphs.batch_edges_between(rows, a, b) - expected) > t
    sets = ":".join(",".join(map(str, vertices)) for vertices in (a, b))
    return Predicate(f"deviation:{t}:{sets}", fn, batch)


def negate(pred: Predicate, name: str | None = None) -> Predicate:
    """The complement event, with the complement of pred's kernel if it has
    one; named name, or not(<pred's name>) by default."""
    batch = pred.batch
    return Predicate(name or f"not({pred.name})", lambda g: not pred.fn(g),
                     None if batch is None else lambda rows: ~batch(rows))


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


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


FORMS = {"true": always_true, "connected": connected,
         "not-connected": not_connected, "isolated-vertex": has_isolated_vertex,
         "contains": contains_pattern, "lacks": lacks_pattern,
         "edge-count": edge_count_equals, "degree-in": degree_in_range,
         "deviation": edge_deviation_exceeds}

READERS = {"pattern": resolve_pattern, "k": int, "low": _finite, "high": _finite,
           "t": _finite, "a": _ints, "b": _ints}

# each form's constructor parameters, read from its signature once
PARAMETERS = {form: tuple(inspect.signature(construct).parameters)
              for form, construct in FORMS.items()}


def form_syntax(form: str) -> str:
    """A form's command-line syntax, such as degree-in:<low>:<high>."""
    return "".join((form, *(f":<{key}>" for key in PARAMETERS[form] if key != "p")))


def parse_predicate(text: str, p=None) -> Predicate:
    """The functional a command-line text names: a FORMS row, given its
    parameters as form_syntax shows them; p is the model's edge
    probability, which the caller supplies."""
    text = text.strip()
    form, colon, rest = text.partition(":")
    if form not in FORMS:
        raise ValueError(f"unknown predicate {text!r}")
    keys = [key for key in PARAMETERS[form] if key != "p"]
    parts = rest.split(":", len(keys) - 1) if colon else []
    if len(parts) != len(keys):
        raise ValueError(f"predicate form is {form_syntax(form)}")
    values = {"p": p} if "p" in PARAMETERS[form] else {}
    if None in values.values():
        raise ValueError(f"{form} predicate needs the model's edge probability")
    try:
        values.update((key, READERS[key](part)) for key, part in zip(keys, parts))
    except ValueError as exc:
        raise ValueError(f"predicate form is {form_syntax(form)}; {exc}") from None
    return FORMS[form](**values)


def edge_count_statistic() -> Predicate:
    return Predicate("edge-count", lambda g: g.edge_count(), graphs.batch_edge_counts)


def edges_between_statistic(a: tuple[int, ...], b: tuple[int, ...]) -> Predicate:
    a = tuple(a)
    b = tuple(b)
    return Predicate("edges-between",
                     lambda g: graphs.count_edges_between(g, a, b),
                     lambda rows: graphs.batch_edges_between(rows, a, b))


def isolated_count_statistic() -> Predicate:
    return Predicate("isolated-count",
                     lambda g: sum(1 for r in g.rows if r == 0),
                     lambda rows: np.count_nonzero(graphs.batch_isolated(rows),
                                                   axis=1).astype(np.int64))
