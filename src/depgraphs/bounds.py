"""Closed-form tail bounds, thresholds, and the containment functional.

Everything here is a pure function evaluated in double precision.
Probability-type bounds are returned verbatim even when they exceed 1;
callers that care get the vacuity flag through evaluate()/BoundReport
rather than a silently clamped number.

Throughout, d is the dependence bound of the distribution (each edge
independent of all but at most d others) and d1 = d + 1.

Each named bound is one row of BOUNDS; its functions' signatures give its
parameters, their defaults and their echo order, from which evaluate and
the command line's flags read every bound alike.
"""

from __future__ import annotations

import inspect
import math
import warnings
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import ResourceLimitError
from .graphs import Graph, SubgraphPattern

# the subset sum has one term per edge subset; 2^21 terms, a k7, is the cutoff
PHI_MAX_EDGES = 21


def phi(x: float) -> float:
    """phi(x) = (1+x)ln(1+x) - x, the rate function in the second tail bound."""
    if x < 0:
        raise ValueError("phi is used on nonnegative arguments only")
    return (1.0 + x) * math.log1p(x) - x


def janson_bernstein(mu: float, t: float, d: int) -> float:
    """Bernstein-style tail bound 2 exp(-8 t^2 / (50 d1 (mu + t/3))).

    Bounds P(|e(A,B) - mu| >= t) for d-dependent edge sets; with d = 0 it
    weakens the classical Bernstein inequality by a constant, so it always
    dominates the exact binomial tail.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    if d < 0:
        raise ValueError("d must be nonnegative")
    d1 = d + 1
    return 2.0 * math.exp(-8.0 * t * t / (50.0 * d1 * (mu + t / 3.0)))


def janson_phi(mu: float, t: float, d: int) -> float:
    """Tail bound 2 exp(-(mu / 2 d1) phi(4t / 5 mu)); sharper for large t."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    if t <= 0:
        raise ValueError("t must be positive")
    if d < 0:
        raise ValueError("d must be nonnegative")
    d1 = d + 1
    return 2.0 * math.exp(-(mu / (2.0 * d1)) * phi(4.0 * t / (5.0 * mu)))


def degree_interval(n: int, p: float, d: int) -> tuple[float, float]:
    """Interval np +- 4 sqrt(np d1 ln n) that a.s. contains every degree."""
    if n < 2:
        raise ValueError("need n >= 2")
    p = float(p)
    half = 4.0 * math.sqrt(n * p * (d + 1) * math.log(n))
    return n * p - half, n * p + half


def degree_hypothesis(n: int, p: float, d: int) -> bool:
    """Whether p >= (d+1) ln(n) / n, the degree-concentration hypothesis."""
    return float(p) >= (d + 1) * math.log(n) / n


def jumbledness_deviation(a: int, b: int, n: int, p: float, d: int,
                          C: float = 10.0) -> float:
    """Uniform deviation allowance C sqrt(|A||B| n p d1) for all pairs (A,B).

    The theorem needs C >= 10; smaller C is accepted with a warning since
    the matching lower-bound construction shows some C >= 1 is necessary.
    """
    if not (1 <= a <= n and 1 <= b <= n):
        raise ValueError("need 1 <= |A|, |B| <= n")
    if C < 10.0:
        warnings.warn(f"jumbledness constant C={C} below the proved threshold 10",
                      stacklevel=2)
    return C * math.sqrt(a * b * n * float(p) * (d + 1))


def jumbledness_hypothesis(n: int, p: float, d: int, max_degree: int,
                           C: float = 10.0) -> bool:
    """Max-degree hypothesis Delta <= (C^2/14) np of the jumbledness theorem."""
    return max_degree <= (C * C / 14.0) * n * float(p)


def jumbledness_witness_floor(s: int, b: int, n: int, p: float, d: int) -> float:
    """Deviation (1-p) sqrt(1-d/n) sqrt(|S||B| n p d1) that a witness pair beats.

    This is the o(1)-free core of the lower-bound construction; experiments
    compare against a slack multiple of it.
    """
    if d >= 0.99 * n:
        raise ValueError("witness construction requires d < 0.99 n")
    if s < 0 or b < 0:
        raise ValueError("set sizes must be nonnegative")
    p = float(p)
    return (1.0 - p) * math.sqrt(1.0 - d / n) * math.sqrt(s * b * n * p * (d + 1))


def connectivity_upper_threshold(n: int, d: int, fval: float = 0.0) -> float:
    """(d+1)(ln n + fval)/n; above this edge probability G is a.s. connected."""
    if n < 2:
        raise ValueError("need n >= 2")
    return (d + 1) * (math.log(n) + fval) / n


def connectivity_example_threshold(n: int, d: int, eps: float = 0.1) -> float:
    """(1-eps)(d+1) ln(n/sqrt(d+1))/n; below this the gadget is a.s. disconnected."""
    if n < 2:
        raise ValueError("need n >= 2")
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0,1)")
    if d < 0:
        raise ValueError("d must be nonnegative")
    if (d + 1) > n * n:
        raise ValueError("need d+1 <= n^2 so the log argument is positive")
    return (1.0 - eps) * (d + 1) * math.log(n / math.sqrt(d + 1)) / n


def dependence_ratio(n: int, d: int) -> float:
    """d ln(n)/n, which must vanish for the disconnection example to apply."""
    return d * math.log(n) / n


def example_hypothesis(n: int, d: int) -> bool:
    """Whether d ln(n)/n < 0.1, the example's reporting cutoff for d ln(n)/n -> 0."""
    return dependence_ratio(n, d) < 0.1


@lru_cache(maxsize=64)
def _phi_profile(h: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(|V(Gamma)|, |E(Gamma)|, f(Gamma)) for every nonempty edge subset Gamma.

    Three read-only uint8 arrays, entry mask - 1 for the subset whose bit i
    picks h.edges()[i].  One pass over the masks in increasing order: with
    e the top edge of Gamma, the matching number is
    nu(Gamma) = max(nu(Gamma - e), 1 + nu(Gamma minus every edge touching e)),
    V(Gamma) = V(Gamma - e) | ends(e), and f = |V(Gamma)| - nu(Gamma) by
    the Gallai identity.
    """
    edges = list(h.edges())
    # vertex bits over the endpoints only, at most 2 * PHI_MAX_EDGES of them
    label = {v: i for i, v in enumerate(sorted({v for e in edges for v in e}))}
    nu = np.zeros(1 << len(edges), dtype=np.uint8)
    cover = np.zeros(1 << len(edges), dtype=np.uint64)
    for i, (u, v) in enumerate(edges):
        low = 1 << i
        touching = sum(1 << j for j, e in enumerate(edges[:i]) if u in e or v in e)
        apart = np.arange(low) & ((low - 1) ^ touching)
        nu[low:2 * low] = np.maximum(nu[:low], nu[apart] + 1)
        cover[low:2 * low] = cover[:low] | np.uint64((1 << label[u]) | (1 << label[v]))
    nv = np.bitwise_count(cover[1:])
    profile = (nv, np.bitwise_count(np.arange(1, len(nu))), nv - nu[1:])
    for a in profile:
        a.flags.writeable = False
    return profile


def _as_pattern(pattern) -> SubgraphPattern:
    if isinstance(pattern, Graph):
        return SubgraphPattern(pattern)
    return pattern


def phi_functional(pattern: SubgraphPattern, n: int, p: float, d: int) -> float:
    """Containment functional Phi(H).

    Sum over nonempty edge subsets Gamma of H of
    (20|V(H)|/n)^|V(Gamma)| (d+1)^f(Gamma) / p^|E(Gamma)|, where f is the
    minimum number of Gamma-edges covering V(Gamma).  10 Phi(H) bounds the
    probability that G contains no copy of H.
    """
    pattern = _as_pattern(pattern)
    if n < 1:
        raise ValueError("need n >= 1")
    if float(p) <= 0:
        raise ValueError("p must be positive")
    ecount = pattern.edge_count
    if ecount == 0:
        raise ValueError("pattern must have at least one edge")
    if ecount > PHI_MAX_EDGES:
        raise ResourceLimitError(
            f"pattern has {ecount} edges; the subset sum enumerates 2^{ecount} terms "
            f"(limit 2^{PHI_MAX_EDGES})")
    pf = float(p)
    base = 20.0 * pattern.vertex_count / n
    d1 = d + 1
    nv, ne, f = _phi_profile(pattern.graph)
    # each power is a Python float, as in the term base**nv * d1**f / p**ne
    base_pow = np.array([base ** k for k in range(int(nv.max()) + 1)])
    d1_pow = np.array([float(d1 ** k) for k in range(int(f.max()) + 1)])
    p_pow = np.array([pf ** k for k in range(ecount + 1)])
    if not p_pow.all():
        raise ValueError(f"p ** {ecount} underflows to 0 in float64")
    with np.errstate(all="ignore"):
        terms = base_pow[nv] * d1_pow[f] / p_pow[ne]
        # summed in mask order, one term after another, as a float loop would
        return float(np.cumsum(terms)[-1])


def containment_failure_bound(pattern: SubgraphPattern, n: int, p: float,
                              d: int) -> float:
    """10 Phi(H), the bound on P(G contains no copy of H)."""
    return 10.0 * phi_functional(pattern, n, p, d)


def containment_hypothesis(pattern: SubgraphPattern, n: int, d: int) -> bool:
    """Whether d |E(H)| |V(H)| / n < 0.9 holds."""
    if n < 1:
        raise ValueError("need n >= 1")
    pattern = _as_pattern(pattern)
    return d * pattern.edge_count * pattern.vertex_count / n < 0.9


def clique_bounds(n: int, p: float, d: int, c1: float = 1.0,
                  c2: float = 1.0) -> tuple[float, float]:
    """Reference window (C1 ln n / ln(1/p), C2 d1 ln n / ln(1/p)) for the clique number.

    The constants are unspecified in the underlying result; c1 = c2 = 1
    only draws reference curves.
    """
    p = float(p)
    if not 0 < p < 1:
        raise ValueError("need 0 < p < 1")
    base = math.log(n) / math.log(1.0 / p)
    return c1 * base, c2 * (d + 1) * base


def clique_hypothesis(n: int, p: float, d: int, slack: float = 10.0) -> bool:
    """Whether slack*d/sqrt(n) <= p <= 1/4, a finite-n reading of d/sqrt(n) << p."""
    p = float(p)
    return slack * d / math.sqrt(n) <= p <= 0.25


class BoundReport(NamedTuple):
    """One evaluated bound: inputs echoed, value verbatim, vacuity flagged.

    vacuous is None for quantities that are not probabilities (interval
    endpoints, thresholds, deviations); hypothesis is None when the bound
    has no side condition to report.
    """
    name: str
    inputs: dict
    value: float
    vacuous: bool | None = None
    hypothesis: bool | None = None


class Bound(NamedTuple):
    """One row of BOUNDS: the bound's value, its side condition or None,
    and its report's form: "probability" (vacuous above 1), "value",
    "window" (value gives .low and .high), or "functional" (phi, whose
    .failure-bound 10 phi is a probability)."""
    value: Callable
    hypothesis: Callable | None
    form: str

    @property
    def parameters(self) -> dict:
        """Each parameter's default, inspect.Parameter.empty if required."""
        found = {}
        for fn in filter(None, (self.value, self.hypothesis)):
            for key, param in SIGNATURES[fn].items():
                found.setdefault(key, param.default)
        return found


BOUNDS = {
    "janson-bernstein": Bound(janson_bernstein, None, "probability"),
    "janson-phi": Bound(janson_phi, None, "probability"),
    "degree-interval": Bound(degree_interval, degree_hypothesis, "window"),
    "jumbledness-deviation": Bound(jumbledness_deviation, None, "value"),
    "witness-floor": Bound(jumbledness_witness_floor, None, "value"),
    "connectivity-threshold": Bound(connectivity_upper_threshold, None, "value"),
    "example-threshold": Bound(connectivity_example_threshold,
                               example_hypothesis, "value"),
    "phi": Bound(phi_functional, containment_hypothesis, "functional"),
    "clique-bounds": Bound(clique_bounds, clique_hypothesis, "window"),
}

BOUND_NAMES = tuple(BOUNDS)

# each bound function's parameters, read from its signature once
SIGNATURES = {fn: inspect.signature(fn).parameters for bound in BOUNDS.values()
              for fn in (bound.value, bound.hypothesis) if fn}

# the parameters that count things; evaluate passes them to the bound as ints
COUNTS = ("n", "d", "a", "b", "s")


def evaluate(name: str, pattern: SubgraphPattern | None = None,
             **params) -> list[BoundReport]:
    """Evaluate a named bound; interval-valued bounds yield one report per endpoint.

    Parameters the bound does not take are ignored.  Raises ValueError for
    unknown names (listing what is available), for missing/invalid
    parameters, for a negative d, which every bound takes, and for a NaN
    or infinite real parameter.
    """
    try:
        bound = BOUNDS[name]
    except KeyError:
        raise ValueError(f"unknown bound {name!r}; "
                         f"available: {', '.join(BOUND_NAMES)}") from None
    wanted = bound.parameters
    if "pattern" in wanted and pattern is None:
        raise ValueError(f"bound {name!r} needs a pattern")
    params["pattern"] = pattern
    missing = [key for key, default in wanted.items()
               if default is inspect.Parameter.empty and params.get(key) is None]
    if missing:
        raise ValueError(f"bound {name!r} needs parameters: {', '.join(missing)}")
    inputs = {key: default if params.get(key) is None else params[key]
              for key, default in wanted.items()}
    args = {key: int(v) if key in COUNTS else v for key, v in inputs.items()}
    if args["d"] < 0:
        raise ValueError("d must be nonnegative")
    for key, value in args.items():
        if key not in COUNTS and key != "pattern" and not math.isfinite(value):
            raise ValueError(f"{key} must be finite")
    if "pattern" in inputs:
        inputs["pattern"] = pattern.name or "custom"

    def call(fn):
        return fn(**{key: args[key] for key in SIGNATURES[fn]})
    value = call(bound.value)
    hyp = call(bound.hypothesis) if bound.hypothesis else None
    if bound.form == "window":
        return [BoundReport(f"{name}.low", inputs, value[0], hypothesis=hyp),
                BoundReport(f"{name}.high", inputs, value[1], hypothesis=hyp)]
    reports = [BoundReport(name, inputs, value, hypothesis=hyp,
                           vacuous=value > 1.0 if bound.form == "probability" else None)]
    if bound.form == "functional":
        reports.append(BoundReport(f"{name}.failure-bound", inputs, 10.0 * value,
                                   vacuous=10.0 * value > 1.0, hypothesis=hyp))
    return reports
