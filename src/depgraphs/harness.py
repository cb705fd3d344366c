"""Seeded, parallel, reproducible experiment grids.

A config names a model family, a grid over (n, p, d), a task, a trial
count, and a master seed; the SETTINGS table reads each of its settings
from INI or flag text and echoes it into the provenance.  Each task is one row of the TASKS table, which
gives from each grid point's built model the function each trial evaluates,
the theory columns of the point's row, and whether the values merge as an
event or as a statistic; run_experiment runs every task the same way.

Trial t of grid point i always runs on seed derive_seed(master, i, t), and
the per-trial values merge in trial order, so the output is byte-identical
for 1 and N workers.  A point's seeds are derived at once, as one uint64
array (rng.derive_seeds), and distributions._trial_values draws, packs and
evaluates its trials a block at a time.  workers is an upper bound on the
threads: the blocks run in at most min(workers, CPUs) spans, and up to 64
vertices in one span in the calling thread (distributions._spans).

The CSV view deliberately omits anything scheduling-dependent (wall-clock
times, worker count); those live only in the JSON provenance document.
"""

from __future__ import annotations

import configparser
import csv
import io
import json
import math
import time
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, NamedTuple

import numpy as np

from . import bounds, predicates, stats
# sample stays importable as harness.sample, a public alias that
# perfbench's span wrappers rebind
from .distributions import (CORRELATED_STAR, ERDOS_RENYI, KINDS, DistributionModel,
                            _canonical_kind, _trial_values, blocks_from_text, build,
                            format_probability, parse_probability, sample)
from .errors import ResourceLimitError
from .graphs import Graph, clique_number, mask_words
from .predicates import Predicate
from .rng import derive_seeds

CLIQUE_MAX_N = 60

# slack factor standing in for the 1 - o(1) in the witness lower bound
WITNESS_SLACK = 0.9

CSV_COLUMNS = ("index", "task", "kind", "n", "p", "d", "a", "m", "pattern",
               "trials", "successes", "estimate", "ci_low", "ci_high",
               "hypothesis", "theory_low", "theory_high", "theory_value",
               "stat_min", "stat_mean", "stat_max", "error")


def _probabilities(text: str) -> tuple:
    return tuple(parse_probability(tok) for tok in text.split(",") if tok.strip())


# Each experiment setting, in the order the config echoes it: its INI key
# and CLI flag name, the ExperimentConfig field it sets, and the reader of
# its text.  Grids are comma-separated; empty items are skipped.
SETTINGS = {
    "task": ("task", str), "kind": ("kind", str),
    "n": ("ns", predicates._ints), "p": ("ps", _probabilities),
    "d": ("ds", predicates._ints),
    "trials": ("trials", int), "seed": ("seed", int),
    "predicate": ("predicate", str), "pattern": ("pattern", str),
    "eps": ("eps", float), "a": ("a", int), "m": ("m", int),
    "blocks": ("blocks", str), "workers": ("workers", int),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment run.

    The grid is the cross product ns x ps x ds in that nesting order.  The
    kind's settings (distributions.KINDS) decide which of p, a, m and
    blocks a config must give and which it must not, p as a grid; an
    edge-block grid, say, gives a and m and no p.  d stays optional, as in
    build: the default ds = (0,) lets each model take its own d, and any
    other d grid goes to build, which refuses a d the model does not have.
    """
    task: str = "probability"
    kind: str = ERDOS_RENYI
    ns: tuple[int, ...] = ()
    ps: tuple = ()
    ds: tuple[int, ...] = (0,)
    trials: int = 100
    seed: int = 0
    workers: int = 1
    predicate: str = "connected"
    pattern: str | None = None
    eps: float = 0.1
    a: int | None = None
    m: int | None = None
    blocks: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", _canonical_kind(self.kind))
        object.__setattr__(self, "ns", tuple(int(n) for n in self.ns))
        object.__setattr__(self, "ds", tuple(int(d) for d in self.ds))
        object.__setattr__(self, "ps", tuple(self.ps))
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}; known: {', '.join(TASKS)}")
        if self.pattern is not None and self.task != "containment":
            raise ValueError(f"task {self.task} takes no pattern; "
                             "only containment looks for one")
        settings = KINDS[self.kind].settings
        given = {"a": self.a, "m": self.m, "blocks": self.blocks, "p": self.ps or None}
        for key, value in given.items():
            if value is not None and key not in settings:
                raise ValueError(f"{self.kind} grids take no {key}")
        for key in settings:
            if key in given and given[key] is None:
                raise ValueError(f"{self.kind} grids need {key}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not self.ns:
            raise ValueError("grid needs at least one n")

    def grid_points(self) -> list[dict]:
        """The grid's points in grid order, each build's keyword settings
        kind, n, p, d, a and m.  p is None for a kind with no p grid, and
        d None under the default ds, so that each model takes its own d."""
        ds = (None,) if self.ds == (0,) else self.ds
        return [{"kind": self.kind, "n": n, "p": p, "d": d, "a": self.a, "m": self.m}
                for n, p, d in product(self.ns, self.ps or (None,), ds)]

    def echo(self, include_workers: bool = True) -> dict:
        """JSON-safe config image for provenance output, keyed as SETTINGS."""
        out = {}
        for key, (name, _) in SETTINGS.items():
            value = getattr(self, name)
            if key == "p":
                value = [format_probability(p) for p in value]
            out[key] = list(value) if isinstance(value, tuple) else value
        if not include_workers:
            del out["workers"]
        return out

    @classmethod
    def from_settings(cls, settings: dict[str, str]) -> "ExperimentConfig":
        """The config that setting texts keyed as SETTINGS describe, as an
        INI section (ini_settings) or the CLI flags give them."""
        kwargs = {}
        for key, text in settings.items():
            if key not in SETTINGS:
                raise ValueError(f"unknown experiment setting {key!r}; "
                                 f"known: {', '.join(SETTINGS)}")
            name, read = SETTINGS[key]
            try:
                kwargs[name] = read(text)
            except ValueError as exc:
                raise ValueError(f"bad {key} {text!r}: {exc}") from None
        return cls(**kwargs)


def ini_settings(text: str) -> dict[str, str]:
    """The setting texts of an INI config's [experiment] section."""
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ValueError(f"bad experiment config: {exc}") from None
    if "experiment" not in cp:
        raise ValueError("experiment config needs an [experiment] section")
    return dict(cp["experiment"])


@dataclass
class PointResult:
    index: int
    params: dict
    trials: int
    successes: int | None = None
    estimate: float | None = None
    ci_low: float | None = None
    ci_high: float | None = None
    hypothesis: bool | None = None
    theory_low: float | None = None
    theory_high: float | None = None
    theory_value: float | None = None
    stat_min: float | None = None
    stat_mean: float | None = None
    stat_max: float | None = None
    error: str | None = None
    duration: float = 0.0


@dataclass
class ExperimentResult:
    task: str
    seed: int
    config: ExperimentConfig
    points: list[PointResult] = field(default_factory=list)
    duration: float = 0.0

    def all_failed(self) -> bool:
        return bool(self.points) and all(p.error is not None for p in self.points)

    def to_csv(self) -> str:
        echo = json.dumps(self.config.echo(include_workers=False),
                          sort_keys=True, separators=(",", ":"))
        rows = []
        for pt in self.points:
            row = {**vars(pt), **pt.params, "task": self.task}
            if row["p"] is not None:
                row["p"] = format_probability(row["p"])
            rows.append([row.get(name) for name in CSV_COLUMNS])
        return write_table(("depgraphs-experiment v1", f"seed: {self.seed}",
                            f"config: {echo}"), CSV_COLUMNS, rows)

    def to_json(self) -> str:
        doc = {
            "format": "depgraphs-experiment",
            "version": 1,
            "task": self.task,
            "seed": self.seed,
            "config": self.config.echo(include_workers=True),
            "duration_s": self.duration,
            "points": [{
                "index": pt.index,
                "params": {k: (format_probability(v) if k == "p" and v is not None
                               else v)
                           for k, v in pt.params.items()},
                "trials": pt.trials,
                "successes": pt.successes,
                "estimate": pt.estimate,
                "ci_low": pt.ci_low,
                "ci_high": pt.ci_high,
                "hypothesis": pt.hypothesis,
                "theory": {"low": pt.theory_low, "high": pt.theory_high,
                           "value": pt.theory_value},
                "stats": {"min": pt.stat_min, "mean": pt.stat_mean,
                          "max": pt.stat_max},
                "error": pt.error,
                "duration_s": pt.duration,
            } for pt in self.points],
        }
        return json.dumps(doc, indent=2) + "\n"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_table(comments, columns, rows) -> str:
    """The CSV text of a table: one `# ` line per comment, then the header
    and the rows, each cell formatted by _cell and quoted where it holds a
    comma or a quote."""
    buf = io.StringIO()
    buf.writelines(f"# {comment}\n" for comment in comments)
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(map(_cell, row) for row in rows)
    return buf.getvalue()


# -- tasks -------------------------------------------------------------

class Task(NamedTuple):
    """One row of the task table.

    check(config) runs before any grid point: it raises ValueError for a
    config the task cannot run, and returns the pattern the task looks for,
    or None.  A grid point above max_n fails before its model is built.
    Then theory(model, config, pattern) gives the point's theory columns
    and trial(model, config, pattern) the Predicate each trial evaluates on
    its graph, both reading n, p and d from the point's built model; a
    ValueError from building or from either fails only that point.  An
    event's values merge to a success count, an estimate and a Wilson
    interval, a statistic's to min, mean and max.
    """
    trial: Callable[[DistributionModel, ExperimentConfig, object], Predicate]
    theory: Callable[[DistributionModel, ExperimentConfig, object], dict]
    statistic: bool = False
    check: Callable[[ExperimentConfig], object] | None = None
    max_n: int | None = None


def _predicate(model, config, pattern):
    return predicates.parse_predicate(config.predicate, p=model.p)


def _no_theory(model, config, pattern):
    return {}


def _sweep_check(config):
    if not config.ps:
        raise ValueError(f"sweep needs a p grid; {config.kind} grids take no p")
    if any(float(q) <= float(p) for p, q in zip(config.ps, config.ps[1:])):
        raise ValueError("sweep p grid must be strictly increasing")


def _sweep_theory(model, config, pattern):
    """The example lower threshold (1-eps)(d+1) ln(n/sqrt(d+1))/n and the
    proved upper threshold (d+1) ln(n)/n at the model's (n, d)."""
    return {
        "theory_low": bounds.connectivity_example_threshold(model.n, model.d, config.eps),
        "theory_high": bounds.connectivity_upper_threshold(model.n, model.d),
    }


def _degree_theory(model, config, pattern):
    lo, hi = bounds.degree_interval(model.n, model.p, model.d)
    return {"theory_low": lo, "theory_high": hi,
            "hypothesis": bounds.degree_hypothesis(model.n, model.p, model.d)}


def _degree_violation(model, config, pattern):
    """Some vertex leaves the degree interval np +- 4 sqrt(np d1 ln n)."""
    lo, hi = bounds.degree_interval(model.n, model.p, model.d)
    return predicates.negate(predicates.degree_in_range(lo, hi))


def _witness_check(config):
    if config.kind != CORRELATED_STAR:
        raise ValueError("the witness experiment is defined for correlated-star")


def _witness_theory(model, config, pattern):
    """The witness floor at the typical size |B| = np(1 - (d+1)/n)."""
    n, p, d = model.n, float(model.p), model.d
    typical_b = max(0, round(n * p * (1.0 - (d + 1) / n)))
    return {"theory_value": bounds.jumbledness_witness_floor(d + 1, typical_b, n, p, d)}


def _witness(model, config, pattern):
    """The constructed witness pair beats its floor: with S the hub set and
    B the common neighborhood of S outside S,
    e(S,B) - p|S||B| > WITNESS_SLACK * floor(|S|, |B|)."""
    n, p, d = model.n, float(model.p), model.d
    s = d + 1
    smask = (1 << s) - 1

    def witness_beats_floor(g: Graph) -> bool:
        bmask = 0
        for x in range(s, n):
            if g.rows[x] & smask == smask:
                bmask |= 1 << x
        bsize = bmask.bit_count()
        crossing = sum((g.rows[v] & bmask).bit_count() for v in range(s))
        deviation = crossing - p * s * bsize
        floor = bounds.jumbledness_witness_floor(s, bsize, n, p, d)
        return deviation > WITNESS_SLACK * floor

    def batch(rows):
        # B is the AND of S's rows minus S; e(S,B) the popcounts of S's
        # rows masked by B; one floor per distinct |B|
        hubs = rows[:, :s]
        common = np.bitwise_and.reduce(hubs, axis=1) & ~mask_words(smask, rows)
        bsize = np.bitwise_count(common).sum(axis=1, dtype=np.int64)
        crossing = np.bitwise_count(hubs & common[:, None]).sum(axis=(1, 2), dtype=np.int64)
        floors = {b: bounds.jumbledness_witness_floor(s, b, n, p, d)
                  for b in set(bsize.tolist())}
        floor = np.array([floors[b] for b in bsize.tolist()], dtype=float)
        return crossing - p * s * bsize > WITNESS_SLACK * floor
    return Predicate("witness", witness_beats_floor, batch)


def _clique_theory(model, config, pattern):
    lo, hi = bounds.clique_bounds(model.n, model.p, model.d)
    return {"theory_low": lo, "theory_high": hi,
            "hypothesis": bounds.clique_hypothesis(model.n, model.p, model.d)}


def _containment_check(config):
    if not config.pattern:
        raise ValueError("containment experiment needs a pattern")
    return predicates.resolve_pattern(config.pattern)


def _containment_theory(model, config, pattern):
    """The bound min(1, 10 Phi(H)) on P(no copy of H)."""
    value = bounds.containment_failure_bound(pattern, model.n, model.p, model.d)
    return {"theory_value": min(1.0, value),
            "hypothesis": bounds.containment_hypothesis(pattern, model.n, model.d)}


# probability and sweep estimate P(predicate), sweep along an increasing p
# grid; degree-violation, witness and containment estimate the events
# above; clique reports the clique number's min, mean and max.
TASKS = {
    "probability": Task(_predicate, _no_theory),
    "sweep": Task(_predicate, _sweep_theory, check=_sweep_check),
    "degree-violation": Task(_degree_violation, _degree_theory),
    "witness": Task(_witness, _witness_theory, check=_witness_check),
    "containment": Task(lambda model, config, pattern: predicates.lacks_pattern(pattern),
                        _containment_theory, check=_containment_check),
    "clique": Task(lambda model, config, pattern: Predicate("clique-number", clique_number),
                   _clique_theory, statistic=True, max_n=CLIQUE_MAX_N),
}


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the config's task on every grid point, in grid order."""
    t0 = time.perf_counter()
    task = TASKS[config.task]
    pattern = task.check(config) if task.check else None
    result = ExperimentResult(task=config.task, seed=config.seed, config=config)
    for index, pt in enumerate(config.grid_points()):
        row = PointResult(index=index, params=dict(pt), trials=config.trials)
        if pattern is not None:
            row.params["pattern"] = pattern.name
        started = time.perf_counter()
        try:
            if task.max_n is not None and pt["n"] > task.max_n:
                raise ValueError(f"n={pt['n']} exceeds the exact {config.task} "
                                 f"search limit {task.max_n}")
            model = build(**pt, blocks=None if config.blocks is None
                          else blocks_from_text(pt["n"], config.blocks))
            row.params.update(p=model.p, d=model.d)
            extras = task.theory(model, config, pattern)
            trial_fn = task.trial(model, config, pattern)
            seeds = derive_seeds(config.seed, index, 0, config.trials)
            values = _trial_values(model, seeds, config.trials, trial_fn,
                                   config.workers)
        except (ValueError, ResourceLimitError) as exc:
            row.error = str(exc)
            row.duration = time.perf_counter() - started
            result.points.append(row)
            continue
        for key, value in extras.items():
            setattr(row, key, value)
        if task.statistic:
            row.stat_min = float(values.min())
            row.stat_max = float(values.max())
            row.stat_mean = math.fsum(values) / config.trials
        else:
            row.successes = int(np.count_nonzero(values))
            row.estimate = row.successes / config.trials
            row.ci_low, row.ci_high = stats.wilson_interval(row.successes, config.trials)
        row.duration = time.perf_counter() - started
        result.points.append(row)
    result.duration = time.perf_counter() - t0
    return result


def check_monotone_trend(result: ExperimentResult, z: float = 3.0) -> bool:
    """Estimates along increasing p never drop by more than pooled noise.

    Groups rows sharing (kind, n, d) in grid order and allows each step
    down up to z combined standard errors; a sanity check for monotone
    predicates, not a significance test.
    """
    groups: dict[tuple, list[PointResult]] = {}
    for pt in result.points:
        if pt.error is not None or pt.estimate is None:
            continue
        key = (pt.params.get("kind"), pt.params.get("n"), pt.params.get("d"))
        groups.setdefault(key, []).append(pt)
    for rows in groups.values():
        for prev, cur in zip(rows, rows[1:]):
            noise = 0.0
            for r in (prev, cur):
                noise += math.sqrt(r.estimate * (1 - r.estimate) / r.trials) + 1 / r.trials
            if cur.estimate < prev.estimate - z * noise:
                return False
    return True
