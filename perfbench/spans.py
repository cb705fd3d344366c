"""Span recorder that traces depgraphs from outside, by rebinding public names.

`install(dg, recorder)` replaces public callables of the depgraphs package
(module functions, one classmethod, one dunder method) with wrappers that
record a span per call: name, start, end, parent span and run id.  Every
public alias of a wrapped object is rebound too, so `harness.sample` and
`distributions.sample` are the same span.  Callers that look the name up at
call time see the wrapper; work that no public name reaches, such as the
degree-violation and witness closures inside the harness, stays in the
self time of the enclosing span (`harness.run_experiment`).

A name listed in LAYERS that the package no longer has is skipped, and its
metrics read calls=0, so work that moves out of a layer shows up as a drop
instead of a crash.  `Installation.restore()` puts every original back.

Spans live in compact in-memory arrays until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from array import array
from collections import defaultdict

# (module, attribute, span name).  "Class.attr" attributes are methods.
LAYERS = (
    ("rng", "generator", "rng.generator"),
    ("rng", "derive_seed", "rng.derive_seed"),
    ("distributions", "sample", "distributions.sample"),
    ("distributions", "build", "distributions.build"),
    ("distributions", "realize", "distributions.realize"),
    ("distributions", "audit_model", "distributions.audit_model"),
    ("graphs", "is_connected", "graphs.is_connected"),
    ("graphs", "contains_subgraph", "graphs.contains_subgraph"),
    ("graphs", "clique_number", "graphs.clique_number"),
    ("graphs", "Graph.from_edge_indices", "graphs.from_edge_indices"),
    ("graphs", "edge_cover_number", "graphs.edge_cover_number"),
    ("predicates", "Predicate.__call__", "predicates.eval"),
    ("harness", "run_experiment", "harness.run_experiment"),
    ("oracle", "exact_event_probability", "oracle.exact_event_probability"),
    ("oracle", "exact_edge_marginals", "oracle.exact_edge_marginals"),
    ("oracle", "exhaustive_jumbledness_check", "oracle.jumbledness"),
    ("bounds", "phi_functional", "bounds.phi_functional"),
)

# every other public function of these modules is one span name
CATCH_ALL = (("bounds", "bounds.other"), ("stats", "stats"))

# sample(..., keep_latents=True) is latent capture, a layer of its own
CAPTURE = "distributions.capture"

# per-call counts taken outside the layer's own span
BOOKKEEPING = "trace.bookkeeping"

SPAN_NAMES = tuple(name for _, _, name in LAYERS) + (CAPTURE,) + tuple(
    name for _, name in CATCH_ALL)

COUNTS = ("distributions.sample.latents", "distributions.sample.edges",
          "distributions.sample.computed_bytes",
          "harness.run_experiment.trials", "oracle.outcomes",
          "oracle.jumbledness.pairs")


class Recorder:
    """In-memory span store; safe to call from the harness's worker threads.

    A worker thread's outermost span takes as parent the innermost span open
    in the thread that created the recorder, which is blocked inside
    `run_experiment` while the pool runs.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.run_id = 0
        self.counts: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main = threading.get_ident()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else -1
        with self._lock:
            nid = self._ids.get(name)
            if nid is None:
                nid = self._ids[name] = len(self.names)
                self.names.append(name)
            sid = len(self.start)
            self.start.append(time.perf_counter())
            self.end.append(0.0)
            self.name.append(nid)
            self.parent.append(parent)
            self.run.append(self.run_id)
        stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack().pop()

    def add(self, key: str, value: int) -> None:
        with self._lock:
            self.counts[key] += value

    def spans(self):
        """(name, start, end, parent, run) per span, in opening order."""
        return [(self.names[self.name[i]], self.start[i], self.end[i],
                 self.parent[i], self.run[i]) for i in range(len(self.start))]


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children from worker threads may overlap each other; the covered part is
    the length of the union of their intervals, clipped to the parent's.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][1]):
            cs, ce = max(spans[c][1], start), min(spans[c][2], end)
            if ce <= cs:
                continue
            if hi is None or cs > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = cs, ce
            else:
                hi = max(hi, ce)
        if hi is not None:
            covered += hi - lo
        out.append((end - start) - covered)
    return out


def _span(recorder: Recorder, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(sid)
        if after is not None:
            bid = recorder.open(BOOKKEEPING)
            try:
                after(args, kwargs, result)
            finally:
                recorder.close(bid)
        return result
    return wrapper


def _sample_wrapper(recorder: Recorder, fn, after):
    sample = _span(recorder, "distributions.sample", fn, after)
    capture = _span(recorder, CAPTURE, fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        keep = kwargs.get("keep_latents", args[2] if len(args) > 2 else False)
        return (capture if keep else sample)(*args, **kwargs)
    return wrapper


def sample_bytes(n: int, uniforms: int) -> int:
    """Computed bytes of one draw's arrays, from their sizes, not measured:
    8 B per float64 uniform, one bool per edge slot, the dense n x n bool
    adjacency and its bit-packed copy."""
    slots = n * (n - 1) // 2
    return 8 * uniforms + slots + n * n + n * ((n + 7) // 8)


def _count_sample(recorder: Recorder, model, outcome) -> None:
    latents = model.latent_count() if hasattr(model, "latent_count") else 0
    slots = model.n * (model.n - 1) // 2
    # the uniform-subset kind draws one key per edge slot, the rest one per latent
    uniforms = slots if model.kind == "edge-block-exact" else latents
    recorder.add("distributions.sample.latents", latents)
    recorder.add("distributions.sample.edges", outcome.graph.edge_count())
    recorder.add("distributions.sample.computed_bytes",
                 sample_bytes(model.n, uniforms))


def _counters(recorder: Recorder, dg) -> dict:
    """Counts taken after a call, by span name, as after(args, kwargs, result)."""
    size = getattr(getattr(dg, "oracle", None), "state_space_size", None)

    def outcomes(args, kwargs, result):
        recorder.add("oracle.outcomes", size(args[0]) if size else 0)

    def trials(args, kwargs, result):
        recorder.add("harness.run_experiment.trials",
                     sum(pt.trials for pt in result.points))

    def pairs(args, kwargs, result):
        recorder.add("oracle.jumbledness.pairs", 4 ** args[0].n)

    return {
        "distributions.sample": lambda args, kwargs, out: _count_sample(
            recorder, args[0], out),
        "harness.run_experiment": trials,
        "oracle.exact_event_probability": outcomes,
        "oracle.exact_edge_marginals": outcomes,
        "oracle.jumbledness": pairs,
    }


class Installation:
    """The rebinding done by `install`; `restore()` undoes it exactly."""

    def __init__(self):
        self.saved: list[tuple[object, str, object]] = []

    def rebind(self, owner, attr: str, value) -> None:
        self.saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)


def _public_modules(dg) -> list:
    mods = [dg]
    for attr, value in vars(dg).items():
        if inspect.ismodule(value) and value.__name__.startswith(dg.__name__ + "."):
            mods.append(value)
    return mods


def _targets(dg):
    """(owner, attr, span name) for every layer the package still has."""
    found = []
    for mod_name, attr, span in LAYERS:
        mod = getattr(dg, mod_name, None)
        owner_name, _, member = attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        if owner is not None and member in getattr(owner, "__dict__", {}):
            found.append((owner, member, span))
    named = {(id(owner), member) for owner, member, _ in found}
    for mod_name, span in CATCH_ALL:
        mod = getattr(dg, mod_name, None)
        if mod is None:
            continue
        for attr, value in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == mod.__name__
                    and (id(mod), attr) not in named):
                found.append((mod, attr, span))
    return found


def install(dg, recorder: Recorder) -> Installation:
    """Wrap the layers of the imported package `dg`; returns the undo record."""
    inst = Installation()
    modules = _public_modules(dg)
    counters = _counters(recorder, dg)
    for owner, attr, span in _targets(dg):
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            inst.rebind(owner, attr, classmethod(_span(recorder, span, raw.__func__)))
            continue
        after = counters.get(span)
        if span == "distributions.sample":
            wrapped = _sample_wrapper(recorder, raw, after)
        else:
            wrapped = _span(recorder, span, raw, after)
        if inspect.isclass(owner):
            inst.rebind(owner, attr, wrapped)
            continue
        # rebind every public alias, e.g. harness.sample and depgraphs.sample
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is raw and not name.startswith("_"):
                    inst.rebind(mod, name, wrapped)
    return inst
