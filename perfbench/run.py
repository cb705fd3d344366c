"""depgraphs benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload mc-large --seed 1 --seconds 25 --trace 0

Run from the root of a depgraphs checkout; the package is imported from
`src/`.  Set-up (import, model builds, one warm-up call) is repeated
SETUP_REPS times, then fixed-work passes run for `--seconds`.  Every
output is checked; a failed check or a raised exception is a failed
operation and makes the exit code 1.

With `--trace 0` the last stdout line carries the end-to-end metrics
(medians over passes).  With `--trace 1` the first half of the time runs
untraced, the second half with the span wrappers of `spans.py` installed,
and the last line carries the per-layer metrics, per traced pass.  The line
before it is a full report: every named metric with median, quartiles and
pass count, and the run's provenance.  Traced spans are written to
`.perfbench/<workload>.spans.npz`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import spans
import workloads as wl

SETUP_REPS = 9
MIN_PASSES = 3
OUT_DIR = ".perfbench"


@dataclass(frozen=True)
class Workload:
    """One workload's steps; `primary` and `secondary` name the two rates
    it reports as the contract metrics `primary_per_s` and `secondary_per_s`."""
    inputs: Callable[[int], dict]
    setup: Callable
    run_pass: Callable
    primary: str
    secondary: str


def _par_workers() -> int:
    """workers for the parallel Monte Carlo pass: 2, never above nproc."""
    return min(2, _nproc())


def _nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


WORKLOADS = {
    "mc-large": Workload(
        lambda seed: wl.mc_inputs("mc-large", seed),
        lambda dg, inputs: wl.mc_setup(dg, inputs, _par_workers()),
        wl.mc_pass, "trials_per_s", "trials_per_s_par"),
    "mc-small": Workload(
        lambda seed: wl.mc_inputs("mc-small", seed),
        lambda dg, inputs: wl.mc_setup(dg, inputs, _par_workers()),
        wl.mc_pass, "trials_per_s", "trials_per_s_par"),
    "exact": Workload(
        wl.exact_inputs, wl.exact_setup, wl.exact_pass,
        "outcomes_per_s", "pairs_per_s"),
    "replay": Workload(
        wl.replay_inputs, wl.replay_setup, wl.replay_pass,
        "replays_per_s", "audit_trials_per_s"),
}

def _quartiles(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "count": len(values)}


def _git_sha(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _import_fresh():
    for name in [m for m in sys.modules if m == "depgraphs" or m.startswith("depgraphs.")]:
        del sys.modules[name]
    return importlib.import_module("depgraphs")


def _setup(spec: Workload, inputs: dict):
    """Set-up seconds per repetition, raw and at nominal host speed."""
    raw, nominal = [], []
    before = wl.reference()
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        dg = _import_fresh()
        state = spec.setup(dg, inputs)
        dt = time.perf_counter() - t0
        after = wl.reference()
        raw.append(dt)
        nominal.append(dt * wl.REFERENCE_S / ((before + after) / 2))
        before = after
    return raw, nominal, dg, state


def _run_passes(dg, spec: Workload, state, seconds: float, first: int,
                recorder: spans.Recorder | None = None, min_passes: int = 1):
    """Passes until `seconds` would be overrun; stops after a failed pass."""
    done = []
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()    # every pass starts from the same collector state
        ctx = wl.Pass()
        index = first + len(done)
        if recorder is not None:
            recorder.run_id = index
        t0 = time.perf_counter()
        spec.run_pass(dg, state, index, ctx)
        elapsed = time.perf_counter() - t0
        ctx.wall = elapsed - ctx.ref_s
        done.append(ctx)
        if ctx.failures:
            break
        if len(done) >= min_passes and time.perf_counter() + elapsed > deadline:
            break
    return done


def _compare_outputs(reference: wl.Pass, passes: list, what: str) -> list[str]:
    problems = []
    for ctx in passes:
        if ctx.outputs != reference.outputs:
            labels = sorted(k for k in set(ctx.outputs) | set(reference.outputs)
                            if ctx.outputs.get(k) != reference.outputs.get(k))
            problems.append(f"{what} output differs: {', '.join(labels)}")
    return problems


def _end_to_end(spec: Workload, setup_raw, setup_nominal, passes) -> tuple[dict, dict]:
    """(contract metrics, full named report) from untraced passes.

    Contract values are medians at nominal host speed; the report also
    gives the raw medians under `<name>_raw` and the host slowdown.
    """
    named = {
        "setup_s": ("s", _quartiles(setup_nominal)),
        "setup_s_raw": ("s", _quartiles(setup_raw)),
        "wall_s": ("s", _quartiles([p.nominal_wall() for p in passes])),
        "wall_s_raw": ("s", _quartiles([p.wall for p in passes])),
        "host_slowdown": ("ratio", _quartiles([p.slowdown() for p in passes])),
    }
    for m in sorted({m for p in passes for m in p.parts}):
        named[m] = ("1/s", _quartiles([p.rates()[m] for p in passes if m in p.parts]))
        named[f"{m}_raw"] = ("1/s", _quartiles(
            [p.rates(nominal=False)[m] for p in passes if m in p.parts]))
    named["peak_rss_mb"] = ("MiB", _quartiles(
        [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]))
    metrics = {
        "setup_s": named["setup_s"],
        "wall_s": named["wall_s"],
        "primary_per_s": named.get(spec.primary),
        "secondary_per_s": named.get(spec.secondary),
        "peak_rss_mb": named["peak_rss_mb"],
    }
    out = {k: {"value": v[1]["median"], "unit": v[0]}
           for k, v in metrics.items() if v is not None}
    report = {k: {"unit": u, **q} for k, (u, q) in named.items()}
    return out, report


def _per_layer(recorder: spans.Recorder, traced, untraced) -> dict:
    all_spans = recorder.spans()
    own = spans.self_times(all_spans)
    n = len(traced)
    calls = {name: 0 for name in spans.SPAN_NAMES}
    self_s = {name: 0.0 for name in spans.SPAN_NAMES}
    by_run: dict[int, float] = {}
    for span, t in zip(all_spans, own):
        name, run = span[0], span[4]
        by_run[run] = by_run.get(run, 0.0) + t
        if name in calls:
            calls[name] += 1
            self_s[name] += t
    out = {}
    for name in spans.SPAN_NAMES:
        out[f"{name}.calls"] = {"value": calls[name] / n, "unit": "count"}
        out[f"{name}.self_s"] = {"value": self_s[name] / n, "unit": "s"}
    for key in spans.COUNTS:
        unit = "B" if key.endswith("computed_bytes") else "count"
        out[key] = {"value": recorder.counts.get(key, 0) / n, "unit": unit}
    walls = [p.wall for p in traced]
    first = len(untraced)
    out["trace.overhead_s"] = {
        "value": statistics.median(walls) - statistics.median(p.wall for p in untraced),
        "unit": "s"}
    out["trace.untracked_s"] = {
        "value": statistics.median(p.wall - by_run.get(first + i, 0.0)
                                   for i, p in enumerate(traced)),
        "unit": "s"}
    return out


def _write_spans(root: Path, workload: str, recorder: spans.Recorder) -> str:
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    path = out / f"{workload}.spans.npz"
    np.savez(path, names=np.array(recorder.names, dtype=str),
             name=np.frombuffer(recorder.name, dtype=np.int32),
             start=np.frombuffer(recorder.start, dtype=np.float64),
             end=np.frombuffer(recorder.end, dtype=np.float64),
             parent=np.frombuffer(recorder.parent, dtype=np.int32),
             run=np.frombuffer(recorder.run, dtype=np.int32))
    return str(path.relative_to(root))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "depgraphs" / "__init__.py").is_file():
        print("perfbench: no src/depgraphs here; run from a depgraphs checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    spec = WORKLOADS[args.workload]
    inputs = spec.inputs(args.seed)
    setup_raw, setup_nominal, dg, state = _setup(spec, inputs)

    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = _run_passes(dg, spec, state, budget, 0,
                           min_passes=1 if args.trace else MIN_PASSES)
    compared = untraced[1:]
    mismatches = _compare_outputs(untraced[0], untraced[1:], "repeated pass")
    traced, recorder, spans_path = [], None, None
    if args.trace and not any(p.failures for p in untraced):
        recorder = spans.Recorder()
        installed = spans.install(dg, recorder)
        try:
            traced = _run_passes(dg, spec, state, budget, len(untraced), recorder)
        finally:
            installed.restore()
        compared += traced
        mismatches += _compare_outputs(untraced[0], traced, "traced")
        spans_path = _write_spans(root, args.workload, recorder)

    passes = untraced + traced
    problems = [f for p in passes for f in p.failures] + mismatches
    attempted = sum(p.attempted for p in passes) + len(compared)
    failed = len(problems)
    metrics, report = _end_to_end(spec, setup_raw, setup_nominal, untraced)
    if args.trace and recorder is not None:
        metrics = _per_layer(recorder, traced, untraced)
    counts = {}
    for p in passes:
        for k, v in p.counts.items():
            counts[k] = counts.get(k, 0) + v
    provenance = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": _git_sha(root), "nproc": _nproc(),
        "workers_par": _par_workers(),
        "python": platform.python_version(), "numpy": np.__version__,
        "setup_reps": len(setup_raw), "untraced_passes": len(untraced),
        "traced_passes": len(traced), "spans_file": spans_path,
        "byte_counts": "computed from array sizes, not measured",
    }
    report["error_rate"] = {"unit": "ratio", "value": failed / attempted if attempted else 1.0}
    for problem in problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(json.dumps({"report": report, "counts": counts, "provenance": provenance}))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
