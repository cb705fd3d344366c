"""The benchmark's pinned outputs, checked by the test suite.

perfbench/workloads.py pins the SHA-256 of each Monte Carlo config's CSV
at its default seed, and the exact workload checks its oracle values
against independent ones.  Running those configs and queries here, the
configs at one worker, makes a change that moves a CSV (the sampler's
values, their packing or the trial runner) or an exact value (the
oracle's walk or tally) fail the tests, not first the benchmark's output
check.  The benchmark's files are only read.
"""

import hashlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

import depgraphs as dg
from depgraphs.graphs import num_edges
from depgraphs.harness import ExperimentConfig, run_experiment
from depgraphs.oracle import (er_connectivity_probability, exact_edge_marginals,
                              exact_event_probability)
from depgraphs.predicates import parse_predicate


def _workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()
CONFIGS = [(name, label, cfg) for name in ("mc-small", "mc-large")
           for label, cfg in WORKLOADS.mc_inputs(name, WORKLOADS.DEFAULT_SEED)["configs"]]
IDS = [f"{name}-{label}" for name, label, _ in CONFIGS]


@pytest.mark.parametrize("name,label,cfg", CONFIGS, ids=IDS)
def test_csv_is_the_pinned_one(name, label, cfg):
    csv = run_experiment(ExperimentConfig(workers=1, **cfg)).to_csv()
    assert hashlib.sha256(csv.encode()).hexdigest() == WORKLOADS.PINNED_CSV[name][label]


EXACT = WORKLOADS.exact_setup(dg, WORKLOADS.exact_inputs(WORKLOADS.DEFAULT_SEED))


@pytest.mark.parametrize("label,model,text", [e[:3] for e in EXACT["events"]],
                         ids=[e[0] for e in EXACT["events"]])
def test_exact_event_is_the_independent_value(label, model, text):
    want = {"er6-connected": er_connectivity_probability(6, Fraction(1, 2)),
            "star7-k3": WORKLOADS.STAR7_K3}[label]
    assert exact_event_probability(model, parse_predicate(text)) == want


@pytest.mark.parametrize("label,model", [m[:2] for m in EXACT["marginals"]],
                         ids=[m[0] for m in EXACT["marginals"]])
def test_exact_marginals_are_p(label, model):
    assert exact_edge_marginals(model) == [model.p] * num_edges(model.n)
