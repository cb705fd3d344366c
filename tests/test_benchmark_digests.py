"""The benchmark's pinned Monte Carlo CSVs, checked by the test suite.

perfbench/workloads.py pins the SHA-256 of each Monte Carlo config's CSV
at its default seed.  Running those configs here, at one worker, makes a
change that moves a CSV (the sampler's values, their packing or the trial
runner) fail the tests, not first the benchmark's output check.  The
benchmark's files are only read.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from depgraphs.harness import ExperimentConfig, run_experiment


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
