"""The model surface that the benchmark's span recorder reads.

perfbench/spans.py counts a sample's latents through
model.latent_count() only where the model has it, so a renamed method
would read 0 latents with no error.  Loading the recorder here, as
test_benchmark_digests.py loads the workloads, makes that a test failure.
The benchmark's files are only read.
"""

import importlib.util
from fractions import Fraction
from pathlib import Path

from depgraphs.distributions import correlated_star, sample


def _spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sample_latents_are_the_models_latent_count():
    spans = _spans()
    model = correlated_star(12, Fraction(1, 3), 2)
    recorder = spans.Recorder()
    spans._count_sample(recorder, model, sample(model, 1))
    latents = recorder.counts["distributions.sample.latents"]
    assert latents == model.latent_count() > 0
