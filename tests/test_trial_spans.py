"""Trials drawn in spans.

The audit and oracle.mean_variance_check draw their trials in turn from
one Philox generator, the harness from per-trial seeds.  All of them split
the trials into spans of whole blocks (distributions._spans), at most one
per CPU; a span drawn from a generator starts from one forwarded to its
first trial's words (rng.forward), a span of seeds at its first trial's
seed.  So forward is checked against draining the same generator, and the
reports and the harness's CSV against every span count.
"""

import itertools
import threading
from fractions import Fraction

import numpy as np
import pytest

from depgraphs import distributions, graphs, rng
from depgraphs.distributions import (_latent_blocks, _rows, audit_model,
                                     correlated_star, edge_block_exact,
                                     erdos_renyi)
from depgraphs.harness import ExperimentConfig, run_experiment
from depgraphs.oracle import mean_variance_check
from depgraphs.predicates import edge_count_statistic, isolated_count_statistic

MASK64 = 2 ** 64 - 1


def _at(counter, buffer_pos, seed=7):
    """A Philox generator at the given counter and buffer position, its
    buffer holding the words of that counter's block, as after a draw."""
    gen = rng.generator(seed)
    state = gen.bit_generator.state
    low = sum(c << 64 * i for i, c in enumerate(counter)) - 1   # one step back
    state["state"]["counter"] = [low >> 64 * i & MASK64 for i in range(4)]
    gen.bit_generator.state = state
    gen.bit_generator.random_raw(4)     # the counter steps to counter
    state = gen.bit_generator.state
    assert state["state"]["counter"].tolist() == list(counter)
    state["buffer_pos"] = buffer_pos
    gen.bit_generator.state = state
    return gen


def _drained(gen, words):
    """A copy of gen that has drawn words raw words."""
    copy = np.random.Generator(np.random.Philox(key=0))
    copy.bit_generator.state = gen.bit_generator.state
    copy.bit_generator.random_raw(words)
    return copy


def _same_state(a, b):
    # the words of the buffer not yet handed out, the counter and the key
    a, b = a.bit_generator.state, b.bit_generator.state
    pos = a["buffer_pos"]
    assert pos == b["buffer_pos"]
    assert np.array_equal(a["buffer"][pos:], b["buffer"][pos:])
    for key in ("counter", "key"):
        assert np.array_equal(a["state"][key], b["state"][key])


@pytest.mark.parametrize("counter", [
    (3, 0, 0, 0),
    (MASK64, 0, 0, 0),                   # the low word carries
    (MASK64 - 1, MASK64, 5, 0),          # the carry runs up two words
    (MASK64, MASK64, MASK64, MASK64)],   # the counter wraps
    ids=["low", "carry", "carry-2", "wrap"])
@pytest.mark.parametrize("buffer_pos", range(5))
def test_forward_matches_draining(counter, buffer_pos):
    for words in range(14):
        gen = _at(counter, buffer_pos)
        before = _drained(gen, 0)
        got = rng.forward(gen, words)
        _same_state(gen, before)        # gen is left as it is
        want = _drained(gen, words)
        _same_state(got, want)
        assert np.array_equal(got.bit_generator.random_raw(9),
                              want.bit_generator.random_raw(9)), words
        assert np.array_equal(got.random(5), want.random(5)), words


def test_forward_far_and_after_mixed_draws():
    gen = rng.generator(2 ** 64 - 3)
    gen.integers(0, 1000, size=3)       # 32-bit draws leave has_uint32 set
    gen.random(3)
    for words in (0, 1, 4099, 10 ** 6 + 3):
        assert np.array_equal(rng.forward(gen, words).bit_generator.random_raw(6),
                              _drained(gen, words).bit_generator.random_raw(6))


def test_forward_needs_philox():
    with pytest.raises(TypeError):
        rng.forward(np.random.Generator(np.random.PCG64(1)), 3)
    with pytest.raises(ValueError):
        rng.forward(rng.generator(1), -1)


MODELS = [correlated_star(12, Fraction(1, 3), 2), erdos_renyi(9, 0.3),
          edge_block_exact(10, 1, 3), edge_block_exact(9, 2, 4),
          edge_block_exact(6, 3, 3)]
IDS = ["star", "er", "edge-block-1-3", "edge-block-2-4", "edge-block-3-3"]


def _at_each_count(monkeypatch, report):
    """report() with the CPU count set to 1, 2, 3 and 7; each must equal the
    first, and the spans must be the ones the count asks for."""
    forwarded = []
    forward = rng.forward
    monkeypatch.setattr(rng, "forward",
                        lambda gen, words: forwarded.append(words) or forward(gen, words))
    reports = []
    for cpus in (1, 2, 3, 7):
        monkeypatch.setattr(distributions, "_cpus", lambda: cpus)
        forwarded.clear()
        reports.append(report())
        yield cpus, len(forwarded) + 1
        assert reports[-1] == reports[0], cpus


@pytest.mark.parametrize("budget", [None, 500])
@pytest.mark.parametrize("model", MODELS, ids=IDS)
def test_audit_is_the_same_at_every_span_count(model, budget, monkeypatch):
    if budget:
        monkeypatch.setattr(graphs, "BATCH_BYTES", budget)
    trials = 400
    blocks = -(-trials // len(distributions._latent_rows(model, trials)))
    for cpus, spans in _at_each_count(monkeypatch, lambda: audit_model(model, trials, 11, 20)):
        assert spans == min(cpus, blocks)
    assert budget is None or blocks >= 7


# the same kinds with few enough outcomes that the exact moments, which
# do not depend on the spans, take little time at the small budget
MV_MODELS = MODELS[:2] + [edge_block_exact(6, 1, 3), edge_block_exact(6, 2, 5),
                          edge_block_exact(6, 3, 3), correlated_star(70, 0.2, 3)]


@pytest.mark.parametrize("budget", [None, 500])
@pytest.mark.parametrize("model", MV_MODELS, ids=IDS[:2] + [
    "edge-block-1-3", "edge-block-2-5", "edge-block-3-3", "star-70"])
def test_mean_variance_is_the_same_at_every_span_count(model, budget, monkeypatch):
    if budget:
        monkeypatch.setattr(graphs, "BATCH_BYTES", budget)
    stat = isolated_count_statistic() if model.n < 10 else edge_count_statistic()
    blocks = -(-300 // len(distributions._latent_rows(model, 300)))
    for cpus, spans in _at_each_count(
            monkeypatch, lambda: mean_variance_check(model, stat, 300, 17)):
        assert spans == min(cpus, blocks)


def test_one_block_audit_starts_no_thread(monkeypatch):
    def start(self):
        raise AssertionError("a one-block audit started a thread")

    monkeypatch.setattr(distributions, "_cpus", lambda: 7)
    monkeypatch.setattr(threading.Thread, "start", start)
    model = correlated_star(12, Fraction(1, 3), 2)
    assert len(distributions._latent_rows(model, 400)) == 400
    audit_model(model, 400, 11, 20)
    mean_variance_check(model, edge_count_statistic(), 400, 3)


def test_uniform_blocks_are_sized_by_their_values_and_rows():
    # the 1128 values of one trial at n = 48, wider than its 384 bytes of
    # rows, size the block; the keys the drawer settles take no part
    model = edge_block_exact(48, 1, 3)
    assert model.width == 1128
    assert len(distributions._latent_rows(model, 300)) == graphs.BATCH_BYTES // 1128 == 232


def test_csv_is_the_same_at_every_worker_and_cpu_count(monkeypatch):
    # a small budget gives several blocks on both sides of BATCH_MAX_N; up
    # to 64 vertices the seeds run in one span, beyond it in
    # min(workers, CPUs, blocks) spans, so 1000 workers start no more
    # threads than there are CPUs
    monkeypatch.setattr(graphs, "BATCH_BYTES", 500)
    trials = 12
    assert len(distributions._latent_rows(erdos_renyi(10, 0.1), trials)) < trials
    assert len(distributions._latent_rows(erdos_renyi(66, 0.1), trials)) == 1
    spans = []          # per grid point, the spans drawn (one _latent_blocks each)
    latent_blocks = distributions._latent_blocks
    monkeypatch.setattr(distributions, "_latent_blocks",
                        lambda *args: spans.append(args[2]) or latent_blocks(*args))
    csvs = set()
    for workers, cpus in itertools.product((1, 2, 3, 1000), (1, 2, 3)):
        monkeypatch.setattr(distributions, "_cpus", lambda: cpus)
        config = ExperimentConfig(kind="er", ns=(10, 66), ps=(0.1, 0.3),
                                  trials=trials, seed=3, workers=workers)
        spans.clear()
        csvs.add(run_experiment(config).to_csv())
        count = min(workers, cpus)      # 12 trials split evenly
        assert spans == [trials] * 2 + [trials // count] * 2 * count, (workers, cpus)
    assert len(csvs) == 1


@pytest.mark.parametrize("model", [
    erdos_renyi(7, 0.5), erdos_renyi(10, 0.3), correlated_star(40, 0.3, 3),
    edge_block_exact(16, 2, 5), erdos_renyi(64, 0.5)],
    ids=["er-7", "er-10", "star-40", "edge-block-16", "er-64"])
def test_rows_of_a_block_are_its_gather_chunks_rows_stacked(model, monkeypatch):
    # up to 64 vertices _rows gathers a bool per row bit, a chunk of trials
    # at a time; at the default budget the 40 trials are one chunk
    (values,) = _latent_blocks(model, rng.generator(3), 40)
    want = _rows(model, values)
    monkeypatch.setattr(graphs, "BATCH_BYTES", 500)
    step = graphs.batch_size(8 * graphs.row_bytes(model.n))
    assert step < 40
    chunks = [_rows(model, values[i:i + step]) for i in range(0, 40, step)]
    assert np.array_equal(np.concatenate(chunks), want)
    assert np.array_equal(_rows(model, values), want)
