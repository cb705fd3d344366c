"""Tests of the benchmark itself: names, self-time arithmetic, wrapping,
traced/untraced equality, pinned digests and seeded inputs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import hashlib
import inspect
import json
import re
import sys
import threading
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import depgraphs as dg  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _snapshot(package) -> dict:
    """Every attribute of the package's modules and wrapped classes."""
    owners = spans._public_modules(package) + [package.graphs.Graph,
                                               package.predicates.Predicate]
    return {(id(o), k): v for o in owners for k, v in dict(vars(o)).items()}


def _traced_run(recorder, fn):
    inst = spans.install(dg, recorder)
    try:
        return fn()
    finally:
        inst.restore()


def test_metric_names_are_well_formed_and_match_the_run():
    bench = _bench()
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in bench[key]]
    names += [w["name"] for w in bench["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))

    recorder = spans.Recorder()
    recorder.open("harness.run_experiment")
    recorder.close(0)
    fake = wl.Pass()
    fake.wall = 1.0
    layer = run._per_layer(recorder, [fake], [fake])
    assert set(layer) == {m["name"] for m in bench["per_layer"]}
    e2e = {m["name"] for m in bench["end_to_end"]}
    fake.parts = {"trials_per_s": [10, 1.0, 1.0], "trials_per_s_par": [10, 2.0, 2.0]}
    fake.refs = [wl.REFERENCE_S]
    metrics, _ = run._end_to_end(run.WORKLOADS["mc-small"], [0.5], [0.5], [fake])
    assert set(metrics) == e2e


def test_self_times_on_a_synthetic_tree():
    # root [0,10] with children [1,3] and [2,6] (overlapping, two threads) and
    # [8,9]; the [2,6] child has a grandchild [3,4]
    tree = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 3.0, 0, 0),
        ("b", 2.0, 6.0, 0, 0),
        ("c", 3.0, 4.0, 2, 0),
        ("d", 8.0, 9.0, 0, 0),
    ]
    own = spans.self_times(tree)
    assert own == [10.0 - (5.0 + 1.0), 2.0, 3.0, 1.0, 1.0]


def test_recorder_parents_worker_spans_under_the_open_main_span():
    recorder = spans.Recorder()
    outer = recorder.open("outer")
    seen = []

    def worker():
        sid = recorder.open("inner")
        recorder.close(sid)
        seen.append(sid)

    t = threading.Thread(target=worker)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive()
    recorder.close(outer)
    names = {s[0]: s for s in recorder.spans()}
    assert names["inner"][3] == outer
    assert names["outer"][3] == -1


def test_install_wraps_every_alias_and_restore_puts_originals_back():
    before = _snapshot(dg)
    original_sample = dg.distributions.sample
    recorder = spans.Recorder()
    inst = spans.install(dg, recorder)
    try:
        assert dg.harness.sample is dg.distributions.sample is dg.sample
        assert dg.sample is not original_sample
        assert dg.graphs.Graph.__dict__["from_edge_indices"] is not before[
            (id(dg.graphs.Graph), "from_edge_indices")]
    finally:
        inst.restore()
    after = _snapshot(dg)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_missing_layers_read_zero_calls():
    # a package that lost every layer still installs, and reports zeros
    empty = types.ModuleType("depgraphs_stub")
    for mod in ("rng", "distributions", "graphs", "predicates", "harness",
                "oracle", "bounds", "stats"):
        setattr(empty, mod, types.ModuleType(f"depgraphs_stub.{mod}"))
    recorder = spans.Recorder()
    spans.install(empty, recorder).restore()
    fake = wl.Pass()
    fake.wall = 1.0
    layer = run._per_layer(recorder, [fake], [fake])
    assert layer["graphs.from_edge_indices.calls"]["value"] == 0


def test_traced_and_untraced_csvs_are_equal_on_a_tiny_config():
    config = dg.ExperimentConfig(task="probability", kind="star", ns=(12, 16),
                                 ps=(0.3,), ds=(2,), trials=30, seed=5,
                                 workers=2, predicate="contains:k3")
    plain = dg.run_experiment(config).to_csv()
    recorder = spans.Recorder()
    traced = _traced_run(recorder, lambda: dg.harness.run_experiment(config).to_csv())
    assert traced == plain
    totals = {}
    for span in recorder.spans():
        totals[span[0]] = totals.get(span[0], 0) + 1
    assert totals["distributions.sample"] == 60
    assert totals["harness.run_experiment"] == 1
    assert recorder.counts["harness.run_experiment.trials"] == 60


def test_default_seed_reproduces_the_pinned_digests():
    for name in ("mc-large", "mc-small"):
        for label, cfg in wl.mc_inputs(name, wl.DEFAULT_SEED)["configs"]:
            csv = dg.run_experiment(dg.ExperimentConfig(workers=1, **cfg)).to_csv()
            digest = hashlib.sha256(csv.encode()).hexdigest()
            assert digest == wl.PINNED_CSV[name][label], (name, label)


def test_seed_changes_the_inputs_and_repeats_them():
    for name, spec in run.WORKLOADS.items():
        assert repr(spec.inputs(7)) == repr(spec.inputs(7)), name
        assert repr(spec.inputs(7)) != repr(spec.inputs(8)), name


def test_gadget_p_is_half_the_example_threshold():
    (_, _, (_, gadget)) = wl.mc_inputs("mc-large", 1)["configs"]
    want = 0.5 * dg.connectivity_example_threshold(2000, 15, 0.1)
    assert abs(gadget["ps"][0] - want) <= 1e-15 * want


def test_outcome_counts_match_the_oracle():
    cases = [(dg.erdos_renyi(6, 0.5), wl._bernoulli_outcomes("er", 6, 0)),
             (dg.correlated_star(7, 0.3, 2), wl._bernoulli_outcomes("star", 7, 2)),
             (dg.edge_block_exact(7, 2, 3), wl._edge_block_outcomes(7, 2, 3))]
    for model, count in cases:
        assert dg.oracle.state_space_size(model) == count


def test_catch_all_layers_cover_public_functions_only():
    targets = spans._targets(dg)
    names = {(o.__name__, a) for o, a, s in targets if s == "bounds.other"}
    assert ("depgraphs.bounds", "phi_functional") not in names
    assert ("depgraphs.bounds", "degree_interval") in names
    assert all(not a.startswith("_") for _, a in names)
    assert all(inspect.isfunction(getattr(dg.bounds, a)) for _, a in names)
