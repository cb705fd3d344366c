"""Experiment harness: grids, tasks, determinism, serialization."""

import csv
import io
import json
from fractions import Fraction

import pytest

from depgraphs import distributions, graphs, harness, rng
from depgraphs.graphs import BATCH_MAX_N
from depgraphs.harness import (CSV_COLUMNS, ExperimentConfig,
                               ExperimentResult, check_monotone_trend,
                               run_experiment)
from depgraphs.oracle import er_connectivity_probability
from depgraphs.predicates import Predicate
from depgraphs.rng import derive_seed
from depgraphs.stats import wilson_interval


def cfg(**kw):
    base = dict(task="probability", kind="er", ns=(10,), ps=(0.5,),
                trials=50, seed=0)
    base.update(kw)
    return ExperimentConfig(**base)


# -- tasks -------------------------------------------------------------

# what each task's check needs beyond cfg's er grid at n = 8
TASK_SETTINGS = {"sweep": dict(ps=(0.2, 0.5)), "witness": dict(kind="star", ds=(2,)),
                 "containment": dict(pattern="k3")}


@pytest.mark.parametrize("name", sorted(harness.TASKS))
def test_every_task_trial_is_a_predicate(name):
    # one functional type: every trial the harness runs is a Predicate
    task = harness.TASKS[name]
    config = cfg(task=name, ns=(8,), **TASK_SETTINGS.get(name, {}))
    pattern = task.check(config) if task.check else None
    model = distributions.build(**config.grid_points()[0])
    assert isinstance(task.trial(model, config, pattern), Predicate)


# -- config ------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        cfg(task="nosuch")
    with pytest.raises(ValueError):
        cfg(trials=0)
    with pytest.raises(ValueError):
        cfg(workers=0)
    with pytest.raises(ValueError):
        cfg(ns=())
    with pytest.raises(ValueError):
        cfg(ps=())
    # edge-block grids do not need ps but need a and m
    ExperimentConfig(task="probability", kind="edge-block", ns=(4,),
                     a=1, m=2)
    with pytest.raises(ValueError):
        ExperimentConfig(task="probability", kind="edge-block", ns=(4,))


def test_edge_block_grid_refuses_a_p_grid():
    # p = a/m is implied, so a given p would be echoed but never used
    with pytest.raises(ValueError, match="take no p"):
        ExperimentConfig(task="probability", kind="edge-block", ns=(9,),
                         ps=(0.5,), a=1, m=3)


def test_grid_points_cross_product():
    c = cfg(ns=(5, 10), ps=(0.1, 0.2), ds=(0, 1))
    pts = c.grid_points()
    assert len(pts) == 8
    assert pts[0] == {"kind": "erdos-renyi", "n": 5, "p": 0.1, "d": 0,
                      "a": None, "m": None}
    # nesting order: n outermost, then p, then d
    assert [pt["d"] for pt in pts[:2]] == [0, 1]


def test_grid_points_edge_block():
    c = ExperimentConfig(task="probability", kind="edge-block", ns=(4, 10),
                         a=1, m=3)
    pts = c.grid_points()
    assert len(pts) == 2
    model = distributions.build(**pts[0])
    assert model.p == Fraction(1, 3) and model.d == 2


def from_ini(text):
    return ExperimentConfig.from_settings(harness.ini_settings(text))


def test_from_ini_roundtrip():
    text = """
[experiment]
task = sweep
kind = er
n = 20, 30,
p = 0.05, 0.1, 1/5
trials = 40
seed = 9
workers = 2
predicate = connected
"""
    c = from_ini(text)
    assert c.task == "sweep" and c.ns == (20, 30)
    assert c.ps == (0.05, 0.1, Fraction(1, 5))
    assert c.trials == 40 and c.seed == 9 and c.workers == 2


def test_from_ini_errors():
    with pytest.raises(ValueError, match="section"):
        from_ini("[other]\nn = 5\n")
    with pytest.raises(ValueError):
        from_ini("not an ini [")
    with pytest.raises(ValueError, match="bad trials 'x'"):
        from_ini("[experiment]\nn = 5\np = 0.5\ntrials = x\n")


def test_unknown_setting_names_the_key_and_the_table():
    with pytest.raises(ValueError) as info:
        from_ini("[experiment]\nn = 5\np = 0.5\ntrails = 1000\n")
    assert "'trails'" in str(info.value)
    assert ", ".join(harness.SETTINGS) in str(info.value)


def test_echo_keys_are_the_settings_in_order():
    c = cfg(workers=3)
    assert list(c.echo()) == list(harness.SETTINGS)
    assert list(c.echo(include_workers=False)) == [
        key for key in harness.SETTINGS if key != "workers"]


# -- execution ---------------------------------------------------------

def test_probability_matches_oracle():
    # seed pinned to a covering draw; at 99% roughly one seed in a
    # hundred lands outside, which is expected, not a defect
    c = cfg(ns=(4,), ps=(Fraction(1, 2),), trials=4000, seed=1)
    result = run_experiment(c)
    (pt,) = result.points
    exact = float(er_connectivity_probability(4, Fraction(1, 2)))
    assert pt.ci_low <= exact <= pt.ci_high
    assert pt.successes is not None and pt.error is None


def test_estimate_is_successes_over_trials():
    result = run_experiment(cfg(trials=64, seed=3))
    (pt,) = result.points
    assert pt.estimate == pt.successes / 64
    lo, hi = wilson_interval(pt.successes, 64)
    assert (pt.ci_low, pt.ci_high) == (lo, hi)


def test_error_rows_do_not_kill_run():
    # d+1 = 3 is not a perfect square: that point errors, others proceed
    c = cfg(kind="gadget", ns=(60,), ps=(0.1,), ds=(2, 3), trials=10)
    result = run_experiment(c)
    assert len(result.points) == 2
    assert result.points[0].error is not None
    assert result.points[1].error is None
    assert not result.all_failed()


def test_an_er_point_with_d_fails_and_leaves_the_others_alone():
    both = run_experiment(cfg(kind="er", ns=(8,), ps=(0.5,), ds=(0, 3), trials=40))
    alone = run_experiment(cfg(kind="er", ns=(8,), ps=(0.5,), ds=(0,), trials=40))
    assert both.points[1].error == "erdos-renyi models have d = 0, not d = 3"
    assert both.to_csv().splitlines()[4] == alone.to_csv().splitlines()[4]
    assert both.points[0].successes == alone.points[0].successes is not None


# grids on both sides of BATCH_MAX_N, each packed into blocks of rows
# (distributions._rows), of two words a row above it
PATH_NS = ((8, 10), (65, 66))


def _failing_trial(monkeypatch, exc, c, point, trial):
    # the draw raises exc at the seed of one trial of one grid point
    # (rng.seeded); returns the words per row of the blocks packed.  Two
    # CPUs and a small budget split the points above BATCH_MAX_N into
    # several blocks, drawn in two threads when workers is 2.
    bad_seed = derive_seed(c.seed, point, trial)
    real_seeded, real_rows = rng.seeded, distributions._rows
    calls = {"width": set()}

    def seeded(seed):
        if seed == bad_seed:
            raise exc
        return real_seeded(seed)

    def rows(model, values):
        out = real_rows(model, values)
        calls["width"].add(out.shape[2])
        return out
    monkeypatch.setattr(rng, "seeded", seeded)
    monkeypatch.setattr(distributions, "_rows", rows)
    monkeypatch.setattr(distributions, "_cpus", lambda: 2)
    monkeypatch.setattr(graphs, "BATCH_BYTES", 20000)
    return calls


def _path_calls(ns, calls):
    # the blocks' rows took more than one word exactly above BATCH_MAX_N
    return calls["width"] == {2 if max(ns) > BATCH_MAX_N else 1}


@pytest.mark.parametrize("workers", [1, 2])
def test_unexpected_trial_error_kills_run(monkeypatch, workers):
    for ns in PATH_NS:
        c = cfg(ns=ns, trials=40, workers=workers)
        with monkeypatch.context() as mp:
            calls = _failing_trial(mp, RuntimeError("trial broke"), c, 1, 17)
            with pytest.raises(RuntimeError, match="trial broke"):
                run_experiment(c)
        assert _path_calls(ns, calls), (ns, calls)


@pytest.mark.parametrize("workers", [1, 2])
def test_value_error_in_trial_is_point_error(monkeypatch, workers):
    for ns in PATH_NS:
        c = cfg(ns=ns, trials=40, workers=workers)
        with monkeypatch.context() as mp:
            calls = _failing_trial(mp, ValueError("bad trial"), c, 0, 17)
            result = run_experiment(c)
        assert [pt.error for pt in result.points] == ["bad trial", None]
        assert result.points[1].successes is not None
        assert _path_calls(ns, calls), (ns, calls)


def test_all_failed():
    c = cfg(kind="gadget", ns=(60,), ps=(0.1,), ds=(2,), trials=10)
    result = run_experiment(c)
    assert result.all_failed()


def test_sweep_annotates_thresholds():
    c = cfg(task="sweep", ns=(30,), ps=(0.05, 0.1, 0.2, 0.3), trials=60,
            seed=2)
    result = run_experiment(c)
    for pt in result.points:
        assert pt.theory_low is not None and pt.theory_high is not None
        assert pt.theory_low < pt.theory_high
    assert check_monotone_trend(result)


def test_sweep_rejects_unsorted_p():
    with pytest.raises(ValueError, match="increasing"):
        run_experiment(cfg(task="sweep", ps=(0.2, 0.1)))


def test_sweep_rejects_edge_block():
    with pytest.raises(ValueError):
        run_experiment(ExperimentConfig(task="sweep", kind="edge-block",
                                        ns=(4,), a=1, m=2))


def test_degree_violation_annotations():
    import math
    n = 100
    p = 2 * math.log(n) / n
    c = cfg(task="degree-violation", ns=(n,), ps=(p,), trials=50, seed=5)
    result = run_experiment(c)
    (pt,) = result.points
    assert pt.hypothesis is True
    assert pt.theory_low < n * p < pt.theory_high
    assert pt.estimate <= 0.1


def test_witness_requires_star():
    with pytest.raises(ValueError):
        run_experiment(cfg(task="witness"))


def test_witness_small_scale():
    c = cfg(task="witness", kind="star", ns=(200,), ps=(0.25,), ds=(7,),
            trials=40, seed=11)
    result = run_experiment(c)
    (pt,) = result.points
    assert pt.error is None
    assert pt.theory_value > 0
    assert pt.successes is not None


def test_containment_needs_pattern():
    with pytest.raises(ValueError):
        run_experiment(cfg(task="containment"))


def test_containment_annotations():
    c = cfg(task="containment", ns=(100,), ps=(0.5,), trials=30, seed=7,
            pattern="k3")
    result = run_experiment(c)
    (pt,) = result.points
    assert pt.params["pattern"] == "k3"
    assert pt.theory_value == 1.0      # 10 Phi clamped; vacuous at n=100
    assert pt.hypothesis is True
    assert pt.estimate == 0.0          # triangles everywhere at p = 1/2


def test_a_custom_blocks_row_reports_and_uses_its_models_d():
    # the largest block has 4 edges, so d = 3 whatever the grid's d, and
    # the containment hypothesis is read at that d
    c = cfg(task="containment", kind="custom", ns=(10,), ps=(0.4,),
            blocks="0 1 2; 3 4 5 6", trials=20, seed=19, pattern="c5")
    (pt,) = run_experiment(c).points
    assert (pt.params["d"], pt.hypothesis) == (3, False)
    assert pt.hypothesis == harness.bounds.containment_hypothesis(
        graphs.named_pattern("c5"), 10, 3)


@pytest.mark.parametrize("kind, settings", [
    ("er", dict(a=3)), ("star", dict(m=3)), ("gadget", dict(blocks="0 1")),
    ("custom", dict(a=2, m=3)), ("edge-block", dict(blocks="0 1")),
])
def test_a_setting_the_kind_does_not_take_is_refused(kind, settings):
    key = next(iter(settings))
    canonical = distributions._canonical_kind(kind)
    with pytest.raises(ValueError, match=f"^{canonical} grids take no {key}$"):
        cfg(kind=kind, **settings)


def test_clique_statistic_mode():
    c = cfg(task="clique", kind="star", ns=(30,), ps=(0.25,), ds=(1,),
            trials=30, seed=1)
    result = run_experiment(c)
    (pt,) = result.points
    assert pt.successes is None
    assert 1 <= pt.stat_min <= pt.stat_mean <= pt.stat_max <= 30
    # window (c1 base, c2 (d+1) base) is strict once d >= 1
    assert pt.theory_low < pt.theory_high


def test_clique_size_gate():
    c = cfg(task="clique", ns=(61,), ps=(0.25,), trials=5)
    result = run_experiment(c)
    assert result.points[0].error is not None
    assert "61" in result.points[0].error
    # connectivity-gadget with d = 2 fails to build (3 is not a square); the
    # size gate runs before the model is built, so it reports first
    c = cfg(task="clique", kind="gadget", ns=(61, 30), ps=(0.25,), ds=(2,),
            trials=5)
    result = run_experiment(c)
    assert result.points[0].error == "n=61 exceeds the exact clique search limit 60"
    assert "perfect square" in result.points[1].error


@pytest.mark.parametrize("config, match", [
    (cfg(task="sweep", ps=(0.2, 0.1)), "increasing"),
    (ExperimentConfig(task="sweep", kind="edge-block", ns=(4,), a=1, m=2),
     "edge-block"),
    (cfg(task="witness"), "correlated-star"),
    (cfg(task="containment"), "needs a pattern"),
    (cfg(task="containment", pattern=""), "needs a pattern"),
    (cfg(task="containment", pattern="no-such-pattern"), "unknown pattern"),
])
def test_run_level_errors_raise_before_any_point(monkeypatch, config, match):
    def no_model(*args, **kwargs):
        raise AssertionError("a grid point ran")
    monkeypatch.setattr(harness, "build", no_model)
    with pytest.raises(ValueError, match=match):
        run_experiment(config)


@pytest.mark.parametrize("task", ["probability", "sweep", "degree-violation",
                                  "witness", "clique"])
def test_pattern_is_ignored_outside_containment(monkeypatch, task):
    # a pattern the task would never look for is refused when the config
    # is built, so no provenance names it
    def no_resolve(spec):
        raise AssertionError(f"pattern {spec!r} resolved")
    monkeypatch.setattr(harness.predicates, "resolve_pattern", no_resolve)
    with pytest.raises(ValueError, match=f"task {task} takes no pattern"):
        cfg(task=task, kind="star", ns=(10,), ps=(0.3,), ds=(1,), trials=10,
            pattern="no-such-pattern")


# -- determinism -------------------------------------------------------

def test_worker_count_invariance():
    base = dict(task="probability", kind="star", ns=(15, 20), ps=(0.2, 0.4),
                ds=(2,), trials=70, seed=99)
    one = run_experiment(ExperimentConfig(workers=1, **base))
    four = run_experiment(ExperimentConfig(workers=4, **base))
    assert one.to_csv() == four.to_csv()


def test_repeat_run_identical():
    c = cfg(trials=80, seed=5)
    assert run_experiment(c).to_csv() == run_experiment(c).to_csv()


def test_trial_reuse_across_grid_points_disjoint():
    # two points with identical params but different indices must not
    # share randomness
    c = cfg(ns=(12,), ps=(0.3, 0.3000001), trials=50, seed=4)
    result = run_experiment(c)
    a, b = result.points
    assert a.successes != b.successes or a.index != b.index


# -- serialization -----------------------------------------------------

def test_csv_schema_and_provenance():
    result = run_experiment(cfg(trials=20, seed=42))
    text = result.to_csv()
    lines = text.splitlines()
    assert lines[0] == "# depgraphs-experiment v1"
    assert lines[1] == "# seed: 42"
    assert lines[2].startswith("# config: {")
    rows = list(csv.reader(io.StringIO("\n".join(lines[3:]))))
    assert tuple(rows[0]) == CSV_COLUMNS
    assert len(rows) == 2
    # worker count must not leak into the deterministic output
    assert "workers" not in lines[2]


def test_csv_rational_p_preserved():
    c = ExperimentConfig(task="probability", kind="edge-block", ns=(4,),
                         a=1, m=3, trials=10)
    text = run_experiment(c).to_csv()
    assert ",1/3," in text


def test_json_provenance_complete():
    result = run_experiment(cfg(trials=20, seed=42, workers=2))
    doc = json.loads(result.to_json())
    assert doc["format"] == "depgraphs-experiment"
    assert doc["seed"] == 42
    assert doc["config"]["workers"] == 2
    assert doc["config"]["trials"] == 20
    assert len(doc["points"]) == 1
    pt = doc["points"][0]
    assert pt["trials"] == 20
    assert "duration_s" in pt


def test_error_row_serializes():
    c = cfg(kind="gadget", ns=(60,), ps=(0.1,), ds=(2,), trials=5)
    text = run_experiment(c).to_csv()
    last = text.splitlines()[-1]
    assert "perfect square" in last


# -- trend check -------------------------------------------------------

def test_monotone_trend_flags_real_drop():
    result = ExperimentResult(task="sweep", seed=0, config=cfg(task="sweep"))
    from depgraphs.harness import PointResult
    mk = lambda i, est: PointResult(
        index=i, params={"kind": "erdos-renyi", "n": 50, "d": 0, "p": 0.1 * i},
        trials=10000, estimate=est, successes=int(est * 10000))
    result.points = [mk(1, 0.2), mk(2, 0.9), mk(3, 0.1)]
    assert not check_monotone_trend(result)
    result.points = [mk(1, 0.2), mk(2, 0.21), mk(3, 0.9)]
    assert check_monotone_trend(result)
    # a failed point is skipped, whatever estimate it carries
    failed = mk(2, 0.0)
    failed.error = "point failed"
    result.points = [mk(1, 0.2), failed, mk(3, 0.9)]
    assert check_monotone_trend(result)


def test_monotone_trend_tolerates_noise_dips():
    from depgraphs.harness import PointResult
    result = ExperimentResult(task="sweep", seed=0, config=cfg(task="sweep"))
    mk = lambda i, est, t: PointResult(
        index=i, params={"kind": "erdos-renyi", "n": 50, "d": 0, "p": 0.1 * i},
        trials=t, estimate=est, successes=int(est * t))
    # 0.50 -> 0.44 on 100 trials is within 3 pooled sigmas
    result.points = [mk(1, 0.50, 100), mk(2, 0.44, 100)]
    assert check_monotone_trend(result)
