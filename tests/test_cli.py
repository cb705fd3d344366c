"""End-to-end command-line behavior, including exit codes and provenance."""

import csv
import json
import shlex
import time
from fractions import Fraction
from pathlib import Path

import pytest

from depgraphs import bounds, cli, harness
from depgraphs.distributions import (KINDS, AuditReport, edge_block_exact,
                                     to_descriptor)
from depgraphs.graphs import from_edge_list, named_pattern
from depgraphs.predicates import FORMS, form_syntax

from helpers import example_predicate


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- sample ------------------------------------------------------------

def test_sample_deterministic(capsys):
    c1, out1, _ = run(capsys, "sample", "--dist", "er", "--n", "10",
                      "--p", "0.5", "--seed", "7")
    c2, out2, _ = run(capsys, "sample", "--dist", "er", "--n", "10",
                      "--p", "0.5", "--seed", "7")
    assert c1 == c2 == 0
    assert out1 == out2
    assert "# seed: 7" in out1
    assert "# model: kind=erdos-renyi n=10 p=0.5 d=0" in out1


def test_sample_output_parses_back(capsys, tmp_path):
    path = tmp_path / "g.edges"
    code, _, _ = run(capsys, "sample", "--dist", "star", "--n", "8",
                     "--p", "1/2", "--d", "2", "--seed", "3",
                     "--output", str(path))
    assert code == 0
    g = from_edge_list(path.read_text())
    assert g.n == 8


def test_sample_edge_block_count(capsys):
    code, out, _ = run(capsys, "sample", "--dist", "edge-block", "--n", "4",
                       "--a", "1", "--m", "2", "--seed", "0")
    assert code == 0
    g = from_edge_list(out)
    assert g.edge_count() == 3


def test_sample_invalid_p_exits_1(capsys):
    code, _, err = run(capsys, "sample", "--dist", "er", "--n", "3",
                       "--p", "1.5")
    assert code == 1
    assert "1.5" in err


def test_sample_requires_model(capsys):
    code, _, err = run(capsys, "sample", "--n", "5", "--p", "0.5")
    assert code == 1
    assert "--dist" in err or "--model" in err


def test_sample_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("DEPGRAPHS_SEED", "55")
    _, out_env, _ = run(capsys, "sample", "--dist", "er", "--n", "6",
                        "--p", "0.4")
    monkeypatch.delenv("DEPGRAPHS_SEED")
    _, out_flag, _ = run(capsys, "sample", "--dist", "er", "--n", "6",
                         "--p", "0.4", "--seed", "55")
    assert out_env == out_flag
    assert "# seed: 55" in out_env


def test_sample_from_descriptor_file(capsys, tmp_path):
    path = tmp_path / "model.ini"
    path.write_text(to_descriptor(edge_block_exact(4, 1, 2)))
    code, out, _ = run(capsys, "sample", "--model", str(path), "--seed", "1")
    assert code == 0
    assert from_edge_list(out).edge_count() == 3


def test_missing_model_file(capsys, tmp_path):
    code, _, err = run(capsys, "sample", "--model", str(tmp_path / "nope"))
    assert code == 1


def test_descriptor_missing_a_key_exits_1(capsys, tmp_path):
    path = tmp_path / "model.ini"
    path.write_text("[model]\nkind = er\nn = 5\n")
    code, out, err = run(capsys, "sample", "--model", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "missing key 'p'" in err
    assert "Traceback" not in err


def test_sample_refuses_a_setting_its_kind_fixes(capsys):
    code, out, err = run(capsys, "sample", "--dist", "edge-block", "--n", "4",
                         "--p", "0.9", "--a", "1", "--m", "2")
    assert (code, out) == (1, "")
    assert err == "error: edge-block-exact models have p = 1/2, not p = 0.9\n"
    code, out, err = run(capsys, "sample", "--dist", "er", "--n", "8",
                         "--p", "0.5", "--d", "3")
    assert (code, out) == (1, "")
    assert err == "error: erdos-renyi models have d = 0, not d = 3\n"
    code, _, _ = run(capsys, "sample", "--dist", "edge-block", "--n", "4",
                     "--p", "1/2", "--a", "1", "--m", "2", "--seed", "1")
    assert code == 0


@pytest.mark.parametrize("argv, message", [
    (("sample", "--dist", "er", "--n", "4", "--p", "0.5", "--a", "3", "--m", "7",
      "--blocks", "0 1", "--seed", "1"), "erdos-renyi models take no a"),
    (("experiment", "--dist", "star", "--n", "6", "--p", "0.5", "--d", "1",
      "--a", "2", "--m", "3", "--blocks", "0 1", "--trials", "3", "--seed", "1"),
     "correlated-star grids take no a"),
], ids=["sample", "experiment"])
def test_a_setting_the_kind_does_not_take_is_refused(capsys, argv, message):
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


# a value for each kind setting, each a --dist model flag of its own name
KIND_SETTING_FLAGS = {"p": "1/2", "d": "3", "a": "1", "m": "3", "blocks": "0 1 2; 3 4"}


def test_every_kind_alias_samples_through_the_command_line(capsys):
    for canonical, kind in KINDS.items():
        argv = [f"--{key}={KIND_SETTING_FLAGS[key]}" for key in kind.settings]
        code, out, err = run(capsys, "sample", "--dist", kind.alias, "--n", "60",
                             *argv, "--seed", "2")
        assert code == 0, (kind.alias, err)
        assert f"# model: kind={canonical} n=60 " in out


def test_a_given_d_other_than_the_models_is_refused(capsys, tmp_path):
    code, out, err = run(capsys, "sample", "--dist", "edge-block", "--n", "9",
                         "--a", "1", "--m", "3", "--d", "5", "--seed", "1")
    assert (code, out, err) == (1, "", "error: edge-block-exact models have "
                                       "d = 2, not d = 5\n")
    custom = ["--dist", "custom", "--n", "4", "--p", "0.5", "--blocks", "0 1 2"]
    code, out, err = run(capsys, "oracle", *custom, "--d", "7",
                         "--predicate", "connected")
    assert (code, out, err) == (1, "", "error: custom-blocks models have "
                                       "d = 2, not d = 7\n")
    # the model's own d, or none, is accepted, from flags and descriptors
    for argv in (["--d", "2"], []):
        code, out, _ = run(capsys, "sample", *custom, *argv, "--seed", "1")
        assert code == 0 and "# model: kind=custom-blocks n=4 p=0.5 d=2\n" in out
    code, out, _ = run(capsys, "sample", "--dist", "star", "--n", "5", "--p", "0.5")
    assert code == 0 and "# model: kind=correlated-star n=5 p=0.5 d=0\n" in out
    path = tmp_path / "custom.ini"
    path.write_text("[model]\nkind = custom\nn = 4\np = 1/2\nblocks = 0 1 2\n")
    code, out, _ = run(capsys, "sample", "--model", str(path), "--seed", "1")
    assert code == 0 and "d=2" in out


def test_every_predicate_form_runs_through_the_command_line(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    code, help_text, _ = run(capsys, "oracle", "--help")
    assert code == 0
    model = ["--dist", "star", "--n", "6", "--p", "1/2", "--d", "1"]
    for form in FORMS:
        assert f"`{form_syntax(form)}`" in readme, form
        assert form_syntax(form) in help_text, form
        text = example_predicate(form)
        code, out, err = run(capsys, "oracle", *model, "--predicate", text)
        assert code == 0 and "\n# predicate: " in out, (text, err)
        code, out, err = run(capsys, "experiment", *model, "--trials", "5",
                             "--seed", "1", "--predicate", text)
        assert code == 0 and err == "", (text, err)
        assert out.splitlines()[-1].split(",")[10:12] != ["", ""], text


# -- bounds ------------------------------------------------------------

def test_bounds_phi_matches_library(capsys):
    code, out, _ = run(capsys, "bounds", "phi", "--pattern", "k3",
                       "--n", "100", "--p", "0.5", "--d", "0")
    assert code == 0
    rows = [ln for ln in out.splitlines() if ln.startswith("phi,")]
    value = float(rows[0].split(",")[2])
    assert value == bounds.phi_functional(named_pattern("k3"), 100, 0.5, 0)


def test_bounds_degree_interval_p_zero(capsys):
    code, out, _ = run(capsys, "bounds", "degree-interval", "--n", "2",
                       "--p", "0", "--d", "0")
    assert code == 0
    low = [ln for ln in out.splitlines() if ".low" in ln][0]
    high = [ln for ln in out.splitlines() if ".high" in ln][0]
    assert float(low.split(",")[2]) == 0.0
    assert float(high.split(",")[2]) == 0.0


def test_bounds_unknown_name_lists_options(capsys):
    code, _, err = run(capsys, "bounds", "nosuch", "--n", "10")
    assert code == 1
    assert "degree-interval" in err


def test_bounds_json_format(capsys):
    code, out, _ = run(capsys, "bounds", "janson-bernstein", "--mu", "100",
                       "--t", "50", "--d", "0", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc[0]["name"] == "janson-bernstein"
    assert doc[0]["value"] == bounds.janson_bernstein(100, 50, 0)
    assert doc[0]["vacuous"] is False


# every bounds flag, with a value off its default, under a bound that echoes it
BOUND_FLAG_RUNS = [
    ("janson-bernstein", {"mu": "90.5", "t": "40.25", "d": "2"}),
    ("jumbledness-deviation", {"a": "3", "b": "4", "n": "20", "d": "1", "C": "12.5"}),
    ("witness-floor", {"s": "5", "b": "6", "n": "30", "d": "2"}),
    ("connectivity-threshold", {"n": "50", "d": "3", "fval": "0.75"}),
    ("example-threshold", {"n": "60", "d": "1", "eps": "0.2"}),
    ("clique-bounds", {"n": "40", "d": "2", "c1": "1.5", "c2": "2.5", "slack": "8.0"}),
]


def test_bounds_flags_reach_the_evaluated_inputs(capsys):
    assert set().union(*(flags for _, flags in BOUND_FLAG_RUNS)) == set(cli.BOUND_FLAGS)
    for name, flags in BOUND_FLAG_RUNS:
        argv = [f"--{key}={text}" for key, text in flags.items()]
        code, out, err = run(capsys, "bounds", name, "--p", "1/4", *argv,
                             "--format", "json")
        assert code == 0, (name, err)
        inputs = json.loads(out)[0]["inputs"]
        for key, text in flags.items():
            value = cli.BOUND_FLAGS[key](text)
            assert inputs[key] == value and type(inputs[key]) is type(value), (name, key)


# a flag value for each parameter of the bounds
BOUND_PARAMETER_FLAGS = {"mu": "100", "t": "50", "d": "2", "n": "500", "p": "1/5",
                         "a": "5", "b": "7", "s": "3", "C": "12.5", "fval": "0.5",
                         "eps": "0.2", "c1": "1.5", "c2": "2.5", "slack": "8",
                         "pattern": "k3"}


def test_every_bound_evaluates_through_the_command_line(capsys):
    for name, bound in bounds.BOUNDS.items():
        argv = [f"--{key}={BOUND_PARAMETER_FLAGS[key]}" for key in bound.parameters]
        code, out, err = run(capsys, "bounds", name, *argv, "--format", "json")
        assert code == 0, (name, err)
        for report in json.loads(out):
            assert list(report["inputs"]) == list(bound.parameters), name
            assert report["inputs"].get("pattern", "k3") == "k3"


def test_bounds_resource_limit_exit_2(capsys):
    code, _, err = run(capsys, "bounds", "phi", "--pattern", "k8",
                       "--n", "100", "--p", "0.5", "--d", "0")
    assert code == 2
    assert "resource" in err.lower() or "2^" in err


@pytest.mark.parametrize("argv, message", [
    (("example-threshold", "--n", "10", "--d", "-1"), "d must be nonnegative"),
    (("phi", "--pattern", "k3", "--n", "10", "--p", "1e-200", "--d", "0"),
     "p ** 3 underflows to 0 in float64"),
    (("phi", "--n", "0", "--p", "0.3", "--d", "2", "--pattern", "k3"),
     "need n >= 1"),
    (("janson-bernstein", "--mu", "nan", "--t", "2", "--d", "2"), "mu must be finite"),
    (("clique-bounds", "--n", "50", "--p", "0.3", "--d", "2", "--c2", "nan"),
     "c2 must be finite"),
    (("jumbledness-deviation", "--a", "2", "--b", "2", "--n", "10", "--p", "0.3",
      "--d", "1", "--C", "inf"), "C must be finite"),
])
def test_bounds_bad_inputs_exit_1_with_one_error_line(capsys, argv, message):
    code, out, err = run(capsys, "bounds", *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_bounds_row_quotes_a_pattern_file_name_with_a_comma(capsys, tmp_path):
    path = tmp_path / 'tri,"a".edges'
    path.write_text("n 3\n0 1\n1 2\n0 2\n", encoding="utf-8")
    code, out, _ = run(capsys, "bounds", "phi", "--pattern", str(path),
                       "--n", "10", "--p", "0.5", "--d", "1")
    assert code == 0
    rows = list(csv.reader(out.splitlines()[1:]))
    assert [len(row) for row in rows] == [5, 5, 5]
    assert rows[1][1] == 'd=1;n=10;p=0.5;pattern=tri,"a".edges'


def test_bounds_prints_a_warning_as_one_line(capsys):
    code, out, err = run(capsys, "bounds", "jumbledness-deviation", "--a", "1",
                         "--b", "1", "--n", "10", "--p", "0.5", "--d", "0",
                         "--C", "1")
    assert err == ("warning: jumbledness constant C=1.0 below the proved "
                   "threshold 10\n")
    assert (code, out) == (0, "# depgraphs bounds\nname,params,value,vacuous,hypothesis\n"
                              "jumbledness-deviation,C=1.0;a=1;b=1;d=0;n=10;p=0.5,"
                              "2.23606797749979,,\n")


# -- experiment and sweep ----------------------------------------------

def test_experiment_csv_stdout(capsys):
    code, out, _ = run(capsys, "experiment", "--task", "probability",
                       "--kind", "er", "--n", "8", "--p", "0.4",
                       "--trials", "30", "--seed", "2")
    assert code == 0
    assert out.startswith("# depgraphs-experiment v1\n# seed: 2\n")
    assert "index,task,kind" in out


def test_experiment_file_plus_sidecar(capsys, tmp_path):
    path = tmp_path / "r.csv"
    code, _, _ = run(capsys, "experiment", "--task", "probability",
                     "--kind", "er", "--n", "8", "--p", "0.4",
                     "--trials", "30", "--seed", "2", "--output", str(path))
    assert code == 0
    assert path.exists()
    doc = json.loads((tmp_path / "r.csv.json").read_text())
    assert doc["seed"] == 2
    assert doc["config"]["trials"] == 30


def test_experiment_json_format_to_stdout_and_to_a_file(capsys, tmp_path):
    args = ("experiment", "--task", "probability", "--kind", "er", "--n", "8",
            "--p", "0.4", "--trials", "30", "--seed", "2", "--format", "json")
    code, out, err = run(capsys, *args)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["format"], doc["seed"], doc["config"]["trials"]) == (
        "depgraphs-experiment", 2, 30)
    path = tmp_path / "r.json"
    code, out, _ = run(capsys, *args, "--output", str(path))
    assert (code, out) == (0, "")
    # the same points, and no sidecar beside the document
    written = json.loads(path.read_text())
    assert ([pt["successes"] for pt in written["points"]]
            == [pt["successes"] for pt in doc["points"]])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json"]


def test_experiment_deterministic_bytes(capsys, tmp_path):
    args = ("experiment", "--task", "probability", "--kind", "star",
            "--n", "12,16", "--p", "0.3", "--d", "2", "--trials", "40",
            "--seed", "6")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args, "--workers", "3")
    assert out1 == out2


def test_experiment_config_file_with_override(capsys, tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text("[experiment]\ntask = probability\nkind = er\n"
                   "n = 8\np = 0.4\ntrials = 25\nseed = 3\n")
    code, out, _ = run(capsys, "experiment", "--config", str(ini),
                       "--trials", "31")
    assert code == 0
    assert '"trials":31' in out
    assert "# seed: 3" in out


def test_ini_file_and_flags_build_equal_configs(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text("[experiment]\ntask = containment\nkind = star\n"
                   "n = 10, 20,\np = 1/4 , 0.5,\nd = 1,2\ntrials = 25\n"
                   "seed = 3\nworkers = 2\npattern = k3\neps = 0.2\n")
    flags = ("--task", "containment", "--dist", "star", "--n", "10, 20,",
             "--p", "1/4 , 0.5,", "--d", "1,2", "--trials", "25", "--seed", "3",
             "--workers", "2", "--pattern", "k3", "--eps", "0.2")
    parser = cli.build_parser()
    from_file = cli._experiment_config(
        parser.parse_args(["experiment", "--config", str(ini)]), None)
    from_flags = cli._experiment_config(
        parser.parse_args(["experiment", *flags]), None)
    assert from_file == from_flags
    assert from_file.ns == (10, 20) and from_file.ds == (1, 2)
    assert from_file.ps == (Fraction(1, 4), 0.5)


def test_settings_are_the_experiment_and_sweep_flags():
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    for name, skip in (("experiment", ()), ("sweep", ("task",))):
        flags = {a.dest: a.option_strings for a in sub.choices[name]._actions}
        for key in harness.SETTINGS:
            if key not in skip:
                assert f"--{key}" in flags[key], (name, key)
        assert flags["kind"] == ["--kind", "--dist"]


def test_seed_env_read_only_without_a_given_seed(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("DEPGRAPHS_SEED", "not-a-seed")
    base = ("experiment", "--kind", "er", "--n", "6", "--p", "0.4",
            "--trials", "5")
    code, out, _ = run(capsys, *base, "--seed", "5")
    assert code == 0 and "# seed: 5\n" in out
    ini = tmp_path / "exp.ini"
    ini.write_text("[experiment]\nseed = 4\n")
    code, out, _ = run(capsys, *base, "--config", str(ini))
    assert code == 0 and "# seed: 4\n" in out
    code, _, err = run(capsys, *base)
    assert code == 1 and "DEPGRAPHS_SEED" in err


def test_experiment_edge_block_echoes_no_default_p(capsys):
    # p = a/m on an edge-block grid, so the default grid's p would be a
    # setting the run never used
    code, out, _ = run(capsys, "experiment", "--dist", "edge-block", "--a", "1",
                       "--m", "3", "--n", "9", "--trials", "5", "--seed", "1")
    assert code == 0
    config = json.loads(out.splitlines()[2].removeprefix("# config: "))
    assert config["p"] == []
    rows = out.splitlines()[4:]
    assert rows and all(row.split(",")[4] == "1/3" for row in rows)
    code, _, err = run(capsys, "experiment", "--dist", "edge-block", "--a", "1",
                       "--m", "3", "--n", "9", "--p", "0.5")
    assert code == 1 and "take no p" in err


def experiment_rows(out):
    """The CSV rows of an experiment's output, keyed by column."""
    return list(csv.DictReader(out.splitlines()[3:]))


@pytest.mark.parametrize("model, kind, d", [
    (("--dist", "custom", "--p", "0.5", "--n", "5", "--blocks", "0 1 2 3"),
     "custom-blocks", 3),
    (("--dist", "edge-block", "--a", "1", "--m", "3", "--n", "9"),
     "edge-block-exact", 2),
], ids=["custom", "edge-block"])
def test_experiment_d_grid_is_checked_against_the_models_d(capsys, model, kind, d):
    # a kind that fixes d refuses every other d of the grid, point by point
    code, out, err = run(capsys, "experiment", *model, "--d", "0,5",
                         "--trials", "5", "--seed", "1")
    messages = [f"{kind} models have d = {d}, not d = {bad}" for bad in (0, 5)]
    assert code == 1
    assert [row["error"] for row in experiment_rows(out)] == messages
    assert err == "".join(f"point {i}: {m}\n" for i, m in enumerate(messages))
    code, out, _ = run(capsys, "experiment", *model, "--d", str(d),
                       "--trials", "5", "--seed", "1")
    (row,) = experiment_rows(out)
    assert code == 0 and (row["d"], row["error"]) == (str(d), "")


def test_experiment_custom_grid_without_blocks_is_refused(capsys):
    code, out, err = run(capsys, "experiment", "--dist", "custom", "--n", "5",
                         "--p", "0.5", "--trials", "5", "--seed", "1")
    assert (code, out, err) == (1, "", "error: custom-blocks grids need blocks\n")


def test_experiment_empty_blocks_give_every_edge_its_own_coin(capsys):
    code, out, _ = run(capsys, "experiment", "--dist", "custom", "--n", "5",
                       "--p", "0.5", "--blocks", "", "--trials", "5", "--seed", "1")
    (row,) = experiment_rows(out)
    assert code == 0 and (row["d"], row["error"]) == ("0", "")


def test_experiment_failed_point_shows_the_settings_it_was_given(capsys):
    # 28 edge slots at n = 8 do not split into blocks of 3; n = 9 runs
    code, out, err = run(capsys, "experiment", "--dist", "edge-block", "--a", "1",
                         "--m", "3", "--n", "8,9", "--trials", "5", "--seed", "1")
    failed, ran = experiment_rows(out)
    assert code == 0
    assert err == "point 0: block size 3 does not divide 28 edge slots\n"
    assert [failed[key] for key in ("n", "p", "d", "a", "m")] == ["8", "", "", "1", "3"]
    assert [ran[key] for key in ("n", "p", "d", "error")] == ["9", "1/3", "2", ""]


def test_every_kind_alias_runs_as_a_grid(capsys):
    # the harness needs no code of its own for a kind: every KINDS row runs
    for canonical, kind in KINDS.items():
        argv = [f"--{key}={KIND_SETTING_FLAGS[key]}" for key in kind.settings]
        code, out, err = run(capsys, "experiment", "--dist", kind.alias, "--n", "60",
                             *argv, "--trials", "3", "--seed", "2")
        assert code == 0, (kind.alias, err)
        model = cli._model_from_args(cli.build_parser().parse_args(
            ["sample", "--dist", kind.alias, "--n", "60", *argv]))
        rows = experiment_rows(out)
        assert rows and all(row["error"] == "" for row in rows), (kind.alias, rows)
        assert all((row["kind"], row["d"]) == (canonical, str(model.d))
                   for row in rows), kind.alias


def test_experiment_bad_trials_exit_1(capsys):
    code, _, _ = run(capsys, "experiment", "--task", "probability",
                     "--kind", "er", "--n", "8", "--p", "0.4",
                     "--trials", "0")
    assert code == 1
    code, _, err = run(capsys, "experiment", "--kind", "er", "--n", "8",
                       "--p", "0.4", "--trials", "x")
    assert code == 1 and "bad trials 'x'" in err


def test_experiment_all_points_fail_exit_1(capsys):
    code, out, err = run(capsys, "experiment", "--task", "probability",
                         "--kind", "gadget", "--n", "60", "--p", "0.1",
                         "--d", "2", "--trials", "5")
    assert code == 1
    assert "perfect square" in err


def test_experiment_partial_failure_reported_on_stderr(capsys):
    argv = ("experiment", "--task", "clique", "--kind", "er", "--n", "10,70",
            "--p", "1/2", "--trials", "3", "--seed", "1")
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert err == "point 1: n=70 exceeds the exact clique search limit 60\n"
    config = cli._experiment_config(cli.build_parser().parse_args(argv), None)
    assert out == harness.run_experiment(config).to_csv()


def test_sweep_subcommand_forces_task(capsys):
    code, out, _ = run(capsys, "sweep", "--kind", "er", "--n", "20",
                       "--p", "0.05,0.1,0.2", "--trials", "20", "--seed", "8")
    assert code == 0
    assert '"task":"sweep"' in out


def test_task_choices_are_the_task_table(capsys):
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    experiment = sub.choices["experiment"]
    (task,) = [a for a in experiment._actions if a.dest == "task"]
    assert list(task.choices) == list(harness.TASKS)
    assert not [a for a in sub.choices["sweep"]._actions if a.dest == "task"]


# -- audit -------------------------------------------------------------

def test_audit_clean_exit_0(capsys):
    code, out, _ = run(capsys, "audit", "--dist", "er", "--n", "5",
                       "--p", "0.3", "--trials", "2000", "--seed", "12")
    assert code == 0
    assert "record,edge_a" in out
    assert "summary-degree" in out


def test_audit_reports_max_degree(capsys):
    code, out, _ = run(capsys, "audit", "--dist", "edge-block", "--n", "4",
                       "--a", "1", "--m", "2", "--trials", "500",
                       "--seed", "1")
    assert code == 0
    degree_row = [ln for ln in out.splitlines()
                  if ln.startswith("summary-degree")][0]
    assert ",1," in degree_row


def test_audit_bad_partition_exit_1(capsys):
    code, _, err = run(capsys, "audit", "--dist", "custom", "--n", "4",
                       "--p", "0.5", "--blocks", "0 1; 1 2",
                       "--trials", "100")
    assert code == 1
    assert "two blocks" in err


def test_audit_negative_pairs_exit_1(capsys):
    code, _, err = run(capsys, "audit", "--dist", "er", "--n", "5",
                       "--p", "0.5", "--trials", "10", "--pairs", "-3")
    assert code == 1
    assert "pairs must be >= 0" in err


def test_audit_flag_exit_3(capsys, monkeypatch):
    real = cli.audit_model

    def rigged(model, trials, seed, pairs=50):
        rep = real(model, trials, seed, pairs=pairs)
        return rep._replace(degree_ok=False)

    monkeypatch.setattr(cli, "audit_model", rigged)
    code, out, _ = run(capsys, "audit", "--dist", "er", "--n", "4",
                       "--p", "0.5", "--trials", "200", "--seed", "0")
    assert code == 3


def test_audit_json(capsys):
    code, out, _ = run(capsys, "audit", "--dist", "er", "--n", "4",
                       "--p", "0.5", "--trials", "400", "--seed", "3",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["trials"] == 400
    assert len(doc["marginals"]) == 6
    assert doc["flagged"] is False


# -- oracle ------------------------------------------------------------

def test_oracle_rational(capsys):
    code, out, _ = run(capsys, "oracle", "--dist", "er", "--n", "3",
                       "--p", "1/2", "--predicate", "connected")
    assert code == 0
    assert "1/2,0.5" in out


def test_oracle_rational_at_large_denominator(capsys):
    code, out, _ = run(capsys, "oracle", "--dist", "er", "--n", "3",
                       "--p", "1/65537", "--predicate", "connected")
    assert code == 0
    rational, decimal = out.strip().splitlines()[-1].split(",")
    assert Fraction(rational) == 3 * Fraction(1, 65537) ** 2 * Fraction(65536, 65537) \
        + Fraction(1, 65537) ** 3
    assert float(decimal) == float(Fraction(rational))


@pytest.mark.parametrize("n", [0, -2])
def test_oracle_refuses_a_pattern_file_without_vertices(capsys, tmp_path, n):
    path = tmp_path / "pattern.edges"
    path.write_text(f"n {n}\n")
    code, out, err = run(capsys, "oracle", "--dist", "er", "--n", "4", "--p", "1/2",
                         "--predicate", f"contains:{path}")
    assert (code, out, err) == (1, "", "error: predicate form is contains:<pattern>; "
                                       "graph needs at least one vertex\n")


def test_oracle_trivial_predicate(capsys):
    code, out, _ = run(capsys, "oracle", "--dist", "star", "--n", "4",
                       "--p", "1/3", "--d", "1", "--predicate", "true")
    assert code == 0
    assert "1/1,1.0" in out


def test_oracle_float_p_no_rational_column(capsys):
    code, out, _ = run(capsys, "oracle", "--dist", "er", "--n", "3",
                       "--p", "0.5", "--predicate", "connected")
    assert code == 0
    last = out.strip().splitlines()[-1]
    assert last.startswith(",0.5")


def test_oracle_budget_exit_2(capsys):
    code, _, err = run(capsys, "oracle", "--dist", "er", "--n", "50",
                       "--p", "1/2", "--predicate", "connected")
    assert code == 2
    assert "budget" in err or "resource" in err.lower()
    # 2^19900 outcomes: once exit 1 from the int -> str digit limit
    start = time.perf_counter()
    code, _, err = run(capsys, "oracle", "--dist", "er", "--n", "200",
                       "--p", "1/2", "--predicate", "connected")
    assert code == 2
    assert "2^19900 outcomes" in err
    assert time.perf_counter() - start < 1.0


def test_oracle_json(capsys):
    code, out, _ = run(capsys, "oracle", "--dist", "er", "--n", "4",
                       "--p", "1/2", "--predicate", "connected",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rational"] == "19/32"
    assert doc["decimal"] == pytest.approx(19 / 32)
    assert doc["outcomes"] == 2 ** 6
    assert doc["duration_s"] >= 0.0


def test_oracle_csv_bytes(capsys):
    code, out, _ = run(capsys, "oracle", "--dist", "er", "--n", "4",
                       "--p", "1/2", "--predicate", "connected")
    assert code == 0
    assert out == ("# depgraphs oracle\n"
                   "# model: kind=erdos-renyi n=4 p=1/2 d=0\n"
                   "# predicate: connected\n"
                   "rational,decimal\n19/32,0.59375\n")


# -- global behavior ---------------------------------------------------

def _readme_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(ln)[1:] for ln in lines
            if ln.startswith("depgraphs ") and "--config" not in ln]


def test_readme_cli_examples_run(capsys, monkeypatch, tmp_path):
    monkeypatch.delenv("DEPGRAPHS_SEED", raising=False)
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert len(commands) == 6
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)


def test_unknown_subcommand_exit_1(capsys):
    assert run(capsys, "frobnicate")[0] == 1


def test_no_args_exit_1(capsys):
    assert run(capsys)[0] == 1


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
