"""Generated command lines: every argv answers or fails with one typed error.

Hypothesis builds a valid argv for a subcommand from the package's own
tables: KINDS (each kind's alias and settings), bounds.BOUNDS with
cli.BOUND_FLAGS (each bound's parameters), predicates.FORMS with
form_syntax (each form's fields), and harness.SETTINGS and harness.TASKS.
It may then change one field, a flag's value or one field of a predicate
text, to a bad value: NaN, inf, a negative number, 0, an empty string or
junk text.  Each argv runs through cli.main in-process, and

- the exit code is 0, 1, 2 or 3, and no exception escapes;
- exit 1 or 2 prints exactly one stderr line that holds `error:` or starts
  with `resource limit:`; an experiment or sweep whose every grid point
  failed writes its table and prints one `point <index>: <error>` line per
  point, the error of its row, before that line;
- an exit-0 CSV has rows as wide as its header and no nan cell.

Examples stay small (n <= 8, trials <= 20, audit trials <= 200, patterns
no larger than k5, and an oracle budget of ORACLE_BUDGET outcomes, beyond
which the oracle exits 2) and write no files; derandomize=True draws the
same examples on every run.
"""

import contextlib
import csv
import io
import re
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from depgraphs import bounds, cli, harness, oracle
from depgraphs.distributions import KINDS
from depgraphs.predicates import FORMS, form_syntax

# the 2^21 outcomes of er at n = 7 took about 20 s (2 vCPU x86) for a
# pattern without a kernel, so the fuzz lowers the oracle's budget
ORACLE_BUDGET = 1 << 12

BAD = ("nan", "inf", "-inf", "-1", "-2.5", "0", "", "junk", "1/0", "0,x")

PATTERNS = ("edge", "k2", "k3", "k4", "k5", "c4", "c5", "path2")

REALS = st.sampled_from(("0.25", "0.5", "1.5", "3", "12.5"))

# a valid text for each flag and predicate field the tables name
VALUES = {
    **{key: REALS for key, kind in cli.BOUND_FLAGS.items() if kind is float},
    "n": st.integers(1, 8).map(str),
    "p": st.sampled_from(("0.3", "1/2", "0", "1", "0.05", "2/3")),
    "d": st.sampled_from(("0", "1", "3")),
    "a": st.integers(1, 4).map(str),
    "b": st.integers(0, 4).map(str),
    "s": st.integers(1, 4).map(str),
    "m": st.integers(1, 3).map(str),
    "blocks": st.sampled_from(("0 1", "0 1 2", "", "0 2; 1 3")),
    "seed": st.integers(0, 50).map(str),
    "trials": st.integers(1, 20).map(str),
    "workers": st.integers(1, 2).map(str),
    "eps": st.sampled_from(("0.05", "0.2", "0.5")),
    "pattern": st.sampled_from(PATTERNS),
    "k": st.integers(0, 10).map(str),
    "low": REALS, "high": REALS,
}

# predicate fields whose values are vertex lists
VERTEX_LISTS = st.lists(st.integers(0, 7), min_size=1, max_size=3, unique=True).map(
    lambda vs: ",".join(map(str, vs)))


def _predicate(draw) -> list[str]:
    form = draw(st.sampled_from(sorted(FORMS)))
    fields = re.findall(r"<(\w+)>", form_syntax(form))
    return [form] + [draw(VERTEX_LISTS if key in ("a", "b") else VALUES[key])
                     for key in fields]


def _model(draw) -> list[tuple[str, list[str]]]:
    kind = draw(st.sampled_from(sorted(KINDS)))
    return [("--dist", [KINDS[kind].alias]), ("--n", [draw(VALUES["n"])])] + [
        (f"--{key}", [draw(VALUES[key])]) for key in KINDS[kind].settings]


def _bounds(draw):
    name = draw(st.sampled_from(sorted(bounds.BOUNDS)))
    return ["bounds", name], [(f"--{key}", [draw(VALUES[key])])
                              for key in bounds.BOUNDS[name].parameters]


# the experiment settings that only some tasks take; every task takes the rest
TASK_ONLY = {"predicate": ("probability", "sweep"), "eps": ("sweep",),
             "pattern": ("containment",)}

# the experiment settings that only some kinds take, by KINDS
KIND_ONLY = {key for kind in KINDS.values() for key in kind.settings}


def _experiment(draw):
    """An experiment or a sweep: a flag for each harness.SETTINGS row that
    its task and kind take, the model's from _model."""
    task = draw(st.sampled_from(sorted(harness.TASKS)))
    model = dict(_model(draw))
    items = []
    for key in harness.SETTINGS:
        flag = "--dist" if key == "kind" else f"--{key}"
        if flag in model:
            items.append((flag, ["0.1,0.3"] if task == "sweep" and key == "p"
                          else model[flag]))
        elif key == "task":
            if task != "sweep":
                items.append((flag, [task]))
        elif key == "predicate" and task in TASK_ONLY[key]:
            items.append((flag, _predicate(draw)))
        elif key not in KIND_ONLY and task in TASK_ONLY.get(key, (task,)):
            items.append((flag, [draw(VALUES[key])]))
    return ["sweep" if task == "sweep" else "experiment"], items


@st.composite
def argvs(draw):
    """(argv, whether the command prints a CSV) for one subcommand."""
    command = draw(st.sampled_from(("sample", "bounds", "experiment", "audit",
                                    "oracle")))
    if command == "bounds":
        head, items = _bounds(draw)
    elif command == "experiment":
        head, items = _experiment(draw)
    else:
        head, items = [command], _model(draw)
        if command == "oracle":
            items.append(("--predicate", _predicate(draw)))
        else:
            items.append(("--seed", [draw(VALUES["seed"])]))
        if command == "audit":
            items += [("--trials", [str(draw(st.integers(2, 200)))]),
                      ("--pairs", [str(draw(st.integers(0, 5)))])]
    slots = [(i, j) for i, (_, values) in enumerate(items) for j in range(len(values))]
    if draw(st.booleans()):
        i, j = draw(st.sampled_from(slots))
        items[i][1][j] = draw(st.sampled_from(BAD))
    argv = head + [part for flag, values in items
                   for part in (flag, ":".join(values))]
    return argv, command != "sample"


def _is_nan(cell: str) -> bool:
    return "nan" in re.split(r"[;=]", cell.lower())


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(argvs())
def test_generated_argv_answers_or_fails_with_one_error_line(case):
    argv, prints_csv = case
    out, err = io.StringIO(), io.StringIO()
    with (mock.patch.object(oracle, "ENUMERATION_BUDGET", ORACLE_BUDGET),
          contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    lines = err.getvalue().splitlines()
    rows = list(csv.reader(line for line in out.getvalue().splitlines()
                           if not line.startswith("#")))
    if code == 1 and argv[0] in ("experiment", "sweep") and rows:
        assert lines[:-1] == [f"point {row[0]}: {row[-1]}" for row in rows[1:]], argv
        assert lines[-1] == "error: every grid point failed", argv
        assert all(row[-1] for row in rows[1:]), argv
    if code in (1, 2):
        errors = [line for line in lines
                  if "error:" in line or line.startswith("resource limit:")]
        assert len(errors) == 1, (argv, lines)
    if code == 0 and prints_csv:
        assert rows and all(len(row) == len(rows[0]) for row in rows), argv
        assert not any(_is_nan(cell) for row in rows for cell in row), (argv, rows)
