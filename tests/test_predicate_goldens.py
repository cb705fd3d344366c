"""Golden outputs of `depgraphs oracle --predicate` and `depgraphs
experiment --predicate` for every predicate form.

tests/predicate_goldens.json holds, for each accepted predicate text, the
exact stdout, stderr and exit code of `depgraphs oracle` on a small star
model in CSV, the same in JSON with the timing field blanked, and of a
tiny `depgraphs experiment` grid in CSV; for each malformed text, the
same three runs, which exit 1.  The file was written before
parse_predicate read its forms from one table, which had to leave the
bytes of every accepted text as they were.  The malformed texts'
experiment stderr was re-pinned when an experiment whose every grid
point failed gained a closing `error: every grid point failed` line; its
`point 0:` line is as before.
"""

import json
import re
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from depgraphs import cli

GOLDEN_PATH = Path(__file__).parent / "predicate_goldens.json"

STAR = ["--dist", "star", "--n", "5", "--p", "1/2", "--d", "1"]

# {tmp} stands for a directory holding tri.edges, a triangle's edge list
ACCEPTED = [
    "true", "connected", "not-connected", "isolated-vertex",
    "contains:k3", "contains:c4", "contains:edge", "contains:{tmp}/tri.edges",
    "lacks:k3", "lacks:path2", "edge-count:3", "edge-count:0",
    "degree-in:1:3", "degree-in:0.5:2.5", "deviation:1:0,1:2,3",
    "deviation:0.5:0:1", "deviation:1.5:0,1,2:0,1,2", "deviation:1::",
    " connected ", "  contains:k3\t", "degree-in: 1 : 3 ",
]

MALFORMED = [
    "contains:", "connected:", "degree-in:1", "deviation:1:0",
    "edge-count:x", "nosuch", "contains", "lacks:q5", "degree-in:a:b",
    "deviation:x:0:1", "",
]

_DURATION = re.compile(r'"duration_s": [^,\n]+')


def _argvs(text: str) -> dict[str, list[str]]:
    return {
        "oracle-csv": ["oracle", *STAR, "--predicate", text],
        "oracle-json": ["oracle", *STAR, "--predicate", text, "--format", "json"],
        "experiment-csv": ["experiment", *STAR, "--trials", "40", "--seed", "3",
                           "--predicate", text],
    }


def outputs(text: str, tmp: Path) -> dict[str, dict]:
    """Each run of one predicate text: its exit code, stdout and stderr,
    with the pattern directory written as {tmp} and JSON timings blanked."""
    (tmp / "tri.edges").write_text("n 3\n0 1\n1 2\n0 2\n", encoding="utf-8")
    runs = {}
    for label, argv in _argvs(text.replace("{tmp}", str(tmp))).items():
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        runs[label] = {
            "exit": code,
            "stdout": _DURATION.sub('"duration_s": 0',
                                    out.getvalue().replace(str(tmp), "{tmp}")),
            "stderr": err.getvalue().replace(str(tmp), "{tmp}"),
        }
    return runs


def _goldens():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_goldens_cover_every_text():
    goldens = _goldens()
    assert list(goldens["accepted"]) == ACCEPTED
    assert list(goldens["malformed"]) == MALFORMED
    for runs in goldens["accepted"].values():
        assert all(run["exit"] == 0 and run["stderr"] == "" for run in runs.values())
    for runs in goldens["malformed"].values():
        assert all(run["exit"] == 1 for run in runs.values())


@pytest.mark.parametrize("text", ACCEPTED)
def test_accepted_predicate_bytes(tmp_path, text):
    assert outputs(text, tmp_path) == _goldens()["accepted"][text]


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_predicate_bytes(tmp_path, text):
    assert outputs(text, tmp_path) == _goldens()["malformed"][text]
