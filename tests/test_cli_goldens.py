"""Golden outputs of the CLI's reports, bounds.evaluate and to_descriptor.

tests/cli_goldens.json holds the exact stdout, stderr and exit code of
`depgraphs bounds` for every bound name, with only the flags the bound
needs and with every flag the subcommand has; the missing-parameter,
unknown-name and missing-pattern errors; the reports of evaluate called
with counts that are not ints and with an exact p; and the descriptor of
one model of each kind.  The file was written before evaluate, build and
the descriptors read their bounds and kinds from one table each, which
had to leave every byte as it was.

Its "commands" cases pin `depgraphs audit` in CSV and JSON (with pairs,
with none, on edge-block and custom-blocks models), `depgraphs sample`
(a star and a one-vertex model) and `depgraphs oracle` with a float p,
its JSON timing blanked.  They were written before every report went
through one table writer, which had to leave their bytes as they were.
"""

import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from depgraphs import bounds, cli
from depgraphs.distributions import (blocks_from_text, connectivity_gadget,
                                     correlated_star, custom_blocks,
                                     edge_block_exact, erdos_renyi,
                                     to_descriptor)
from depgraphs.graphs import named_pattern

GOLDENS = json.loads((Path(__file__).parent / "cli_goldens.json").read_text())

_DURATION = re.compile(r'"duration_s": [^,\n]+')

# library calls: the echo keeps each input as given, the bound gets int counts
EVALUATE_CASES = {
    "float-counts": ("jumbledness-deviation",
                     dict(a=3.0, b=4.0, n=20.0, p=0.25, d=1.0)),
    "exact-p": ("degree-interval", dict(n=200, p=Fraction(1, 8), d=2)),
    "phi-exact-p": ("phi", dict(pattern=named_pattern("k4"), n=80, p=Fraction(1, 2),
                                d=1)),
    "extra-keys-ignored": ("connectivity-threshold",
                           dict(n=50, d=3, p=0.5, mu=1.0, eps=0.2)),
    "clique-optional": ("clique-bounds", dict(n=64, p=0.125, d=1, c2=3.0)),
}

MODELS = {
    "erdos_renyi(10, Fraction(1, 3))": lambda: erdos_renyi(10, Fraction(1, 3)),
    "correlated_star(10, 0.25, 3)": lambda: correlated_star(10, 0.25, 3),
    "connectivity_gadget(60, Fraction(1, 10), 3)":
        lambda: connectivity_gadget(60, Fraction(1, 10), 3),
    "edge_block_exact(6, 2, 5)": lambda: edge_block_exact(6, 2, 5),
    'custom_blocks(5, 0.5, blocks_from_text(5, "0 1 2; 3 4"))':
        lambda: custom_blocks(5, 0.5, blocks_from_text(5, "0 1 2; 3 4")),
}


def test_goldens_cover_every_bound_and_kind():
    cases = {c["case"] for c in GOLDENS["bounds"]}
    for name in bounds.BOUND_NAMES:
        for label in ("defaults-csv", "defaults-json", "every-flag-csv",
                      "every-flag-json", "no-flags"):
            assert f"{name}-{label}" in cases
    assert {d["model"] for d in GOLDENS["descriptors"]} == set(MODELS)
    assert set(GOLDENS["evaluate"]) == set(EVALUATE_CASES)
    commands = {c["argv"][0] for c in GOLDENS["commands"]}
    assert commands == {"audit", "sample", "oracle"}


@pytest.mark.parametrize("golden", GOLDENS["bounds"], ids=lambda g: g["case"])
def test_bounds_command_bytes(capsys, golden):
    code = cli.main(list(golden["argv"]))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        golden["exit"], golden["stdout"], golden["stderr"])


@pytest.mark.parametrize("golden", GOLDENS["commands"], ids=lambda g: g["case"])
def test_command_bytes(capsys, golden):
    code = cli.main(list(golden["argv"]))
    captured = capsys.readouterr()
    out = _DURATION.sub('"duration_s": 0', captured.out)
    assert (code, out, captured.err) == (
        golden["exit"], golden["stdout"], golden["stderr"])


@pytest.mark.parametrize("name", bounds.BOUND_NAMES)
def test_every_bound_refuses_a_negative_d(capsys, name):
    (golden,) = [g for g in GOLDENS["bounds"] if g["case"] == f"{name}-defaults-csv"]
    code = cli.main([*golden["argv"], "--d", "-1"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        1, "", "error: d must be nonnegative\n")


@pytest.mark.parametrize("case", sorted(EVALUATE_CASES))
def test_evaluate_reports(case):
    name, params = EVALUATE_CASES[case]
    params = dict(params)
    reports = bounds.evaluate(name, pattern=params.pop("pattern", None), **params)
    assert [repr(r) for r in reports] == GOLDENS["evaluate"][case]


@pytest.mark.parametrize("golden", GOLDENS["descriptors"], ids=lambda g: g["model"])
def test_descriptor_text(golden):
    assert to_descriptor(MODELS[golden["model"]]()) == golden["text"]
