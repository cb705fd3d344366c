"""Which classes of the package are dataclasses, and why so few.

A dataclass generates and compiles its methods when its module is
imported, about 1 ms a class: turning six records into NamedTuples cut
the package's import (numpy already loaded, cached bytecode) from 24.1 to
20.5 ms by wall clock and from 29.2 to 21.1 ms under `python -X
importtime` (medians, 2 vCPU x86, Python 3.11.7).  The immutable records (the audit, oracle and bound reports among them)
are NamedTuples, whose methods are made without compiling source.  The
four dataclasses left each use what only a dataclass gives: Predicate
compares by name alone, ExperimentConfig validates itself in
__post_init__, and run_experiment fills PointResult and ExperimentResult
in place.  A new dataclass is therefore a visible change to this list.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import depgraphs


def test_only_the_records_that_need_generated_methods_are_dataclasses():
    found = set()
    for info in pkgutil.iter_modules(depgraphs.__path__):
        module = importlib.import_module(f"depgraphs.{info.name}")
        found |= {name for name, obj in vars(module).items()
                  if inspect.isclass(obj) and dataclasses.is_dataclass(obj)
                  and obj.__module__ == module.__name__}
    assert found == {"Predicate", "ExperimentConfig", "PointResult",
                     "ExperimentResult"}
