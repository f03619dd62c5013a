"""Every function the benchmark's span tracer wraps still exists.

perfbench/tracer.py looks each (module, attribute path) of its TARGETS up in
the owner's __dict__ and raises KeyError on a missing one, so a deleted or
renamed function would only surface when the traced benchmark runs. The
tracer is loaded by path and never installed here.
"""

import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

import carleman.cli  # noqa: F401  (loads every module of the package, as the tracer expects)
from carleman.jets import EXACT, FLOAT, Jet2

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("carleman_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = [(mod, path) for mod, path, *_ in _load_tracer().TARGETS]


@pytest.mark.parametrize("mod_name, path", TARGETS, ids=[f"{m}.{p}" for m, p in TARGETS])
def test_tracer_target_resolves(mod_name, path):
    module = importlib.import_module(f"carleman.{mod_name}")
    owner_path, _, attr = path.rpartition(".")
    owner = getattr(module, owner_path) if owner_path else module
    assert attr in owner.__dict__


def test_jets_carry_the_kind_the_tracer_groups_by():
    # the jets.mul and jets.reciprocal groups are named after args[0].kind
    # and the kind of a jet is read from its base point
    assert Jet2.variable(0, (Fraction(1, 3), Fraction(0)), 2).kind == EXACT
    assert Jet2.variable(0, (0.5, 0.0), 2).kind == FLOAT
