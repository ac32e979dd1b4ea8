"""The value records (`algebra.Record` subclasses) and what importing the
command line loads."""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from kbundle.algebra import AlgebraError, FieldSpec, PolyRing, make_ring
from kbundle.bounds import BoundsError, ClosureQuery, ClosureReport, MembershipReport
from kbundle.cli import main
from kbundle.modgb import NO_CAPS, Caps, GradedFreeModule
from kbundle.stability import Analysis, PowerCheck, StabilityReport
from kbundle.tannaka import DimCell

from sample_bundles import P, five_quadrics

SRC = Path(__file__).resolve().parent.parent / "src"


def test_importing_the_cli_loads_neither_dataclasses_nor_argparse():
    # -S: no site module, so only kbundle's own imports count
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import kbundle.cli; "
            "print(sorted({'argparse', 'dataclasses'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(SRC)],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_help_still_prints_the_usage(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: kbundle")
    assert "{validate,check,sections,tannaka,restrict,closure,run}" in out


@pytest.mark.parametrize("build", [
    lambda: FieldSpec(7),
    lambda: make_ring(3, FieldSpec(5)),
    lambda: GradedFreeModule(make_ring(3), (0, 1, 1)),
    lambda: Caps(max_degree=6, timeout_seconds=2.5),
])
def test_equal_arguments_give_equal_records(build):
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_records_compare_by_type_and_every_field():
    assert PolyRing(("X", "Y", "Z")) == make_ring(3)
    assert make_ring(3) != make_ring(3, FieldSpec(2))
    assert Caps(5) != Caps(max_pairs=5)
    assert FieldSpec(7) != 7 and FieldSpec(7) != (7,)
    # same values, different record types
    assert DimCell(1, 1, "x") != PowerCheck(1, 1, "x", ">", 0, 0)


@pytest.mark.parametrize("build", [
    lambda: FieldSpec(4),
    lambda: FieldSpec(-3),
    lambda: PolyRing(()),
    lambda: PolyRing(("X", "X")),
    lambda: FieldSpec(1763),
])
def test_invalid_records_raise(build):
    with pytest.raises(AlgebraError):
        build()


def test_closure_query_checks_its_data():
    ring = make_ring(3)
    with pytest.raises(BoundsError, match="nonzero"):
        ClosureQuery((P("X^2"), ring.zero()))
    with pytest.raises(BoundsError, match="genus must be >= 0"):
        ClosureQuery((P("X^2"), P("Y^2")), genus=-1)


def report():
    return StabilityReport("semistable", None, 4, Fraction(-5, 2), "pass",
                           "semistability", "linalg")


def test_mutable_records_are_unhashable():
    assert report() == report()
    for record in (report(), PowerCheck(1, None, Fraction(1), ">", 0, 0),
                   ClosureReport(Fraction(3, 2), 2, None),
                   ClosureQuery((P("X^2"), P("Y^2")))):
        with pytest.raises(TypeError):
            hash(record)


def test_default_lists_are_fresh():
    a, b = report(), report()
    a.per_power.append(PowerCheck(1, None, Fraction(5, 2), ">", 2, 2))
    a.criteria_trace.append("line")
    assert b.per_power == [] and b.criteria_trace == []
    assert a != b
    assert ClosureReport(1, 1, None).trace is not ClosureReport(1, 1, None).trace
    assert MembershipReport(True, True, "", "").trace is not \
        MembershipReport(True, True, "", "").trace
    first = Analysis(five_quadrics(), a)
    first.criteria["x"] = 1
    assert Analysis(five_quadrics(), b).criteria == {}


def test_replace_builds_a_changed_copy():
    a = report()
    b = a.replace(stability="undetermined")
    assert (a.stability, b.stability) == (None, "undetermined")
    assert b.criteria_trace is a.criteria_trace
    assert Caps(5).replace(max_pairs=3) == Caps(5, 3)
    with pytest.raises(TypeError):
        Caps().replace(max_terms=3)
    with pytest.raises(AlgebraError):
        FieldSpec(7).replace(char=9)


def test_caps_start_returns_an_armed_copy():
    caps = Caps(max_degree=4, timeout_seconds=5.0)
    armed = caps.start()
    assert armed is not caps and armed != caps
    assert caps._deadline is None and armed._deadline is not None
    assert (armed.max_degree, armed.timeout_seconds) == (4, 5.0)
    assert armed.start() is armed
    assert NO_CAPS.start() is NO_CAPS
    assert repr(armed) == ("Caps(max_degree=4, max_pairs=None, "
                           "timeout_seconds=5.0)")
