"""Value records: equality, hashing, repr and immutability by fields; the
block-enlargement formula text; and the modules a command imports."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fqcodes.bounds import BoundReport
from fqcodes.channel import ChannelSpec, TrialSummary
from fqcodes.constructions import block_enlarged_family
from fqcodes.derived import FoldedCode, singer_difference_set
from fqcodes.gf import FieldCtx, Value
from fqcodes.linalg import Subspace, span
from fqcodes.metrics import FoldedWord, MetricReport, Word
from fqcodes.rankmetric import LinearizedPoly, RankDistribution
from fqcodes.suites import CheckResult, SuiteResult

SRC = Path(__file__).resolve().parent.parent / "src"
GF8 = FieldCtx(2, 3)
W = Word(GF8, (1, 2))
V = Word(GF8, (3, 4))
FW = FoldedWord(GF8, 2, (5, 63))

# one record of each class with every field given, and its field values
RECORDS = [
    W,
    FW,
    MetricReport("hamming", 1, (W, V), (0, 1), 1, None),
    MetricReport("subset", 2, (W, V), (0, 1), 1, {"certified": True}),
    span([1, 2], 3, 2),
    singer_difference_set(GF8),
    FoldedCode(GF8, 2, (FW,), None),
    FoldedCode(GF8, 2, (FW,), {"construction": "test"}),
    ChannelSpec(1, 2, 3),
    TrialSummary(2, 1, 1, 0, 0, True, 0, 1, 7, "mt19937", ("0,7,0,1,ok", "1,8,0,1,wrong")),
    BoundReport("klo", {"q": 2}, 3, None),
    LinearizedPoly(GF8, (0, 4), FieldCtx(2, 2)),
    LinearizedPoly(GF8, (1,), None),
    RankDistribution((1, 0, 7)),
    CheckResult("name", True, ""),
]


def _fields(r) -> tuple:
    return tuple(getattr(r, k) for k in type(r).__slots__)


def _hashable(values) -> bool:
    try:
        hash(values)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("r", RECORDS, ids=lambda r: type(r).__name__)
def test_a_record_is_equal_by_its_fields_and_its_class(r):
    cls = type(r)
    twin = cls(*_fields(r))
    assert twin == r and not twin != r and twin is not r
    other = type("Other", (Value,), {"__slots__": cls.__slots__})(*_fields(r))
    assert other != r and r != other and not other == r
    assert r != _fields(r)
    changed = object.__new__(cls)  # one field changed, past the class's own checks
    Value.__init__(changed, *_fields(r)[:-1], "changed")
    assert changed != r and not changed == r


@pytest.mark.parametrize("r", RECORDS, ids=lambda r: type(r).__name__)
def test_a_record_hashes_as_its_fields_where_they_are_hashable(r):
    values = _fields(r)
    if _hashable(values):
        assert hash(r) == hash(values)
        assert {r, type(r)(*values)} == {r}
    else:
        with pytest.raises(TypeError):
            hash(r)


@pytest.mark.parametrize("r", RECORDS, ids=lambda r: type(r).__name__)
def test_a_record_shows_its_fields_and_keeps_them(r):
    cls = type(r)
    fields = ", ".join(f"{k}={getattr(r, k)!r}" for k in cls.__slots__)
    assert repr(r) == f"{cls.__qualname__}({fields})"
    for k in cls.__slots__:
        before = getattr(r, k)
        with pytest.raises(AttributeError):
            setattr(r, k, before)
        with pytest.raises(AttributeError):
            delattr(r, k)
        assert getattr(r, k) is before
    with pytest.raises(AttributeError):
        r.other = 1
    assert copy.copy(r) == r and copy.deepcopy(r) == r
    assert pickle.loads(pickle.dumps(r)) == r


def test_reprs_are_those_of_the_former_dataclasses():
    assert repr(W) == "Word(ctx=FieldCtx(q=2, n=3, modulus=[1, 0, 1, 1]), symbols=(1, 2))"
    assert repr(ChannelSpec(0, 1, 2)) == "ChannelSpec(insertions=0, deletions=1, seed=2)"
    assert repr(span([1], 2, 2)) == "Subspace(q=2, ambient=2, rows=(1,))"
    assert repr(LinearizedPoly(GF8, (1,), GF8)) == (
        "LinearizedPoly(ctx=FieldCtx(q=2, n=3, modulus=[1, 0, 1, 1]), coeffs=(1,), src=None)")


def test_constructors_take_fields_by_name_and_defaults():
    assert TrialSummary(*_fields(RECORDS[9])) == TrialSummary(
        **dict(zip(TrialSummary.__slots__, _fields(RECORDS[9]))))
    assert RankDistribution(counts=(1, 2)) == RankDistribution((1, 2))
    assert BoundReport("klo", {}, 3).satisfied is None
    assert BoundReport("klo", {}, 3, satisfied=True).satisfied is True
    assert FoldedCode(GF8, 2, (FW,)).provenance is None
    assert LinearizedPoly(GF8, (1,)).src is None
    assert Subspace(q=2, ambient=3, rows=(4,)) == span([4], 3, 2)
    assert Word(symbols=(1,), ctx=GF8) == Word(GF8, (1,))
    for bad in ((), (1, 2, 3, 4), ((1,), 2, 3, 4, 5)):
        with pytest.raises(TypeError):
            RankDistribution(*bad)
    with pytest.raises(TypeError):
        RankDistribution((1,), counts=(1,))
    with pytest.raises(TypeError):
        RankDistribution(count=(1,))
    assert CheckResult("name", ok=True) == CheckResult("name", True, "")
    assert MetricReport("hamming", 1, (W, V), (0, 1), 1).notes is None
    with pytest.raises(TypeError):
        CheckResult("name", detail="")  # ok missing
    with pytest.raises(TypeError):
        CheckResult("name", True, "", detail="")
    with pytest.raises(TypeError):
        CheckResult("name", True, other=True)


def test_a_suite_result_is_a_mutable_record():
    res = SuiteResult("s")
    res.check("c", 1, "why")
    res.finding("f")
    assert (res.name, res.checks, res.findings) == ("s", [CheckResult("c", True, "why")], ["f"])
    assert SuiteResult("t").checks == []


@pytest.mark.parametrize("q, n, t", [(2, 2, 1), (3, 2, 1), (5, 2, 1), (7, 2, 1), (2, 4, 2)])
def test_formula_value_is_the_fraction_in_lowest_terms(q, n, t):
    code = block_enlarged_family(FieldCtx(q, n), t)
    exp = (3 * n // 2) * (t + 1) - n * n // 4
    expected = str(Fraction(4 * (q ** (n // 2) - 1) * q ** exp, n * n))
    assert code.provenance["formula_value"] == expected


def test_a_command_imports_neither_dataclasses_nor_fractions():
    # -S keeps the interpreter's site packages, and whatever they import, out
    probe = ("import fqcodes.cli, sys; "
             "print(' '.join(sorted(m for m in ('dataclasses', 'inspect', 'fractions', 'decimal')"
             " if m in sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == ""
