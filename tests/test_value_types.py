"""The contract of the engine's value types, and the start-up import guard.

The value types are named tuples: each keeps its fields in a fixed order,
prints as ``Type(field=value, ...)``, refuses assignment, compares and
hashes by its fields, and sorts as the tuple of its fields.  A type that
validates its fields does so in the constructor and in ``_replace``, with
the exception class and message pinned below.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lieapprox
from lieapprox import (
    AlphaEstimate,
    ApproxSample,
    BadArgs,
    DominantWeight,
    InvalidRank,
    NefDivisor,
    NefReport,
    NonDominant,
    NotNef,
    PlaceSpec,
    RationalProjectivePoint,
    SemisimpleType,
    SimpleType,
    Trend,
    Verdict,
    build_root_system,
    supported_types,
)
from lieapprox.tables import ReportRow, RowAudit, Table, TableRow

SRC = Path(lieapprox.__file__).resolve().parents[1]

_A2 = build_root_system(SimpleType("A", 2))
_POINT = RationalProjectivePoint((2, -4, 6))
_VERDICT = Verdict(1, 2, 3, 4, False)
_SAMPLE = ApproxSample((1, 2), 2, 1, 4, 0.5)

#: One instance of each value type, its field names and its repr.
SAMPLES = [
    (
        SimpleType("A", 2),
        ("family", "rank"),
        "SimpleType(family='A', rank=2)",
    ),
    (
        _A2.cartan,
        ("entries", "symmetrizer"),
        "CartanMatrix(entries=((2, -1), (-1, 2)), symmetrizer=(1, 1))",
    ),
    (
        DominantWeight((1, 0)),
        ("coords",),
        "DominantWeight(coords=(1, 0))",
    ),
    (
        build_root_system(SimpleType("A", 1)),
        ("type", "cartan", "positive_roots", "root_halfnorms", "root_weights"),
        "RootSystem(type=SimpleType(family='A', rank=1), cartan=CartanMatrix(entries=((2,),), "
        "symmetrizer=(1,)), positive_roots=((1,),), root_halfnorms=(1,), root_weights=((2,),))",
    ),
    (
        _VERDICT,
        ("curve_constant", "dense_lower_bound", "required_count", "available_sections", "full_conjecture"),
        "Verdict(curve_constant=1, dense_lower_bound=2, required_count=3, available_sections=4, "
        "full_conjecture=False)",
    ),
    (
        NefReport("A1", NefDivisor(((1,),)), ((0, 1, _VERDICT),), _VERDICT, 0, ("n",)),
        ("type_label", "divisor", "colour_verdicts", "direct", "selected_factor", "notes"),
        f"NefReport(type_label='A1', divisor=NefDivisor(coeffs=((1,),)), "
        f"colour_verdicts=((0, 1, {_VERDICT!r}),), direct={_VERDICT!r}, selected_factor=0, notes=('n',))",
    ),
    (
        SemisimpleType.parse("A1xB2"),
        ("factors",),
        "SemisimpleType(factors=(SimpleType(family='A', rank=1), SimpleType(family='B', rank=2)))",
    ),
    (
        NefDivisor(((1,), (0, 2))),
        ("coeffs",),
        "NefDivisor(coeffs=((1,), (0, 2)))",
    ),
    (
        _POINT,
        ("coords",),
        "RationalProjectivePoint(coords=(1, -2, 3))",
    ),
    (
        PlaceSpec(3),
        ("prime",),
        "PlaceSpec(prime=3)",
    ),
    (
        ApproxSample(_POINT.coords, 3, 1, 9, 0.5),
        ("coords", "height", "dist_num", "dist_den", "ratio"),
        "ApproxSample(coords=(1, -2, 3), height=3, dist_num=1, dist_den=9, ratio=0.5)",
    ),
    (
        AlphaEstimate(1.0, 0.5, 1.5, 20, 10),
        ("estimate", "tail_min", "tail_max", "sample_count", "tail_count"),
        "AlphaEstimate(estimate=1.0, tail_min=0.5, tail_max=1.5, sample_count=20, tail_count=10)",
    ),
    (
        Trend(1.0, -0.25, "bounded"),
        ("gamma", "slope", "verdict"),
        "Trend(gamma=1.0, slope=-0.25, verdict='bounded')",
    ),
    (
        RowAudit("G2", "dims", (7, 14), (7, 14), (), (), (), False),
        ("label", "quantity", "printed", "computed", "mismatch_positions", "only_printed",
         "only_computed", "uses_traversal"),
        "RowAudit(label='G2', quantity='dims', printed=(7, 14), computed=(7, 14), "
        "mismatch_positions=(), only_printed=(), only_computed=(), uses_traversal=False)",
    ),
    (
        TableRow({"type": "A1"}, ("A1", "1", ("4",))),
        ("data", "cells"),
        "TableRow(data={'type': 'A1'}, cells=('A1', '1', ('4',)))",
    ),
    (
        Table("t", "title", (), ("type",), ("a", "b"), False, (), ()),
        ("name", "title", "closed_forms", "fields", "captions", "math", "rows", "appendix"),
        "Table(name='t', title='title', closed_forms=(), fields=('type',), captions=('a', 'b'), "
        "math=False, rows=(), appendix=())",
    ),
    (
        ReportRow("A1", 1, 1, 1, 1, 4, None, 2, True, ()),
        ("type_label", "weight_index", "comark", "table_binomial", "required_count", "end_dim",
         "h0_dim", "dense_lower_bound", "passed", "notes"),
        "ReportRow(type_label='A1', weight_index=1, comark=1, table_binomial=1, required_count=1, "
        "end_dim=4, h0_dim=None, dense_lower_bound=2, passed=True, notes=())",
    ),
]

_IDS = [type(value).__name__ for value, _, _ in SAMPLES]


def test_every_value_type_is_sampled():
    assert len(set(_IDS)) == len(SAMPLES) == 17


@pytest.mark.parametrize("value, fields, text", SAMPLES, ids=_IDS)
def test_fields_and_repr(value, fields, text):
    assert type(value)._fields == fields
    assert repr(value) == text


@pytest.mark.parametrize("value, fields, text", SAMPLES, ids=_IDS)
def test_fields_cannot_be_assigned(value, fields, text):
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))


@pytest.mark.parametrize("value, fields, text", SAMPLES, ids=_IDS)
def test_equality_and_hash_by_fields(value, fields, text):
    rebuilt = type(value)(*value)
    assert rebuilt == value and rebuilt is not value
    # a named tuple equals the plain tuple of its fields
    assert value == tuple(getattr(value, name) for name in fields)
    if isinstance(value, TableRow):
        with pytest.raises(TypeError):  # its data is a dict
            hash(value)
    else:
        assert hash(rebuilt) == hash(value)


def test_unequal_fields_compare_unequal():
    assert SimpleType("A", 2) != SimpleType("A", 3)
    assert DominantWeight((1, 0)) != DominantWeight((0, 1))
    assert PlaceSpec(2) != PlaceSpec()
    assert _VERDICT != _VERDICT._replace(full_conjecture=True)


def test_supported_types_order():
    expected = [f"{family}{n}" for family, lowest in (("A", 1), ("B", 2), ("C", 2), ("D", 4))
                for n in range(lowest, 25)]
    assert [str(st) for st in supported_types(24)] == expected + ["E6", "E7", "E8", "F4", "G2"]


def test_sorting_by_fields():
    labels = ["G2", "A10", "B2", "A9", "E6"]
    assert [str(st) for st in sorted(map(SimpleType.parse, labels))] == ["A9", "A10", "B2", "E6", "G2"]
    weights = [DominantWeight((1, 0)), DominantWeight((0, 2)), DominantWeight((0, 1, 0))]
    assert [w.coords for w in sorted(weights)] == [(0, 1, 0), (0, 2), (1, 0)]
    types = [SemisimpleType.parse(label) for label in ("B2", "A1xA2", "A2", "A1")]
    assert [str(t) for t in sorted(types)] == ["A1", "A1xA2", "A2", "B2"]


VALIDATIONS = [
    (lambda: SimpleType("A", 0), InvalidRank,
     "A0 is not supported: A needs rank >= 1 (lower ranks repeat smaller types)"),
    (lambda: SimpleType("D", 3), InvalidRank,
     "D3 is not supported: D needs rank >= 4 (lower ranks repeat smaller types)"),
    (lambda: SimpleType("E", 5), InvalidRank, "E5 is not a simple type"),
    (lambda: SimpleType("H", 2), InvalidRank, "unknown family 'H'"),
    (lambda: SimpleType("A", 2)._replace(rank=0), InvalidRank,
     "A0 is not supported: A needs rank >= 1 (lower ranks repeat smaller types)"),
    (lambda: SimpleType("A", 2.0), InvalidRank, "rank must be an integer, got 2.0"),
    (lambda: SimpleType("A", 2)._replace(rank="2"), InvalidRank, "rank must be an integer, got '2'"),
    (lambda: DominantWeight((1, -1)), NonDominant, "negative coordinate in (1, -1)"),
    (lambda: DominantWeight((1,))._replace(coords=(-1,)), NonDominant, "negative coordinate in (-1,)"),
    (lambda: DominantWeight((1.5, 0)), BadArgs, "weight coordinates must be integers, got (1.5, 0)"),
    (lambda: DominantWeight(("1", 0)), BadArgs, "weight coordinates must be integers, got ('1', 0)"),
    (lambda: DominantWeight((1,))._replace(coords=(0.5,)), BadArgs,
     "weight coordinates must be integers, got (0.5,)"),
    (lambda: SemisimpleType(()), InvalidRank, "a semisimple type needs at least one factor"),
    (lambda: SemisimpleType.parse("A1")._replace(factors=()), InvalidRank,
     "a semisimple type needs at least one factor"),
    (lambda: NefDivisor(((1,), (0, -2))), NotNef, "negative nef coordinate in (0, -2)"),
    (lambda: NefDivisor(((1,),))._replace(coeffs=((-1,),)), NotNef, "negative nef coordinate in (-1,)"),
    (lambda: NefDivisor((("1", 0),)), BadArgs, "nef coordinates must be integers, got (('1', 0),)"),
    (lambda: NefDivisor(((1.5, 0),)), BadArgs, "nef coordinates must be integers, got ((1.5, 0),)"),
    (lambda: NefDivisor.from_flat(SemisimpleType.parse("A2"), [1.5, 0]), BadArgs,
     "nef coordinates must be integers, got ((1.5, 0),)"),
    (lambda: NefDivisor(((1,),))._replace(coeffs=((0.5,),)), BadArgs,
     "nef coordinates must be integers, got ((0.5,),)"),
    (lambda: RationalProjectivePoint((1.5, 2)), BadArgs,
     "projective coordinates must be integers, got (1.5, 2)"),
    (lambda: RationalProjectivePoint(("1", 2)), BadArgs,
     "projective coordinates must be integers, got ('1', 2)"),
    (lambda: RationalProjectivePoint((1,)), BadArgs, "a projective point needs at least two coordinates"),
    (lambda: RationalProjectivePoint((0, 0)), BadArgs, "the zero vector is not a projective point"),
    (lambda: _POINT._replace(coords=(0, 0)), BadArgs, "the zero vector is not a projective point"),
    (lambda: PlaceSpec(4), BadArgs, "4 is not prime"),
    (lambda: PlaceSpec(1), BadArgs, "1 is not prime"),
    (lambda: PlaceSpec(3)._replace(prime=9), BadArgs, "9 is not prime"),
    (lambda: PlaceSpec(2.0), BadArgs, "prime must be an integer, got 2.0"),
    (lambda: PlaceSpec("3"), BadArgs, "prime must be an integer, got '3'"),
    (lambda: PlaceSpec(3)._replace(prime=2.0), BadArgs, "prime must be an integer, got 2.0"),
    (lambda: ApproxSample((0, 0), 1, 1, 2, 0.5), BadArgs, "the zero vector is not a projective point"),
    (lambda: ApproxSample((1.5, 2), 2, 1, 2, 0.5), BadArgs,
     "projective coordinates must be integers, got (1.5, 2)"),
    (lambda: ApproxSample((1, 2), 2, 1, 0, 0.5), BadArgs, "a sample distance needs a nonzero denominator, got 1/0"),
    (lambda: ApproxSample((1, 2), 2, -1, 4, 0.5), BadArgs, "a sample distance cannot be negative, got -1/4"),
    (lambda: ApproxSample((1, 2), 2, 2, -4, 0.5), BadArgs, "a sample distance cannot be negative, got -1/2"),
    (lambda: ApproxSample((1, 2), 2, 0.5, 2, 0.5), BadArgs,
     "a sample distance must be a ratio of integers, got 0.5/2"),
    (lambda: _SAMPLE._replace(dist_den=0), BadArgs, "a sample distance needs a nonzero denominator, got 1/0"),
    (lambda: ApproxSample((1, 2), 2, 0, 5, 0.5), BadArgs, "sample point coincides with the target"),
    (lambda: ApproxSample((1, 2), 2, 0, -5, 0.5), BadArgs, "sample point coincides with the target"),
    (lambda: _SAMPLE._replace(dist_num=0), BadArgs, "sample point coincides with the target"),
    (lambda: _SAMPLE._replace(coords=(0, 0)), BadArgs, "the zero vector is not a projective point"),
    (lambda: ApproxSample((1, 2), "x", 1, 2, "r"), BadArgs, "a sample height must be an integer, got 'x'"),
    (lambda: ApproxSample((1, 2), 2.0, 1, 2, 0.5), BadArgs, "a sample height must be an integer, got 2.0"),
    (lambda: ApproxSample((1, 2), 0, 1, 2, 0.5), BadArgs, "a sample height must be at least 1, got 0"),
    (lambda: ApproxSample((1, 2), -3, 1, 2, 0.5), BadArgs, "a sample height must be at least 1, got -3"),
    (lambda: _SAMPLE._replace(height=0), BadArgs, "a sample height must be at least 1, got 0"),
    (lambda: _SAMPLE._replace(height=1.5), BadArgs, "a sample height must be an integer, got 1.5"),
]


@pytest.mark.parametrize("build, error, message", VALIDATIONS)
def test_validation_class_and_message(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message


def test_replace_normalises_a_projective_point():
    assert _POINT._replace(coords=(0, -3, 6)).coords == (0, 1, -2)


def test_a_sample_normalises_its_point_and_reduces_its_distance():
    sample = ApproxSample((-2, 4), 2, -2, -8, 0.5)
    assert (sample.coords, sample.dist_num, sample.dist_den) == ((1, -2), 1, 4)
    assert _SAMPLE._replace(coords=(3, 6), dist_num=-3, dist_den=-15) == ((1, 2), 2, 1, 5, 0.5)


def test_root_system_invariants_stay_cached():
    rs = build_root_system(SimpleType("B", 3))
    assert rs.fundamental_dims is rs.fundamental_dims
    assert rs.coroot_rows is rs.coroot_rows
    with pytest.raises(AttributeError):
        rs.dim_X = 0
    # _replace builds a root system with its own, empty cache
    assert rs._replace().fundamental_dims == rs.fundamental_dims
    assert rs._replace().fundamental_dims is not rs.fundamental_dims


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # Each of these costs every command milliseconds of start-up.
    probe = "import sys, lieapprox.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    child = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120, check=False,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"
