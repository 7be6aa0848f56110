"""Behaviour of the record types: every one survives pickle (so a caller's own
process pool can ship it) and refuses attribute assignment; the codec kinds
round-trip; and the checks of the validated records run however a record is
built: directly, by ``serialize.decode`` and as a projection's result."""

import dataclasses
import importlib
import json
import pickle
import typing
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import nlatlas as nl
from nlatlas.chow import ONE, H, TruncatedClass
from nlatlas.counts import chi_NSX_lower, codimension_bound
from nlatlas.errors import NegativeCount
from nlatlas.hodge import classify, diagram_from_dict, solve_diagram
from nlatlas.lattice import mod16_class
from nlatlas.serialize import KINDS, decode, encode
from nlatlas.surfaces import SurfaceInvariants
from test_counts import CI_TYPES, drawn_specs, parsed


def _records() -> list:
    """One value of every record type of the package."""
    s = nl.parse_surface_spec("5;6,2 nodes=1")
    bounds = nl.SearchBounds(max_a=2, max_points=3)
    atlas = nl.enumerate_atlas(bounds)
    spec = diagram_from_dict({"left": {"fourfold": "X222", "center": "5;7,0,1"},
                              "right": {"fourfold": "ci22", "center": "unknown"}})
    solved = solve_diagram(spec)
    inv = solved.invariants
    dataset = nl.load_dataset()
    report = nl.reproduce_tables(1, dataset)
    return [
        nl.DivisorClass(5, (1, 1, 3)), nl.PlaneModel(5, (7, 0, 1)), s, nl.CI222,
        TruncatedClass(1, 2, 3, 4, 5, 6, 7), nl.fourfold_lattice(nl.CI222, s),
        mod16_class(16), nl.codimension_bound(s, 0), nl.preset("X222"), spec, solved,
        inv, classify(inv.pg, inv.q, inv.K2), report, report.checks[0],
        dataset.rows[-1], dataset.row("t3-1").assoc, dataset, dataset.gap_rows[0], bounds,
        atlas[0],
        nl.gap_report(atlas, 110, bounds),
    ]


RECORDS = _records()


def _name(value) -> str:
    return type(value).__name__


def test_every_record_type_is_covered():
    declared = set()
    for path in Path(nl.__file__).parent.glob("*.py"):
        module = importlib.import_module(f"nlatlas.{path.stem}")
        declared |= {obj for name, obj in vars(module).items()
                     if isinstance(obj, type) and obj.__module__ == module.__name__
                     and not name.startswith("_")
                     and (issubclass(obj, tuple) or dataclasses.is_dataclass(obj))}
    assert {type(v) for v in RECORDS} == declared


@pytest.mark.parametrize("value", RECORDS, ids=_name)
def test_pickle_round_trip(value):
    back = pickle.loads(pickle.dumps(value))
    assert type(back) is type(value)
    assert back == value


def _coded(value) -> bool:
    return _name(value) in KINDS.values()


def _assert_round_trip(value):
    back = decode(json.loads(json.dumps(encode(value))))
    assert type(back) is type(value)
    assert back == value


@pytest.mark.parametrize("value", [v for v in RECORDS if _coded(v)], ids=_name)
def test_codec_round_trip(value):
    _assert_round_trip(value)


@settings(max_examples=100)
@given(drawn_specs())
def test_codec_round_trip_on_drawn_specs(spec):
    # the surface, its lattice for each multidegree and, where it has a net
    # of quadrics, both parameter counts of its window
    s = parsed(spec)
    assume(s is not None)
    values = [s, *(nl.fourfold_lattice(ci, s) for ci in CI_TYPES)]
    try:
        values += [codimension_bound(s, 0), codimension_bound(s, max(chi_NSX_lower(s), 0))]
    except NegativeCount:
        pass
    for value in values:
        _assert_round_trip(value)


@settings(max_examples=20)
@given(st.builds(nl.SearchBounds, st.integers(1, 8), st.integers(1, 13), st.integers(1, 3),
                 st.integers(1, 12), st.integers(1, 12)))
def test_codec_round_trip_on_drawn_atlas_entries(bounds):
    for value in (bounds, *nl.enumerate_atlas(bounds)):
        _assert_round_trip(value)


@pytest.mark.parametrize("value", RECORDS, ids=_name)
def test_attributes_cannot_be_set(value):
    field = next(iter(typing.get_type_hints(type(value))))
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("build", [
    lambda: nl.PlaneModel(0),
    lambda: nl.PlaneModel(5, (7, -1)),
    lambda: nl.SurfaceInvariants(0, 0, 9, 1),
    lambda: nl.SurfaceInvariants(9, 3, 1, 1, nodes=-1),
    lambda: nl.CompleteIntersectionType(()),
    lambda: nl.CompleteIntersectionType((2, 1)),
    lambda: nl.HodgeDiamond(3, ()),
    lambda: nl.HodgeDiamond(1, ((1, 2), (3, 1))),
    lambda: nl.SearchBounds(max_codim=0),
], ids=["plane-degree", "plane-counts", "degree", "nodes", "ci-empty",
        "ci-degree", "diamond-dim", "diamond-symmetry", "bounds"])
def test_direct_construction_validates(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("build", [
    lambda: nl.HodgeDiamond(2, ((1, 0, 2.7), (0, True, 0), (2.2, 0, 1))),
    lambda: nl.HodgeDiamond(0, [["1"]]),
    lambda: nl.abstract_surface(9, 3, 1, 1.5),
    lambda: nl.SurfaceInvariants(9.5, 3, 1, 1),
    # the form with chi_top and h0_H, which read as 11 nodes
    lambda: nl.SurfaceInvariants(9, 3, 1, 1, 11, 8),
    lambda: nl.codimension_bound(nl.abstract_surface(9, 3, 1, 1), 2.5),
    lambda: nl.DivisorClass(1, ("x",)),
    lambda: nl.DivisorClass(1.5),
    lambda: nl.DivisorClass(3, (1.9,)),
], ids=["diamond-float", "diamond-str", "abstract-float", "surface-float",
        "surface-old-form", "count-float", "divisor",
        "divisor-float-degree", "divisor-float-mult"])
def test_direct_construction_refuses_inexact_types(build):
    # int() would truncate 2.7 and parse "1"; abstract_surface(9, 3, 1, 1.5) gave
    # h0_H = 8.5 and a count at h0(N_S/X) = 2.5 a codimension bound of 3.5; a
    # record of degree 9.5 gave h0(I(2)) = 10.5 and a discriminant of 45.75;
    # DivisorClass(3, (1.9,)) was (3; 1), and riemann_roch_chi(DivisorClass(1.5))
    # halved an odd 6.75
    with pytest.raises(TypeError):
        build()


def test_validation_converts_fields():
    assert nl.PlaneModel(5, [7, 0, 1]).point_counts == (7, 0, 1)
    assert nl.CompleteIntersectionType([2, 2, 2]) == nl.CI222
    assert nl.DivisorClass(1, [True]).mults == (1,)
    assert nl.HodgeDiamond(0, [[1]]).entries == ((1,),)


@pytest.mark.parametrize("kind,value", [
    ("plane_model", nl.PlaneModel(5, (7, 0, 1))._replace(a=0)),
    ("surface", nl.parse_surface_spec("5;7,0,1")._replace(degree=0)),
    ("ci_type", nl.CI222._replace(degrees=(2, 1))),
    ("hodge_diamond", nl.preset("K3")._replace(entries=((1, 0, 1), (0, 20, 0), (2, 0, 1)))),
    ("search_bounds", nl.SearchBounds()._replace(max_a=0)),
])
def test_decode_validates(kind, value):
    # _replace skips the checks, so these records can be encoded at all
    data = encode(value)
    assert data["kind"] == kind
    with pytest.raises(ValueError):
        decode(data)


# degree 0, which the constructor refuses, and h0(H) = 9, so that every
# projection admits it; ``_make`` builds it without the checks
CORRUPT = SurfaceInvariants._make((0, 0, 1, 8, 0, True, "corrupt"))


@pytest.mark.parametrize("project", [
    nl.internal_projection,
    nl.external_projection,
    lambda s: nl.nodal_projection(s, 1),
], ids=["internal", "external", "nodal"])
def test_projections_build_through_the_constructor(project):
    with pytest.raises(ValueError, match="degree must be >= 1"):
        project(CORRUPT)
    result = project(CORRUPT._replace(degree=9, sect_genus=9))
    assert type(result) is SurfaceInvariants


def test_internal_projection_validates_its_result():
    # degree 1 and h0(H) = 5: the projection would have degree 0
    with pytest.raises(ValueError, match="degree must be >= 1"):
        nl.parse_surface_spec("abs:deg=1,g=0,K2=0,chiO=3 int-proj")


def test_truncated_class_is_no_sequence_under_arithmetic():
    # tuple would repeat under ``2 * x`` and order entrywise
    with pytest.raises(TypeError, match="unsupported operand"):
        2 * H
    for compare in (lambda: ONE < H, lambda: ONE <= H, lambda: ONE > H, lambda: ONE >= H):
        with pytest.raises(TypeError, match="not supported"):
            compare()
    assert (ONE + H) * (ONE - H) == TruncatedClass(c0=1, h2=-1)
