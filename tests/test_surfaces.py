import random
import re
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from nlatlas.chow import parse_ci
from nlatlas.errors import NotNef, NotProjectable, ParseError, SpanTooSmall
from nlatlas.picard import DivisorClass
from nlatlas.surfaces import (PlaneModel, abstract_surface, expand, external_projection,
                              internal_projection, invariants, nodal_projection,
                              normalize_contractions, parse_surface_spec)

K3 = abstract_surface(14, 8, 0, 2, label="K3 of degree 14")


def test_expand_plane():
    assert expand(PlaneModel(1)) == DivisorClass(1, ())


def test_expand_mixed_multiplicities():
    assert expand(PlaneModel(5, (7, 0, 1))) == DivisorClass(5, (1,) * 7 + (3,))
    assert expand(PlaneModel(4, (6, 1, 0))) == DivisorClass(4, (1,) * 6 + (2,))


def test_normalize_del_pezzo_no_contractions():
    # (H^2, H.K, a, counts, contracted)
    assert normalize_contractions(PlaneModel(3, (5,))) == (4, -4, 3, (5,), 0)


def test_normalize_contracts_line_class():
    # a = m1 + m2: the line L - E1 - E2 is contracted, leaving P^1 x P^1
    assert normalize_contractions(PlaneModel(2, (2,))) == (2, -4, 2, (2,), 1)
    s = invariants(PlaneModel(2, (2,)))
    assert (s.degree, s.K2, s.chi_top, s.h0_H) == (2, 8, 4, 4)


def test_normalize_plane_trivial():
    assert normalize_contractions(PlaneModel(1)) == (1, -3, 1, (), 0)


def test_normalize_rejects_non_nef():
    with pytest.raises(NotNef):
        normalize_contractions(PlaneModel(3, (0, 2)))


@pytest.mark.parametrize("spec,expected", [
    ((3, (5, 0, 0)), (4, 1, 4, 1, 8, 5)),
    ((5, (7, 0, 1)), (9, 3, 1, 1, 11, 8)),
    ((1, ()), (1, 0, 9, 1, 3, 3)),
])
def test_invariants_examples(spec, expected):
    a, counts = spec
    s = invariants(PlaneModel(a, counts))
    assert (s.degree, s.sect_genus, s.K2, s.chi_O, s.chi_top, s.h0_H) == expected


def test_invariants_rejects_degree_cover_models():
    # septics with 11 double points map 5:1 to a plane, not an embedding
    with pytest.raises(SpanTooSmall):
        invariants(PlaneModel(7, (0, 11)))


def test_internal_projection_of_k3():
    s = internal_projection(K3)
    assert (s.degree, s.sect_genus, s.K2, s.chi_O, s.chi_top, s.h0_H) == \
        (13, 8, -1, 2, 25, 8)


def test_internal_projection_deltas():
    src = abstract_surface(10, 4, 2, 1)
    dst = internal_projection(src)
    assert (dst.degree, dst.sect_genus, dst.K2, dst.chi_O) == (9, 4, 1, 1)


def test_internal_projection_twice():
    s = internal_projection(internal_projection(K3))
    assert (s.degree, s.K2) == (12, -2)


def test_internal_projection_unit_deltas_random():
    rng = random.Random(99)
    for _ in range(200):
        g = rng.randint(0, 12)
        deg = rng.randint(2 * g + 6, 2 * g + 20)
        chi = rng.randint(1, 4)
        k2 = rng.randint(-5, 9)
        src = abstract_surface(deg, g, k2, chi)
        if src.h0_H < 5:
            continue
        dst = internal_projection(src)
        assert dst.sect_genus == src.sect_genus and dst.chi_O == src.chi_O
        assert (src.degree - dst.degree, src.K2 - dst.K2, src.h0_H - dst.h0_H) == (1, 1, 1)
        assert dst.chi_top - src.chi_top == 1


def test_internal_projection_rejects_nodal():
    with pytest.raises(NotProjectable):
        internal_projection(nodal_projection(K3, 1))


def test_external_projection():
    src = invariants(PlaneModel(4, (3, 1)))
    assert (src.degree, src.sect_genus, src.K2, src.h0_H) == (9, 2, 5, 9)
    dst = external_projection(src)
    assert (dst.degree, dst.sect_genus, dst.K2, dst.h0_H) == (9, 2, 5, 9)
    assert not dst.linearly_normal and dst.span_dim == 7
    with pytest.raises(NotProjectable):
        external_projection(dst)


def test_external_projection_needs_p8():
    with pytest.raises(NotProjectable):
        external_projection(invariants(PlaneModel(5, (7, 0, 1))))  # h0 = 8


def test_nodal_projection():
    src = invariants(PlaneModel(5, (6, 2)))
    assert (src.degree, src.sect_genus, src.K2, src.h0_H) == (11, 4, 1, 9)
    dst = nodal_projection(src, 1)
    assert dst.nodes == 1
    assert (dst.degree, dst.sect_genus, dst.K2, dst.chi_top) == (11, 4, 1, 11)
    with pytest.raises(NotProjectable):
        nodal_projection(src, 0)


def test_nodal_projection_field_update_only():
    src = external_projection(invariants(PlaneModel(4, (3, 1))))
    # already projected images cannot be projected again
    with pytest.raises(NotProjectable):
        nodal_projection(src, 2)
    two = nodal_projection(invariants(PlaneModel(4, (3, 1))), 2)
    assert two.nodes == 2 and two.degree == 9


def test_normalize_reduces_to_standard_form():
    # S(6;4,1,3) is the plane: three quadratic transformations take
    # (6; 3,3,3,2,1,1,1,1) to (1;), and all eight points are contracted
    assert normalize_contractions(PlaneModel(6, (4, 1, 3))) == (1, -3, 1, (), 8)
    assert invariants(PlaneModel(6, (4, 1, 3))).K2 == 9
    # S(7;1,5,3) reduces to the anticanonical cubics through eight of its
    # nine points; the ninth point is contracted
    assert normalize_contractions(PlaneModel(7, (1, 5, 3))) == (1, -1, 3, (8,), 1)


_MANY_POINTS = PlaneModel(4000, (10**6,) + (0,) * 2098 + (2,))


@pytest.mark.parametrize("model,error,message", [
    # H pairs negatively with a line, a conic and a nodal cubic in turn; the
    # message names H by the model's label
    pytest.param(PlaneModel(3, (0, 2)), NotNef,
                 "H.C = -1 < 0 for a (-1)-class C and H of S(3;0,2)", id="line"),
    pytest.param(PlaneModel(6, (0, 2, 3)), NotNef,
                 "H.C = -1 < 0 for a (-1)-class C and H of S(6;0,2,3)", id="conic"),
    pytest.param(PlaneModel(9, (0, 0, 6, 0, 1)), NotNef,
                 "H.C = -1 < 0 for a (-1)-class C and H of S(9;0,0,6,0,1)", id="cubic"),
    pytest.param(PlaneModel(3, (2, 2)), ValueError,
                 "H^2 = -1 < 1: not an embedding class", id="h2"),
    # refused from its counts, with no entry per point
    pytest.param(PlaneModel(1, (10**7,)), ValueError,
                 "H^2 = -9999999 < 1: not an embedding class", id="h2-many-points"),
    # a million points: one per point, H would take 2,000,059 characters
    pytest.param(_MANY_POINTS, NotNef,
                 f"H.C = -200 < 0 for a (-1)-class C and H of {_MANY_POINTS}",
                 id="not-nef-many-points"),
])
def test_normalize_error_messages(model, error, message):
    tracemalloc.start()
    try:
        with pytest.raises(error) as exc:
            normalize_contractions(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == message
    # the message grows with the model's label, not with its points
    assert len(message) <= len(str(model)) + 60
    assert peak < 2**20



@pytest.mark.parametrize("model,reduced", [
    # ten million simple points, standard already
    pytest.param(PlaneModel(4000, (10**7,)), (6000000, 9988000, 4000, (10**7,), 0),
                 id="standard"),
    # a million simple points and three of multiplicity 1600: one quadratic
    # transformation, e = 800, takes the three to multiplicity 800
    pytest.param(PlaneModel(4000, (10**6,) + (0,) * 1598 + (3,)),
                 (7320000, 992800, 3200, (10**6,) + (0,) * 798 + (3,), 0), id="one-step"),
])
def test_normalize_memory_does_not_grow_with_points(model, reduced):
    tracemalloc.start()
    try:
        got = normalize_contractions(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == reduced
    assert peak < 2**20


def _line_events(model: PlaneModel) -> tuple[tuple, int]:
    """``normalize_contractions(model)`` and the number of line events that
    ``sys.settrace`` reports inside it: work that no timing noise moves."""
    events = 0

    def lines(frame, event, arg):
        nonlocal events
        events += event == "line"
        return lines

    def calls(frame, event, arg):
        return lines if frame.f_code is normalize_contractions.__code__ else None

    old = sys.gettrace()
    sys.settrace(calls)
    try:
        reduced = normalize_contractions(model)
    finally:
        sys.settrace(old)
    return reduced, events


def test_normalize_work_is_linear_in_the_spec():
    # one point of multiplicity M and 2M simple points: M steps, each lowering
    # the heavy point by one; a scan that restarted at the top on every step
    # would cost O(M) per step (1,523,519 events at M = 1,000 and 6,047,019
    # at M = 2,000), and resumed scans cost O(1)
    events = {}
    for m in (1000, 2000):
        reduced, events[m] = _line_events(PlaneModel(m + 1, (2 * m,) + (0,) * (m - 2) + (1,)))
        assert reduced == (1, -3, 1, (), 2 * m + 1)
    assert events[2000] <= 2.1 * events[1000]
    assert events[1000] < 50 * 1000

@pytest.mark.parametrize("a,counts", [
    (5, (7.9, 0, 1)), (5.5, (7,)), (5, ("7",)), ("5", (7,)), (5, (7.0,)),
])
def test_plane_model_rejects_non_integers(a, counts):
    # int() would truncate 7.9 to 7 and parse "7"; a non-integer degree would
    # carry floats into every invariant
    with pytest.raises(TypeError):
        PlaneModel(a, counts)


def test_normalize_returns_a_standard_input_itself():
    for model in [PlaneModel(1), PlaneModel(3, (5,)), PlaneModel(5, (7, 0, 1)),
                  PlaneModel(4, (0, 0, 1)), PlaneModel(2, (2,))]:
        reduced = normalize_contractions(model)
        _, _, a, counts, _ = reduced
        assert a == model.a and counts is model.point_counts
        assert normalize_contractions(PlaneModel(model.a, model.point_counts + (0,))) == reduced
    # a standard model's counts come back without their trailing zeros
    assert normalize_contractions(PlaneModel(5, (6, 2, 0))) == (11, -5, 5, (6, 2), 0)


def test_genus_roundtrip_identity():
    for spec in [(3, (5,)), (5, (7, 0, 1)), (8, (4, 7, 2)), (6, (11, 1, 1))]:
        s = invariants(PlaneModel(*spec))
        assert s.HK == 2 * s.sect_genus - 2 - s.degree
        assert s.sect_genus == (s.degree + s.HK) // 2 + 1


def test_parse_plane_specs():
    s = parse_surface_spec("5;7,0,1")
    assert (s.degree, s.sect_genus) == (9, 3)
    assert parse_surface_spec("1;").degree == 1
    assert parse_surface_spec("3;5,0,0").degree == 4


def test_parse_abstract_and_modifiers():
    s = parse_surface_spec("abs:deg=13,g=8,K2=-1,chiO=2")
    assert (s.degree, s.K2, s.chi_top) == (13, -1, 25)
    s = parse_surface_spec("abs:deg=14,g=8,K2=0,chiO=2 int-proj")
    assert (s.degree, s.K2) == (13, -1)
    s = parse_surface_spec("5;6,2 nodes=1")
    assert s.nodes == 1
    s = parse_surface_spec("4;3,1 ext-proj")
    assert not s.linearly_normal


@pytest.mark.parametrize("bad", [
    "", ";", "5", "5;7,", "5;,7", "5;7,x", "abs:deg=13", "abs:deg=13,g=8,K2=-1,chiO=two",
    "abs:dg=13,g=8,K2=-1,chiO=2", "5;7,0,1 squint", "5;7,0,1 nodes=x",
])
def test_parse_errors(bad):
    with pytest.raises(ParseError) as err:
        parse_surface_spec(bad)
    assert err.value.position >= 0


@pytest.mark.parametrize("bad,position", [
    ("", 0), ("   ", 0), (";", 0), ("5", 1), ("5;7,,1", 4), ("  5;7,x", 6),
    ("0;1", 0), ("-2;", 0), ("5;7,-1,1", 4), ("5;7,0,-1", 6),
    ("5;7,0,1 nodes=x", 14), ("5;7,0,1   nodes=x", 16), ("5;7,0,1 7", 8),
    ("5;7,0,1 int-proj squint", 17), (" abs:deg=13,g=x,K2=-1,chiO=2", 14),
    ("abs:deg=13", 10), ("abs:deg=0,g=0,K2=0,chiO=1", 8), ("abs:g=0,deg=-2", 12),
    ("5;6,2 nodes=0", 12), ("5;6,2 nodes=-1", 12), ("5;6,2 nodes=1_0", 12),
    ("\uff15;7,0,1", 0), ("+5;7,0,1", 0), ("abs:deg=9,deg=9,g=3,K2=1,chiO=1", 10),
])
def test_parse_error_positions(bad, position):
    with pytest.raises(ParseError) as err:
        parse_surface_spec(bad)
    assert err.value.position == position


@pytest.mark.parametrize("spec,position,message", [
    ("3;5 ext-proj", 4, "external projection needs a linearly normal surface spanning P^8, "
                        "got h0(H) = 5, linearly_normal = True"),
    ("3;1 nodes=1  ext-proj", 13, "external projection requires a smooth image"),
    ("3;1 nodes=1 int-proj", 12, "internal projection requires a smooth linearly normal source"),
    ("3;5 int-proj nodes=2", 13, "h0(H) = 4 < 9: source must span at least P^8"),
])
def test_refused_modifier_names_its_position(spec, position, message):
    # the type stays NotProjectable: only the message gains the place
    with pytest.raises(NotProjectable) as err:
        parse_surface_spec(spec)
    assert type(err.value) is NotProjectable
    assert str(err.value) == f"{message} (at position {position} in {spec!r})"


def test_parse_accepts_leading_zeros_and_negative_abs_fields():
    assert parse_surface_spec("05;07,0,01") == parse_surface_spec("5;7,0,1")
    # a count spelled "-0" fails the one test of a count list and passes the
    # error walk, and reads as 0
    assert parse_surface_spec("5;7,-0,1") == parse_surface_spec("5;7,0,1")
    s = parse_surface_spec("abs:deg=013,g=8,K2=-01,chiO=2")
    assert (s.degree, s.K2) == (13, -1)


@pytest.mark.parametrize("spec", [
    "abs:deg=9,g=9,K2=1,chiO=1", "abs:deg=4,g=3,K2=0,chiO=1", "abs:deg=2,g=3,K2=0,chiO=1",
])
def test_abstract_record_spanning_less_than_p3_rejected(spec):
    # the h0(H) < 4 rule of invariants: h0 = 2, 3 and 1 here
    with pytest.raises(SpanTooSmall):
        parse_surface_spec(spec)
    # a degree-1 record spans the plane, as the plane model 1; does
    assert parse_surface_spec("abs:deg=1,g=0,K2=9,chiO=1").h0_H == 3


def test_unprojected_large_span_rejected():
    # S(5;7,0,0) spans P^13; without a projection modifier it cannot sit in P^7
    with pytest.raises(SpanTooSmall):
        parse_surface_spec("5;7,0")
    with pytest.raises(SpanTooSmall):
        parse_surface_spec("abs:deg=14,g=8,K2=0,chiO=2")


# valid specs and multidegrees, and the characters and words they are made of
SPECS = ("5;7,0,1", "3;5,0,0", "1;", "6;3,0,2 nodes=1", "abs:deg=13,g=8,K2=-1,chiO=2",
         "abs:deg=14,g=8,K2=0,chiO=2 int-proj", "3;6 ext-proj", "5;6,2 nodes=1")
CI_SPECS = ("2,2,2", "3", "2, 2", "2,3,4")
SPEC_PIECES = (";", ",", "=", ":", "-", " ", "\t", "+", "_", "２", "abs:", "deg", "g",
               "K2", "chiO", "nodes", "int-proj", "ext-proj")
SPEC_ALPHABET = "".join(sorted({c for s in SPECS + CI_SPECS + SPEC_PIECES for c in s}))
SPEC_ERRORS = (ParseError, SpanTooSmall, NotNef, NotProjectable, ValueError)


def _short_numbers(text: str) -> bool:
    # a digit run stays below 10^4: the plane-model path lists one entry per
    # point, so a drawn count of 10^12 would ask for terabytes
    return re.search(r"\d{5}", text) is None


@st.composite
def _mutated(draw, valid):
    """A valid text with up to three characters deleted, inserted or replaced."""
    text = draw(st.sampled_from(valid))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        char = draw(st.sampled_from(SPEC_ALPHABET))
        text = draw(st.sampled_from((text[:at] + text[at + 1:], text[:at] + char + text[at:],
                                     text[:at] + char + text[at + 1:])))
    return text


def _drawn_texts(valid):
    pieces = st.one_of(st.sampled_from(SPEC_PIECES), st.sampled_from(SPEC_ALPHABET),
                       st.integers(-20, 999).map(str))
    # three mutated valid texts to one text of pieces
    return st.one_of(*[_mutated(valid)] * 3,
                     st.lists(pieces, max_size=12).map("".join)).filter(_short_numbers)


@pytest.mark.parametrize("parse,valid,errors", [
    (parse_surface_spec, SPECS, SPEC_ERRORS),
    (parse_ci, CI_SPECS, (ParseError,)),
], ids=["surface-spec", "multidegree"])
def test_drawn_text_parses_or_raises_a_named_error(parse, valid, errors):
    @given(_drawn_texts(valid))
    @settings(max_examples=200)
    def check(text):
        try:
            parse(text)
        except errors as exc:
            if isinstance(exc, ParseError):
                assert exc.text == text and 0 <= exc.position <= len(text), (text, exc)
    check()
