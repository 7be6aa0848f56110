import math
import operator
import random

import pytest

from nlatlas.errors import NotNef, NotProjectable, ParseError, SpanTooSmall
from nlatlas.picard import DivisorClass, pair
from nlatlas.surfaces import (PlaneModel, SurfaceInvariants, abstract_surface,
                              expand, external_projection, internal_projection,
                              invariants, nodal_projection,
                              normalize_contractions, parse_surface_spec)

K3 = abstract_surface(14, 8, 0, 2, label="K3 of degree 14")


def test_expand_plane():
    assert expand(PlaneModel(1)) == DivisorClass(1, ())


def test_expand_mixed_multiplicities():
    assert expand(PlaneModel(5, (7, 0, 1))) == DivisorClass(5, (1,) * 7 + (3,))
    assert expand(PlaneModel(4, (6, 1, 0))) == DivisorClass(4, (1,) * 6 + (2,))


def test_normalize_del_pezzo_no_contractions():
    h, contracted = normalize_contractions(expand(PlaneModel(3, (5,))))
    assert contracted == ()
    assert h == DivisorClass(3, (1,) * 5)


def test_normalize_contracts_line_class():
    h, contracted = normalize_contractions(expand(PlaneModel(2, (2,))))
    assert contracted == (DivisorClass(1, (1, 1)),)
    s = invariants(PlaneModel(2, (2,)))
    assert (s.degree, s.K2, s.chi_top, s.h0_H) == (2, 8, 4, 4)


def test_normalize_plane_trivial():
    h, contracted = normalize_contractions(DivisorClass(1, ()))
    assert contracted == ()


def test_normalize_rejects_non_nef():
    with pytest.raises(NotNef):
        normalize_contractions(expand(PlaneModel(3, (0, 2))))


def test_normalize_drops_zero_multiplicity_points():
    h, contracted = normalize_contractions(DivisorClass(2, (1, 0)))
    assert h == DivisorClass(2, (1,))
    assert contracted == (DivisorClass(0, (0, -1)),)


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


def test_noether_identity_enforced():
    with pytest.raises(ValueError):
        SurfaceInvariants(degree=9, sect_genus=3, K2=1, chi_O=1, chi_top=10, h0_H=8)


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


def test_invariants_ignore_point_ordering():
    base = expand(PlaneModel(6, (2, 3, 1)))
    rng = random.Random(3)
    shuffled = list(base.mults)
    rng.shuffle(shuffled)
    other = DivisorClass(base.plane_degree, shuffled)
    assert pair(base, base) == pair(other, other)
    h1, c1 = normalize_contractions(base)
    h2, c2 = normalize_contractions(other)
    assert len(c1) == len(c2)
    assert pair(h1, h1) == pair(h2, h2)


def test_normalize_matches_catalogue_brute_force():
    # the sorted-multiplicity rule must agree with pairing H against every
    # class of the explicit catalogue, in catalogue order, up to k = 12
    from nlatlas.picard import neg_curve_catalogue
    rng = random.Random(2718)
    catalogues = {}
    contracting = 0
    shapes = set()
    for _ in range(1000):
        k = rng.randint(0, 12)
        m = [rng.randint(0, 4) for _ in range(k)]
        desc = sorted(m, reverse=True)
        # aim a at the tie of one shape as often as at a random class
        a = rng.choice([math.isqrt(sum(x * x for x in m)) + rng.randint(0, 3),
                        sum(desc[:2]), -(-sum(desc[:5]) // 2),
                        -(-(sum(desc[:1]) + sum(desc[:7])) // 3)])
        h = DivisorClass(a, m)
        if a < 1 or pair(h, h) < 1:
            continue
        if k not in catalogues:
            catalogues[k] = neg_curve_catalogue(k)
        cat = catalogues[k]
        pairings = [c.plane_degree * a - sum(map(operator.mul, c.mults, m)) for c in cat]
        if any(p < 0 for p in pairings):
            with pytest.raises(NotNef):
                normalize_contractions(h)
            continue
        _, contracted = normalize_contractions(h)
        assert contracted == tuple(c for c, p in zip(cat, pairings) if p == 0), h
        contracting += bool(contracted)
        shapes.update(c.plane_degree for c in contracted)
    assert contracting > 300
    assert shapes == {0, 1, 2, 3}


@pytest.mark.parametrize("h,error,message", [
    (DivisorClass(3, (1, -1, 2)), NotNef, "H.E_2 = -1 < 0 for H = (3; 1,-1,2)"),
    (DivisorClass(3, (2, 2)), NotNef, "H.(L-E_1-E_2) = -1 < 0 for H = (3; 2,2)"),
    (DivisorClass(6, (3, 3, 3, 2, 2)), NotNef,
     "a conic (-1)-class pairs negatively with H = (6; 3,3,3,2,2)"),
    (DivisorClass(9, (5, 3, 3, 3, 3, 3, 3)), NotNef,
     "a cubic (-1)-class pairs negatively with H = (9; 5,3,3,3,3,3,3)"),
    (DivisorClass(3, (2, 2, 1, 1)), ValueError, "H^2 = -1 < 1: not an embedding class"),
])
def test_normalize_error_messages(h, error, message):
    with pytest.raises(error) as exc:
        normalize_contractions(h)
    assert str(exc.value) == message


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
    ("abs:deg=13", 10),
    ("5;6,2 nodes=0", 12), ("5;6,2 nodes=-1", 12), ("5;6,2 nodes=1_0", 12),
    ("\uff15;7,0,1", 0), ("+5;7,0,1", 0),
])
def test_parse_error_positions(bad, position):
    with pytest.raises(ParseError) as err:
        parse_surface_spec(bad)
    assert err.value.position == position


def test_parse_accepts_leading_zeros_and_negative_abs_fields():
    assert parse_surface_spec("05;07,0,01") == parse_surface_spec("5;7,0,1")
    s = parse_surface_spec("abs:deg=013,g=8,K2=-01,chiO=2")
    assert (s.degree, s.K2) == (13, -1)


def test_unprojected_large_span_rejected():
    # S(5;7,0,0) spans P^13; without a projection modifier it cannot sit in P^7
    with pytest.raises(SpanTooSmall):
        parse_surface_spec("5;7,0")
    with pytest.raises(SpanTooSmall):
        parse_surface_spec("abs:deg=14,g=8,K2=0,chiO=2")
