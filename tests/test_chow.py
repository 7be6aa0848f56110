import itertools
import random

import pytest

from nlatlas.chow import (CI222, NODE_CORRECTION, CompleteIntersectionType,
                          TruncatedClass, chern_engine_coefficients,
                          closed_form_coefficients, congruence_secancy,
                          flopped_fiber_secancy, formula_222, parse_ci,
                          self_intersection)
from nlatlas.errors import ParseError
from nlatlas.surfaces import abstract_surface, invariants, nodal_projection, \
    parse_surface_spec, PlaneModel


@pytest.mark.parametrize("degrees,expected", [
    ((2, 2, 2), (4, 2)),
    ((3,), (6, 3)),
    ((2, 2), (5, 3)),
])
def test_closed_form_coefficients(degrees, expected):
    assert closed_form_coefficients(CompleteIntersectionType(degrees)) == expected


@pytest.mark.parametrize("degrees", [(2, 2, 2), (3,), (4, 2)])
def test_engine_matches_closed_form_examples(degrees):
    ci = CompleteIntersectionType(degrees)
    assert chern_engine_coefficients(ci) == closed_form_coefficients(ci)


def test_engine_matches_closed_form_exhaustive():
    for r in range(1, 5):
        for degrees in itertools.product(range(2, 6), repeat=r):
            ci = CompleteIntersectionType(degrees)
            assert chern_engine_coefficients(ci) == closed_form_coefficients(ci), degrees


def test_self_intersection_anchors():
    assert self_intersection(CI222, invariants(PlaneModel(5, (7, 0, 1)))) == 16
    cubic = CompleteIntersectionType((3,))
    assert self_intersection(cubic, abstract_surface(13, 12, 2, 4)) == 61
    assert self_intersection(CI222, abstract_surface(13, 8, -1, 2)) == 28
    nodal = nodal_projection(invariants(PlaneModel(5, (6, 2))), 1)
    assert self_intersection(CI222, nodal) == 26


def test_node_correction_is_added_per_node():
    assert NODE_CORRECTION == 2
    nodal = parse_surface_spec("5;6,2 nodes=1")
    smooth = nodal._replace(nodes=0)
    assert self_intersection(CI222, smooth) == 24
    assert self_intersection(CI222, nodal) == 24 + NODE_CORRECTION


def test_formula_222_consistent_with_general_path():
    rng = random.Random(1234)
    ch2, chk = closed_form_coefficients(CI222)
    assert (ch2, chk) == (4, 2)
    for _ in range(500):
        deg = rng.randint(1, 40)
        g = rng.randint(0, 20)
        k2 = rng.randint(-20, 9)
        chi = rng.randint(1, 6)
        hk = 2 * g - 2 - deg
        chi_top = 12 * chi - k2
        general = ch2 * deg + chk * hk + k2 - chi_top
        assert general == formula_222(deg, g, k2, chi)


def test_affine_linearity_coefficients():
    base = (9, 3, 1, 1)
    f = formula_222
    assert f(base[0] + 1, *base[1:]) - f(*base) == 2
    assert f(base[0], base[1] + 1, *base[2:]) - f(*base) == 4
    assert f(base[0], base[1], base[2] + 1, base[3]) - f(*base) == 2
    assert f(base[0], base[1], base[2], base[3] + 1) - f(*base) == -12


def test_chern_engine_intermediate_steps():
    # building blocks of the engine against their closed expressions: the
    # ambient tangent class (1+H)^(n+1) and the normal class of a (2,2,2)
    from nlatlas.chow import ONE, H, TruncatedClass, _power
    for n in (5, 7):
        c_tp = _power(ONE + H, n + 1)
        assert (c_tp.h, c_tp.h2) == (n + 1, n * (n + 1) // 2)
    two_h = TruncatedClass(h=2)
    c_nx = (ONE + two_h) * (ONE + two_h) * (ONE + two_h)
    assert (c_nx.h, c_nx.h2) == (6, 12)


def test_truncated_class_ring_axioms():
    rng = random.Random(5)

    def rand():
        return TruncatedClass(*(rng.randint(-4, 4) for _ in range(7)))

    for _ in range(200):
        x, y, z = rand(), rand(), rand()
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        assert (x * y) * z == x * (y * z)


def test_parse_ci():
    assert parse_ci("2,2,2") == CI222
    assert parse_ci("3").degrees == (3,)
    assert parse_ci("2, 2, 2") == CI222
    assert parse_ci(" 3 ").degrees == (3,)
    with pytest.raises(Exception):
        parse_ci("2,x")
    with pytest.raises(ParseError):
        parse_ci("1,2")


@pytest.mark.parametrize("text,position", [
    ("+2,2,2", 0), ("2,2,\uff12", 4), (" 2,x", 3), ("2,1_0", 2), ("2,,2", 2),
    ("1,2", 0), ("2, 0", 3), ("2,-3", 2),
])
def test_parse_ci_error_positions(text, position):
    with pytest.raises(ParseError) as info:
        parse_ci(text)
    assert info.value.position == position


@pytest.mark.parametrize("degrees", [(2.7, 2, 2), ("2", 2, 2), (2, 2.0)])
def test_ci_rejects_non_integers(degrees):
    # int() would truncate 2.7 to 2 and parse "2"
    with pytest.raises(TypeError):
        CompleteIntersectionType(degrees)


def test_ci_basic_fields():
    ci = CompleteIntersectionType((4, 2))
    assert ci.r == 2 and ci.ambient_dim == 6 and ci.fourfold_degree == 8
    assert CI222.fourfold_degree == 8


def test_congruence_secancy_bookkeeping():
    # curves of degree e in a congruence are (2e-1)-secant to the surface
    assert [congruence_secancy(e) for e in (1, 3, 4, 5, 6)] == [1, 5, 7, 9, 11]
    # flopped exceptional fibers on the cubic-fourfold side: degree-5 curves
    # that are 14-secant to U (the ruling lines are i(W)-secant, here 3)
    assert flopped_fiber_secancy(5, 3) == 14
