import random

import pytest

from nlatlas.errors import (DimensionMismatch, Inconsistent, Underdetermined,
                            UnknownPreset)
from nlatlas.hodge import (UNKNOWN, DiagramSpec, HodgeDiamond, blowup,
                           classify, curve,
                           derive_surface_invariants, diagram_from_dict,
                           fourfold, point, preset, solve_diagram, surface,
                           surface_diamond)
from nlatlas.surfaces import parse_surface_spec


def test_diamond_symmetry_validation():
    with pytest.raises(ValueError):
        HodgeDiamond(2, ((1, 0, 2), (0, 1, 0), (1, 0, 1)))  # conjugation broken
    with pytest.raises(ValueError):
        HodgeDiamond(2, ((1, 0, 1), (0, 1, 0), (1, 0, 2)))  # Serre broken
    with pytest.raises(ValueError):
        HodgeDiamond(2, ((2, 0, 1), (0, 1, 0), (1, 0, 2)))  # h00 != 1


def test_presets():
    p4 = preset("P4")
    assert all(p4.h(p, p) == 1 for p in range(5))
    assert p4.euler == 5
    x = preset("X222")
    assert (x.h(3, 1), x.h(2, 2)) == (3, 38)
    assert x.betti(4) == 44 and x.betti(3) == 0 and x.betti(2) == 1
    assert x.euler == 48
    w = preset("ci22")
    assert w.betti(4) == 8 and w.h(3, 1) == 0
    k3 = preset("K3")
    assert k3.betti(2) == 22 and k3.h(2, 0) == 1
    cubic = preset("cubic4")
    assert cubic.betti(4) == 23 and cubic.h(3, 1) == 1
    with pytest.raises(UnknownPreset):
        preset("P5")


def test_surface_diamond_from_invariants():
    s = surface_diamond(parse_surface_spec("5;7,0,1"))
    assert (s.h(2, 0), s.h(1, 0), s.h(1, 1)) == (0, 0, 9)
    k3p = surface_diamond(parse_surface_spec("abs:deg=14,g=8,K2=0,chiO=2 int-proj"))
    assert (k3p.h(2, 0), k3p.h(1, 1)) == (1, 21)
    assert k3p.betti(2) == 23


def test_blowup_at_point():
    # the exceptional P^3 contributes one class in each of degrees 2, 4, 6
    x = preset("X222")
    bl = blowup(x, point())
    assert bl.h(1, 1) == x.h(1, 1) + 1
    assert bl.h(2, 2) == x.h(2, 2) + 1
    assert bl.h(3, 3) == x.h(3, 3) + 1
    assert bl.h(3, 1) == x.h(3, 1)
    assert bl.euler == x.euler + 3


def test_blowup_along_plane():
    bl = blowup(preset("X222"), preset("plane"))
    assert (bl.h(1, 1), bl.h(2, 2), bl.h(3, 1)) == (2, 39, 3)
    assert bl.betti(4) == 45


def test_blowup_two_sided_identity():
    # Bl_P X = Bl_U P^4 for the plane case; U is the degree-9 solution surface
    u = surface(pg=3, q=0, h11=38)
    assert blowup(preset("X222"), preset("plane")) == blowup(preset("P4"), u)


def test_blowup_adds_center_euler():
    rng = random.Random(11)
    for _ in range(50):
        pg, q = rng.randint(0, 4), rng.randint(0, 3)
        h11 = rng.randint(2 * q * q + 1, 40)
        center = surface(pg, q, h11)
        bl = blowup(preset("X222"), center)
        assert bl.euler == preset("X222").euler + center.euler


def test_blowup_dimension_guard():
    with pytest.raises(DimensionMismatch):
        blowup(preset("K3"), point())
    with pytest.raises(DimensionMismatch):
        blowup(preset("X222"), preset("P4"))


def test_blowup_along_curve():
    # codimension 3: two Tate twists of the curve's diamond
    x = preset("X222")
    bl = blowup(x, curve(2))
    assert bl.h(1, 1) == 2 and bl.h(2, 1) == 2
    assert bl.h(2, 2) == x.h(2, 2) + 2
    assert bl.euler == x.euler + 2 * curve(2).euler


def test_solve_plane_diagram():
    spec = DiagramSpec(preset("X222"), preset("plane"), preset("P4"), UNKNOWN)
    sol = solve_diagram(spec)
    inv = sol.invariants
    assert (inv.pg, inv.q, inv.chi_top, inv.K2) == (3, 0, 46, 2)
    assert inv.chi_O == 4
    cls = classify(inv.pg, inv.q, inv.K2)
    assert cls.castelnuovo_type_I and not cls.non_minimal


def test_solve_ci6_diagram():
    s = surface_diamond(parse_surface_spec("5;7,0,1"))
    sol = solve_diagram(DiagramSpec(preset("X222"), s, preset("ci22"), UNKNOWN))
    inv = sol.invariants
    assert (inv.b2, inv.K2) == (45, 1)
    cls = classify(inv.pg, inv.q, inv.K2)
    assert cls.non_minimal and cls.minimal_model_K2 == 2 and cls.blow_downs == 1


def test_solve_c14_diagram():
    s = surface_diamond(parse_surface_spec("abs:deg=14,g=8,K2=0,chiO=2 int-proj"))
    sol = solve_diagram(DiagramSpec(preset("X222"), s, preset("cubic4"), UNKNOWN))
    inv = sol.invariants
    assert (inv.pg, inv.q, inv.chi_top, inv.K2) == (3, 0, 46, 2)
    assert classify(inv.pg, inv.q, inv.K2).castelnuovo_type_I


def test_solve_unknown_on_either_side():
    spec = DiagramSpec(preset("P4"), UNKNOWN, preset("X222"), preset("plane"))
    sol = solve_diagram(spec)
    assert sol.side == "left"
    assert sol.invariants.pg == 3


def test_solve_roundtrip():
    s = surface_diamond(parse_surface_spec("5;7,0,1"))
    u = solve_diagram(DiagramSpec(preset("X222"), s, preset("ci22"), UNKNOWN)).unknown
    back = solve_diagram(DiagramSpec(preset("X222"), UNKNOWN, preset("ci22"), u))
    assert back.unknown == s


def test_solve_guards():
    with pytest.raises(Underdetermined):
        solve_diagram(DiagramSpec(preset("X222"), UNKNOWN, preset("P4"), UNKNOWN))
    with pytest.raises(Underdetermined):
        solve_diagram(DiagramSpec(preset("X222"), preset("plane"),
                                  preset("P4"), preset("plane")))
    # solving for the center of a cubic against P4 + plane forces h^{2,0} < 0
    with pytest.raises(Inconsistent):
        solve_diagram(DiagramSpec(preset("cubic4"), UNKNOWN, preset("P4"),
                                  preset("plane")))


def test_solve_needs_a_fourfold_on_each_side():
    # a DiagramSpec built directly skips the check of diagram_from_dict
    with pytest.raises(DimensionMismatch, match="need a fourfold"):
        solve_diagram(DiagramSpec(preset("plane"), preset("plane"), preset("X222"), UNKNOWN))
    with pytest.raises(DimensionMismatch, match="^the right side needs a fourfold"):
        solve_diagram(DiagramSpec(preset("X222"), preset("plane"), preset("K3"), UNKNOWN))
    with pytest.raises(DimensionMismatch, match="^diagram side 'right' needs a fourfold"):
        diagram_from_dict({"left": {"fourfold": "X222", "center": "plane"},
                           "right": {"fourfold": "K3", "center": "unknown"}})


def test_solved_noether_identity():
    s = surface_diamond(parse_surface_spec("3;5,0,0"))
    sol = solve_diagram(DiagramSpec(preset("X222"), s, preset("X222"), UNKNOWN))
    inv = sol.invariants
    assert inv.K2 == 12 * inv.chi_O - inv.chi_top
    assert sol.unknown == s


def test_classify_cases():
    assert classify(3, 0, 2).castelnuovo_type_I
    c = classify(3, 0, 1)
    assert c.non_minimal and c.minimal_model_K2 == 2
    c = classify(0, 0, 9)
    assert not c.castelnuovo_type_I and not c.non_minimal


# K^2 < 0 with p_g >= 1 cannot be minimal; the solved K^2 of the ledger rows
# t3-4, t4-1 and t4-3 (p_g = 3) blow down to the Castelnuovo value K^2 = 2
@pytest.mark.parametrize("K2,blow_downs", [(-9, 11), (-1, 3), (-8, 10)])
def test_classify_negative_K2_is_not_minimal(K2, blow_downs):
    assert classify(3, 0, K2) == (False, True, blow_downs, 2)


@pytest.mark.parametrize("pg,q,K2,want", [
    (3, 0, 0, (False, False, 0, None)),     # K^2 = 0 stays undecided
    (1, 0, -2, (False, True, 0, None)),     # non-minimal, no Castelnuovo target
    (3, 1, -1, (False, True, 0, None)),
    # p_g = 0: a minimal ruled surface over a curve of genus >= 2 has K^2 < 0
    (0, 0, -1, (False, False, 0, None)),
])
def test_classify_leaves_what_it_cannot_decide(pg, q, K2, want):
    assert classify(pg, q, K2) == want


def test_diagram_from_dict():
    spec = diagram_from_dict({
        "left": {"fourfold": "X222", "center": "5;7,0,1"},
        "right": {"fourfold": "ci22", "center": "unknown"},
        "flop_bridge": True,
    })
    sol = solve_diagram(spec)
    assert sol.invariants.b2 == 45
    explicit = diagram_from_dict({
        "left": {"fourfold": "X222", "center": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
        "right": {"fourfold": "P4", "center": "unknown"},
    })
    assert solve_diagram(explicit).invariants.K2 == 2
    # the bridge is a JSON boolean or absent; bool("false") would be True,
    # and without it the flopped surfaces do not cancel
    sides = {"left": {"fourfold": "X222", "center": "plane"},
             "right": {"fourfold": "P4", "center": "unknown"}}
    with pytest.raises(Underdetermined, match="^without the flop bridge"):
        diagram_from_dict(dict(sides, flop_bridge=False))
    with pytest.raises(ValueError, match="'flop_bridge' must be true or false, got 'false'"):
        diagram_from_dict(dict(sides, flop_bridge="false"))


def test_solved_diagrams_give_equal_blowups():
    # the defining identity: Bl_S X and Bl_U W have the same diamond
    cases = [
        ("X222", preset("plane"), "P4"),
        ("X222", surface_diamond(parse_surface_spec("5;7,0,1")), "ci22"),
        ("X222",
         surface_diamond(parse_surface_spec("abs:deg=14,g=8,K2=0,chiO=2 int-proj")),
         "cubic4"),
    ]
    for left, center, right in cases:
        sol = solve_diagram(DiagramSpec(preset(left), center, preset(right), UNKNOWN))
        assert blowup(preset(left), center) == blowup(preset(right), sol.unknown)


def test_derive_surface_invariants_guard():
    with pytest.raises(DimensionMismatch):
        derive_surface_invariants(preset("P4"))


def test_fourfold_builder_matches_preset():
    assert fourfold(h11=1, h21=0, h31=3, h22=38) == preset("X222")
