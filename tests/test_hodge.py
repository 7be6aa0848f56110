import random
import re

import pytest
from hypothesis import given, settings, strategies as st
from test_surfaces import SPEC_ALPHABET, SPECS, _short_numbers

from nlatlas.errors import (DimensionMismatch, Inconsistent, NLAtlasError, ParseError,
                            Underdetermined, UnknownPreset)
from nlatlas.hodge import (UNKNOWN, DiagramSpec, HodgeDiamond, blowup, classify,
                           derive_surface_invariants, diagram_from_dict,
                           fourfold, preset, solve_diagram, surface,
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
    bl = blowup(x, HodgeDiamond(0, ((1,),)))
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
        blowup(preset("K3"), HodgeDiamond(0, ((1,),)))
    with pytest.raises(DimensionMismatch):
        blowup(preset("X222"), preset("P4"))


def test_blowup_along_curve():
    # codimension 3: two Tate twists of the curve's diamond
    x, genus_two = preset("X222"), HodgeDiamond(1, ((1, 2), (2, 1)))
    bl = blowup(x, genus_two)
    assert bl.h(1, 1) == 2 and bl.h(2, 1) == 2
    assert bl.h(2, 2) == x.h(2, 2) + 2
    assert bl.euler == x.euler + 2 * genus_two.euler


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
    with pytest.raises(DimensionMismatch, match="^diagram: right: fourfold: need dimension 4, "
                                                "got a diamond of dimension 2$"):
        diagram_from_dict({"left": {"fourfold": "X222", "center": "plane"},
                           "right": {"fourfold": "K3", "center": "unknown"}})


def test_known_center_must_be_a_surface():
    # solve_diagram keeps its own check for a DiagramSpec built in code
    with pytest.raises(DimensionMismatch, match="^the known center must be a surface diamond$"):
        solve_diagram(DiagramSpec(preset("X222"), preset("X222"), preset("ci22"), UNKNOWN))
    for center, dim in (("X222", 4), ([[1, 2], [2, 1]], 1), ([[1]], 0)):
        with pytest.raises(DimensionMismatch, match="^diagram: left: center: need dimension 2, "
                                                    f"got a diamond of dimension {dim}$"):
            diagram_from_dict({"left": {"fourfold": "X222", "center": center},
                               "right": {"fourfold": "ci22", "center": "unknown"}})


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


# the README diagram, and values of every form a diagram part can take:
# names, tables (diamonds of each dimension among them), non-lists and specs
README_DIAGRAM = {"left": {"fourfold": "X222", "center": "5;7,0,1"},
                  "right": {"fourfold": "ci22", "center": "unknown"}}
TABLES = ([[1]], [[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
          [[1, 0, 1], [0, 20, 0], [1, 0, 1]],
          [[1 if p == q else 0 for q in range(5)] for p in range(5)])
PARTS = st.one_of(
    st.sampled_from(["X222", "cubic4", "ci22", "P4", "K3", "plane", UNKNOWN, "nope", ""]),
    st.sampled_from(TABLES),
    st.lists(st.one_of(st.lists(st.integers(-1, 3), max_size=5), st.integers(0, 1),
                       st.text(max_size=1)), max_size=5),
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.dictionaries(
        st.sampled_from(["fourfold", "center"]), st.integers(), max_size=1)),
    st.sampled_from(SPECS),
    st.text(SPEC_ALPHABET, max_size=12).filter(_short_numbers),
)
# a part that reads, half of the time, so that later parts are reached too
READ = {"fourfold": st.sampled_from(["X222", "cubic4", "ci22", "P4", TABLES[-1]]),
        "center": st.sampled_from(["K3", "plane", UNKNOWN, TABLES[2], *SPECS])}
PLACE = re.compile(r"diagram: (left|right): (fourfold|center)")


@given(st.fixed_dictionaries({side: st.fixed_dictionaries({
    part: st.booleans().flatmap(lambda read, part=part: READ[part] if read else PARTS)
    for part in READ}) for side in ("left", "right")}))
@settings(max_examples=300)
def test_drawn_diagram_is_read_or_refused_at_its_place(data):
    try:
        diagram_from_dict(data)
    except (NLAtlasError, ValueError) as exc:
        place = PLACE.match(str(exc))
        assert place, exc
        if isinstance(exc, ParseError):
            assert 0 <= exc.position <= len(exc.text), exc
        # the part is refused alone, as it was among the drawn parts
        side, part = place.groups()
        alone = {**README_DIAGRAM, side: {**README_DIAGRAM[side], part: data[side][part]}}
        with pytest.raises(type(exc)) as again:
            diagram_from_dict(alone)
        assert str(again.value) == str(exc)


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
