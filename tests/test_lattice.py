import random

from nlatlas.chow import CI222, CompleteIntersectionType, formula_222
from nlatlas.lattice import (Mod16Class, RankTwoLattice, Side, discriminant,
                             expected_residue, fourfold_lattice, mod16_class,
                             surface_matrix, surface_picard_matrix)
from nlatlas.surfaces import abstract_surface, invariants, PlaneModel


def test_fourfold_lattice_plane():
    lat = fourfold_lattice(CI222, invariants(PlaneModel(1)))
    assert (lat.m11, lat.m12, lat.m22) == (8, 1, 4)
    assert lat.side is Side.FOURFOLD_MIDDLE


def test_fourfold_lattice_del_pezzo():
    lat = fourfold_lattice(CI222, invariants(PlaneModel(3, (5,))))
    assert lat.matrix == [[8, 4], [4, 4]]
    assert discriminant(lat) == 16


def test_fourfold_lattice_cubic_castelnuovo():
    lat = fourfold_lattice(CompleteIntersectionType((3,)),
                           abstract_surface(13, 12, 2, 4))
    assert lat.matrix == [[3, 13], [13, 61]]
    assert discriminant(lat) == 14


def test_discriminant_conventions():
    assert discriminant(RankTwoLattice(8, 1, 4, Side.FOURFOLD_MIDDLE)) == 31
    surf = RankTwoLattice(9, 7, 2, Side.SURFACE_PICARD)
    assert surf.det == -31
    assert discriminant(surf) == 31
    assert discriminant(RankTwoLattice(8, 0, 1, Side.FOURFOLD_MIDDLE)) == 8


def test_mod16_examples():
    assert mod16_class(16) == (0, True)
    assert mod16_class(31) == (15, True)
    assert mod16_class(23) == (7, True)
    assert mod16_class(30) == (14, False)
    assert mod16_class(30, CI222) == (14, False)
    assert str(mod16_class(30)) == "residue 14 mod 16, inadmissible"
    assert str(mod16_class(31)) == "residue 15 mod 16, admissible"


def test_mod16_gives_no_verdict_off_222():
    # {0, 7, 12, 15} is the residue set of 8*m22 - deg^2, a (2,2,2) fact
    for degrees in ((3,), (2, 2), (2, 2, 2, 2)):
        ci = CompleteIntersectionType(degrees)
        assert mod16_class(6, ci) == (6, None)
        assert mod16_class(31, ci) == (15, None)
        assert str(mod16_class(6, ci)) == "residue 6 mod 16"


def test_mod16_class_matches_a_fresh_record():
    # mod16_class returns prebuilt records; each must equal the one built
    # from the residue and the verdict, and print like it
    for degrees in ((2, 2, 2), (3,), (2, 2)):
        ci = CompleteIntersectionType(degrees)
        for d in range(-64, 201):
            fresh = Mod16Class(d % 16, d % 16 in {0, 7, 12, 15} if degrees == (2, 2, 2)
                               else None)
            got = mod16_class(d, ci)
            assert got == fresh and type(got) is Mod16Class, (degrees, d)
            assert str(got) == str(fresh)


def test_surface_picard_matrix_examples():
    lat = surface_matrix(9, 9, 2)
    assert lat.matrix == [[9, 7], [7, 2]]
    assert discriminant(lat) == 31
    lat = surface_matrix(13, 12, 2)
    assert lat.matrix == [[13, 9], [9, 2]]
    assert discriminant(lat) == 55
    plane = surface_picard_matrix(invariants(PlaneModel(1)))
    assert plane.matrix == [[1, -3], [-3, 9]]
    assert discriminant(plane) == 0 and plane.degenerate


def test_mod16_theorem_random():
    rng = random.Random(16)
    for _ in range(20000):
        deg = rng.randint(1, 60)
        g = rng.randint(0, 30)
        k2 = rng.randint(-30, 9)
        chi = rng.randint(1, 8)
        nodes = rng.randint(0, 3)
        si = formula_222(deg, g, k2, chi) + 2 * nodes
        d = 8 * si - deg * deg
        residue, admissible = mod16_class(d)
        assert admissible
        assert residue == expected_residue(deg)


def test_duality_of_rational_rows(dataset):
    pairs = []
    for row in dataset.rational_rows:
        if row.assoc is None:
            pairs.append((row.discriminant, None))
            continue
        deg, g, k2 = row.assoc
        pairs.append((row.discriminant, discriminant(surface_matrix(deg, g, k2))))
    assert pairs == [(31, 31), (47, 47), (55, 55), (55, 55), (79, 79), (87, 87),
                     (96, None)]
