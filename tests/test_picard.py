import random

import pytest

from nlatlas.errors import MismatchedLattice
from nlatlas.picard import (DivisorClass, _dot_canonical, adjunction_genus,
                            canonical, pair, riemann_roch_chi)

L = DivisorClass(1, ())


def test_pair_plane_line():
    assert pair(L, L) == 1


def test_pair_hyperplane_with_canonical():
    h = DivisorClass(5, (1, 1, 1, 1, 1, 1, 1, 3))
    assert pair(h, canonical(8)) == -5


def test_pair_orthogonal_exceptionals():
    e1 = DivisorClass(0, (-1, 0))
    e2 = DivisorClass(0, (0, -1))
    assert pair(e1, e2) == 0
    assert pair(e1, e1) == -1


def test_pair_rejects_mismatched_lattices():
    with pytest.raises(MismatchedLattice):
        pair(L, DivisorClass(1, (1,)))


@pytest.mark.parametrize("k,expected", [(0, 9), (8, 1), (10, -1)])
def test_canonical_self_intersection(k, expected):
    kc = canonical(k)
    assert kc.plane_degree == -3
    assert kc.mults == (-1,) * k
    assert pair(kc, kc) == expected


def test_riemann_roch_plane_line():
    assert riemann_roch_chi(L) == 3


def test_riemann_roch_degree9_surface():
    h = DivisorClass(5, (1, 1, 1, 1, 1, 1, 1, 3))
    assert riemann_roch_chi(h) == 8


def test_riemann_roch_twist_gives_quadric_count():
    h = DivisorClass(5, (1, 1, 1, 1, 1, 1, 1, 3))
    twice = DivisorClass(10, tuple(2 * m for m in h.mults))
    assert riemann_roch_chi(twice) == 24
    assert 36 - riemann_roch_chi(twice) == 12


def test_adjunction_examples():
    assert adjunction_genus(L) == 0
    assert adjunction_genus(DivisorClass(5, (1, 1, 1, 1, 1, 1, 1, 3))) == 3
    assert adjunction_genus(DivisorClass(4, (1, 1, 1, 1, 1, 1, 2))) == 2


def _random_class(rng, k):
    return DivisorClass(rng.randint(-20, 20), [rng.randint(-10, 10) for _ in range(k)])


def test_pair_symmetric_and_bilinear():
    rng = random.Random(20240811)
    for _ in range(300):
        k = rng.randint(0, 10)
        d1, d2, d3 = (_random_class(rng, k) for _ in range(3))
        a, b = rng.randint(-5, 5), rng.randint(-5, 5)
        assert pair(d1, d2) == pair(d2, d1)
        combo = DivisorClass(
            a * d1.plane_degree + b * d2.plane_degree,
            [a * m1 + b * m2 for m1, m2 in zip(d1.mults, d2.mults)],
        )
        assert pair(combo, d3) == a * pair(d1, d3) + b * pair(d2, d3)


def test_lattice_parity():
    rng = random.Random(7)
    for _ in range(500):
        k = rng.randint(0, 12)
        d = _random_class(rng, k)
        assert (pair(d, d) + pair(d, canonical(k))) % 2 == 0


def test_dot_canonical_matches_pairing_with_canonical():
    rng = random.Random(31)
    for _ in range(500):
        d = _random_class(rng, rng.randint(0, 14))
        dk = pair(d, canonical(d.k))
        assert _dot_canonical(d) == dk
        d2 = pair(d, d)
        # genus and chi read D.K the same way as the explicit pairing
        assert adjunction_genus(d) == 1 + (d2 + dk) // 2
        assert riemann_roch_chi(d) == 1 + (d2 - dk) // 2
