"""Cremona reduction against an oracle that shares none of its code.

``normalize_contractions`` reduces H itself.  The oracle instead lists the
(-1)-classes C = dL - sum c_j E_j of degree d <= 12 on at most 18 points and
pairs each with H: by the rearrangement inequality the smallest pairing over
all placements of c on the points puts both sorted in descending order, and
the placements that reach it are the arrangements of c within each block of
tied multiplicities of H.
"""

from __future__ import annotations

import math
import operator
import random
from itertools import groupby, product

from hypothesis import assume, given, strategies as st

from nlatlas.atlas import SearchBounds
from nlatlas.chow import CI222
from nlatlas.errors import NotNef, SpanTooSmall
from nlatlas.lattice import discriminant, fourfold_lattice
from nlatlas.picard import DivisorClass, canonical, pair
from nlatlas.surfaces import PlaneModel, expand, invariants, normalize_contractions
from reference import count_numbers, cremona_by_points


def _partitions(total, squares, most, room, prefix=()):
    """Descending tuples of at most ``room`` positive parts <= ``most`` with
    the given sum and sum of squares."""
    if total == 0:
        if squares == 0:
            yield prefix
        return
    for c in range(min(most, total), 0, -1):
        t, s, r = total - c, squares - c * c, room - 1
        # the rest needs t^2 / r <= s <= t * c (Cauchy-Schwarz, parts <= c)
        if s < 0 or s > t * c or (t and (r == 0 or s * r < t * t)):
            continue
        yield from _partitions(t, s, c, r, prefix + (c,))


def _reduces_to_exceptional(d, c):
    m = list(c) + [0, 0, 0]
    while d > 0:
        m.sort(reverse=True)
        e = m[0] + m[1] + m[2] - d
        if e <= 0:
            return False
        d -= e
        m[:3] = m[0] - e, m[1] - e, m[2] - e
    return d == 0 and sorted(m) == [-1] + [0] * (len(m) - 1)


# d^2 - sum c^2 = -1 and 3d - sum c = 1, i.e. C^2 = C.K = -1
MINUS_ONE = [(d, c) for d in range(1, 13)
             for c in _partitions(3 * d - 1, d * d + 1, d, 18)
             if _reduces_to_exceptional(d, c)]


def _placements(m, c):
    """Placements of the multiset ``c`` on the points of ``m`` (both
    descending) with the largest sum of m_i c_i: a multinomial per block of
    tied m_i."""
    count, start = 1, 0
    for _, block in groupby(m):
        size = len(list(block))
        values = sorted(c[start:start + size])
        count *= math.factorial(size)
        for _, same in groupby(values):
            count //= math.factorial(len(list(same)))
        start += size
    return count


def _oracle_k2(a, mults):
    """K^2 after blowing down every (-1)-class orthogonal to H, or None when
    one pairs negatively with H."""
    m = sorted(mults, reverse=True)
    k = len(m)
    if m and m[-1] < 0:
        return None
    contracted = m.count(0)
    for d, c in MINUS_ONE:
        if len(c) > k:
            continue
        c = c + (0,) * (k - len(c))
        p = a * d - sum(map(operator.mul, m, c))
        if p < 0:
            return None
        if p == 0:
            contracted += _placements(m, c)
    return 9 - k + contracted


def _k2(model):
    try:
        return invariants(model).K2
    except NotNef:
        return None
    except SpanTooSmall:
        return 9 - sum(model.point_counts) + normalize_contractions(model)[-1]


def test_orbit_classes_are_minus_one():
    assert len(MINUS_ONE) == 143
    assert len(set(MINUS_ONE)) == len(MINUS_ONE)
    for d, c in MINUS_ONE:
        cls = DivisorClass(d, c)
        assert pair(cls, cls) == -1 and pair(cls, canonical(len(c))) == -1
    # the line, the conic and the nodal cubic shapes, and beyond degree 3
    assert {(1, (1, 1)), (2, (1,) * 5), (3, (2,) + (1,) * 6)} <= set(MINUS_ONE)
    assert max(d for d, _ in MINUS_ONE) == 12


def _embedding_box(bounds):
    """Every (a, counts) in the bounds with H^2 = a^2 - sum i^2 n_i >= 1, in
    lexicographic order: wider than the atlas grid, so that models outside
    the h0 and quadric windows are checked too."""
    box = []

    def fill(a, counts, points, budget):
        i = len(counts) + 1
        if i > bounds.max_mult:
            box.append((a, counts))
            return
        for n in range(min(points, budget // (i * i)) + 1):
            fill(a, counts + (n,), points - n, budget - n * i * i)

    for a in range(1, bounds.max_a + 1):
        fill(a, (), bounds.max_points, a * a - 1)
    return box


def test_normalize_matches_orbit_oracle():
    grid = _embedding_box(SearchBounds())
    large = _embedding_box(SearchBounds(max_a=10, max_points=16, max_mult=4))
    assert (len(grid), len(large)) == (1155, 7142)
    grid += random.Random(1985).sample(large, 1500)
    deep = 0   # accepted models that take at least one quadratic transformation
    for a, counts in grid:
        model = PlaneModel(a, counts)
        mults = expand(model).mults
        want = _oracle_k2(a, mults)
        assert _k2(model) == want, model
        if want is not None:
            # the standard model is reduced and carries the same H-numbers
            h2, hk, std_a, std_counts, _ = normalize_contractions(model)
            assert std_a >= sum(expand(PlaneModel(std_a, std_counts)).mults[-3:]), model
            assert count_numbers(std_a, std_counts) == count_numbers(a, counts), model
            assert (h2, 1 + (h2 + hk) // 2) == count_numbers(a, counts)[:2], model
        deep += want is not None and a < sum(sorted(mults)[-3:])
    assert deep > 1000



def _outcome(f, *args):
    try:
        return f(*args)
    except (ValueError, NotNef) as exc:
        return type(exc), str(exc)


def test_normalize_matches_reduction_by_points():
    # every model with a <= 10 and at most four counts <= 5, refused ones
    # and trailing zero counts included: the counts per multiplicity give the
    # tuple, or the exception and message, of one entry per point
    box = [(a, counts) for a in range(1, 11) for k in range(5)
           for counts in product(range(6), repeat=k)]
    assert len(box) == 15550
    kinds = set()
    for a, counts in box:
        want = _outcome(cremona_by_points, a, counts)
        assert _outcome(normalize_contractions, PlaneModel(a, counts)) == want, (a, counts)
        kinds.add(want[0] if isinstance(want[0], type) else a > want[2])
    assert kinds == {ValueError, NotNef, False, True}

def _quadratic_transform(a, mults, i, j, l):
    """The class of H after the quadratic transformation at points i, j, l."""
    m = list(mults)
    e = m[i] + m[j] + m[l] - a
    for p in (i, j, l):
        m[p] -= e
    return a - e, m


def _model(a, mults):
    counts = [0] * max(mults, default=0)
    for x in mults:
        if x:
            counts[x - 1] += 1
    return PlaneModel(a, counts)


def _numbers(s):
    return (s.degree, s.sect_genus, s.chi_O, s.h0_H, s.K2,
            discriminant(fourfold_lattice(CI222, s)))


@given(st.data())
def test_cremona_moves_keep_invariants(default_atlas, data):
    entry = data.draw(st.sampled_from(default_atlas))
    # three general points beyond the blown-up ones, of multiplicity 0
    mults = expand(entry.model).mults + (0, 0, 0)
    i, j, l = data.draw(st.lists(st.integers(0, len(mults) - 1),
                                 min_size=3, max_size=3, unique=True))
    a, moved = _quadratic_transform(entry.model.a, mults, i, j, l)
    # H.(L - E_j - E_l) >= 0 for nef H, so the moved class stays nef
    assert a >= 1 and min(moved) >= 0
    assert _numbers(invariants(_model(a, moved))) == _numbers(entry.surface)


LARGE_BOX = _embedding_box(SearchBounds(max_a=10, max_points=16, max_mult=4))


def _numbers_or_span(model):
    try:
        return _numbers(invariants(model))
    except SpanTooSmall:
        return SpanTooSmall


@given(st.sampled_from(LARGE_BOX))
def test_normalize_is_idempotent(model_data):
    a, counts = model_data
    model = PlaneModel(a, counts)
    try:
        _, _, std_a, std_counts, _ = normalize_contractions(model)
    except NotNef:
        assume(False)
    std = PlaneModel(std_a, std_counts)
    # the standard model comes back as it is, and it carries the same numbers
    _, _, again_a, again_counts, _ = normalize_contractions(std)
    assert again_a == std.a and again_counts is std.point_counts
    if a >= sum(sorted(expand(model).mults)[-3:]) and (not counts or counts[-1]):
        assert (std_a, std_counts) == (a, counts) and std_counts is model.point_counts
    assert _numbers_or_span(std) == _numbers_or_span(model)
