import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from nlatlas.atlas import SearchBounds, enumerate_atlas
from nlatlas.chow import CI222, CompleteIntersectionType, _constants
from nlatlas.counts import (_numbers, _record, chi_NSX_lower, codimension_bound,
                            codimension_window_of, h0_quadrics,
                            FLAG_NODAL_FIT, FLAG_VANISHING, ParameterCount)
from nlatlas.errors import NegativeCount, NotNef
from nlatlas.lattice import (Mod16Class, RankTwoLattice, discriminant, fourfold_lattice,
                             mod16_class)
from nlatlas.surfaces import (SurfaceInvariants, abstract_surface, invariants,
                              parse_surface_spec, PlaneModel)
from reference import count_numbers, counts_by_chi_top
from test_surfaces import SPEC_ERRORS

DEL_PEZZO = invariants(PlaneModel(3, (5,)))
PLANE = invariants(PlaneModel(1))
DEG9 = invariants(PlaneModel(5, (7, 0, 1)))


def test_h0_quadrics_examples():
    assert h0_quadrics(DEL_PEZZO) == 23
    assert h0_quadrics(PLANE) == 30
    assert h0_quadrics(parse_surface_spec("5;6,2 nodes=1")) == 9


def test_h0_normal_bundle_examples():
    assert codimension_bound(PLANE, 0).h0_N == 15
    assert codimension_bound(DEL_PEZZO, 0).h0_N == 41
    assert codimension_bound(abstract_surface(13, 8, -1, 2), 0).h0_N == 84
    assert codimension_bound(parse_surface_spec("5;6,2 nodes=1"), 0).h0_N == 76


def test_codimension_examples():
    assert codimension_bound(DEL_PEZZO, 3).codim_bound == 1
    assert codimension_bound(DEG9, 2).codim_bound == 3
    count = codimension_bound(PLANE, 0)
    assert count.codim_bound == 3
    assert count.grass_dim == 3 * (30 - 3)


def test_grassmannian_dimension():
    assert codimension_bound(DEG9, 2).grass_dim == 27  # G(3, 12) has dim 27


def test_chi_nsx_lower():
    assert chi_NSX_lower(DEL_PEZZO) == 41 - 3 * 13 == 2
    assert chi_NSX_lower(DEG9) == 71 - 3 * 24 == -1
    assert chi_NSX_lower(PLANE) == 15 - 3 * 6 == -3


def test_chi_nsx_semicontinuity(dataset):
    for row in dataset.rows:
        s = parse_surface_spec(row.surface)
        assert chi_NSX_lower(s) <= row.h0_NSX, row.id


def _chi_nsx_by_riemann_roch(s):
    """chi(N_{S/X}) of a smooth S in a (2,2,2) fourfold X by Riemann-Roch on
    the rank-2 bundle N_{S/X}, with c1 = K_S + 2H (K_X = -2H) and c2 = m22:
    2 chi(O_S) + 2 H^2 + H.K - m22.  It shares no code with ``chi_NSX_lower``,
    which reads the Euler and normal-bundle sequences."""
    hk = 2 * s.sect_genus - 2 - s.degree
    return 2 * s.chi_O + 2 * s.degree + hk - fourfold_lattice(CI222, s).m22


# the three grids of the benchmark's atlas workloads
BENCH_GRIDS = (SearchBounds(), SearchBounds(max_a=12, max_points=16),
               SearchBounds(max_a=10, max_points=16, max_mult=4))


@st.composite
def drawn_specs(draw, modifiers=("", " int-proj", " ext-proj", " nodes=1")):
    """A surface spec with one of ``modifiers``: an ``abs:`` record whose
    genus gives h0(H) = chi(O_S) + H^2 + 1 - g in 4..9, or a plane model whose
    first count brings h0(H) into 4..9; about half of them parse."""
    if draw(st.booleans()):
        deg, chi_O = draw(st.integers(1, 40)), draw(st.integers(-2, 8))
        genus = chi_O + deg + 1 - draw(st.integers(4, 9))
        base = f"abs:deg={deg},g={genus},K2={draw(st.integers(-20, 9))},chiO={chi_O}"
    else:
        a = draw(st.integers(1, 12))
        high = draw(st.lists(st.integers(0, 3), max_size=3))
        h0 = (a + 1) * (a + 2) // 2 - sum(n * i * (i + 1) // 2 for i, n in enumerate(high, 2))
        n1 = draw(st.integers(max(h0 - 9, 0), max(h0 - 4, 0)))
        base = f"{a};{','.join(map(str, (n1, *high)))}"
    return base + draw(st.sampled_from(modifiers))


def parsed(spec):
    """The record of ``spec``, or None for a refused spec."""
    try:
        return parse_surface_spec(spec)
    except SPEC_ERRORS:
        return None


@settings(max_examples=200)
@given(drawn_specs(modifiers=("", " int-proj", " ext-proj")))
def test_chi_nsx_by_riemann_roch_on_drawn_records(spec):
    s = parsed(spec)
    assume(s is not None)
    assert _chi_nsx_by_riemann_roch(s) == chi_NSX_lower(s), spec


def test_chi_nsx_by_riemann_roch_on_grids_and_rows(dataset):
    entries = [entry for bounds in BENCH_GRIDS for entry in enumerate_atlas(bounds)]
    assert len(entries) == 79 + 230 + 299
    for entry in entries:
        assert _chi_nsx_by_riemann_roch(entry.surface) == chi_NSX_lower(entry.surface), entry
    nodal = []
    for row in dataset.rows:
        s = parse_surface_spec(row.surface)
        if s.nodes:
            nodal.append((row.id, _chi_nsx_by_riemann_roch(s), chi_NSX_lower(s)))
        else:
            assert _chi_nsx_by_riemann_roch(s) == chi_NSX_lower(s), row.id
    # the one nodal row: the fitted node rules of m22 (+2 per node) and of
    # h0(N_S/P7) (-3 per node) leave the two counts one apart, an open
    # discrepancy
    assert nodal == [("t4-2", -7, -8)]
    assert len(dataset.rows) - len(nodal) == 40


@settings(max_examples=200)
@given(drawn_specs())
def test_counts_of_the_type_match_the_chi_top_form_on_drawn_records(spec):
    s = parsed(spec)
    assume(s is not None)
    assert _numbers(*_record(s)) == counts_by_chi_top(s), spec


def test_counts_of_the_type_match_the_chi_top_form_on_grids_and_rows(dataset):
    records = [entry.surface for bounds in BENCH_GRIDS for entry in enumerate_atlas(bounds)]
    records += [parse_surface_spec(row.surface) for row in dataset.rows]
    assert len(records) == 608 + 41
    for s in records:
        assert _numbers(*_record(s)) == counts_by_chi_top(s), s


def test_codimension_monotonicity():
    base = codimension_bound(DEG9, 2).codim_bound
    assert codimension_bound(DEG9, 3).codim_bound == base + 1
    # the bound is 99 - h0_N - 3*(h0_IS2 - 3) + h0_NSX on the nose, so one
    # more quadric through the surface costs exactly three dimensions
    for s, n in [(DEG9, 2), (PLANE, 0), (DEL_PEZZO, 3)]:
        c = codimension_bound(s, n)
        assert c.codim_bound == 99 - c.h0_N - 3 * (c.h0_IS2 - 3) + c.h0_NSX


def test_flags():
    assert codimension_bound(DEG9, 2).flags == (FLAG_VANISHING,)
    nodal = parse_surface_spec("5;6,2 nodes=1")
    assert FLAG_NODAL_FIT in codimension_bound(nodal, 0).flags


def test_counts_read_chi_2h_as_chi_twist_does():
    # the counts take chi(O_S(2H)) = 2 chi(O_S(H)) - chi(O_S) + H^2 from one
    # chi_twist call; h0_quadrics and this test take chi_twist(2) itself
    rng = random.Random(22)
    checked = 0
    for _ in range(3000):
        k2, chi = rng.randint(-20, 9), rng.randint(-2, 8)
        s = SurfaceInvariants(rng.randint(1, 40), rng.randint(0, 30), k2, chi,
                              rng.randint(0, 3))
        try:
            h0_is2 = h0_quadrics(s)
        except NegativeCount:
            continue
        if h0_is2 >= 3:
            count = codimension_bound(s, 0)
            assert chi_NSX_lower(s) == count.h0_N - 3 * s.chi_twist(2), s
            assert count.h0_IS2 == h0_is2 == _window_from_integers(s)[0], s
            checked += 1
    assert checked > 1000


def test_window_top_is_max_of_lo_and_0_without_nodes():
    # with no nodes lo = 3 chi(O_S(2H)) - h0(N_S/P7), so the clamped estimate
    # of h0(N_S/X) is max(-lo, 0); the atlas, whose surfaces have no nodes,
    # therefore never tests hi < 0
    rng = random.Random(24)
    checked = 0
    for _ in range(3000):
        k2, chi = rng.randint(-20, 9), rng.randint(-2, 8)
        s = SurfaceInvariants(rng.randint(1, 40), rng.randint(0, 30), k2, chi)
        try:
            *_, lo, hi = _window_from_integers(s)
        except NegativeCount:
            continue
        assert hi == max(lo, 0), s
        checked += 1
    assert checked > 1000
    assert not any(entry.surface.nodes for entry in enumerate_atlas(SearchBounds()))


def test_negative_count_rejected():
    big = abstract_surface(30, 3, 9, 1)
    with pytest.raises(NegativeCount):
        h0_quadrics(big)
    with pytest.raises(NegativeCount):
        codimension_bound(DEG9, -1)


def test_all_smooth_table_rows_reproduce(dataset):
    checked = 0
    for row in dataset.unirational_rows:
        s = parse_surface_spec(row.surface)
        assert h0_quadrics(s) == row.h0_IS2, row.id
        count = codimension_bound(s, row.h0_NSX)
        assert (count.h0_N, count.codim_bound) == (row.h0_N, row.codim), row.id
        checked += 1
    assert checked == 34


def _window_from_bounds(s):
    """The window assembled from two ``ParameterCount`` records."""
    nsx = max(chi_NSX_lower(s), 0)
    lo, hi = codimension_bound(s, 0), codimension_bound(s, nsx)
    assert (lo.h0_IS2, lo.h0_N) == (hi.h0_IS2, hi.h0_N)
    return lo.h0_IS2, lo.h0_N, nsx, lo.codim_bound, hi.codim_bound


def _window_from_integers(s):
    """The window of the numerical type, as the atlas passes it."""
    return codimension_window_of(s.degree, s.sect_genus, s.K2, s.chi_O, s.nodes)


def _outcome(f, s):
    # a refusal by its type: the record path names the record, the integer
    # path its numbers
    try:
        return f(s)
    except NegativeCount as exc:
        return type(exc)


def test_window_matches_codimension_bound(dataset):
    surfaces = [parse_surface_spec(row.surface) for row in dataset.rows]
    # every model of the default box that passes the count conditions,
    # standard or not, so Cremona-equivalent models too
    for a in range(1, 9):
        for counts in itertools.product(range(14), repeat=3):
            deg, genus, h0, h0_is2 = count_numbers(a, counts)
            if (sum(counts) > 13 or deg < 1 or h0 > 8 or (h0 < 4 and deg != 1)
                    or genus < 0 or h0_is2 < 7):
                continue
            try:
                surfaces.append(invariants(PlaneModel(a, counts)))
            except NotNef:
                pass
    assert len(surfaces) == 41 + 294
    # and drawn records, smooth and nodal, many of them refused
    rng = random.Random(31)
    for _ in range(3000):
        k2, chi = rng.randint(-20, 9), rng.randint(-2, 8)
        surfaces.append(SurfaceInvariants(rng.randint(1, 40), rng.randint(0, 30), k2, chi,
                                          rng.choice((0, 0, 1, 2, 3))))
    refused = 0
    for s in surfaces:
        window = _outcome(_window_from_bounds, s)
        assert window == _outcome(_window_from_integers, s), s
        refused += window is NegativeCount
    assert 1000 < refused < len(surfaces) - 1000


def test_window_refusal_names_the_numbers_by_default():
    with pytest.raises(NegativeCount, match=r"^h0\(I_S\(2\)\) = -5 < 0 for H\^2 = 20, "
                                            r"g = 11, K\^2 = -3, chi\(O_S\) = 1$"):
        codimension_window_of(20, 11, -3, 1, 0)
    with pytest.raises(NegativeCount, match=r"^h0\(I_S\(2\)\) = 1 < 3 for H\^2 = 12, "
                                            r"g = 2, K\^2 = 0, chi\(O_S\) = 1: no net of "):
        codimension_window_of(12, 2, 0, 1, 0)


CI_TYPES = (CI222, CompleteIntersectionType((3,)), CompleteIntersectionType((2, 2)))


@pytest.mark.parametrize("spec,surfaces_built,models_built", [
    ("5;7,0,1", 1, 1),
    # the projection rebuilds the record through its checked constructor
    ("abs:deg=14,g=8,K2=0,chiO=2 int-proj", 2, 0),
])
def test_spec_request_work_counts(monkeypatch, spec, surfaces_built, models_built):
    """Work counted instead of timed, as in the atlas work-count test, for one
    request of the spec path: one parse, the lattice, discriminant, mod-16
    class and text of three multidegrees, and the three counts calls of a
    codimension window.  The request reads the per-multidegree table three
    times per multidegree and builds it only when it is new; the counts calls
    read the numerical type, with no ``chi_twist``; and it builds one lattice
    per multidegree, one ``ParameterCount`` per ``codimension_bound`` and no
    ``Mod16Class``."""
    built = {"chi": 0}
    chi_twist = SurfaceInvariants.chi_twist

    def counted_chi(self, m):
        built["chi"] += 1
        return chi_twist(self, m)
    monkeypatch.setattr(SurfaceInvariants, "chi_twist", counted_chi)

    def counted(cls):
        built[cls.__name__] = 0
        original = cls.__new__

        def wrapper(*args, **kwargs):
            built[cls.__name__] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(cls, "__new__", wrapper)

    for cls in (PlaneModel, SurfaceInvariants, CompleteIntersectionType, RankTwoLattice,
                Mod16Class, ParameterCount):
        counted(cls)

    def request():
        s = parse_surface_spec(spec)
        for ci in CI_TYPES:
            lat = fourfold_lattice(ci, s)
            mod16_class(discriminant(lat), ci)
            str(ci)
        codimension_bound(s, 0)
        codimension_bound(s, max(chi_NSX_lower(s), 0))

    _constants.cache_clear()
    request()
    assert (_constants.cache_info().misses, _constants.cache_info().hits) == (3, 6)
    once = {"chi": 0, "PlaneModel": models_built, "SurfaceInvariants": surfaces_built,
            "CompleteIntersectionType": 0, "RankTwoLattice": 3, "Mod16Class": 0,
            "ParameterCount": 2}
    assert built == once
    # a second request builds no table and repeats the rest
    request()
    assert (_constants.cache_info().misses, _constants.cache_info().hits) == (3, 15)
    assert built == {name: 2 * n for name, n in once.items()}
