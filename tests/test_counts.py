import pytest

from nlatlas.atlas import SearchBounds, _candidate_grid
from nlatlas.counts import (chi_NSX_lower, codimension_bound, codimension_window,
                            h0_normal_bundle, h0_quadrics, FLAG_NODAL_FIT,
                            FLAG_VANISHING)
from nlatlas.errors import DivisibilityViolation, NegativeCount, NotNef, SpanTooSmall
from nlatlas.surfaces import (SurfaceInvariants, abstract_surface, invariants,
                              parse_surface_spec, PlaneModel)

DEL_PEZZO = invariants(PlaneModel(3, (5,)))
PLANE = invariants(PlaneModel(1))
DEG9 = invariants(PlaneModel(5, (7, 0, 1)))


def test_h0_quadrics_examples():
    assert h0_quadrics(DEL_PEZZO) == 23
    assert h0_quadrics(PLANE) == 30
    assert h0_quadrics(parse_surface_spec("5;6,2 nodes=1")) == 9


def test_h0_normal_bundle_examples():
    assert h0_normal_bundle(PLANE) == 15
    assert h0_normal_bundle(DEL_PEZZO) == 41
    assert h0_normal_bundle(abstract_surface(13, 8, -1, 2)) == 84
    assert h0_normal_bundle(parse_surface_spec("5;6,2 nodes=1")) == 76


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


def test_negative_count_rejected():
    big = abstract_surface(30, 3, 9, 1)
    with pytest.raises(NegativeCount):
        h0_quadrics(big)
    with pytest.raises(NegativeCount):
        codimension_bound(DEG9, -1)


def test_divisibility_guard_on_corrupted_record():
    s = SurfaceInvariants.__new__(SurfaceInvariants)
    for name, value in [("degree", 9), ("sect_genus", 3), ("K2", 1), ("chi_O", 1),
                        ("chi_top", 12), ("h0_H", 8), ("nodes", 0),
                        ("linearly_normal", True), ("provenance_label", "corrupt")]:
        object.__setattr__(s, name, value)
    with pytest.raises(DivisibilityViolation):
        h0_normal_bundle(s)


def test_all_smooth_table_rows_reproduce(dataset):
    checked = 0
    for row in dataset.unirational_rows:
        s = parse_surface_spec(row.surface)
        assert h0_quadrics(s) == row.h0_IS2, row.id
        assert h0_normal_bundle(s) == row.h0_N, row.id
        assert codimension_bound(s, row.h0_NSX).codim_bound == row.codim, row.id
        checked += 1
    assert checked == 34


def _window_from_bounds(s):
    """The window assembled from two ``ParameterCount`` records."""
    nsx = max(chi_NSX_lower(s), 0)
    lo, hi = codimension_bound(s, 0), codimension_bound(s, nsx)
    assert (lo.h0_IS2, lo.h0_N) == (hi.h0_IS2, hi.h0_N)
    return lo.h0_IS2, lo.h0_N, nsx, lo.codim_bound, hi.codim_bound


def _outcome(f, s):
    try:
        return f(s)
    except NegativeCount as exc:
        return str(exc)


def test_window_matches_codimension_bound(dataset):
    surfaces = [parse_surface_spec(row.surface) for row in dataset.rows]
    for a, counts in _candidate_grid(SearchBounds()):
        try:
            surfaces.append(invariants(PlaneModel(a, counts)))
        except (NotNef, SpanTooSmall):
            pass
    assert len(surfaces) == 41 + 294
    for s in surfaces:
        assert _outcome(codimension_window, s) == _outcome(_window_from_bounds, s), s
