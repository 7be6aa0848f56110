import dataclasses
import hashlib
import itertools
import json
import multiprocessing
import multiprocessing.context
import os
import pickle
import time

import pytest

from nlatlas import atlas, surfaces
from nlatlas.atlas import (SearchBounds, _candidate_grid, _count_numbers,
                           _evaluate, enumerate_atlas, gap_report)
from nlatlas.chow import _closed_form
from nlatlas.counts import (H0_QUADRICS_P7, ParameterCount, codimension_window,
                            h0_quadrics)
from nlatlas.errors import NegativeCount, NotNef, ParseError, SpanTooSmall
from nlatlas.lattice import mod16_class
from nlatlas.picard import DivisorClass, adjunction_genus, pair, riemann_roch_chi
from nlatlas.serialize import encode
from nlatlas.surfaces import PlaneModel, expand, invariants, parse_surface_spec

TABLE_VALUES = {16, 28, 31, 32, 39, 44, 47, 48, 55, 60, 63, 64, 71, 76, 79, 80,
                87, 92, 96, 103}


def _bucket(atlas, det):
    return [e for e in atlas if e.discriminant == det]


def test_default_bounds_contain_del_pezzo_row(default_atlas):
    hits = [e for e in _bucket(default_atlas, 16)
            if e.model.a == 3 and e.model.point_counts == (5, 0, 0)]
    assert len(hits) == 1
    entry = hits[0]
    assert entry.lattice.matrix == [[8, 4], [4, 4]]
    assert entry.h0_IS2 == 23 and entry.h0_N == 41


def test_default_bounds_leave_23_empty(default_atlas):
    assert _bucket(default_atlas, 23) == []


def test_max_a_one_gives_exactly_the_plane():
    atlas = enumerate_atlas(SearchBounds(max_a=1))
    assert len(atlas) == 1
    entry = atlas[0]
    assert entry.model.a == 1 and sum(entry.model.point_counts) == 0
    assert entry.discriminant == 31


def test_gap_report_contains_the_three_gaps(dataset, default_atlas):
    rep = gap_report(default_atlas, up_to=110, bounds=SearchBounds())
    assert set(rep.gaps) >= {23, 95, 108}
    assert rep.gaps == (23, 95, 108)
    # the paper's empty buckets, as the dataset records them
    assert list(rep.gaps) == sorted(g.discriminant for g in dataset.gap_rows)
    text = rep.describe()
    assert "a <= 8" in text and "13 points" in text  # bounds are printed


def test_gap_report_below_floor(default_atlas):
    rep = gap_report(default_atlas, up_to=15, bounds=SearchBounds())
    assert rep.gaps == ()
    assert set(rep.below_floor) == {0, 7, 12, 15}
    rep = gap_report(default_atlas, up_to=16, bounds=SearchBounds())
    assert rep.gaps == ()
    # nothing past the report's own bound is named
    rep = gap_report(default_atlas, up_to=5, bounds=SearchBounds())
    assert rep.below_floor == (0,)
    assert rep.describe().endswith("(flagged, not counted as gaps): 0")


def test_gap_report_below_floor_claims_no_search(default_atlas):
    # [16, up_to] is empty below the floor, so "empty buckets: none" would
    # claim a search that did not happen
    for up_to in (5, 15):
        text = gap_report(default_atlas, up_to=up_to, bounds=SearchBounds()).describe()
        assert text.splitlines()[1] == (
            f"up to {up_to} lies below the floor 16: no bucket at or above 16 was examined")
    text = gap_report(default_atlas, up_to=16, bounds=SearchBounds()).describe()
    assert text.splitlines()[1] == "admissible discriminants in [16, 16] with empty buckets: none"


def test_every_table_model_in_atlas(dataset, default_atlas):
    by_model = {(e.model.a, e.model.point_counts): e for e in default_atlas}
    for row in dataset.unirational_rows:
        a_str, _, tail = row.surface.partition(";")
        counts = tuple(int(x) for x in tail.split(",")) if tail else ()
        counts = (counts + (0, 0, 0))[:3]  # pad to the grid's fixed length
        key = (int(a_str), counts)
        assert key in by_model, row.id
        entry = by_model[key]
        assert tuple(entry.lattice.matrix[0] + entry.lattice.matrix[1][1:]) == row.matrix, row.id
        assert entry.discriminant == row.discriminant, row.id
        assert entry.h0_IS2 == row.h0_IS2 and entry.h0_N == row.h0_N, row.id
        # the window's low end uses h0(N_S/X) = 0, so it bounds the true codim
        # from below; the printed value itself is checked in test_counts
        assert entry.codim_bound_range[0] <= row.codim, row.id


def test_table_values_all_attained(default_atlas):
    attained = {e.discriminant for e in default_atlas}
    assert TABLE_VALUES <= attained


def test_atlas_entries_admissible_and_nonnegative(default_atlas):
    from nlatlas.lattice import expected_residue
    for e in default_atlas:
        assert e.discriminant >= 0
        assert mod16_class(e.discriminant).admissible
        assert e.discriminant % 16 == expected_residue(e.surface.degree)
        assert e.surface.degree >= 1
        assert 3 <= e.surface.h0_H <= 8


def test_cremona_equivalent_models_share_buckets(default_atlas):
    # the det-31 bucket collects every in-window plane model whose image is a
    # plane, e.g. the quadratic Cremona system S(2;3), the quintic S(5;0,6)
    # and S(6;4,1,3), which takes three quadratic transformations to reduce
    plane_like = {e.model.spec_string() for e in default_atlas
                  if e.discriminant == 31 and e.surface.degree == 1}
    assert {"1;0,0,0", "2;3,0,0", "5;0,6,0", "6;4,1,3"} <= plane_like
    for e in default_atlas:
        if e.discriminant == 31 and e.surface.degree == 1:
            assert (e.surface.K2, e.surface.chi_top, e.surface.h0_H) == (9, 3, 3)


def test_atlas_codim_window_ordering(default_atlas):
    for e in default_atlas:
        lo, hi = e.codim_bound_range
        assert lo <= hi
        assert hi >= 0 and lo <= 7


def test_enumeration_deterministic_and_parallel():
    bounds = SearchBounds(max_a=5, max_points=9)
    serial = enumerate_atlas(bounds, workers=1)
    again = enumerate_atlas(bounds, workers=1)
    parallel = enumerate_atlas(bounds, workers=3)
    blob = lambda entries: json.dumps([encode(e) for e in entries], sort_keys=True)
    assert blob(serial) == blob(again)
    assert blob(serial) == blob(parallel)


@pytest.mark.parametrize("workers", [2, 3])
def test_pool_reproduces_the_a12p16_pin(workers):
    bounds, digest = ATLAS_DIGESTS[1].values
    assert _digest(enumerate_atlas(bounds, workers=workers)) == digest
    assert multiprocessing.active_children() == []


def test_pool_starts_at_most_one_process_per_other_candidate(monkeypatch):
    bounds = SearchBounds(max_a=2, max_points=1)
    grid = _candidate_grid(bounds)
    assert len(grid) == 3
    started = []

    class Counted(multiprocessing.context.ForkProcess):
        def start(self):
            if len(started) == len(grid) - 1:
                pytest.fail(f"workers=8 starts more than {len(grid) - 1} processes")
            started.append(self)
            super().start()
    monkeypatch.setattr(multiprocessing.context.ForkContext, "Process", Counted)
    assert enumerate_atlas(bounds, workers=8) == enumerate_atlas(bounds)
    assert len(started) == len(grid) - 1
    assert multiprocessing.active_children() == []


SMALL = SearchBounds(max_a=3, max_points=3)


def _before_evaluate(monkeypatch, hook):
    """Patch ``atlas._evaluate`` to run ``hook(a, counts)`` first; forked
    workers inherit the patch."""
    original = atlas._evaluate

    def evaluate(bounds, a, counts, *rest):
        hook(a, counts)
        return original(bounds, a, counts, *rest)
    monkeypatch.setattr(atlas, "_evaluate", evaluate)


def test_pool_raises_a_worker_exception_and_leaves_no_child(monkeypatch):
    grid = _candidate_grid(SMALL)

    def hook(a, counts):
        if (a, counts) == grid[1]:      # in grid[1::2], the only worker's stride
            raise ValueError("boom")
    _before_evaluate(monkeypatch, hook)
    with pytest.raises(ValueError, match="^boom$") as raised:
        enumerate_atlas(SMALL, workers=2)
    assert "ValueError: boom" in str(raised.value.__cause__)
    assert multiprocessing.active_children() == []


def test_parse_error_survives_pickling():
    exc = pickle.loads(pickle.dumps(ParseError("bad", "5;x", 2)))
    assert type(exc) is ParseError
    assert str(exc) == "bad (at position 2 in '5;x')"
    assert (exc.text, exc.position) == ("5;x", 2)


def test_pool_raises_a_worker_parse_error_with_its_position(monkeypatch):
    grid = _candidate_grid(SMALL)

    def hook(a, counts):
        if (a, counts) == grid[1]:      # in grid[1::2], the only worker's stride
            raise ParseError("bad", "5;x", 2)
    _before_evaluate(monkeypatch, hook)
    with pytest.raises(ParseError) as raised:
        enumerate_atlas(SMALL, workers=2)
    assert (raised.value.text, raised.value.position) == ("5;x", 2)
    assert "ParseError: bad" in str(raised.value.__cause__)
    assert multiprocessing.active_children() == []


def test_pool_terminates_busy_workers_when_the_caller_fails(monkeypatch):
    caller = os.getpid()

    def hook(a, counts):
        if os.getpid() == caller:
            raise ValueError("boom")
        time.sleep(60)                  # a worker still busy is not waited for
    _before_evaluate(monkeypatch, hook)
    start = time.monotonic()
    with pytest.raises(ValueError, match="^boom$"):
        # three candidates: the worker's stride holds one
        enumerate_atlas(SearchBounds(max_a=2, max_points=1), workers=2)
    assert time.monotonic() - start < 30
    assert multiprocessing.active_children() == []


def test_pool_reports_a_worker_that_dies_and_leaves_no_child(monkeypatch):
    caller = os.getpid()

    def hook(a, counts):
        if os.getpid() != caller:
            os._exit(1)
    _before_evaluate(monkeypatch, hook)
    with pytest.raises(ChildProcessError, match="exited before sending its share"):
        enumerate_atlas(SMALL, workers=3)
    assert multiprocessing.active_children() == []


def _passes_counts(bounds, a, counts):
    """The conditions on (a, counts) that the grid decides, one candidate at
    a time."""
    deg, genus, h0, h0_is2 = _count_numbers(a, counts)
    return (deg >= 1 and h0 <= 8 and (h0 >= 4 or deg == 1)
            and (genus >= 0 or not bounds.require_positive_genus_bound)
            and h0_is2 >= max(bounds.min_h0_IS2, 3))


@pytest.mark.parametrize("bounds", [
    SearchBounds(max_a=6, max_points=8),
    SearchBounds(max_a=5, max_points=9, max_mult=4),
    SearchBounds(max_a=7, max_points=6, max_mult=2),
    SearchBounds(max_a=6, max_points=8, min_h0_IS2=3, require_positive_genus_bound=False),
    SearchBounds(max_a=6, max_points=8, min_h0_IS2=12),
    # holds the degree-1 pencil S(7;1,5,3), h0(H) = 2, besides the plane:
    # degree 1 passes below h0(H) = 4, off the n_1 interval of the rest
    SearchBounds(max_a=7, max_points=9),
    # drops the plane (h0(I(2)) = 30) but keeps that pencil (32)
    SearchBounds(max_a=7, max_points=9, min_h0_IS2=31),
    # S(9;2,15) has h0(I(2)) = 2, under the floor of 3 quadrics
    SearchBounds(max_a=9, max_points=17, max_mult=2, min_h0_IS2=1),
])
def test_pruned_grid_drops_only_rejects(bounds):
    full = [(a, counts) for a in range(1, bounds.max_a + 1)
            for counts in itertools.product(range(bounds.max_points + 1),
                                            repeat=bounds.max_mult)
            if sum(counts) <= bounds.max_points]
    kept = [(a, counts) for a, counts in full if _passes_counts(bounds, a, counts)]
    assert sorted(_candidate_grid(bounds)) == kept
    shared = {}
    entries = [e for e in (_evaluate(bounds, a, c, shared) for a, c in kept) if e is not None]
    assert enumerate_atlas(bounds) == sorted(entries, key=lambda e: e.sort_key)


# sha256 of the atlas entries' field tuples, one repr per line, on three
# grids; a deliberate change of atlas output records its new digests here
ATLAS_DIGESTS = [
    pytest.param(SearchBounds(max_a=8, max_points=13, max_mult=3),
                 "5c8dd19b657a1825e98ae09ef7ab6ccba6585aa38349396ab8cc143f1fa9b2c0",
                 id="default"),
    pytest.param(SearchBounds(max_a=12, max_points=16, max_mult=3),
                 "b0ffe32cbf243a00cf47531e7ff2298ec75981df729d3b2e2629887bd396d5a0",
                 id="a12p16"),
    pytest.param(SearchBounds(max_a=10, max_points=16, max_mult=4),
                 "a4e5b2cb5a23680b07c7027a0e1e8a01c84f9d9a50874f7a54cbc39b30bcccef",
                 id="a10p16m4"),
]


def _plain(value):
    """``value`` with every tuple, records included, as a plain tuple: the
    pins hash each entry's fields with nested records written as plain
    tuples of their fields."""
    if isinstance(value, tuple):
        return tuple(map(_plain, value))
    return value


def _digest(entries):
    text = "\n".join(repr(_plain(dataclasses.astuple(e))) for e in entries)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("bounds,digest", ATLAS_DIGESTS)
def test_atlas_output_is_pinned(bounds, digest):
    assert _digest(enumerate_atlas(bounds)) == digest


def test_count_numbers_match_the_record():
    # the record takes its H-numbers from the counts, so the counts are also
    # checked against pairings and Riemann-Roch on the expanded classes
    checked = contracted = 0
    for a in range(1, 10):
        for counts in itertools.product(range(11), repeat=4):
            if sum(counts) > 10:
                continue
            try:
                s = invariants(PlaneModel(a, counts))
            except (NotNef, SpanTooSmall, ValueError):
                continue
            deg, genus, h0, h0_is2 = _count_numbers(a, counts)
            h = expand(PlaneModel(a, counts))
            twice = DivisorClass(2 * a, [2 * m for m in h.mults])
            assert (deg, genus, h0, h0_is2) == (
                pair(h, h), adjunction_genus(h), riemann_roch_chi(h),
                H0_QUADRICS_P7 - riemann_roch_chi(twice)), (a, counts)
            assert (deg, genus, h0) == (s.degree, s.sect_genus, s.h0_H), (a, counts)
            try:
                assert h0_is2 == h0_quadrics(s), (a, counts)
            except NegativeCount:
                assert h0_is2 < 0, (a, counts)
            checked += 1
            contracted += s.K2 != 9 - sum(counts)
    assert checked > 1000 and contracted > 100


def test_atlas_work_counts(monkeypatch):
    """Work counted instead of timed, so that a busy host cannot fail it: one
    default atlas evaluates the closed form once per multidegree, builds no
    ``ParameterCount`` and exactly one ``PlaneModel`` per candidate, so no
    standard model even for the candidates that are not standard, and runs
    the degree/genus/h0 loop ``_count_numbers`` at most once per grid leaf
    (a choice of the counts above n_1), never once per candidate: the
    Cremona reduction returns those numbers itself.  It builds
    at most one lattice and one codimension window per distinct (degree,
    genus, K^2) among the nef candidates, and a second call builds them all
    again.  Each codimension window takes chi(O_S(2H)) and chi(O_S(H)) once:
    at most two ``chi_twist`` calls per window."""
    bounds = SearchBounds()
    grid = _candidate_grid(bounds)
    surfaces_seen = set()
    for a, counts in grid:
        try:
            s = invariants(PlaneModel(a, counts))
        except NotNef:
            continue
        surfaces_seen.add((s.degree, s.sect_genus, s.K2))
    assert len(surfaces_seen) == 90
    nonstandard = sum(1 for a, counts in grid
                      if (counts and not counts[-1])
                      or a < sum(sorted(expand(PlaneModel(a, counts)).mults)[-3:]))
    leaves = sum(1 for a in range(1, bounds.max_a + 1)
                 for high in itertools.product(range(bounds.max_points + 1),
                                               repeat=bounds.max_mult - 1)
                 if sum(high) <= bounds.max_points
                 and sum(i * i * n for i, n in enumerate(high, 2)) < a * a)
    built = {"model": 0, "count": 0, "loop": 0, "window": 0, "chi": 0, "lattice": 0}

    def counted_loop(*args):
        built["loop"] += 1
        return _count_numbers(*args)
    monkeypatch.setattr(atlas, "_count_numbers", counted_loop)
    monkeypatch.setattr(surfaces, "_count_numbers", counted_loop)

    def counted_window(s):
        built["window"] += 1
        return codimension_window(s)
    monkeypatch.setattr(atlas, "codimension_window", counted_window)
    fourfold_lattice = atlas.fourfold_lattice

    def counted_lattice(ci, s):
        built["lattice"] += 1
        return fourfold_lattice(ci, s)
    monkeypatch.setattr(atlas, "fourfold_lattice", counted_lattice)
    chi_twist = surfaces.SurfaceInvariants.chi_twist

    def counted_chi(self, m):
        built["chi"] += 1
        return chi_twist(self, m)
    monkeypatch.setattr(surfaces.SurfaceInvariants, "chi_twist", counted_chi)

    def counted(cls, key):
        original = cls.__new__

        def wrapper(*args, **kwargs):
            built[key] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(cls, "__new__", wrapper)

    counted(PlaneModel, "model")
    counted(ParameterCount, "count")
    _closed_form.cache_clear()
    assert len(enumerate_atlas(bounds)) == 239
    assert _closed_form.cache_info().misses == 1     # (2,2,2) only
    assert built["count"] == 0
    assert 0 < nonstandard < len(grid)
    assert built["model"] == len(grid)
    assert 0 < built["loop"] <= leaves < len(grid)
    assert 0 < built["chi"] <= 2 * built["window"]
    assert 0 < built["window"] <= built["lattice"] <= len(surfaces_seen)
    # nothing is kept across calls: the second call does all of it again
    first = dict(built)
    assert len(enumerate_atlas(bounds)) == 239
    assert (built["lattice"], built["window"]) == (2 * first["lattice"],
                                                  2 * first["window"])


def test_atlas_consistent_with_direct_pipeline(default_atlas):
    for e in default_atlas[:40]:
        s = parse_surface_spec(e.model.spec_string())
        assert s.degree == e.surface.degree
        assert s.K2 == e.surface.K2


def test_bounds_validation():
    with pytest.raises(ValueError):
        SearchBounds(max_a=0)
    with pytest.raises(ValueError):
        SearchBounds(max_codim=0)


@pytest.mark.parametrize("field", ["max_a", "max_points", "max_mult", "min_h0_IS2",
                                   "max_codim"])
@pytest.mark.parametrize("value", [2.5, 3.0, "3"])
def test_bounds_take_only_integers(field, value):
    # refused at construction, not later by range() inside the grid
    with pytest.raises(TypeError):
        SearchBounds(**{field: value})


def test_genus_filter_vacuous_in_default_window(default_atlas):
    # every surviving in-bounds model already has non-negative genus, so the
    # toggle only matters for user-widened windows
    relaxed = enumerate_atlas(SearchBounds(require_positive_genus_bound=False))
    assert [e.sort_key for e in relaxed] == [e.sort_key for e in default_atlas]
    assert all(e.surface.sect_genus >= 0 for e in default_atlas)


def test_dataset_gray_flag_is_odd_degree(dataset):
    for row in dataset.unirational_rows:
        s = parse_surface_spec(row.surface)
        assert ("odd-degree" in row.flags) == (s.degree % 2 == 1), row.id
