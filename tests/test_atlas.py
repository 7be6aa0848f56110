import dataclasses
import hashlib
import inspect
import itertools
import json
import pickle
import sys

import pytest
from hypothesis import given, strategies as st

from nlatlas import atlas, chow, lattice, surfaces
from nlatlas import counts as counts_module
from nlatlas.atlas import AtlasEntry, SearchBounds, _candidate_grid, enumerate_atlas, gap_report
from nlatlas.chow import _constants
from nlatlas.counts import H0_QUADRICS_P7, ParameterCount, h0_quadrics
from nlatlas.errors import NegativeCount, NotNef, ParseError, SpanTooSmall
from nlatlas.lattice import RankTwoLattice, mod16_class
from nlatlas.picard import DivisorClass, adjunction_genus, pair, riemann_roch_chi
from nlatlas.serialize import encode
from nlatlas.surfaces import (PlaneModel, SurfaceInvariants, expand, invariants,
                              normalize_contractions, parse_surface_spec)
import reference
from reference import count_numbers, evaluate

TABLE_VALUES = {16, 28, 31, 32, 39, 44, 47, 48, 55, 60, 63, 64, 71, 76, 79, 80,
                87, 92, 96, 103}


def _bucket(atlas, det):
    return [e for e in atlas if e.discriminant == det]


def test_default_bounds_contain_del_pezzo_row(default_atlas):
    hits = [e for e in _bucket(default_atlas, 16)
            if e.model.a == 3 and e.model.point_counts == (5, 0, 0)]
    assert len(hits) == 1
    entry = hits[0]
    assert (entry.lattice.m11, entry.lattice.m12, entry.lattice.m22) == (8, 4, 4)
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
        lat = entry.lattice
        assert (lat.m11, lat.m12, lat.m22) == row.matrix, row.id
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


def test_det_31_holds_one_model_per_surface(default_atlas):
    # the plane is the only surface of degree 1: its Cremona-equivalent models
    # S(2;3), S(5;0,6) and S(6;4,1,3) are not standard, so they are not listed
    plane_like = [e for e in default_atlas if e.discriminant == 31 and e.surface.degree == 1]
    assert [e.model for e in plane_like] == [PlaneModel(1, (0, 0, 0))]
    assert (plane_like[0].surface.K2, plane_like[0].surface.chi_top,
            plane_like[0].surface.h0_H) == (9, 3, 3)


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
def test_worker_count_reproduces_the_a12p16_pin(workers):
    # the benchmark's atlas-pool workload calls with workers=2
    bounds, digest = ATLAS_DIGESTS[1].values
    assert _digest(enumerate_atlas(bounds, workers=workers)) == digest


def test_one_call_evaluates_the_whole_grid_in_one_chunk(monkeypatch):
    # through the module attribute: the benchmark's tracer wraps
    # ``atlas._evaluate_chunk`` and counts one call per enumerate_atlas call
    bounds = SearchBounds(max_a=5, max_points=9)
    original = atlas._evaluate_chunk
    chunks = []

    def counted(bounds, chunk):
        chunks.append(chunk)
        return original(bounds, chunk)
    monkeypatch.setattr(atlas, "_evaluate_chunk", counted)
    for workers in (1, 2, 8):
        chunks.clear()
        enumerate_atlas(bounds, workers=workers)
        assert chunks == [_candidate_grid(bounds)]


def test_atlas_entry_init_keeps_the_dataclass_contract(default_atlas):
    """``AtlasEntry.__init__`` is written by hand, to store the fields
    straight into the instance dict: it takes the dataclass's fields by name
    and in order and stores them in that order, every entry stays frozen,
    and each way of rebuilding an entry gives back one equal to it, with the
    same hash, repr and ``astuple``."""
    names = [f.name for f in dataclasses.fields(AtlasEntry)]
    assert list(inspect.signature(AtlasEntry.__init__).parameters) == ["self", *names]
    for e in default_atlas:
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(e, name, getattr(e, name))
        values = [getattr(e, name) for name in names]
        for copy in (dataclasses.replace(e), pickle.loads(pickle.dumps(e)),
                     AtlasEntry(**dataclasses.asdict(e)), AtlasEntry(*values)):
            assert type(copy) is AtlasEntry and copy == e, e.model
            assert (hash(copy), repr(copy)) == (hash(e), repr(e)), e.model
            assert dataclasses.astuple(copy) == dataclasses.astuple(e), e.model
            assert list(vars(copy).items()) == list(zip(names, values)), e.model


def test_parse_error_survives_pickling():
    exc = pickle.loads(pickle.dumps(ParseError("bad", "5;x", 2)))
    assert type(exc) is ParseError
    assert str(exc) == "bad (at position 2 in '5;x')"
    assert (exc.text, exc.position) == ("5;x", 2)


def _box(bounds):
    """Every (a, counts) of the search box, with counts of the grid's length,
    listed without ``_candidate_grid``."""
    return [(a, counts) for a in range(1, bounds.max_a + 1)
            for counts in itertools.product(range(bounds.max_points + 1),
                                            repeat=bounds.max_mult)
            if sum(counts) <= bounds.max_points]


def _passes_counts(bounds, a, counts, pencils=False):
    """The conditions on (a, counts) that the grid decides, one candidate at
    a time, the standard one aside.  With ``pencils``, degree 1 passes at any
    h0(H), as it did before the grid admitted only the plane."""
    deg, genus, h0, h0_is2 = count_numbers(a, counts)
    return (deg >= 1 and h0 <= 8 and (h0 >= 4 or (deg == 1 and (h0 == 3 or pencils)))
            and genus >= 0
            and h0_is2 >= max(bounds.min_h0_IS2, 3))


def _standard(a, counts):
    """a >= m1 + m2 + m3, read off the sorted multiplicities."""
    mults = sorted((i for i, n in enumerate(counts, 1) for _ in range(n)), reverse=True)
    return a >= sum(mults[:3])


def _atlas_order(e):
    """The order of ``enumerate_atlas``: (discriminant, a, point counts)."""
    return e.discriminant, e.model.a, e.model.point_counts


@pytest.mark.parametrize("bounds", [
    SearchBounds(max_a=6, max_points=8),
    SearchBounds(max_a=5, max_points=9, max_mult=4),
    SearchBounds(max_a=7, max_points=6, max_mult=2),
    SearchBounds(max_a=6, max_points=8, min_h0_IS2=3),
    SearchBounds(max_a=6, max_points=8, min_h0_IS2=12),
    # the plane passes below h0(H) = 4, off the n_1 interval of the rest;
    # the degree-1 pencil S(3;8), h0(H) = 2, passes every other condition
    SearchBounds(max_a=7, max_points=9),
    # drops the plane (h0(I(2)) = 30) and that pencil (32) alike
    SearchBounds(max_a=7, max_points=9, min_h0_IS2=31),
    # S(9;2,15) has h0(I(2)) = 2, under the floor of 3 quadrics
    SearchBounds(max_a=9, max_points=17, max_mult=2, min_h0_IS2=1),
    # the n_1 cap: S(4;2,0,1) passes the counts, but 3 + 1 + 1 > 4; at the
    # degree-1 point, S(2;3) is the plane but 1 + 1 + 1 > 2
    SearchBounds(max_a=4, max_points=6),
])
def test_pruned_grid_drops_only_rejects(bounds):
    kept = [(a, counts) for a, counts in _box(bounds)
            if _passes_counts(bounds, a, counts) and _standard(a, counts)]
    assert sorted(_models(_candidate_grid(bounds))) == kept
    shared = {}
    entries = [e for e in (evaluate(bounds, a, c, shared) for a, c in kept) if e is not None]
    assert enumerate_atlas(bounds) == sorted(entries, key=_atlas_order)


def test_evaluate_raises_on_a_model_that_is_not_nef():
    # S(3;0,2) is not standard, so never a grid candidate; the reference
    # evaluates any model and refuses it, so the tests that evaluate the
    # whole box can skip it
    with pytest.raises(NotNef):
        evaluate(SearchBounds(), 3, (0, 2, 0), {})


def _models(grid):
    """The (a, counts) of each candidate of a grid, in its order."""
    return [c[:2] for c in grid]


# sha256 of the atlas entries' field tuples, one repr per line, on three
# grids; a deliberate change of atlas output records its new digests here
ATLAS_DIGESTS = [
    pytest.param(SearchBounds(max_a=8, max_points=13, max_mult=3),
                 "76619e6d4ebe601b53dc54b8eb1868b892334813ac0cfa9fb63de6ba2676dbf5",
                 id="default"),
    pytest.param(SearchBounds(max_a=12, max_points=16, max_mult=3),
                 "66bf0b1d47ee76a6ca07d6cde717f9c8da8040c8e3da5851974e47839d67a288",
                 id="a12p16"),
    pytest.param(SearchBounds(max_a=10, max_points=16, max_mult=4),
                 "ebe8b26a3f461947aa43565e18c3a734873b52ec148146e320e2729145ad6576",
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


GRID_BOUNDS = pytest.mark.parametrize("bounds", [p.values[0] for p in ATLAS_DIGESTS],
                                      ids=[p.id for p in ATLAS_DIGESTS])


def _unpruned_grid(bounds, genus_cut=True):
    """``_candidate_grid`` before it carried h0(H) down its recursion: it
    pruned only on H^2 >= 1 and the standard condition, and read each
    leaf's numbers from ``count_numbers``; ``genus_cut`` drops the leaves of
    negative genus."""
    need = max(bounds.min_h0_IS2, 3)
    grid = []

    def fill(a, high, points, budget, top, k):
        i = bounds.max_mult - len(high)
        if i > 1:
            for n in range(min(points, budget // (i * i)) + 1):
                t = min(n, 3 - k)
                if top + t * i > a:
                    break
                fill(a, (n,) + high, points - n, budget - n * i * i, top + t * i, k + t)
            return
        if a - top < 3 - k:
            points = min(points, a - top)
        deg, genus, h0, h0_is2 = count_numbers(a, (0,) + high)
        if genus < 0 and genus_cut:
            return
        lo = max(0, h0 - 8, -((h0_is2 - need) // 3))
        hi = min(points, deg - 1, h0 - 4)
        grid.extend([(a, (n,) + high) for n in range(lo, hi + 1)])
        if h0 - (deg - 1) == 3 and lo <= deg - 1 <= points:
            grid.append((a, (deg - 1,) + high))

    for a in range(1, bounds.max_a + 1):
        fill(a, (), bounds.max_points, a * a - 1, 0, 0)
    return grid


@pytest.mark.parametrize("bounds", [
    *(p.values[0] for p in ATLAS_DIGESTS),
    SearchBounds(max_a=16, max_points=20, max_mult=4),
    SearchBounds(max_a=20, max_points=24, max_mult=5),
], ids=["default", "a12p16", "a10p16m4", "a16p20m4", "a20p24m5"])
def test_pruned_grid_is_the_unpruned_grid(bounds):
    # the same list in the same order, so the same entries and digests
    assert _models(_candidate_grid(bounds)) == _unpruned_grid(bounds)


@given(st.builds(SearchBounds, max_a=st.integers(1, 12), max_points=st.integers(1, 16),
                 max_mult=st.integers(1, 6), min_h0_IS2=st.integers(1, 32),
                 max_codim=st.just(7)))
def test_pruned_grid_is_the_unpruned_grid_on_drawn_bounds(bounds):
    assert _models(_candidate_grid(bounds)) == _unpruned_grid(bounds)


@GRID_BOUNDS
def test_not_nef_message_names_h_by_its_label(bounds):
    # the reduction names H by the model's label, without building the
    # class; no grid candidate is rejected so (they are standard), so the
    # models come from the whole box: every one of degree >= 1, the 10, 10
    # and 65 that passed the count conditions among them
    rejected = passing = 0
    for a, counts in _box(bounds):
        if count_numbers(a, counts)[0] < 1:
            continue
        model = PlaneModel(a, counts)
        try:
            invariants(model)
        except NotNef as exc:
            assert str(exc).partition(" and H of ")[2] == str(model), model
            assert not _standard(a, counts), model
            rejected += 1
            passing += _passes_counts(bounds, a, counts, pencils=True)
        except SpanTooSmall:
            pass
    assert (rejected, passing) == {"default": (19, 10), "a12p16": (19, 10),
                                   "a10p16m4": (132, 65)}[_grid_name(bounds)]


def _grid_name(bounds):
    return next(p.id for p in ATLAS_DIGESTS if p.values[0] == bounds)


@GRID_BOUNDS
def test_standard_models_lose_no_surface(bounds):
    """The atlas of every model of the box that passes the count conditions,
    standard or not, evaluated one at a time: the standard model of each of
    its entries is an entry with the same numbers, and the same
    discriminants are attained."""
    old = []
    for a, counts in _box(bounds):
        if _passes_counts(bounds, a, counts):
            try:
                entry = evaluate(bounds, a, counts, {})
            except NotNef:
                continue
            if entry is not None:
                old.append(entry)
    new = {(e.model.a, e.model.point_counts): e for e in enumerate_atlas(bounds)}
    assert (len(old), len(new)) == {"default": (239, 79), "a12p16": (421, 230),
                                    "a10p16m4": (1118, 299)}[_grid_name(bounds)]
    numbers = lambda e: (e.surface[:-1], e.lattice, e.discriminant,  # all but the label
                         e.codim_bound_range, e.h0_IS2, e.h0_N)
    for e in old:
        _, _, a, counts, _ = normalize_contractions(e.model)
        std = new[(a, counts + (0,) * (bounds.max_mult - len(counts)))]
        assert numbers(std) == numbers(e), (e.model, std.model)
    assert {e.discriminant for e in old} == {e.discriminant for e in new.values()}
    if bounds == SearchBounds():
        # the quadratic Cremona system, a quintic and a three-step reduction
        # all give the plane
        reduced = {e.model.spec_string(): normalize_contractions(e.model)[2:4]
                   for e in old if e.discriminant == 31 and e.surface.degree == 1}
        for spec in ("1;0,0,0", "2;3,0,0", "5;0,6,0", "6;4,1,3"):
            assert reduced[spec] == (1, ()), spec


@GRID_BOUNDS
def test_degree_one_point_admits_only_the_plane(bounds):
    # standard degree-1 models with h0(H) != 3 are pencils or nets without an
    # embedding; none gave an entry when the grid admitted them
    pencils = [(a, counts) for a, counts in _box(bounds)
               if _standard(a, counts) and _passes_counts(bounds, a, counts, pencils=True)
               and count_numbers(a, counts)[0] == 1 and count_numbers(a, counts)[2] != 3]
    assert len(pencils) == {"default": 5, "a12p16": 27, "a10p16m4": 31}[_grid_name(bounds)]
    assert all(evaluate(bounds, a, counts, {}) is None for a, counts in pencils)
    grid = _models(_candidate_grid(bounds))
    assert [c for c in grid if count_numbers(*c)[0] == 1] == [(1, (0,) * bounds.max_mult)]


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
            deg, genus, h0, h0_is2 = count_numbers(a, counts)
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


def _visited_leaves(bounds):
    """The calls of ``_candidate_grid``'s recursion that reach n_1."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == "fill":
            calls += len(frame.f_locals["high"]) == bounds.max_mult - 1
    sys.setprofile(profile)
    try:
        _candidate_grid(bounds)
    finally:
        sys.setprofile(None)
    return calls


# per bench grid: candidates, leaves with candidates, types (distinct degree,
# genus and K^2: one ``formula_222`` call and one lattice each), codimension
# windows and entries; over the three, 683 candidates, 453 types, 431 windows
# and 608 entries
WORK_COUNTS = {"default": (86, 30, 85, 79, 79), "a12p16": (266, 91, 189, 182, 230),
               "a10p16m4": (331, 111, 179, 170, 299)}


def test_atlas_work_counts(monkeypatch):
    """Work counted instead of timed, so that a busy host cannot fail it: an
    atlas evaluates the closed form once per multidegree, builds no
    ``ParameterCount``, and takes each candidate's numbers from the grid:
    it calls neither ``invariants`` nor ``normalize_contractions``, and
    builds one ``PlaneModel`` and one labelled record through the module's
    ``_tuple_new``, and one ``AtlasEntry``, per entry, none for a rejected
    candidate, and no other record: neither the validating constructors nor
    ``_make`` are called.  The label comes from the grid leaf: no
    ``PlaneModel`` is printed.  The grid carries the degree and h0(H) down
    its recursion, so no loop over the counts computes
    them (the package has no ``_count_numbers`` left), and its bounds on
    h0(H) and the genus leave fewer leaves (a standard choice of the counts
    above n_1) to visit than the brute-force count of them; it gives the
    numbers of the candidates only on the leaves that have some.  Each
    distinct (degree, genus, K^2) among the candidates is decided from its
    integers: one m22 from ``formula_222``, one lattice and at most one
    codimension window, with no ``fourfold_lattice``, ``self_intersection``,
    ``codimension_bound`` or ``chi_twist`` call, and a second call does all
    of it again.  The counts are pinned on each bench grid."""
    bounds = SearchBounds()
    grid = _candidate_grid(bounds)
    leaves = sum(1 for a in range(1, bounds.max_a + 1)
                 for high in itertools.product(range(bounds.max_points + 1),
                                               repeat=bounds.max_mult - 1)
                 if sum(high) <= bounds.max_points
                 and sum(i * i * n for i, n in enumerate(high, 2)) < a * a
                 and _standard(a, (0,) + high))
    assert not hasattr(atlas, "_count_numbers") and not hasattr(surfaces, "_count_numbers")
    visited = _visited_leaves(bounds)
    # each candidate comes from a visited leaf
    assert len({(a, counts[1:]) for a, counts, *_ in grid}) <= visited < leaves
    built = {"model": 0, "record": 0, "model_make": 0, "record_make": 0, "model_new": 0,
             "record_new": 0, "other_new": 0, "entry": 0, "count": 0, "window": 0, "chi": 0,
             "m22": 0, "lattice": 0, "leaf": 0, "invariants": 0, "normalize": 0,
             "record_path": 0, "printed": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            built[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # the atlas binds none of these names, and each record-level function is
    # called through a module attribute
    for name in ("invariants", "normalize_contractions", "fourfold_lattice",
                 "self_intersection", "codimension_bound"):
        assert not hasattr(atlas, name), name
    # and the reference atlas shares none of the atlas's own evaluation
    for name in ("codimension_window_of", "formula_222"):
        assert not hasattr(reference, name), name
    monkeypatch.setattr(surfaces, "invariants", counting("invariants", surfaces.invariants))
    monkeypatch.setattr(surfaces, "normalize_contractions",
                        counting("normalize", surfaces.normalize_contractions))
    for module, name in ((lattice, "fourfold_lattice"), (lattice, "self_intersection"),
                         (chow, "self_intersection"),
                         (counts_module, "codimension_bound")):
        monkeypatch.setattr(module, name, counting("record_path", getattr(module, name)))
    monkeypatch.setattr(atlas, "codimension_window_of",
                        counting("window", atlas.codimension_window_of))
    monkeypatch.setattr(atlas, "formula_222", counting("m22", atlas.formula_222))
    monkeypatch.setattr(atlas, "_leaf", counting("leaf", atlas._leaf))
    monkeypatch.setattr(surfaces.SurfaceInvariants, "chi_twist",
                        counting("chi", surfaces.SurfaceInvariants.chi_twist))
    for cls, key in ((PlaneModel, "model"), (surfaces.SurfaceInvariants, "record"),
                     (ParameterCount, "count"), (RankTwoLattice, "lattice")):
        monkeypatch.setattr(cls, "__new__", counting(key, cls.__new__))
    # ``_make`` and ``tuple.__new__`` build the tuple without calling ``__new__``
    for cls, key in ((PlaneModel, "model_make"), (surfaces.SurfaceInvariants, "record_make")):
        monkeypatch.setattr(cls, "_make", classmethod(counting(key, cls._make.__func__)))
    assert atlas._tuple_new is tuple.__new__
    new_keys = {PlaneModel: "model_new", surfaces.SurfaceInvariants: "record_new"}

    def tuple_new(cls, values):
        built[new_keys.get(cls, "other_new")] += 1
        return tuple.__new__(cls, values)
    monkeypatch.setattr(atlas, "_tuple_new", tuple_new)
    monkeypatch.setattr(AtlasEntry, "__init__", counting("entry", AtlasEntry.__init__))
    for name in ("__str__", "spec_string"):
        monkeypatch.setattr(PlaneModel, name, counting("printed", getattr(PlaneModel, name)))
    _constants.cache_clear()
    for param in ATLAS_DIGESTS:
        bounds = param.values[0]
        candidates, emitting, types, windows, entries = WORK_COUNTS[param.id]
        grid = _candidate_grid(bounds)
        assert (len(grid), len({c[2:5] for c in grid})) == (candidates, types), param.id
        for key in built:
            built[key] = 0
        assert len(enumerate_atlas(bounds)) == entries, param.id
        assert built == dict.fromkeys(built, 0) | {
            "model_new": entries, "record_new": entries, "entry": entries,
            "m22": types, "lattice": types, "window": windows, "leaf": emitting}, param.id
        assert emitting == len({(a, counts[1:]) for a, counts, *_ in grid})
        # nothing is kept across calls: the second call does all of it again
        first = dict(built)
        assert len(enumerate_atlas(bounds)) == entries
        assert built == {key: 2 * n for key, n in first.items()}, param.id
    assert _constants.cache_info().misses == 1     # (2,2,2) only
    # on a large box, 7,379 of the 121,353 leaves have candidates, and only
    # those compute their numbers
    built["leaf"] = 0
    grid = _candidate_grid(SearchBounds(max_a=24, max_points=30, max_mult=6))
    assert built["leaf"] == len({(a, counts[1:]) for a, counts, *_ in grid}) == 7379


def _assert_the_reference_atlas(bounds):
    """Each candidate's numbers are those of ``invariants`` and its label is
    the plane model's ``str``, the atlas is the reference evaluator's,
    sorted, and each entry's lattice has m22 even and discriminant -deg^2
    mod 16.  The atlas builds its records with ``tuple.__new__``, which skips
    the constructors' checks: each is of its class and passes them unchanged."""
    shared, expected = {}, []
    for a, counts, degree, genus, K2, label in _candidate_grid(bounds):
        model = PlaneModel(a, counts)
        s = invariants(model)
        assert (degree, genus, K2) == (s.degree, s.sect_genus, s.K2), (a, counts)
        assert label == str(model), (a, counts)
        entry = evaluate(bounds, a, counts, shared)
        if entry is not None:
            expected.append(entry)
    entries = enumerate_atlas(bounds)
    assert entries == sorted(expected, key=_atlas_order)
    for e in entries:
        assert e.lattice.m22 % 2 == 0, e.model
        assert (e.discriminant + e.surface.degree ** 2) % 16 == 0, e.model
        assert type(e.model) is PlaneModel and type(e.surface) is SurfaceInvariants, e.model
        assert PlaneModel(*e.model) == e.model, e.model
        assert SurfaceInvariants(*e.surface) == e.surface, e.model


@pytest.mark.parametrize("bounds", [
    *(p.values[0] for p in ATLAS_DIGESTS),
    SearchBounds(max_a=20, max_points=24, max_mult=5),
], ids=["default", "a12p16", "a10p16m4", "a20p24m5"])
def test_atlas_is_the_reference_atlas(bounds):
    _assert_the_reference_atlas(bounds)


@given(st.builds(SearchBounds, max_a=st.integers(1, 12), max_points=st.integers(1, 16),
                 max_mult=st.integers(1, 6), min_h0_IS2=st.integers(1, 32),
                 max_codim=st.integers(1, 40)))
def test_atlas_is_the_reference_atlas_on_drawn_bounds(bounds):
    _assert_the_reference_atlas(bounds)


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
@pytest.mark.parametrize("value", [2.5, 3.0, "3", "false"])
def test_bounds_take_only_integers(field, value):
    # refused at construction, not later by range() inside the grid
    with pytest.raises(TypeError):
        SearchBounds(**{field: value})


def test_genus_filter_vacuous_in_default_window(default_atlas):
    # the grid always cuts at genus < 0, and the cut drops no candidate: on
    # at most nine points a standard H is nef and big, so Kawamata-Viehweg
    # gives p_a(H) = h0(K + H) >= 0, and on the larger bench grids and
    # (20, 24, 5) the oracle grid without the cut is the same list
    for bounds in (*(p.values[0] for p in ATLAS_DIGESTS),
                   SearchBounds(max_a=20, max_points=24, max_mult=5)):
        assert _unpruned_grid(bounds, genus_cut=False) == _unpruned_grid(bounds)
    assert all(e.surface.sect_genus >= 0 for e in default_atlas)


def test_dataset_gray_flag_is_odd_degree(dataset):
    for row in dataset.unirational_rows:
        s = parse_surface_spec(row.surface)
        assert ("odd-degree" in row.flags) == (s.degree % 2 == 1), row.id
