"""Deterministic enumeration of plane models and the discriminant atlas.

The search box is every S(a; n1, ..., n_maxmult) with a <= max_a, at most
max_points base points in total and multiplicities up to max_mult.  The
numbers carried by H alone are linear in the point counts, so these
conditions are decided on (a, counts), while the grid is generated:

  * the image has degree H^2 >= 1 and, when the bounds ask for it,
    non-negative sectional genus 1 + (H^2 + H.K)/2,
  * the system embeds: h0(H) = 1 + (H^2 - H.K)/2 between 4 and 8, or it
    is the plane, degree 1 with h0(H) = 3,
  * at least min_h0_IS2 (and at least 3) quadrics pass through it,
    h0(I(2)) = 35 - 2 H^2 + H.K,
  * the model is Cremona-standard: a >= m1 + m2 + m3 for its largest three
    multiplicities,

where H.K = sum i n_i - 3a.  A model that is not standard Cremona-reduces to
one that is, with smaller a, no more points and no higher multiplicity, so
inside the box, and with the same H^2 and H.K, so passing the same
conditions: each surface is listed once per standard model, and no surface
of the box is lost.  ``_candidate_grid`` chooses the multiplicities above
one with the degree and h0(H) as running sums, which also give the genus,
cuts each choice to the counts that can still meet the conditions, and
solves them for n_1, which they bound to an interval (plus the plane), so
no candidate outside them is built: on the default bounds 86 of the 1,155
models with H^2 >= 1 (304 without the standard condition), from 62 nodes
of the search tree, where the H^2 and standard cuts alone visit 112
(163,505 and 1,367,049 for the 11,997 of max_a=24, max_points=30,
max_mult=6).
The candidates go through ``invariants``, which counts the (-1)-classes
orthogonal to H and blows them down (each raises K^2); a standard model
pairs non-negatively with every (-1)-class, so none is rejected as not nef.
The conditions that need the record are then:

  * the resulting discriminant is non-negative,
  * the codimension-bound window, taken over h0(N_S/X) between 0 and the
    clamped Euler estimate, meets [0, max_codim].

The lattice, its discriminant and the window read only the degree, sectional
genus, K^2, chi(O) and nodes of the surface, and numerically equal models
repeat those numbers.  ``_evaluate_chunk`` keeps, for the length of its
call, a dict from them to what it computed, so such entries share one
``RankTwoLattice``: on the three bench grids 453 lattices and windows serve
683 candidates.  Nothing is kept between calls.

The output is a pure function of the bounds: ``enumerate_atlas`` evaluates
the grid in one serial pass and sorts the entries by (discriminant, a,
point counts), so every run agrees byte for byte.  Gap claims are always
reported together with the bounds that produced them; nothing is asserted
beyond the enumeration window.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import NamedTuple

from .chow import CI222
from .counts import codimension_window
from .lattice import RankTwoLattice, discriminant, fourfold_lattice, mod16_class
from .surfaces import PlaneModel, SurfaceInvariants, invariants

GAP_FLOOR = 16  # smallest discriminant considered attainable on a (2,2,2)


class _SearchBoundsFields(NamedTuple):
    max_a: int
    max_points: int
    max_mult: int
    min_h0_IS2: int
    max_codim: int
    require_positive_genus_bound: bool


class SearchBounds(_SearchBoundsFields):
    __slots__ = ()

    def __new__(cls, max_a: int = 8, max_points: int = 13, max_mult: int = 3,
                min_h0_IS2: int = 7, max_codim: int = 7,
                require_positive_genus_bound: bool = True):
        limits = []
        for name, value in zip(cls._fields, (max_a, max_points, max_mult, min_h0_IS2,
                                             max_codim)):
            # operator.index rejects floats and strings, which range() would
            # only refuse deep inside the grid
            value = operator.index(value)
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
            limits.append(value)
        # the string "false" would switch the filter on
        if not isinstance(require_positive_genus_bound, bool):
            raise TypeError("require_positive_genus_bound must be a bool, got "
                            f"{require_positive_genus_bound!r}")
        return tuple.__new__(cls, (*limits, require_positive_genus_bound))

    def describe(self) -> str:
        return (f"a <= {self.max_a}, <= {self.max_points} points, "
                f"multiplicity <= {self.max_mult}, h0(I(2)) >= {self.min_h0_IS2}, "
                f"codim <= {self.max_codim}")


# the one record left a frozen dataclass: the pinned atlas digests of
# tests/test_atlas.py and the benchmark's digest (bench/workloads.py) hash the
# repr of ``dataclasses.astuple`` of each entry; it changes form when the
# benchmark is revised (ROADMAP item 5)
@dataclass(frozen=True)
class AtlasEntry:
    model: PlaneModel
    surface: SurfaceInvariants
    lattice: RankTwoLattice
    discriminant: int
    codim_bound_range: tuple[int, int]
    h0_IS2: int
    h0_N: int

    @property
    def sort_key(self):
        return (self.discriminant, self.model.a, self.model.point_counts)


def _evaluate(bounds: SearchBounds, a: int, counts: tuple[int, ...],
              shared: dict) -> AtlasEntry | None:
    """The entry of a candidate of ``_candidate_grid``, or None.  ``shared``
    holds the lattice, discriminant and window of each surface seen so far
    in this call (None for the window of a negative discriminant)."""
    model = PlaneModel(a, counts)
    # the grid holds only standard models with H^2 >= 1 and h0(H) >= 4 or the
    # plane, so a NotNef, SpanTooSmall or H^2 ValueError here would be a fault
    s = invariants(model)
    # the numbers of s that the lattice and the window read
    key = (s.degree, s.sect_genus, s.K2, s.chi_O, s.nodes)
    found = shared.get(key)
    if found is None:
        lat = fourfold_lattice(CI222, s)
        disc = discriminant(lat)
        found = shared[key] = (lat, disc, codimension_window(s) if disc >= 0 else None)
    lat, disc, window = found
    if window is None:
        return None
    h0_is2, h0_n, _, lo, hi = window
    # no test of hi < 0: a surface of the grid has no nodes, so the clamped
    # estimate of h0(N_S/X) is max(-lo, 0) and hi = max(lo, 0)
    if lo > bounds.max_codim:
        return None
    return AtlasEntry(model, s, lat, disc, (lo, hi), h0_is2, h0_n)


def _candidate_grid(bounds: SearchBounds) -> list[tuple[int, tuple[int, ...]]]:
    """Every Cremona-standard (a, counts) in the bounds that passes the
    count conditions.

    n_maxmult, ..., n_2 are chosen first, with m1 + m2 + m3 <= a for the
    largest three multiplicities (standard), carrying down H^2 - 1 and h0(H)
    of S(a; 0, n_2, ...); its genus is H^2 + 2 - h0(H).  A point of
    multiplicity i lowers H^2, h0(H) and the genus by i^2, i(i+1)/2 and
    i(i-1)/2, so each n_i is cut to a window outside which no candidate
    lies.  Below it, h0(H) stays above 8 even if each of the P points left
    has multiplicity i - 1 and lowers h0(H) by i(i-1)/2: a candidate needs
    n_i >= (h0(H) - 8 - P i(i-1)/2) / i.  Above it, H^2 - 1, h0(H) - 3 (the
    plane's h0(H) is the least) or, when the bounds ask for it, the genus is
    negative, or the top three sum past a, and the points still to come
    only make each worse.  With them fixed, each simple point lowers the
    degree and h0(H) by one, raises h0(I(2)) = 37 - H^2 - 2 h0(H) by three
    and leaves the genus alone, so the n_1 that pass form one interval,
    plus the plane's degree-1 model.  The module docstring says why listing
    only standard models loses no surface.
    """
    need = max(bounds.min_h0_IS2, 3)
    positive_genus = bounds.require_positive_genus_bound
    grid = []

    def fill(a: int, high: tuple[int, ...], points: int, budget: int, h0: int,
             top: int, k: int):
        # top: the sum of the k = min(3, points chosen) largest multiplicities
        i = bounds.max_mult - len(high)
        if i > 1:
            first = max(0, -((8 + points * (i * i - i) // 2 - h0) // i))
            for n in range(first, min(points, budget // (i * i)) + 1):
                t = min(n, 3 - k)
                left, h = budget - n * i * i, h0 - n * (i * i + i) // 2
                # each test only gets worse as n grows: the rest fail too
                if top + t * i > a or h < 3 or (positive_genus and left + 3 < h):
                    break
                fill(a, (n,) + high, points - n, left, h, top + t * i, k + t)
            return
        if a - top < 3 - k:
            # simple points fill the free places of the top three
            points = min(points, a - top)
        deg = budget + 1
        h0_is2 = 37 - deg - 2 * h0
        # n_1 >= 0, h0(H) - n_1 <= 8 and h0(I(2)) + 3 n_1 >= need (rounded up)
        lo = max(0, h0 - 8, -((h0_is2 - need) // 3))
        # n_1 <= points, degree - n_1 >= 1 and h0(H) - n_1 >= 4
        hi = min(points, deg - 1, h0 - 4)
        grid.extend([(a, (n,) + high) for n in range(lo, hi + 1)])
        # n_1 = deg - 1 gives degree 1, which embeds only as the plane,
        # h0(H) = 3, below the interval; the pencils (h0(H) <= 2) do not
        if h0 - (deg - 1) == 3 and lo <= deg - 1 <= points:
            grid.append((a, (deg - 1,) + high))

    for a in range(1, bounds.max_a + 1):
        fill(a, (), bounds.max_points, a * a - 1, (a + 1) * (a + 2) // 2, 0, 0)
    return grid


def _evaluate_chunk(bounds: SearchBounds,
                    chunk: list[tuple[int, tuple[int, ...]]]) -> list[AtlasEntry]:
    out = []
    shared: dict = {}   # lives for this call only, see ``_evaluate``
    for a, counts in chunk:
        entry = _evaluate(bounds, a, counts, shared)
        if entry is not None:
            out.append(entry)
    return out


def enumerate_atlas(bounds: SearchBounds | None = None, workers: int = 1) -> list[AtlasEntry]:
    """Build the atlas, sorted by ``AtlasEntry.sort_key``.  ``workers`` is
    accepted and does not change how the grid is evaluated: every call is
    one serial pass.  ROADMAP item 5 removes it together with the benchmark's
    ``atlas-pool`` workload, which passes ``workers=2``."""
    bounds = bounds or SearchBounds()
    entries = _evaluate_chunk(bounds, _candidate_grid(bounds))
    entries.sort(key=lambda e: e.sort_key)
    return entries


class GapReport(NamedTuple):
    bounds: SearchBounds
    up_to: int
    gaps: tuple[int, ...]
    attained: tuple[int, ...]
    below_floor: tuple[int, ...] = ()

    def describe(self) -> str:
        if self.up_to < GAP_FLOOR:
            # [GAP_FLOOR, up_to] is empty: "none" would claim a search
            searched = (f"up to {self.up_to} lies below the floor {GAP_FLOOR}: "
                        f"no bucket at or above {GAP_FLOOR} was examined")
        else:
            searched = (f"admissible discriminants in [{GAP_FLOOR}, {self.up_to}] with empty "
                        "buckets: " + (", ".join(map(str, self.gaps)) or "none"))
        lines = [
            f"search bounds: {self.bounds.describe()}",
            searched,
            "gaps are relative to these bounds; no claim is made beyond them",
        ]
        if self.below_floor:
            lines.append(
                "attained values below the floor "
                f"{GAP_FLOOR} (flagged, not counted as gaps): "
                + ", ".join(str(v) for v in self.below_floor)
            )
        return "\n".join(lines)


def gap_report(atlas: list[AtlasEntry], up_to: int, bounds: SearchBounds) -> GapReport:
    """Admissible discriminants up to ``up_to`` with no entry in the atlas
    that ``bounds`` built; attained values are listed up to ``up_to`` too."""
    hit = {e.discriminant for e in atlas}
    attained = sorted(hit)
    gaps = [v for v in range(GAP_FLOOR, up_to + 1)
            if mod16_class(v).admissible and v not in hit]
    return GapReport(
        bounds=bounds,
        up_to=up_to,
        gaps=tuple(gaps),
        attained=tuple(v for v in attained if GAP_FLOOR <= v <= up_to),
        below_floor=tuple(v for v in attained if v < GAP_FLOOR and v <= up_to),
    )
