"""Deterministic enumeration of plane models and the discriminant atlas.

The search box is every S(a; n1, ..., n_maxmult) with a <= max_a, at most
max_points base points in total and multiplicities up to max_mult.  The
numbers carried by H alone are linear in the point counts, so these
conditions are decided on (a, counts), while the grid is generated:

  * the image has degree H^2 >= 1 and non-negative sectional genus
    1 + (H^2 + H.K)/2,
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
max_mult=6).  Each candidate comes with its degree, genus, K^2 and h0(H):
a standard H pairs non-negatively with every (-1)-class, and only the line
through the two largest points, when a = m1 + m2, pairs to zero; its
blow-down raises K^2 = 9 - (number of points) by one.  Left to check:

  * the resulting discriminant is non-negative,
  * the codimension-bound window, taken over h0(N_S/X) between 0 and the
    clamped Euler estimate, meets [0, max_codim].

They read only the type (degree, genus, K^2), with chi(O) = 1 and no nodes,
so ``_evaluate_chunk`` decides each new type from these integers, with no
surface record: m22 from ``chow.formula_222``, the lattice and its
discriminant, and the window from ``counts.codimension_window_of``.  A dict,
kept for the length of the call, maps each type to them or to a rejection:
the 683 candidates of the three bench grids have 453 types, which build 453
lattices and 431 windows (a negative discriminant needs none), a rejected
type costs one lookup, and only the 608 kept entries build a plane model, a
labelled record and an entry.  The kept candidates are plain tuples led by
(discriminant, a, counts), sorted once, and each entry's plane model and
record are built with ``_make`` from the grid's integers, which already
pass the checks the constructors make on outside input.  The label comes
from the grid leaf: ``_leaf`` joins each candidate's S(a;n,...) from a head
and a tail made once per leaf, so no plane model is printed.  Nothing is
kept between calls.

The output is a pure function of the bounds: ``enumerate_atlas`` evaluates
the grid in one serial pass, whose entries come sorted by (discriminant, a,
point counts), so every run agrees byte for byte.  Gap claims are always
reported together with the bounds that produced them; nothing is asserted
beyond the enumeration window.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import NamedTuple

from .chow import CI222, formula_222
from .counts import codimension_window_of
from .lattice import RankTwoLattice, Side, discriminant, mod16_class
from .surfaces import PlaneModel, SurfaceInvariants

GAP_FLOOR = 16  # smallest discriminant considered attainable on a (2,2,2)


class _SearchBoundsFields(NamedTuple):
    max_a: int
    max_points: int
    max_mult: int
    min_h0_IS2: int
    max_codim: int


class SearchBounds(_SearchBoundsFields):
    __slots__ = ()

    def __new__(cls, max_a: int = 8, max_points: int = 13, max_mult: int = 3,
                min_h0_IS2: int = 7, max_codim: int = 7):
        limits = []
        for name, value in zip(cls._fields, (max_a, max_points, max_mult, min_h0_IS2,
                                             max_codim)):
            # operator.index rejects floats and strings, which range() would
            # only refuse deep inside the grid
            value = operator.index(value)
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
            limits.append(value)
        return tuple.__new__(cls, limits)

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


def _leaf(a: int, high: tuple, placed: int, deg: int, h0: int, ns) -> list[tuple]:
    """The candidates S(a; n, *high), n in ``ns``, where S(a; 0, *high) has
    H^2 = ``deg``, h0(H) = ``h0`` and ``placed`` points.  A standard model
    with a = m1 + m2 has m3 = 0: at most two points, summing to H.K + 3a.
    The last field is ``str(PlaneModel(a, (n,) + high))``, joined from a head
    and a tail made once per leaf."""
    genus = deg + 2 - h0
    mults = 3 * a + 2 + deg - 2 * h0     # H.K + 3a of S(a; 0, *high)
    head = f"S({a};"
    tail = "".join(f",{x}" for x in high) + ")"
    return [(a, (n,) + high, deg - n, genus,
             9 - placed - n + (placed + n <= 2 and a == mults + n), h0 - n,
             f"{head}{n}{tail}") for n in ns]


def _candidate_grid(bounds: SearchBounds) -> list[tuple]:
    """Every Cremona-standard (a, counts) in the bounds that passes the
    count conditions, as (a, counts, degree, genus, K^2, h0(H), label).

    n_maxmult, ..., n_2 are chosen first, with m1 + m2 + m3 <= a for the
    largest three multiplicities (standard), carrying down H^2 - 1 and h0(H)
    of S(a; 0, n_2, ...); its genus is H^2 + 2 - h0(H).  A point of
    multiplicity i lowers H^2, h0(H) and the genus by i^2, i(i+1)/2 and
    i(i-1)/2, so each n_i is cut to a window outside which no candidate
    lies.  Below it, h0(H) stays above 8 even if each of the P points left
    has multiplicity i - 1 and lowers h0(H) by i(i-1)/2: a candidate needs
    n_i >= (h0(H) - 8 - P i(i-1)/2) / i.  Above it, H^2 - 1, h0(H) - 3 (the
    plane's h0(H) is the least) or the genus is negative, or the top three
    sum past a, and the points still to come only make each worse.  With
    them fixed, each simple point lowers the degree and h0(H) by one, raises
    h0(I(2)) = 37 - H^2 - 2 h0(H) by three and leaves the genus alone, so
    the n_1 that pass form one interval, plus the plane's degree-1 model,
    which ``_leaf`` lists with their numbers.  The module docstring says why
    listing only standard models loses no surface.
    """
    need = max(bounds.min_h0_IS2, 3)
    grid: list[tuple] = []

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
                if top + t * i > a or h < 3 or left + 3 < h:
                    break
                fill(a, (n,) + high, points - n, left, h, top + t * i, k + t)
            return
        # simple points fill the free places of the top three
        room = min(points, a - top) if a - top < 3 - k else points
        deg = budget + 1
        h0_is2 = 37 - deg - 2 * h0
        # n_1 >= 0, h0(H) - n_1 <= 8 and h0(I(2)) + 3 n_1 >= need (rounded up)
        lo = max(0, h0 - 8, -((h0_is2 - need) // 3))
        # n_1 <= points, degree - n_1 >= 1 and h0(H) - n_1 >= 4
        ns = range(lo, min(room, deg - 1, h0 - 4) + 1)
        # n_1 = deg - 1 gives degree 1, which embeds only as the plane,
        # h0(H) = 3, below the interval; the pencils (h0(H) <= 2) do not
        if h0 - (deg - 1) == 3 and lo <= deg - 1 <= room:
            ns = [*ns, deg - 1]
        if ns:
            grid.extend(_leaf(a, high, bounds.max_points - points, deg, h0, ns))

    for a in range(1, bounds.max_a + 1):
        fill(a, (), bounds.max_points, a * a - 1, (a + 1) * (a + 2) // 2, 0, 0)
    return grid


def _evaluate_chunk(bounds: SearchBounds, chunk: list[tuple]) -> list[AtlasEntry]:
    """The entries of the candidates of ``_candidate_grid`` in ``chunk``,
    sorted by (discriminant, a, point counts).  ``types`` maps each (degree,
    genus, K^2) seen in this call to its lattice, discriminant and window, or
    to False when it is rejected; nothing is kept between calls.

    Each kept candidate is collected as a plain tuple led by (discriminant,
    a, counts), and the list is sorted once: the grid lists each (a, counts)
    once, so no comparison reaches a later field.  The records are then built
    in that order with ``_make``, which skips the constructors' checks of
    outside input: the grid's own integers pass them, with a >= 1, the counts
    a tuple of ints >= 0, the degree >= 1 and chi_top = 12 - K^2 for
    chi(O) = 1.  The tests compare every entry with one built through the
    constructors."""
    m11 = CI222.fourfold_degree
    types: dict = {}
    kept = []
    for a, counts, degree, genus, K2, h0, label in chunk:
        found = types.get((degree, genus, K2))
        if found is None:
            # chi(O_S) = 1 and no nodes: the type's integers are all the
            # lattice and the window read
            lat = RankTwoLattice(m11, degree, formula_222(degree, genus, K2, 1),
                                 Side.FOURFOLD_MIDDLE)
            disc = discriminant(lat)
            window = codimension_window_of(degree, genus, K2, 1, 0) if disc >= 0 else None
            # no test of hi < 0: a surface of the grid has no nodes, so the
            # clamped estimate of h0(N_S/X) is max(-lo, 0) and hi = max(lo, 0)
            found = types[degree, genus, K2] = (
                window is not None and window[3] <= bounds.max_codim and (lat, disc, window))
        if found:
            lat, disc, window = found
            kept.append((disc, a, counts, degree, genus, K2, h0, label, lat, window))
    kept.sort()
    return [AtlasEntry(PlaneModel._make((a, counts)),
                       SurfaceInvariants._make((degree, genus, K2, 1, 12 - K2, h0, 0, True,
                                                label)),
                       lat, disc, (lo, hi), h0_is2, h0_n)
            for disc, a, counts, degree, genus, K2, h0, label, lat,
            (h0_is2, h0_n, _, lo, hi) in kept]


def enumerate_atlas(bounds: SearchBounds | None = None, workers: int = 1) -> list[AtlasEntry]:
    """Build the atlas, sorted by (discriminant, a, point counts).
    ``workers`` is accepted and does not change how the grid is evaluated:
    every call is one serial pass.  ROADMAP item 5 removes it together with
    the benchmark's ``atlas-pool`` workload, which passes ``workers=2``."""
    bounds = bounds or SearchBounds()
    return _evaluate_chunk(bounds, _candidate_grid(bounds))


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
