"""Deterministic enumeration of plane models and the discriminant atlas.

The candidate grid runs over all S(a; n1, ..., n_maxmult) with a <= max_a, at
most max_points base points in total and multiplicities up to max_mult.  Only
the models with H^2 = a^2 - sum i^2 n_i >= 1 are generated: the others are
not embedding classes and would be rejected by ``invariants`` anyway.

The numbers carried by H alone are linear in the point counts, so these
conditions are decided on (a, counts), before any class or record is built:

  * the image has degree H^2 >= 1 and, when the bounds ask for it,
    non-negative sectional genus 1 + (H^2 + H.K)/2,
  * the system embeds: h0(H) = 1 + (H^2 - H.K)/2 between 4 and 8, with the
    plane (degree 1, h0 = 3) as the one legitimate small case,
  * at least min_h0_IS2 (and at least 3) quadrics pass through it,
    h0(I(2)) = 35 - 2 H^2 + H.K,

where H.K = sum i n_i - 3a.  The survivors go through ``invariants``, which
alone needs the classes, and must then pass the conditions that need the
record:

  * H pairs non-negatively with every (-1)-class (``normalize_contractions``
    Cremona-reduces H; the classes orthogonal to H are blown down and raise
    K^2),
  * the resulting discriminant is non-negative,
  * the codimension-bound window, taken over h0(N_S/X) between 0 and the
    clamped Euler estimate, meets [0, max_codim].

The output is a pure function of the bounds: entries are sorted by
(discriminant, a, point counts), so runs with any worker count agree byte
for byte.  Gap claims are always reported together with the bounds that
produced them; nothing is asserted beyond the enumeration window.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .chow import CI222
from .counts import codimension_window
from .errors import NotNef
from .lattice import RankTwoLattice, discriminant, fourfold_lattice, mod16_class
from .surfaces import PlaneModel, SurfaceInvariants, _count_numbers, invariants

GAP_FLOOR = 16  # smallest discriminant considered attainable on a (2,2,2)


@dataclass(frozen=True)
class SearchBounds:
    max_a: int = 8
    max_points: int = 13
    max_mult: int = 3
    min_h0_IS2: int = 7
    max_codim: int = 7
    require_positive_genus_bound: bool = True

    def __post_init__(self):
        for name in ("max_a", "max_points", "max_mult", "min_h0_IS2", "max_codim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    def describe(self) -> str:
        return (f"a <= {self.max_a}, <= {self.max_points} points, "
                f"multiplicity <= {self.max_mult}, h0(I(2)) >= {self.min_h0_IS2}, "
                f"codim <= {self.max_codim}")


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


def _evaluate(bounds: SearchBounds, a: int, counts: tuple[int, ...]) -> AtlasEntry | None:
    deg, genus, h0, h0_is2 = _count_numbers(a, counts)
    if deg < 1 or h0 > 8 or (h0 < 4 and deg != 1):
        return None
    if bounds.require_positive_genus_bound and genus < 0:
        return None
    if h0_is2 < bounds.min_h0_IS2 or h0_is2 < 3:
        return None
    model = PlaneModel(a, counts)
    # a SpanTooSmall or H^2 ValueError here would mean the count formulas
    # disagree with the record, so only NotNef is a rejection
    try:
        s = invariants(model)
    except NotNef:
        return None
    lat = fourfold_lattice(CI222, s)
    disc = discriminant(lat)
    if disc < 0:
        return None
    lo, hi = codimension_window(s)
    window = (lo.codim_bound, hi.codim_bound)
    if window[1] < 0 or window[0] > bounds.max_codim:
        return None
    return AtlasEntry(
        model=model,
        surface=s,
        lattice=lat,
        discriminant=disc,
        codim_bound_range=window,
        h0_IS2=h0_is2,
        h0_N=lo.h0_N,
    )


def _candidate_grid(bounds: SearchBounds) -> list[tuple[int, tuple[int, ...]]]:
    """Every (a, counts) in the bounds with H^2 = a^2 - sum i^2 n_i >= 1, in
    lexicographic order; the rest could only fail the H^2 check of
    ``invariants``, so they are never built."""
    grid = []

    def fill(a: int, counts: tuple[int, ...], points: int, budget: int):
        i = len(counts) + 1
        if i > bounds.max_mult:
            grid.append((a, counts))
            return
        for n in range(min(points, budget // (i * i)) + 1):
            fill(a, counts + (n,), points - n, budget - n * i * i)

    for a in range(1, bounds.max_a + 1):
        fill(a, (), bounds.max_points, a * a - 1)
    return grid


def _evaluate_chunk(bounds: SearchBounds,
                    chunk: list[tuple[int, tuple[int, ...]]]) -> list[AtlasEntry]:
    out = []
    for a, counts in chunk:
        entry = _evaluate(bounds, a, counts)
        if entry is not None:
            out.append(entry)
    return out


def enumerate_atlas(bounds: SearchBounds | None = None, workers: int = 1) -> list[AtlasEntry]:
    """Build the atlas; identical output for every worker count."""
    bounds = bounds or SearchBounds()
    grid = _candidate_grid(bounds)
    if workers <= 1:
        entries = _evaluate_chunk(bounds, grid)
    else:
        step = max(1, len(grid) // (workers * 4))
        chunks = [grid[i:i + step] for i in range(0, len(grid), step)]
        # imported here so that serial runs and the CLI do not pay for it
        from concurrent.futures import ProcessPoolExecutor

        entries = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_evaluate_chunk, itertools.repeat(bounds), chunks):
                entries.extend(part)
    entries.sort(key=lambda e: e.sort_key)
    return entries


@dataclass(frozen=True)
class GapReport:
    bounds: SearchBounds
    up_to: int
    gaps: tuple[int, ...]
    attained: tuple[int, ...]
    below_floor: tuple[int, ...] = field(default=())

    def describe(self) -> str:
        lines = [
            f"search bounds: {self.bounds.describe()}",
            f"admissible discriminants in [{GAP_FLOOR}, {self.up_to}] with empty buckets: "
            + (", ".join(str(v) for v in self.gaps) if self.gaps else "none"),
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
    that ``bounds`` built."""
    hit = {e.discriminant for e in atlas}
    attained = sorted(hit)
    gaps = [v for v in range(GAP_FLOOR, up_to + 1)
            if mod16_class(v).admissible and v not in hit]
    return GapReport(
        bounds=bounds,
        up_to=up_to,
        gaps=tuple(gaps),
        attained=tuple(v for v in attained if GAP_FLOOR <= v <= up_to),
        below_floor=tuple(v for v in attained if v < GAP_FLOOR),
    )
