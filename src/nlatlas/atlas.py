"""Deterministic enumeration of plane models and the discriminant atlas.

The search box is every S(a; n1, ..., n_maxmult) with a <= max_a, at most
max_points base points in total and multiplicities up to max_mult.  The
numbers carried by H alone are linear in the point counts, so these
conditions are decided on (a, counts), while the grid is generated:

  * the image has degree H^2 >= 1 and, when the bounds ask for it,
    non-negative sectional genus 1 + (H^2 + H.K)/2,
  * the system embeds: h0(H) = 1 + (H^2 - H.K)/2 between 4 and 8; models
    of degree 1, the plane among them (h0 = 3), pass at any h0(H) <= 8,
  * at least min_h0_IS2 (and at least 3) quadrics pass through it,
    h0(I(2)) = 35 - 2 H^2 + H.K,

where H.K = sum i n_i - 3a.  ``_candidate_grid`` fixes the multiplicities
above one and solves these conditions for n_1, which they bound to an
interval (plus the degree-1 model), so no candidate outside them is built:
on the default bounds 304 of the 1,155 models with H^2 >= 1.  The
candidates go through ``invariants``, which Cremona-reduces (a, counts),
and must then pass the conditions that need the record:

  * H pairs non-negatively with every (-1)-class (``normalize_contractions``
    Cremona-reduces H; the classes orthogonal to H are blown down and raise
    K^2),
  * the resulting discriminant is non-negative,
  * the codimension-bound window, taken over h0(N_S/X) between 0 and the
    clamped Euler estimate, meets [0, max_codim].

The lattice, its discriminant and the window read only the degree, sectional
genus, K^2, chi(O) and nodes of the surface, and Cremona-equivalent or
numerically equal models repeat those numbers.  ``_evaluate_chunk`` keeps,
for the length of its call, a dict from them to what it computed, so
entries of one surface share one ``RankTwoLattice``.  On the three bench
grids 493 lattices and windows serve 2,222 nef candidates, and a serial
pass over them went from 1.22M to 1.45M candidates/s (medians of 10
alternating pairs of 20-second benchmark runs, Python 3.11, 2 shared
cores).  Nothing is kept between calls, and each worker keeps its own dict.

The output is a pure function of the bounds: entries are sorted by
(discriminant, a, point counts), so runs with any worker count agree byte
for byte.  Gap claims are always reported together with the bounds that
produced them; nothing is asserted beyond the enumeration window.
"""

from __future__ import annotations

import operator
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
            # operator.index rejects floats and strings, which range() would
            # only refuse deep inside the grid
            value = operator.index(getattr(self, name))
            object.__setattr__(self, name, value)
            if value < 1:
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


def _evaluate(bounds: SearchBounds, a: int, counts: tuple[int, ...],
              shared: dict) -> AtlasEntry | None:
    """The entry of a candidate of ``_candidate_grid``, or None.  ``shared``
    holds the lattice, discriminant and window of each surface seen so far
    in this call (None for the window of a negative discriminant)."""
    model = PlaneModel(a, counts)
    # the grid holds only models with H^2 >= 1 and h0(H) >= 4 or degree 1, so
    # a SpanTooSmall or H^2 ValueError here would be a fault; NotNef rejects
    try:
        s = invariants(model)
    except NotNef:
        return None
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
    if hi < 0 or lo > bounds.max_codim:
        return None
    return AtlasEntry(model, s, lat, disc, (lo, hi), h0_is2, h0_n)


def _candidate_grid(bounds: SearchBounds) -> list[tuple[int, tuple[int, ...]]]:
    """Every (a, counts) in the bounds that passes the count conditions.

    n_maxmult, ..., n_2 are chosen first, within the H^2 >= 1 budget.  With
    them fixed, each simple point lowers the degree and h0(H) by one, raises
    h0(I(2)) by three and leaves the genus alone, so the n_1 that pass form
    one interval, plus the degree-1 model, whose h0(H) may lie below 4.
    """
    need = max(bounds.min_h0_IS2, 3)
    grid = []

    def fill(a: int, high: tuple[int, ...], points: int, budget: int):
        i = bounds.max_mult - len(high)
        if i > 1:
            for n in range(min(points, budget // (i * i)) + 1):
                fill(a, (n,) + high, points - n, budget - n * i * i)
            return
        deg, genus, h0, h0_is2 = _count_numbers(a, (0,) + high)
        if genus < 0 and bounds.require_positive_genus_bound:
            return
        # n_1 >= 0, h0(H) - n_1 <= 8 and h0(I(2)) + 3 n_1 >= need (rounded up)
        lo = max(0, h0 - 8, -((h0_is2 - need) // 3))
        # n_1 <= points, degree - n_1 >= 1 and h0(H) - n_1 >= 4
        hi = min(points, deg - 1, h0 - 4)
        grid.extend([(a, (n,) + high) for n in range(lo, hi + 1)])
        # n_1 = deg - 1 gives degree 1, which needs no h0(H) >= 4
        if hi < deg - 1 <= points and lo <= deg - 1:
            grid.append((a, (deg - 1,) + high))

    for a in range(1, bounds.max_a + 1):
        fill(a, (), bounds.max_points, a * a - 1)
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


def _send_share(conn, bounds: SearchBounds,
                share: list[tuple[int, tuple[int, ...]]]) -> None:
    """Body of a forked worker: evaluate ``share`` and send back the entries,
    or the exception it raised with its traceback text, as ``(ok, value)``."""
    try:
        result = (True, _evaluate_chunk(bounds, share))
    except Exception as exc:
        import traceback
        result = (False, (exc, traceback.format_exc()))
    conn.send(result)


def _evaluate_strided(bounds: SearchBounds, grid: list[tuple[int, tuple[int, ...]]],
                      n: int) -> list[AtlasEntry]:
    """Evaluate ``grid[0::n]`` here and each ``grid[j::n]``, 0 < j < n, in a
    forked process.  A candidate's cost grows with a, and strides spread the
    costly ones evenly.  No worker outlives the call."""
    # imported here so that serial runs and the CLI do not pay for it;
    # fork, because workers inherit the grid and any wrappers of this module
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    procs, pipes = [], []
    try:
        for j in range(1, n):
            recv, send = ctx.Pipe(duplex=False)
            pipes.append(recv)
            p = ctx.Process(target=_send_share, args=(send, bounds, grid[j::n]))
            p.start()
            procs.append(p)
            send.close()
        entries = _evaluate_chunk(bounds, grid[0::n])
        # read every pipe before joining: a worker blocks until its result is read
        for recv in pipes:
            try:
                ok, part = recv.recv()
            except EOFError:
                raise ChildProcessError("an atlas worker exited before sending its share") from None
            if not ok:
                exc, text = part
                raise exc from ChildProcessError(f"in an atlas worker:\n{text}")
            entries.extend(part)
    except BaseException:
        for p in procs:
            p.terminate()
        raise
    finally:
        for p in procs:
            p.join()
        for recv in pipes:
            recv.close()
    return entries


def enumerate_atlas(bounds: SearchBounds | None = None, workers: int = 1) -> list[AtlasEntry]:
    """Build the atlas; identical output for every worker count, which is
    capped at the number of candidates (see ``_evaluate_strided``)."""
    bounds = bounds or SearchBounds()
    grid = _candidate_grid(bounds)
    workers = min(workers, len(grid))
    if workers <= 1:
        entries = _evaluate_chunk(bounds, grid)
    else:
        entries = _evaluate_strided(bounds, grid, workers)
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
