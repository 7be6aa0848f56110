"""Reference computations: the numbers of a plane model taken straight from
its point counts, against which the atlas grid's running sums and the
records are checked; the per-candidate path through ``invariants`` against
which the atlas is checked; the parameter counts read from a record's
stored chi_top, against which the counts of its numerical type are checked;
and Cremona reduction on one multiplicity per point, against which
``normalize_contractions`` is checked."""

from nlatlas.atlas import AtlasEntry
from nlatlas.chow import CI222
from nlatlas.counts import chi_NSX_lower, codimension_bound
from nlatlas.errors import NotNef
from nlatlas.lattice import discriminant, fourfold_lattice
from nlatlas.surfaces import H0_QUADRICS_P7, PlaneModel, SurfaceInvariants, invariants


def count_numbers(a: int, counts: tuple[int, ...]) -> tuple[int, int, int, int]:
    """(degree, sectional genus, h0(H), h0(I_S(2))) of S(a; counts) from the
    counts alone; contractions leave every H-derived number unchanged, so
    they hold for the normalized surface too.  H^2 + H.K = a^2 - 3a -
    sum (i^2 - i) n_i is even, so the halves are exact."""
    deg = a * a
    hk = -3 * a
    for i, n in enumerate(counts, start=1):
        deg -= i * i * n
        hk += i * n
    # h0(I(2)) = 36 - chi(O_S(2H)) with chi(O_S) = 1
    return deg, 1 + (deg + hk) // 2, 1 + (deg - hk) // 2, H0_QUADRICS_P7 - 1 - 2 * deg + hk


def evaluate(bounds, a: int, counts: tuple[int, ...], shared: dict) -> AtlasEntry | None:
    """The atlas entry of S(a; counts), or None, with the surface record
    taken from ``invariants``, so for any model, standard or not: a model
    that is not nef raises ``NotNef``, and one that spans less than P^3
    ``SpanTooSmall``.  ``shared`` maps the numbers that the lattice and the
    window read to them.  The window comes from the record's
    ``ParameterCount`` at h0(N_{S/X}) = 0 and the clamped Euler estimate,
    not from the atlas's ``codimension_window_of``."""
    model = PlaneModel(a, counts)
    s = invariants(model)
    key = (s.degree, s.sect_genus, s.K2, s.chi_O, s.nodes)
    found = shared.get(key)
    if found is None:
        lat = fourfold_lattice(CI222, s)
        disc = discriminant(lat)
        window = (codimension_bound(s, 0), max(chi_NSX_lower(s), 0)) if disc >= 0 else None
        found = shared[key] = (lat, disc, window)
    lat, disc, window = found
    if window is None:
        return None
    count, nsx = window
    if count.codim_bound > bounds.max_codim:
        return None
    return AtlasEntry(model, s, lat, disc, (count.codim_bound, count.codim_bound + nsx),
                      count.h0_IS2, count.h0_N)


def counts_by_chi_top(s: SurfaceInvariants) -> tuple[int, int, int]:
    """(h0(I_S(2)), h0(N_{S/P7}), chi(N_{S/X})) of the record s from its
    twists and its stored chi_top: chi(O_S(H)) and chi(O_S(2H)) from
    ``chi_twist``, and chi(T_S) = (7K^2 - 5 chi_top)/6, which Noether makes
    exact; ``counts._numbers`` reads the numerical type instead."""
    chi_h, chi_2h = s.chi_twist(1), s.chi_twist(2)
    t = 7 * s.K2 - 5 * s.chi_top
    assert t % 6 == 0, s
    h0_n = 8 * chi_h - s.chi_O - t // 6 - 3 * s.nodes
    return H0_QUADRICS_P7 - chi_2h + s.nodes, h0_n, h0_n - 3 * chi_2h


def cremona_by_points(a: int, counts: tuple[int, ...]) -> tuple[int, int, int, tuple[int, ...], int]:
    """``normalize_contractions`` of S(a; counts) on the list of descending
    multiplicities, one entry per point, padded to three with zeros and
    sorted again after each quadratic transformation; the same tuple, or the
    same exception type and message.  Its memory grows with the number of
    points, so keep that small."""
    m: list[int] = []
    h2 = a * a
    hk = -3 * a
    for i in range(len(counts), 0, -1):
        n = counts[i - 1]
        m += [i] * n
        h2 -= i * i * n
        hk += i * n
    if h2 < 1:
        raise ValueError(f"H^2 = {h2} < 1: not an embedding class")
    k = len(m)
    m += [0] * (3 - k)
    a0 = a
    while True:
        if m[-1] < 0:
            label = f"S({a0};{','.join(map(str, counts))})"
            raise NotNef(f"H.C = {m[-1]} < 0 for a (-1)-class C and H of {label}")
        e = m[0] + m[1] + m[2] - a
        if e <= 0:
            break
        a -= e
        m[:3] = m[0] - e, m[1] - e, m[2] - e
        m.sort(reverse=True)
    std = [0] * m[0]
    for i in m:
        if i:
            std[i - 1] += 1
    return h2, hk, a, tuple(std), k - sum(std) + (a == m[0] + m[1])
