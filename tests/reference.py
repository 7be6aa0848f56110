"""Reference computations for the atlas: the numbers of a plane model taken
straight from its point counts, against which the grid's running sums and
the records are checked, and the per-candidate path through ``invariants``
against which the atlas is checked."""

from nlatlas.atlas import AtlasEntry
from nlatlas.chow import CI222
from nlatlas.counts import chi_NSX_lower, codimension_bound
from nlatlas.lattice import discriminant, fourfold_lattice
from nlatlas.surfaces import H0_QUADRICS_P7, PlaneModel, invariants


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
