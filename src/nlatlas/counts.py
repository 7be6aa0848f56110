"""Dimension bookkeeping for the family of complete intersections of three
quadrics through a given surface.

The Hilbert scheme of smooth (2,2,2) fourfolds in P^7 is smooth of dimension
99; the locus of fourfolds containing a deformation of S has codimension at
most

    99 - (h0(N_{S/P7}) + 3*(h0(I_S(2)) - 3) - h0(N_{S/X})).

h0(I_S(2)) and h0(N_{S/P7}) are computed as Euler characteristics under an
explicit vanishing assumption (h^1 = h^2 = 0 for the bundles involved), which
holds on every bundled table row.  h0(N_{S/X}) cannot be computed here at
all: it is a per-example input.  Nodal images use two fitted corrections
(+delta to h0(I(2)), -3*delta to h0(N)), each anchored by a single printed
row and flagged as such in the output.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DivisibilityViolation, NegativeCount
from .surfaces import H0_QUADRICS_P7, SurfaceInvariants

HILBERT_DIM = 99          # h0(N_{X/P7}) for a smooth (2,2,2) fourfold

FLAG_VANISHING = "assumes-vanishing"
FLAG_NODAL_FIT = "fitted-nodal-rule"


class ParameterCount(NamedTuple):
    h0_IS2: int
    h0_N: int
    h0_NSX: int
    grass_dim: int
    codim_bound: int
    flags: tuple[str, ...] = ()


def h0_quadrics(s: SurfaceInvariants) -> int:
    """h0(I_{S/P7}(2)) = 36 - chi(O_S(2H)); each node relaxes one condition."""
    n = H0_QUADRICS_P7 - s.chi_twist(2) + s.nodes
    if n < 0:
        raise NegativeCount(f"h0(I_S(2)) = {n} < 0 for {s.provenance_label or s}")
    return n


def h0_normal_bundle(s: SurfaceInvariants) -> int:
    """chi(N_{S/P7}) from the Euler and normal-bundle sequences:
    8*chi(O_S(H)) - chi(O_S) - chi(T_S), with chi(T_S) = (7K^2 - 5chi_top)/6.
    Nodal images lose 3 per node (fitted rule)."""
    t = 7 * s.K2 - 5 * s.chi_top
    if t % 6 != 0:
        raise DivisibilityViolation(
            f"7K^2 - 5chi_top = {t} not divisible by 6: corrupted surface record"
        )
    return 8 * s.chi_twist(1) - s.chi_O - t // 6 - 3 * s.nodes


def chi_NSX_lower(s: SurfaceInvariants) -> int:
    """Euler-characteristic estimate chi(N_{S/X}) = h0(N_{S/P7}) - 3*chi(O_S(2))
    from 0 -> N_{S/X} -> N_{S/P7} -> O_S(2)^3 -> 0.  Explicitly NOT an h^0:
    it may undershoot (h^1 terms) and is only a semicontinuity sanity bound."""
    return _chi_NSX(h0_normal_bundle(s), s.chi_twist(2))


def _chi_NSX(h0_n: int, chi_2h: int) -> int:
    return h0_n - 3 * chi_2h


def _net_of_quadrics(s: SurfaceInvariants) -> int:
    """h0(I_S(2)), which must leave room for a net of quadrics."""
    h0_is2 = h0_quadrics(s)
    if h0_is2 < 3:
        raise NegativeCount(
            f"h0(I_S(2)) = {h0_is2} < 3: no net of quadrics through the surface"
        )
    return h0_is2


def grassmannian_dim(h0_is2: int) -> int:
    """dim G(3, h0(I_S(2))): the nets of quadrics through the surface."""
    return 3 * (h0_is2 - 3)


def _codim(h0_is2: int, h0_n: int, h0_NSX: int) -> int:
    return HILBERT_DIM - (h0_n + grassmannian_dim(h0_is2) - h0_NSX)


def count_flags(s: SurfaceInvariants) -> tuple[str, ...]:
    """The assumptions every parameter count of s rests on."""
    return (FLAG_VANISHING, FLAG_NODAL_FIT) if s.nodes else (FLAG_VANISHING,)


def codimension_bound(s: SurfaceInvariants, h0_NSX: int) -> ParameterCount:
    """Assemble the codimension bound; h0(N_{S/X}) is caller-supplied data."""
    if h0_NSX < 0:
        raise NegativeCount(f"h0(N_S/X) must be >= 0, got {h0_NSX}")
    h0_is2 = _net_of_quadrics(s)
    h0_n = h0_normal_bundle(s)
    return ParameterCount(
        h0_IS2=h0_is2,
        h0_N=h0_n,
        h0_NSX=h0_NSX,
        grass_dim=grassmannian_dim(h0_is2),
        codim_bound=_codim(h0_is2, h0_n, h0_NSX),
        flags=count_flags(s),
    )


def codimension_window(s: SurfaceInvariants) -> tuple[int, int, int, int, int]:
    """For a surface with no known h0(N_{S/X}): (h0(I_S(2)), h0(N_{S/P7}), the
    clamped Euler estimate of h0(N_{S/X}), and the codimension bounds at
    h0(N_{S/X}) = 0 and at that estimate), each number computed once."""
    h0_is2 = _net_of_quadrics(s)
    h0_n = h0_normal_bundle(s)
    # chi(O_S(2H)), read back from h0(I(2)) = 36 - chi(O_S(2H)) + nodes
    nsx = max(_chi_NSX(h0_n, H0_QUADRICS_P7 + s.nodes - h0_is2), 0)
    return h0_is2, h0_n, nsx, _codim(h0_is2, h0_n, 0), _codim(h0_is2, h0_n, nsx)
