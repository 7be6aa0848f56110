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

import operator
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
        raise _negative_quadrics(n, s.provenance_label or s)
    return n


def _negative_quadrics(n: int, who) -> NegativeCount:
    # ``who`` is a record's label, the record itself when it has none, or the
    # numbers of a window
    return NegativeCount(f"h0(I_S(2)) = {n} < 0 for {who}")


def _numbers(degree: int, chi_O: int, chi_h: int, K2: int, chi_top: int,
             nodes: int) -> tuple[int, int, int]:
    """(h0(I_S(2)), h0(N_{S/P7}), chi(N_{S/X})) of the surface with H^2 =
    ``degree``, chi(O_S), chi(O_S(H)) = ``chi_h``, K^2, chi_top and nodes,
    h0(I_S(2)) not yet checked; chi(N_{S/X}) is the Euler estimate
    h0(N_{S/P7}) - 3 chi(O_S(2H)).  Riemann-Roch gives chi(O_S(2H)) =
    2 chi(O_S(H)) - chi(O_S) + H^2, so each is computed once."""
    chi_2h = 2 * chi_h - chi_O + degree
    t = 7 * K2 - 5 * chi_top
    if t % 6 != 0:
        raise DivisibilityViolation(
            f"7K^2 - 5chi_top = {t} not divisible by 6: corrupted surface record"
        )
    h0_n = 8 * chi_h - chi_O - t // 6 - 3 * nodes
    return H0_QUADRICS_P7 - chi_2h + nodes, h0_n, h0_n - 3 * chi_2h


def _record(s: SurfaceInvariants) -> tuple[int, int, int, int, int, int]:
    """The integers ``_numbers`` reads from s, with one ``chi_twist`` call."""
    return s.degree, s.chi_O, s.chi_twist(1), s.K2, s.chi_top, s.nodes


def h0_normal_bundle(s: SurfaceInvariants) -> int:
    """chi(N_{S/P7}) from the Euler and normal-bundle sequences:
    8*chi(O_S(H)) - chi(O_S) - chi(T_S), with chi(T_S) = (7K^2 - 5chi_top)/6.
    Nodal images lose 3 per node (fitted rule)."""
    return _numbers(*_record(s))[1]


def chi_NSX_lower(s: SurfaceInvariants) -> int:
    """Euler-characteristic estimate chi(N_{S/X}) = h0(N_{S/P7}) - 3*chi(O_S(2))
    from 0 -> N_{S/X} -> N_{S/P7} -> O_S(2)^3 -> 0.  Explicitly NOT an h^0:
    it may undershoot (h^1 terms) and is only a semicontinuity sanity bound."""
    return _numbers(*_record(s))[2]


def _net_of_quadrics(h0_is2: int, who) -> None:
    """h0(I_S(2)) must leave room for a net of quadrics."""
    if h0_is2 < 0:
        raise _negative_quadrics(h0_is2, who)
    if h0_is2 < 3:
        raise NegativeCount(
            f"h0(I_S(2)) = {h0_is2} < 3 for {who}: no net of quadrics through the surface"
        )


def grassmannian_dim(h0_is2: int) -> int:
    """dim G(3, h0(I_S(2))): the nets of quadrics through the surface."""
    return 3 * (h0_is2 - 3)


def _codim(h0_n: int, grass_dim: int, h0_NSX: int) -> int:
    return HILBERT_DIM - (h0_n + grass_dim - h0_NSX)


def codimension_bound(s: SurfaceInvariants, h0_NSX: int) -> ParameterCount:
    """Assemble the codimension bound; h0(N_{S/X}) is caller-supplied data."""
    # operator.index refuses a float, which would make every field inexact
    h0_NSX = operator.index(h0_NSX)
    if h0_NSX < 0:
        raise NegativeCount(f"h0(N_S/X) must be >= 0, got {h0_NSX}")
    h0_is2, h0_n, _ = _numbers(*_record(s))
    _net_of_quadrics(h0_is2, s.provenance_label or s)
    grass = grassmannian_dim(h0_is2)
    # the assumptions every parameter count of s rests on
    flags = (FLAG_VANISHING, FLAG_NODAL_FIT) if s.nodes else (FLAG_VANISHING,)
    return ParameterCount(h0_is2, h0_n, h0_NSX, grass, _codim(h0_n, grass, h0_NSX), flags)


def codimension_window_of(degree: int, chi_O: int, chi_h: int, K2: int, chi_top: int,
                          nodes: int) -> tuple[int, int, int, int, int]:
    """For a surface with no known h0(N_{S/X}), given by the integers of
    ``_numbers``: (h0(I_S(2)), h0(N_{S/P7}), the clamped Euler estimate of
    h0(N_{S/X}), and the codimension bounds at h0(N_{S/X}) = 0 and at that
    estimate), each number computed once.  A refusal names the numbers.  A
    surface record takes the same window from ``codimension_bound`` and
    ``chi_NSX_lower``."""
    h0_is2, h0_n, chi_nsx = _numbers(degree, chi_O, chi_h, K2, chi_top, nodes)
    if h0_is2 < 3:
        _net_of_quadrics(h0_is2, f"H^2 = {degree}, chi(O_S(H)) = {chi_h}, K^2 = {K2}")
    nsx = max(chi_nsx, 0)
    lo = _codim(h0_n, grassmannian_dim(h0_is2), 0)
    # each dimension of h0(N_S/X) adds one to the bound
    return h0_is2, h0_n, nsx, lo, lo + nsx
