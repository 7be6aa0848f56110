"""Rank-2 intersection lattices and their discriminants.

Two sign conventions coexist: on the middle cohomology of the fourfold the
discriminant is the determinant of the matrix of <h^2, S>; on the Picard
lattice of a surface it is the opposite of the determinant of <H, K>.  Both
are positive for genuine geometric inputs (Riemann bilinear relations on the
fourfold side, the Hodge index theorem on the surface side), so the side is
stored explicitly rather than inferred from a sign.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .chow import CI222, CompleteIntersectionType, self_intersection
from .surfaces import SurfaceInvariants


class Side(enum.Enum):
    FOURFOLD_MIDDLE = "fourfold-middle"
    SURFACE_PICARD = "surface-picard"


class RankTwoLattice(NamedTuple):
    m11: int
    m12: int
    m22: int
    side: Side

    @property
    def det(self) -> int:
        return self.m11 * self.m22 - self.m12 * self.m12

    def __str__(self) -> str:
        return f"[[{self.m11},{self.m12}],[{self.m12},{self.m22}]]"


def fourfold_lattice(ci: CompleteIntersectionType, s: SurfaceInvariants) -> RankTwoLattice:
    """The lattice <h^2, [S]> inside the middle cohomology of the fourfold."""
    return RankTwoLattice(ci.fourfold_degree, s.degree, self_intersection(ci, s),
                          Side.FOURFOLD_MIDDLE)


def surface_matrix(degree: int, sect_genus: int, K2: int) -> RankTwoLattice:
    """The lattice <H, K> on a surface with the given degree, sectional genus
    and K^2; H.K comes from adjunction."""
    hk = 2 * sect_genus - 2 - degree
    return RankTwoLattice(m11=degree, m12=hk, m22=K2, side=Side.SURFACE_PICARD)


def discriminant(lat: RankTwoLattice) -> int:
    """Signed by convention: det on the fourfold side, -det on the surface
    side.  Non-geometric inputs may come out non-positive; the raw value is
    returned either way."""
    if lat.side is Side.FOURFOLD_MIDDLE:
        return lat.det
    return -lat.det


ADMISSIBLE_RESIDUES = frozenset({0, 7, 12, 15})


class Mod16Class(NamedTuple):
    residue: int
    admissible: bool | None

    def __str__(self) -> str:
        if self.admissible is None:
            return f"residue {self.residue} mod 16"
        return (f"residue {self.residue} mod 16, "
                + ("admissible" if self.admissible else "inadmissible"))


def mod16_class(disc: int, ci: CompleteIntersectionType = CI222) -> Mod16Class:
    """Residue of a discriminant mod 16 and, on a (2,2,2), whether it lies in
    {0, 7, 12, 15}.  There the discriminant is 8*m22 - deg^2, and that set
    is its set of residues; on any other type ``admissible`` is None, a
    residue without a verdict."""
    return (_MOD16_222 if ci == CI222 else _MOD16_NO_VERDICT)[disc % 16]


# the 32 classes mod16_class returns: with the (2,2,2) verdict and without one
_MOD16_222 = tuple(Mod16Class(r, r in ADMISSIBLE_RESIDUES) for r in range(16))
_MOD16_NO_VERDICT = tuple(Mod16Class(r, None) for r in range(16))


def expected_residue(degree: int) -> int:
    """The forced residue (-deg^2) mod 16 of any (2,2,2) discriminant."""
    return (-degree * degree) % 16
