"""Exact bilinear algebra on the Picard lattice of the plane blown up at k
general points.

A divisor class is written D = d*L - sum_i m_i * E_i over the standard basis
(L; E_1, ..., E_k), so the intersection form is diag(+1, -1, ..., -1):

    D . D' = d*d' - sum_i m_i * m'_i

All arithmetic is over Python integers, hence exact at any size.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

from .errors import MismatchedLattice


class _DivisorClassFields(NamedTuple):
    plane_degree: int
    mults: tuple[int, ...]


class DivisorClass(_DivisorClassFields):
    """A class d*L - sum m_i E_i on Bl_k P^2; ``mults`` stores the m_i."""

    __slots__ = ()

    def __new__(cls, plane_degree: int, mults=()):
        # operator.index rejects floats and strings, which int() would truncate
        # or parse; on integers D^2 +- D.K is even, so the halvings below are exact
        return tuple.__new__(cls, (operator.index(plane_degree),
                                   tuple(map(operator.index, mults))))

    @property
    def k(self) -> int:
        return len(self.mults)


def pair(d1: DivisorClass, d2: DivisorClass) -> int:
    """Intersection number of two classes on the same lattice."""
    if d1.k != d2.k:
        raise MismatchedLattice(f"cannot pair classes with k={d1.k} and k={d2.k}")
    return d1.plane_degree * d2.plane_degree - sum(a * b for a, b in zip(d1.mults, d2.mults))


def canonical(k: int) -> DivisorClass:
    """The canonical class K = -3L + sum E_i, in the stored sign convention."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return DivisorClass(-3, (-1,) * k)


def _dot_canonical(d: DivisorClass) -> int:
    """D.K = sum m_i - 3d, without building K = -3L + sum E_i."""
    return sum(d.mults) - 3 * d.plane_degree


def riemann_roch_chi(d: DivisorClass) -> int:
    """chi(O(D)) = 1 + D.(D - K)/2 on a rational surface."""
    return 1 + (pair(d, d) - _dot_canonical(d)) // 2


def adjunction_genus(d: DivisorClass) -> int:
    """Arithmetic genus 1 + (D^2 + D.K)/2 of a curve in class D."""
    return 1 + (pair(d, d) + _dot_canonical(d)) // 2
