"""Self-intersection of a surface class inside a smooth complete-intersection
fourfold.

Two independent routes compute the coefficient pair (cH2, cHK) with

    (S)^2_X = cH2 * H_S^2 + cHK * H_S.K_S + K_S^2 - c2(T_S):

a closed formula in the multidegree, and a step-by-step Chern-class engine
working in a formal ring truncated in degree 2 (Euler sequence for the
ambient tangent bundle, Whitney for the two normal-bundle sequences).  The
two must agree on every multidegree; tests enforce this exhaustively in the
range that matters.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import NamedTuple

from .errors import ParseError
from .surfaces import SurfaceInvariants, _parse_int_list


class _CompleteIntersectionTypeFields(NamedTuple):
    degrees: tuple[int, ...]


class CompleteIntersectionType(_CompleteIntersectionTypeFields):
    """Multidegree (a_1, ..., a_r) of a smooth fourfold in P^(r+4)."""

    __slots__ = ()

    def __new__(cls, degrees):
        degrees = tuple(map(operator.index, degrees))
        if len(degrees) < 1:
            raise ValueError("need at least one degree")
        if any(a < 2 for a in degrees):
            raise ValueError(f"all degrees must be >= 2, got {degrees}")
        return tuple.__new__(cls, (degrees,))

    @property
    def r(self) -> int:
        return len(self.degrees)

    @property
    def ambient_dim(self) -> int:
        return self.r + 4

    @property
    def fourfold_degree(self) -> int:
        return _constants(self.degrees)[0]

    def __str__(self) -> str:
        return _constants(self.degrees)[1]


@functools.cache
def _constants(degrees: tuple[int, ...]) -> tuple[int, str, tuple[int, int]]:
    """The numbers of a multidegree that every request reads, computed once
    per multidegree: the degree a_1 * ... * a_r of the fourfold, its text
    "(a_1,...,a_r)" and the closed-form (cH2, cHK) pair.  A plain tuple: a
    named-tuple class would cost each CLI start about 0.1 ms to build."""
    r = len(degrees)
    s = sum(degrees)
    s2 = sum(a * b for a, b in itertools.combinations(degrees, 2))
    ch2 = (r + 4) * (r + 5) // 2 - (r + 5) * s + s * s - s2
    return math.prod(degrees), "(" + ",".join(map(str, degrees)) + ")", (ch2, r + 5 - s)


CI222 = CompleteIntersectionType((2, 2, 2))


def parse_ci(text: str) -> CompleteIntersectionType:
    """A multidegree "a1,a2,...": integers >= 2 as in surface specs, with
    spaces allowed around each; a bad token is reported at its own position."""
    degrees = []
    for degree, at in _parse_int_list(text):
        if degree < 2:
            raise ParseError(f"degrees must be >= 2, got {degree}", text, at)
        degrees.append(degree)
    return CompleteIntersectionType(degrees)


class TruncatedClass(NamedTuple):
    """A class c0 + (h*H + k*K) + (h2*H^2 + hk*HK + k2*K^2 + e*c2) pulled
    back to a surface, truncated above degree 2."""

    c0: int = 0
    h: int = 0
    k: int = 0
    h2: int = 0
    hk: int = 0
    k2: int = 0
    e: int = 0

    def __add__(self, other: "TruncatedClass") -> "TruncatedClass":
        return TruncatedClass(*map(operator.add, self, other))

    def __sub__(self, other: "TruncatedClass") -> "TruncatedClass":
        return TruncatedClass(*map(operator.sub, self, other))

    def __mul__(self, other: "TruncatedClass") -> "TruncatedClass":
        return TruncatedClass(
            c0=self.c0 * other.c0,
            h=self.c0 * other.h + self.h * other.c0,
            k=self.c0 * other.k + self.k * other.c0,
            h2=self.c0 * other.h2 + self.h2 * other.c0 + self.h * other.h,
            hk=self.c0 * other.hk + self.hk * other.c0 + self.h * other.k + self.k * other.h,
            k2=self.c0 * other.k2 + self.k2 * other.c0 + self.k * other.k,
            e=self.c0 * other.e + self.e * other.c0,
        )

    # tuple would answer ``2 * x`` by repetition and ``x < y`` entrywise, and
    # neither is an operation of the ring
    def __rmul__(self, other):
        raise TypeError("unsupported operand type(s) for *: "
                        f"{type(other).__name__!r} and 'TruncatedClass'")

    def __lt__(self, other):
        return NotImplemented

    __le__ = __gt__ = __ge__ = __lt__


ONE = TruncatedClass(c0=1)
H = TruncatedClass(h=1)
C2_TS = TruncatedClass(e=1)


def _power(base: TruncatedClass, n: int) -> TruncatedClass:
    out = ONE
    for _ in range(n):
        out = out * base
    return out


def closed_form_coefficients(ci: CompleteIntersectionType) -> tuple[int, int]:
    """The (cH2, cHK) pair straight from the closed formula."""
    return _constants(ci.degrees)[2]


def chern_engine_coefficients(ci: CompleteIntersectionType) -> tuple[int, int]:
    """Recompute (cH2, cHK) step by step in the truncated ring.

    c(T_P) = (1 + H)^(r+5) by the Euler sequence; c(N_X) = prod (1 + a_i H);
    Whitney gives c1(T_X), c2(T_X); substituting into

        c2(N_{S/X}) = c2(T_X|_S) - c2(T_S) + K.(c1(T_X|_S) + K)

    and reading off the coefficients of H^2 and HK yields the pair.
    """
    n = ci.ambient_dim
    c_tp = _power(ONE + H, n + 1)
    c_nx = ONE
    for a in ci.degrees:
        c_nx = c_nx * (ONE + TruncatedClass(h=a))
    c1_tx = TruncatedClass(h=c_tp.h - c_nx.h)
    c2_tx = TruncatedClass(h2=c_tp.h2 - c1_tx.h * c_nx.h - c_nx.h2)
    kc = TruncatedClass(k=1)
    c2_nsx = c2_tx - C2_TS + kc * (c1_tx + kc)
    assert c2_nsx.k2 == 1 and c2_nsx.e == -1
    return c2_nsx.h2, c2_nsx.hk


# Each ordinary double point of the embedded image adds this much to the
# cycle self-intersection: a fitted rule anchored by a single nodal example.
NODE_CORRECTION = 2


def self_intersection(ci: CompleteIntersectionType, s: SurfaceInvariants) -> int:
    """(S)^2_X for the cycle class of s inside a fourfold of type ci, with
    ``NODE_CORRECTION`` per node; K^2 - c2(T_S) = 2K^2 - 12 chi(O) by Noether."""
    ch2, chk = _constants(ci.degrees)[2]
    return ch2 * s.degree + chk * s.HK + 2 * s.K2 - 12 * s.chi_O + NODE_CORRECTION * s.nodes


def formula_222(degree: int, sect_genus: int, K2: int, chi_O: int) -> int:
    """Smooth-model self-intersection inside a (2,2,2), in the four basic
    invariants: 2 deg + 4 g + 2 K^2 - 12 chi(O) - 4."""
    return 2 * degree + 4 * sect_genus + 2 * K2 - 12 * chi_O - 4


def congruence_secancy(curve_degree: int) -> int:
    """A congruence of degree-e curves meets the surface in 2e - 1 points."""
    if curve_degree < 1:
        raise ValueError("curve degree must be >= 1")
    return 2 * curve_degree - 1


def flopped_fiber_secancy(curve_degree: int, fano_index: int) -> int:
    """Secancy to U of the image of an exceptional fiber after the flop.

    The fiber maps to a degree-e curve F' in W and -K_W'.F' = 1 forces
    E.F' = i(W)*e - 1; the ruling lines themselves are i(W)-secant to U.
    """
    return fano_index * curve_degree - 1
