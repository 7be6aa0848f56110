"""Plane models S(a; n1, n2, ...) and the invariant records of the embedded
surfaces they define.

A plane model is the image of P^2 under the linear system of degree-a curves
with n_i general base points of multiplicity i.  The hyperplane class is
H = a*L - sum m_j E_j.  Base-point data for which H pairs to zero with a
(-1)-class is handled by blow-down bookkeeping: each contracted class raises
K^2 by one and lowers chi_top by one, while every H-derived number (degree,
sectional genus, chi(O(H))) is unchanged because H.C = 0.

Surfaces that are not blow-ups of the plane (K3 projections and friends)
enter through abstract invariants (deg, g, K^2, chi(O)); chi_top is then
forced by the Noether formula K^2 = 12 chi(O) - chi_top.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from .errors import NotNef, NotProjectable, ParseError, SpanTooSmall
from .picard import DivisorClass, adjunction_genus, pair, riemann_roch_chi

# ambient projective space is P^7 throughout; a surface with h0_H > 8 can only
# be brought there by a projection, so its span is clamped at P^7 for display
AMBIENT_H0 = 8


@dataclass(frozen=True)
class PlaneModel:
    """S(a; n1, n2, ...): degree a with n_i points of multiplicity i."""

    a: int
    point_counts: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "point_counts", tuple(int(n) for n in self.point_counts))
        if self.a < 1:
            raise ValueError(f"plane-curve degree must be >= 1, got {self.a}")
        if any(n < 0 for n in self.point_counts):
            raise ValueError(f"point counts must be >= 0, got {self.point_counts}")

    @property
    def total_points(self) -> int:
        return sum(self.point_counts)

    def spec_string(self) -> str:
        return f"{self.a};{','.join(str(n) for n in self.point_counts)}"

    def __str__(self) -> str:
        return f"S({self.spec_string()})"


@dataclass(frozen=True)
class SurfaceInvariants:
    """Numerical record of an embedded surface.

    ``h0_H`` is chi(O_S(H)) under the vanishing assumption h^1 = h^2 = 0; the
    span of the embedded surface is P^(min(h0_H, 8) - 1).  ``nodes`` counts
    ordinary double points of the embedded image; all other fields describe
    the smooth model.
    """

    degree: int
    sect_genus: int
    K2: int
    chi_O: int
    chi_top: int
    h0_H: int
    nodes: int = 0
    linearly_normal: bool = True
    provenance_label: str = ""

    def __post_init__(self):
        if self.chi_top != 12 * self.chi_O - self.K2:
            raise ValueError(
                f"Noether identity violated: chi_top={self.chi_top} != "
                f"12*{self.chi_O} - {self.K2}"
            )
        if self.degree < 1:
            raise ValueError(f"degree must be >= 1, got {self.degree}")
        if self.nodes < 0:
            raise ValueError(f"nodes must be >= 0, got {self.nodes}")

    @property
    def HK(self) -> int:
        """H.K recovered from degree and sectional genus by adjunction."""
        return 2 * self.sect_genus - 2 - self.degree

    @property
    def span_dim(self) -> int:
        return min(self.h0_H, AMBIENT_H0) - 1

    def chi_twist(self, m: int) -> int:
        """chi(O_S(mH)) by Riemann-Roch (vanishing assumed for h^1, h^2)."""
        return self.chi_O + (m * m * self.degree - m * self.HK) // 2


def abstract_surface(degree: int, sect_genus: int, K2: int, chi_O: int,
                     nodes: int = 0, label: str = "") -> SurfaceInvariants:
    """Build a record from (deg, g, K^2, chi(O)); chi_top and h0_H derived."""
    chi_top = 12 * chi_O - K2
    HK = 2 * sect_genus - 2 - degree
    h0 = chi_O + (degree - HK) // 2
    return SurfaceInvariants(degree, sect_genus, K2, chi_O, chi_top, h0,
                             nodes=nodes, provenance_label=label)


def expand(model: PlaneModel) -> DivisorClass:
    """The class H = a*L - sum m_j E_j, with n_i copies of multiplicity i."""
    mults: list[int] = []
    for i, n in enumerate(model.point_counts, start=1):
        mults.extend([i] * n)
    return DivisorClass(model.a, mults)


def _tied(m: tuple[int, ...], desc: list[int], size: int) -> list[tuple[int, ...]]:
    """Index tuples of ``size`` entries of ``m`` summing to ``sum(desc[:size])``,
    the largest possible sum, in lexicographic order.

    Such a tuple holds every index whose value exceeds ``desc[size - 1]`` and
    is filled up from the indices at that value; adding the same fixed part
    to every pick keeps the lexicographic order of ``itertools.combinations``.
    """
    v = desc[size - 1]
    above = [i for i, x in enumerate(m) if x > v]
    level = [i for i, x in enumerate(m) if x == v]
    return [tuple(sorted(above + list(pick)))
            for pick in itertools.combinations(level, size - len(above))]


def normalize_contractions(h: DivisorClass) -> tuple[DivisorClass, tuple[DivisorClass, ...]]:
    """Detect and blow down catalogue (-1)-classes orthogonal to H.

    Returns the class on the reduced lattice (coordinates of contracted
    exceptional classes dropped) together with the contracted classes, always
    expressed on the input lattice, in the order of ``neg_curve_catalogue``.
    By the Hodge index theorem the contracted classes are pairwise orthogonal
    once H^2 >= 1, so a single pass blows them all down.

    Nefness is decided from the multiplicities sorted in descending order,
    ``top_n`` being the sum of the n largest: over each catalogue shape the
    smallest pairing is m_min (E_i), a - top_2 (L - Ei - Ej), 2a - top_5
    (conics) and 3a - m_max - top_7 (3L - 2Ei - six E's).  A shape contracts
    only when its minimum is 0, and then exactly its classes that attain the
    minimum pair to zero, so only those are built.
    """
    a = h.plane_degree
    m = h.mults
    k = len(m)
    h2 = pair(h, h)
    if h2 < 1:
        raise ValueError(f"H^2 = {h2} < 1: not an embedding class")
    desc = sorted(m, reverse=True)
    if k and desc[-1] < 0:
        i = next(i for i in range(k) if m[i] < 0)
        raise NotNef(f"H.E_{i + 1} = {m[i]} < 0 for H = {h}")
    line = a - desc[0] - desc[1] if k >= 2 else 1
    if line < 0:
        i, j = next((i, j) for i, j in itertools.combinations(range(k), 2)
                    if m[i] + m[j] > a)
        raise NotNef(f"H.(L-E_{i + 1}-E_{j + 1}) = {a - m[i] - m[j]} < 0 for H = {h}")
    conic = 2 * a - sum(desc[:5]) if k >= 5 else 1
    if conic < 0:
        raise NotNef(f"a conic (-1)-class pairs negatively with H = {h}")
    cubic = 3 * a - desc[0] - sum(desc[:7]) if k >= 7 else 1
    if cubic < 0:
        raise NotNef(f"a cubic (-1)-class pairs negatively with H = {h}")

    def curve(degree: int, idx: tuple[int, ...], double: int = -1) -> DivisorClass:
        mm = [0] * k
        for i in idx:
            mm[i] = 2 if i == double else 1
        return DivisorClass(degree, mm)

    contracted = [DivisorClass(0, [-1 if j == i else 0 for j in range(k)])
                  for i in range(k) if m[i] == 0]
    if line == 0:
        contracted.extend(curve(1, idx) for idx in _tied(m, desc, 2))
    if conic == 0:
        contracted.extend(curve(2, idx) for idx in _tied(m, desc, 5))
    if cubic == 0:
        # the double point has the largest multiplicity: 2 m_i + (six others)
        # reaches m_max + top_7 only for m_i = m_max inside a top-7 tuple
        sevens = _tied(m, desc, 7)
        contracted.extend(curve(3, idx, double=i)
                          for i in range(k) if m[i] == desc[0]
                          for idx in sevens if i in idx)

    assert len(contracted) <= k, "more contractions than lattice rank"
    assert all(pair(c1, c2) == 0
               for n1, c1 in enumerate(contracted)
               for c2 in contracted[n1 + 1:]), "contracted classes must be orthogonal"

    # only zero-multiplicity coordinates can be dropped exactly; contractions
    # of L- or 2L-shape leave the blown-up-plane family, so H keeps its
    # representation and the bookkeeping lives in the contraction count
    reduced = DivisorClass(a, [x for x in m if x != 0])
    return reduced, tuple(contracted)


def invariants(model: PlaneModel) -> SurfaceInvariants:
    """Invariant record of the (normalized) image surface of a plane model."""
    h = expand(model)
    h_red, contracted = normalize_contractions(h)
    n_dropped = h.k - h_red.k
    n_blowdowns = len(contracted) - n_dropped
    degree = pair(h_red, h_red)
    g = adjunction_genus(h_red)
    h0 = riemann_roch_chi(h_red)
    if h0 < 4 and degree != 1:
        raise SpanTooSmall(
            f"{model} gives h0(H) = {h0}: the system maps to a plane without embedding"
        )
    K2 = 9 - h_red.k + n_blowdowns
    return SurfaceInvariants(
        degree=degree,
        sect_genus=g,
        K2=K2,
        chi_O=1,
        chi_top=12 - K2,
        h0_H=h0,
        nodes=0,
        provenance_label=str(model),
    )


def internal_projection(src: SurfaceInvariants) -> SurfaceInvariants:
    """Project from a general point on the surface: degree, K^2, h0 drop by 1,
    chi_top rises by 1; sectional genus and chi(O) are unchanged."""
    if src.nodes != 0 or not src.linearly_normal:
        raise NotProjectable("internal projection requires a smooth linearly "
                             "normal source")
    if src.h0_H < 5:
        raise NotProjectable(
            f"h0(H) = {src.h0_H} < 5: the projected image would be degenerate"
        )
    return replace(
        src,
        degree=src.degree - 1,
        K2=src.K2 - 1,
        chi_top=src.chi_top + 1,
        h0_H=src.h0_H - 1,
        provenance_label=f"internal projection of {src.provenance_label or 'surface'}",
    )


def external_projection(src: SurfaceInvariants) -> SurfaceInvariants:
    """Project a linearly normal surface in P^8 from a general outside point;
    all invariants survive, but the image in P^7 is no longer linearly normal."""
    if src.nodes != 0:
        raise NotProjectable("external projection requires a smooth image")
    if src.h0_H != 9 or not src.linearly_normal:
        raise NotProjectable(
            f"external projection needs a linearly normal surface spanning P^8, "
            f"got h0(H) = {src.h0_H}, linearly_normal = {src.linearly_normal}"
        )
    return replace(
        src,
        linearly_normal=False,
        provenance_label=f"external projection of {src.provenance_label or 'surface'}",
    )


def nodal_projection(src: SurfaceInvariants, delta: int) -> SurfaceInvariants:
    """Project from a point on the secant variety: the image acquires delta
    ordinary double points while the smooth model keeps its invariants."""
    if src.nodes != 0 or not src.linearly_normal:
        raise NotProjectable("nodal projection requires a smooth linearly "
                             "normal source")
    if src.h0_H < 9:
        raise NotProjectable(f"h0(H) = {src.h0_H} < 9: source must span at least P^8")
    if delta < 1:
        raise NotProjectable(f"delta must be >= 1, got {delta}")
    return replace(
        src,
        nodes=delta,
        linearly_normal=False,
        provenance_label=f"{delta}-nodal projection of {src.provenance_label or 'surface'}",
    )


# --- specification string grammar -----------------------------------------
#
#   "a;n1,n2,..."                       plane model
#   "abs:deg=D,g=G,K2=K,chiO=C"         abstract invariants
# optional whitespace-separated modifiers, applied left to right:
#   "int-proj"   internal projection
#   "ext-proj"   external projection
#   "nodes=D"    nodal projection with D nodes

_ABS_KEYS = ("deg", "g", "K2", "chiO")


def _parse_int(text: str, token: str, offset: int) -> int:
    """An optional '-' and ASCII digits; ``int`` alone would also take '+',
    '_' separators and non-ASCII digits."""
    digits = token[1:] if token.startswith("-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError(f"expected an integer, got {token!r}", text, offset)
    return int(token)


def _parse_plane(text: str, base: str, start: int) -> PlaneModel:
    head, sep, tail = base.partition(";")
    if not sep:
        raise ParseError("expected 'a;n1,n2,...'", text, start + len(head))
    a = _parse_int(text, head, start)
    if a < 1:
        raise ParseError(f"plane-curve degree must be >= 1, got {a}", text, start)
    counts: list[int] = []
    if tail:
        offset = start + len(head) + 1
        for token in tail.split(","):
            if token == "":
                raise ParseError("empty point count", text, offset)
            n = _parse_int(text, token, offset)
            if n < 0:
                raise ParseError(f"point counts must be >= 0, got {n}", text, offset)
            counts.append(n)
            offset += len(token) + 1
    return PlaneModel(a, counts)


def _parse_abstract(text: str, base: str, start: int) -> SurfaceInvariants:
    body = base[len("abs:"):]
    fields: dict[str, int] = {}
    offset = start + len("abs:")
    for token in body.split(","):
        key, sep, val = token.partition("=")
        if not sep or key not in _ABS_KEYS:
            raise ParseError(f"expected one of {_ABS_KEYS} with '=', got {token!r}",
                             text, offset)
        if key in fields:
            raise ParseError(f"duplicate field {key!r}", text, offset)
        fields[key] = _parse_int(text, val, offset + len(key) + 1)
        offset += len(token) + 1
    missing = [k for k in _ABS_KEYS if k not in fields]
    if missing:
        raise ParseError(f"missing fields {missing}", text, len(text))
    return abstract_surface(fields["deg"], fields["g"], fields["K2"], fields["chiO"],
                            label=base)


def parse_surface_spec(text: str) -> SurfaceInvariants:
    """Parse a surface specification string into an invariant record.

    The final record must fit in P^7: a surface with h0(H) > 8 is rejected
    unless a projection modifier brings it down (or marks it non-normal).
    """
    tokens = []   # (position in text, token), for the error positions
    start = 0
    for token in text.split():
        start = text.index(token, start)
        tokens.append((start, token))
        start += len(token)
    if not tokens:
        raise ParseError("empty surface specification", text, 0)
    start, base = tokens[0]
    if base.startswith("abs:"):
        s = _parse_abstract(text, base, start)
    else:
        s = invariants(_parse_plane(text, base, start))
    for start, token in tokens[1:]:
        if token == "int-proj":
            s = internal_projection(s)
        elif token == "ext-proj":
            s = external_projection(s)
        elif token.startswith("nodes="):
            at = start + len("nodes=")
            delta = _parse_int(text, token[len("nodes="):], at)
            if delta < 1:
                raise ParseError(f"node count must be >= 1, got {delta}", text, at)
            s = nodal_projection(s, delta)
        else:
            raise ParseError(f"unknown modifier {token!r}", text, start)
    if s.h0_H > 9 or (s.h0_H == 9 and s.linearly_normal):
        raise SpanTooSmall(
            f"surface spans P^{s.h0_H - 1}: apply int-proj/ext-proj/nodes= to land in P^7"
        )
    return s
