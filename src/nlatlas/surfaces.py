"""Plane models S(a; n1, n2, ...) and the invariant records of the embedded
surfaces they define.

A plane model is the image of P^2 under the linear system of degree-a curves
with n_i general base points of multiplicity i.  The hyperplane class is
H = a*L - sum m_j E_j.  Base-point data for which H pairs to zero with a
(-1)-class is handled by blow-down bookkeeping: Cremona reduction of H finds
those classes, each contracted class raises K^2 by one and lowers chi_top by
one, while every H-derived number (degree, sectional genus, chi(O(H))) is
unchanged because H.C = 0.

Surfaces that are not blow-ups of the plane (K3 projections and friends)
enter through abstract invariants (deg, g, K^2, chi(O)); chi_top is then
forced by the Noether formula K^2 = 12 chi(O) - chi_top.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, NamedTuple

from .errors import NotNef, NotProjectable, ParseError, SpanTooSmall

if TYPE_CHECKING:
    from .picard import DivisorClass

# ambient projective space is P^7 throughout; a surface with h0_H > 8 can only
# be brought there by a projection, so its span is clamped at P^7 for display
AMBIENT_H0 = 8
H0_QUADRICS_P7 = 36       # h0(O_{P7}(2))


class _PlaneModelFields(NamedTuple):
    a: int
    point_counts: tuple[int, ...]


class PlaneModel(_PlaneModelFields):
    """S(a; n1, n2, ...): degree a with n_i points of multiplicity i."""

    __slots__ = ()

    def __new__(cls, a: int, point_counts=()):
        # operator.index rejects floats and strings, which int() would truncate
        # or parse
        counts = tuple(map(operator.index, point_counts))
        if operator.index(a) < 1:
            raise ValueError(f"plane-curve degree must be >= 1, got {a}")
        if counts and min(counts) < 0:
            raise ValueError(f"point counts must be >= 0, got {counts}")
        return tuple.__new__(cls, (a, counts))

    def spec_string(self) -> str:
        return f"{self.a};{','.join(map(str, self.point_counts))}"

    def __str__(self) -> str:
        # atlas._leaf builds this label for its candidates; change both together
        return f"S({self.spec_string()})"


class _SurfaceInvariantsFields(NamedTuple):
    degree: int
    sect_genus: int
    K2: int
    chi_O: int
    chi_top: int
    h0_H: int
    nodes: int
    linearly_normal: bool
    provenance_label: str


class SurfaceInvariants(_SurfaceInvariantsFields):
    """Numerical record of an embedded surface.

    ``h0_H`` is chi(O_S(H)) under the vanishing assumption h^1 = h^2 = 0; the
    span of the embedded surface is P^(min(h0_H, 8) - 1).  ``nodes`` counts
    ordinary double points of the embedded image; all other fields describe
    the smooth model.
    """

    __slots__ = ()

    def __new__(cls, degree: int, sect_genus: int, K2: int, chi_O: int, chi_top: int,
                h0_H: int, nodes: int = 0, linearly_normal: bool = True,
                provenance_label: str = ""):
        if chi_top != 12 * chi_O - K2:
            raise ValueError(
                f"Noether identity violated: chi_top={chi_top} != "
                f"12*{chi_O} - {K2}"
            )
        if degree < 1:
            raise ValueError(f"degree must be >= 1, got {degree}")
        if nodes < 0:
            raise ValueError(f"nodes must be >= 0, got {nodes}")
        return tuple.__new__(cls, (degree, sect_genus, K2, chi_O, chi_top, h0_H, nodes,
                                   linearly_normal, provenance_label))

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


def _embedded(degree: int, genus: int, K2: int, chi_O: int, label: str,
              why: str) -> SurfaceInvariants:
    """The record of numerical type (H^2 = ``degree``, sectional genus, K^2,
    chi(O)), with h0(H) = chi(O_S(H)) = chi(O) + H^2 + 1 - g; a span below
    P^3, degree > 1 with h0(H) < 4, is ``SpanTooSmall`` worded by ``why``.
    Degree 1 passes at any h0(H) until ROADMAP item 7 admits only h0(H) = 3."""
    h0 = chi_O + degree + 1 - genus
    if h0 < 4 and degree != 1:
        raise SpanTooSmall(f"{label or 'surface'} gives h0(H) = {h0}: {why}")
    return SurfaceInvariants(degree, genus, K2, chi_O, 12 * chi_O - K2, h0, 0, True, label)


def abstract_surface(degree: int, sect_genus: int, K2: int, chi_O: int,
                     label: str = "") -> SurfaceInvariants:
    """Build a record from (deg, g, K^2, chi(O)); chi_top and h0_H derived.
    Like ``invariants``, it refuses a surface of degree > 1 with h0(H) < 4."""
    # operator.index rejects floats and strings, as PlaneModel does; the
    # record's own constructor does not
    degree, sect_genus, K2, chi_O = map(operator.index, (degree, sect_genus, K2, chi_O))
    return _embedded(degree, sect_genus, K2, chi_O, label,
                     f"a surface of degree {degree} spans at least P^3")


def expand(model: PlaneModel) -> DivisorClass:
    """The class H = a*L - sum m_j E_j, with n_i copies of multiplicity i."""
    from .picard import DivisorClass
    return DivisorClass(model.a, [i for i, n in enumerate(model.point_counts, 1)
                                  for _ in range(n)])


def normalize_contractions(model: PlaneModel) -> tuple[int, int, int, tuple[int, ...], int]:
    """Cremona-reduce H and count the (-1)-classes orthogonal to it.

    The multiplicities are counted per value, with three zeros (points not
    blown up) to pad the top three.  While a < m1 + m2 + m3, the quadratic
    transformation at the top three points applies: with e = m1 + m2 + m3 - a,
    a and m1, m2, m3 all drop by e.  Each step maps E_i to a (-1)-class and
    keeps H^2 and H.K, and a drops, so the loop ends; a negative multiplicity
    is the pairing of H with a (-1)-class, hence ``NotNef``.  In the reduced
    (standard) form the classes orthogonal to H are the E_i of multiplicity 0
    and, when a = m1 + m2, the line L - E1 - E2 (Harbourne, Duke Math. J. 52,
    1985).  By the Hodge index theorem they are pairwise orthogonal once
    H^2 >= 1, so blowing them all down raises K^2 by their number.

    Returns ``(H^2, H.K, a, counts, contracted)``: H^2 and H.K, taken from
    the counts before any step; the standard model as plain ``(a, counts)``,
    without points of multiplicity 0 or trailing zero counts; and the number
    of contracted classes.  Only (-1)-classes are checked: with ten or more
    points, nefness against all curves (Nagata's problem) is not claimed.
    """
    a = model.a
    c = model.point_counts
    h2 = a * a
    hk = -3 * a
    for i, n in enumerate(c, 1):
        h2 -= i * i * n
        hk += i * n
    if h2 < 1:
        raise ValueError(f"H^2 = {h2} < 1: not an embedding class")
    # n[i] points of multiplicity i, and in n[0] three zeros to pad the top three
    n = [3, *c]
    i = m2 = m3 = len(c)
    while True:
        # the three largest multiplicities i >= m2 >= m3, read downwards; a
        # step lowers only these three, so none rises, and each scan resumes
        # at its cursor with the one point above m2, or two above m3, counted
        while not n[i]:
            i -= 1
        m2, s = (m2, 1 + n[m2]) if m2 < i else (i, n[i])
        while s < 2:
            m2 -= 1
            s += n[m2]
        m3, s = (m3, 2 + n[m3]) if m3 < m2 else (m2, s)
        while s < 3:
            m3 -= 1
            s += n[m3]
        e = i + m2 + m3 - a
        if e <= 0:
            break
        if m3 < e:
            # H named by the model's label, which grows with the counts, not
            # with the number of points
            raise NotNef(f"H.C = {m3 - e} < 0 for a (-1)-class C and H of {model}")
        a -= e
        for m in (i, m2, m3):
            n[m] -= 1
            n[m - e] += 1
    # a model that took no step keeps its own tuple
    counts = c[:i] if a == model.a else tuple(n[1:i + 1])
    return h2, hk, a, counts, n[0] - 3 + (a == i + m2)


def invariants(model: PlaneModel) -> SurfaceInvariants:
    """Invariant record of the (normalized) image surface of a plane model:
    degree H^2, genus 1 + (H^2 + H.K)/2 and h0(H) = 1 + (H^2 - H.K)/2 from
    the numbers ``normalize_contractions`` returns (H^2 + H.K is even), and
    K^2 = 9 - k plus one per contracted (-1)-class."""
    degree, hk, _, _, contracted = normalize_contractions(model)
    return _embedded(degree, 1 + (degree + hk) // 2, 9 - sum(model.point_counts) + contracted,
                     1, str(model), "the system maps to a plane without embedding")


def _rebuilt(src: SurfaceInvariants, **changes) -> SurfaceInvariants:
    """``src`` with ``changes``, built through the constructor so that its
    checks run; ``_replace`` alone would skip them."""
    return SurfaceInvariants(*src._replace(**changes))


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
    return _rebuilt(
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
    return _rebuilt(
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
    return _rebuilt(
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


def _parse_int_list(text: str) -> list[tuple[int, int]]:
    """(value, position) of each item of a comma list of integers, with
    spaces allowed around each item."""
    items = []
    offset = 0
    for token in text.split(","):
        digits = token.lstrip()
        at = offset + len(token) - len(digits)
        items.append((_parse_int(text, digits.rstrip(), at), at))
        offset += len(token) + 1
    return items


def _parse_plane(text: str, base: str, start: int) -> PlaneModel:
    head, sep, tail = base.partition(";")
    if not sep:
        raise ParseError("expected 'a;n1,n2,...'", text, start + len(head))
    a = _parse_int(text, head, start)
    if a < 1:
        raise ParseError(f"plane-curve degree must be >= 1, got {a}", text, start)
    counts = tail.split(",") if tail else []
    # one test for a well-formed list: ASCII digits between single commas
    if tail and not (tail.isascii() and tail.replace(",", "").isdigit() and "" not in counts):
        _check_counts(text, counts, start + len(head) + 1)
    return PlaneModel(a, map(int, counts))


def _check_counts(text: str, counts: list[str], offset: int) -> None:
    """Raise the ``ParseError`` of the first bad count, at its position.  A
    list that failed the test of ``_parse_plane`` has one unless a count is
    spelled "-0", which reads as 0."""
    for token in counts:
        if token == "":
            raise ParseError("empty point count", text, offset)
        n = _parse_int(text, token, offset)
        if n < 0:
            raise ParseError(f"point counts must be >= 0, got {n}", text, offset)
        offset += len(token) + 1


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
        at = offset + len(key) + 1
        fields[key] = _parse_int(text, val, at)
        if key == "deg" and fields[key] < 1:
            raise ParseError(f"degree must be >= 1, got {fields[key]}", text, at)
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


def standard_model(text: str) -> PlaneModel | None:
    """The Cremona-standard model of the plane model that opens the spec
    ``text``, which must parse, when reducing it lowers a; None for an
    ``abs:`` spec and for a model that is standard already."""
    base = text.split()[0]
    if base.startswith("abs:"):
        return None
    model = _parse_plane(text, base, text.index(base))
    _, _, a, counts, _ = normalize_contractions(model)
    return PlaneModel(a, counts) if a < model.a else None
