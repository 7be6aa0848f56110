"""Hodge-diamond arithmetic: blow-up formula, two-sided diagram solves and
Castelnuovo/minimality classification.

Blowing up a smooth surface Z inside a smooth fourfold Y adds the diamond of
Z shifted by (1,1) (a Tate twist):

    h^{p,q}(Bl_Z Y) = h^{p,q}(Y) + h^{p-1,q-1}(Z);

centers of higher codimension contribute one shift per power of the
exceptional class (see ``blowup``).  A two-sided diagram identifies two such
blow-ups, Bl_S X = Bl_U W up to a flop whose exceptional contributions
cancel from both sides (they are P^1-bundles over one and the same curve).
Solving the resulting entrywise equations for the unknown surface recovers
its full diamond and hence p_g, q, chi(O), chi_top and, by the Noether
formula, K^2.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

from .errors import (DimensionMismatch, Inconsistent, NLAtlasError, ParseError,
                     Underdetermined, UnknownPreset, read_fields, reader)
from .surfaces import SurfaceInvariants, parse_surface_spec

UNKNOWN = "unknown"


class _HodgeDiamondFields(NamedTuple):
    dim: int
    entries: tuple[tuple[int, ...], ...]


class HodgeDiamond(_HodgeDiamondFields):
    """Table of h^{p,q} for a smooth projective variety of dimension 0-4."""

    __slots__ = ()

    def __new__(cls, dim: int, entries):
        if dim not in (0, 1, 2, 4):
            raise ValueError(f"dimension must be 0, 1, 2 or 4, got {dim}")
        # operator.index rejects floats and strings, which int() would truncate
        # or parse
        rows = tuple(tuple(map(operator.index, row)) for row in entries)
        n = dim + 1
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError(f"need a {n}x{n} table for dimension {dim}")
        if any(x < 0 for row in rows for x in row):
            raise ValueError("Hodge numbers must be >= 0")
        if rows[0][0] != 1:
            raise ValueError("h^{0,0} must be 1")
        for p in range(n):
            for q in range(n):
                if rows[p][q] != rows[q][p]:
                    raise ValueError(f"conjugation symmetry fails at ({p},{q})")
                if rows[p][q] != rows[dim - p][dim - q]:
                    raise ValueError(f"Serre symmetry fails at ({p},{q})")
        return tuple.__new__(cls, (dim, rows))

    def h(self, p: int, q: int) -> int:
        """h^{p,q}, zero outside the square."""
        if 0 <= p <= self.dim and 0 <= q <= self.dim:
            return self.entries[p][q]
        return 0

    def betti(self, j: int) -> int:
        return sum(self.h(p, j - p) for p in range(max(0, j - self.dim), self.dim + 1))

    @property
    def euler(self) -> int:
        return sum((-1) ** j * self.betti(j) for j in range(2 * self.dim + 1))

    def pretty(self) -> str:
        width = max(len(str(x)) for row in self.entries for x in row) + 2
        total = (self.dim + 1) * width
        lines = []
        for j in range(2 * self.dim, -1, -1):
            cells = [str(self.h(p, j - p))
                     for p in range(self.dim, -1, -1) if 0 <= j - p <= self.dim]
            lines.append("".join(c.center(width) for c in cells).center(total).rstrip())
        return "\n".join(lines)


def point() -> HodgeDiamond:
    return HodgeDiamond(0, ((1,),))


def curve(genus: int) -> HodgeDiamond:
    return HodgeDiamond(1, ((1, genus), (genus, 1)))


def surface(pg: int, q: int, h11: int) -> HodgeDiamond:
    return HodgeDiamond(2, ((1, q, pg), (q, h11, q), (pg, q, 1)))


def fourfold(h11: int, h21: int, h31: int, h22: int) -> HodgeDiamond:
    return HodgeDiamond(4, (
        (1, 0, 0, 0, 0),
        (0, h11, h21, h31, 0),
        (0, h21, h22, h21, 0),
        (0, h31, h21, h11, 0),
        (0, 0, 0, 0, 1),
    ))


def surface_diamond(s: SurfaceInvariants) -> HodgeDiamond:
    """Diamond of a smooth regular surface (q = 0) from its invariant record:
    p_g = chi(O) - 1 and h^{1,1} = chi_top - 2 - 2 p_g."""
    pg = s.chi_O - 1
    h11 = s.chi_top - 2 - 2 * pg
    return surface(pg, 0, h11)


_PRESETS = {
    # fourfold presets carry the middle Hodge numbers of the standard models
    "P4": lambda: HodgeDiamond(4, tuple(
        tuple(1 if p == q else 0 for q in range(5)) for p in range(5))),
    "X222": lambda: fourfold(h11=1, h21=0, h31=3, h22=38),
    "cubic4": lambda: fourfold(h11=1, h21=0, h31=1, h22=21),
    "ci22": lambda: fourfold(h11=1, h21=0, h31=0, h22=8),
    "K3": lambda: surface(pg=1, q=0, h11=20),
    "plane": lambda: surface(pg=0, q=0, h11=1),
}


def preset(name: str) -> HodgeDiamond:
    try:
        build = _PRESETS[name]
    except KeyError:
        raise UnknownPreset(
            f"no preset {name!r}; available: {sorted(_PRESETS)}") from None
    return build()


def blowup(y: HodgeDiamond, center: HodgeDiamond) -> HodgeDiamond:
    """Diamond of the blow-up of a fourfold along a smooth center.

    A center of codimension c contributes c - 1 Tate twists,

        h^{p,q} += sum over 1 <= i <= c-1 of h^{p-i,q-i}(center),

    one per power of the exceptional divisor class.  For a surface center
    (c = 2) this is the single shift by (1,1); for curves and points the
    extra twists are exactly what keeps the Serre symmetry intact.
    """
    if y.dim != 4 or center.dim >= y.dim:
        raise DimensionMismatch(
            f"need a fourfold and a center of smaller dimension, got {y.dim} and {center.dim}"
        )
    codim = y.dim - center.dim
    entries = tuple(
        tuple(y.h(p, q) + sum(center.h(p - i, q - i) for i in range(1, codim))
              for q in range(5))
        for p in range(5)
    )
    return HodgeDiamond(4, entries)


class DerivedSurfaceInvariants(NamedTuple):
    pg: int
    q: int
    b2: int
    chi_O: int
    chi_top: int
    K2: int


def derive_surface_invariants(d: HodgeDiamond) -> DerivedSurfaceInvariants:
    if d.dim != 2:
        raise DimensionMismatch("derived invariants need a surface diamond")
    pg, q, h11 = d.h(2, 0), d.h(1, 0), d.h(1, 1)
    b2 = 2 * pg + h11
    chi_o = 1 - q + pg
    chi_top = 2 - 4 * q + b2
    return DerivedSurfaceInvariants(pg, q, b2, chi_o, chi_top, 12 * chi_o - chi_top)


class DiagramSpec(NamedTuple):
    """Bl_(left_center) left_fourfold = Bl_(right_center) right_fourfold, with
    the flopped-surface contributions cancelled (the flop bridge).  Exactly
    one center may be the string "unknown"."""

    left_fourfold: HodgeDiamond
    left_center: HodgeDiamond | str
    right_fourfold: HodgeDiamond
    right_center: HodgeDiamond | str


class SolvedDiagram(NamedTuple):
    unknown: HodgeDiamond
    invariants: DerivedSurfaceInvariants
    side: str


def solve_diagram(spec: DiagramSpec) -> SolvedDiagram:
    """Solve h^{p,q}(F1) + h^{p-1,q-1}(C1) = h^{p,q}(F2) + h^{p-1,q-1}(C2)
    for the missing surface diamond: it is ``blowup`` of the known side minus
    the other fourfold, shifted back by (1,1)."""
    side = "left" if spec.left_center == UNKNOWN else "right"
    # the unknown side first: its fourfold and center, then the known side's
    other_f, center, known_f, known_c = spec if side == "left" else spec[2:] + spec[:2]
    if center != UNKNOWN:
        raise Underdetermined("no unknown center to solve for")
    if known_c == UNKNOWN:
        raise Underdetermined("both centers are unknown")
    if not isinstance(known_c, HodgeDiamond) or known_c.dim != 2:
        raise DimensionMismatch("the known center must be a surface diamond")
    if other_f.dim != 4:
        raise DimensionMismatch(f"the {side} side needs a fourfold, got dimension {other_f.dim}")

    # Bl_U other_f has the diamond of the known blow-up, and U adds its own
    # shifted by (1,1): the difference is U inside the border and 0 on it
    total = blowup(known_f, known_c)
    diff = [[total.h(p, q) - other_f.h(p, q) for q in range(5)] for p in range(5)]
    entries = tuple(tuple(row[1:4]) for row in diff[1:4])
    for p in range(3):
        for q in range(3):
            if entries[p][q] < 0:
                raise Inconsistent(f"solved h^{{{p},{q}}} = {entries[p][q]} < 0: "
                                   "the diagram is not realizable")
    for p in range(5):
        for q in range(5):
            if (p in (0, 4) or q in (0, 4)) and diff[p][q]:
                raise Inconsistent(f"fourfold diamonds disagree at boundary entry ({p},{q})")
    try:
        unknown = HodgeDiamond(2, entries)
    except ValueError as exc:
        raise Inconsistent(f"solved table is not a surface diamond: {exc}") from None
    inv = derive_surface_invariants(unknown)
    return SolvedDiagram(unknown=unknown, invariants=inv, side=side)


class Classification(NamedTuple):
    castelnuovo_type_I: bool
    non_minimal: bool
    blow_downs: int
    minimal_model_K2: int | None


def classify(pg: int, q: int, K2: int) -> Classification:
    """Castelnuovo bound K^2 >= 3 p_g - 7 (type I when equality holds) and two
    non-minimality tests:

    - K^2 < 0 with p_g >= 1.  A surface with p_g >= 1 has Kodaira dimension
      >= 0, and every minimal surface of non-negative Kodaira dimension has
      K^2 >= 0, so such a surface is not minimal;
    - 1 <= K^2 < 2 p_g - 4 for a regular surface (Noether's inequality
      K^2 >= 2 p_g - 4 for a minimal surface of general type).

    K^2 = 0 is left undecided.  A non-minimal regular solution with p_g >= 3
    is blown down to the Castelnuovo value K^2 = 3 p_g - 7.  Other non-minimal
    solutions get no target: for p_g <= 2 that value is negative, which the
    minimal model cannot have."""
    type_one = (K2 == 3 * pg - 7)
    non_minimal = ((pg >= 1 and K2 < 0)
                   or (pg >= 2 and q == 0 and 1 <= K2 < 2 * pg - 4))
    blow_downs = 0
    minimal_k2 = None
    if non_minimal and q == 0 and pg >= 3:
        minimal_k2 = 3 * pg - 7
        blow_downs = minimal_k2 - K2
    return Classification(
        castelnuovo_type_I=type_one,
        non_minimal=non_minimal,
        blow_downs=blow_downs,
        minimal_model_K2=minimal_k2,
    )


def _diamond(obj, side: str, part: str) -> HodgeDiamond | str:
    """The ``part`` ("fourfold" or "center") of diagram side ``side``: a
    preset name or an explicit diamond given as a nested list, and for a
    center also "unknown" or a surface spec string.  A fourfold must have
    dimension 4."""
    if part == "center" and obj == UNKNOWN:
        return UNKNOWN
    what = f"diagram: {side}: {part}"  # each refusal starts with its place
    # outside the try, as the reader names the place itself, index included
    entries = reader(tuple[tuple[int, ...], ...])(obj, what) if isinstance(obj, list) else None
    try:
        if entries is not None:
            diamond = HodgeDiamond(len(obj) - 1, entries)
        elif isinstance(obj, str) and (part == "fourfold" or obj in _PRESETS):
            diamond = preset(obj)
        elif isinstance(obj, str):
            return surface_diamond(parse_surface_spec(obj))
        else:
            raise ValueError(f"cannot interpret {obj!r}")
        if part == "fourfold" and diamond.dim != 4:
            raise DimensionMismatch(f"need dimension 4, got a diamond of dimension {diamond.dim}")
    except ParseError as exc:  # keeps its position in the spec
        raise ParseError(f"{what}: {exc.message}", exc.text, exc.position) from None
    except (NLAtlasError, ValueError) as exc:
        raise type(exc)(f"{what}: {exc}") from None
    return diamond


class _DiagramSide(NamedTuple):  # each value takes several forms, read below
    fourfold: object
    center: object


class _DiagramFile(NamedTuple):
    left: _DiagramSide
    right: _DiagramSide
    flop_bridge: object = True  # read below, to name it in its message


def diagram_from_dict(data: dict) -> DiagramSpec:
    """Schema: {"left": {"fourfold": ..., "center": ...},
                "right": {"fourfold": ..., "center": ...},
                "flop_bridge": bool}, with ``flop_bridge`` true when left out.
    A missing side or field, a key outside the schema (a misspelled
    ``flop_bridge`` would leave the bridge on) and a ``flop_bridge`` that is
    not a JSON boolean are each a ``ValueError``; ``flop_bridge`` false, once
    the sides are read, is ``Underdetermined``."""
    left, right, bridge = read_fields(data, _DiagramFile, "diagram")
    # bool() would read the strings "false" and "no" as set
    bridge = reader(bool)(bridge, "diagram field 'flop_bridge'")
    # left fourfold, left center, right fourfold, right center, in that order
    spec = DiagramSpec._make(_diamond(value, side, part)
                             for side, given in (("left", left), ("right", right))
                             for part, value in zip(_DiagramSide._fields, given))
    if not bridge:
        raise Underdetermined("without the flop bridge the two flopped surfaces do not "
                              "cancel; supply their diamonds by solving the blow-ups directly")
    return spec
