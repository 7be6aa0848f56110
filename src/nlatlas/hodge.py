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

from .errors import (DimensionMismatch, Inconsistent, Underdetermined,
                     UnknownPreset)
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
    the flopped-surface contributions cancelled when flop_bridge is set.
    Exactly one center may be the string "unknown"."""

    left_fourfold: HodgeDiamond
    left_center: HodgeDiamond | str
    right_fourfold: HodgeDiamond
    right_center: HodgeDiamond | str
    flop_bridge: bool = True


class SolvedDiagram(NamedTuple):
    unknown: HodgeDiamond
    invariants: DerivedSurfaceInvariants
    side: str


def solve_diagram(spec: DiagramSpec) -> SolvedDiagram:
    """Solve h^{p,q}(F1) + h^{p-1,q-1}(C1) = h^{p,q}(F2) + h^{p-1,q-1}(C2)
    for the missing surface diamond: it is ``blowup`` of the known side minus
    the other fourfold, shifted back by (1,1)."""
    if not spec.flop_bridge:
        raise Underdetermined(
            "without the flop bridge the two flopped surfaces do not cancel; "
            "supply their diamonds by solving the blow-ups directly"
        )
    left_unknown = spec.left_center == UNKNOWN
    right_unknown = spec.right_center == UNKNOWN
    if left_unknown and right_unknown:
        raise Underdetermined("both centers are unknown")
    if not (left_unknown or right_unknown):
        raise Underdetermined("no unknown center to solve for")
    if left_unknown:
        known_f, known_c = spec.right_fourfold, spec.right_center
        other_f, side = spec.left_fourfold, "left"
    else:
        known_f, known_c = spec.left_fourfold, spec.left_center
        other_f, side = spec.right_fourfold, "right"
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
    # q = 0 solutions satisfy Noether by construction; keep the guard anyway
    assert inv.K2 == 12 * inv.chi_O - inv.chi_top
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


def classify_solved(solved: SolvedDiagram) -> Classification:
    inv = solved.invariants
    return classify(inv.pg, inv.q, inv.K2)


def _table(rows: list | tuple) -> HodgeDiamond:
    """An explicit diamond, given as a nested list of integers."""
    if not all(isinstance(r, (list, tuple)) and all(type(x) is int for x in r)
               for r in rows):
        raise ValueError(f"a Hodge table is a list of integer rows, got {rows!r}")
    return HodgeDiamond(len(rows) - 1, tuple(tuple(r) for r in rows))


def _center_from_spec(obj) -> HodgeDiamond | str:
    """A diagram center: "unknown", a preset name, a surface spec string, or
    an explicit diamond given as a nested list."""
    if obj == UNKNOWN:
        return UNKNOWN
    if isinstance(obj, str):
        if obj in _PRESETS:
            return preset(obj)
        return surface_diamond(parse_surface_spec(obj))
    if isinstance(obj, (list, tuple)):
        return _table(obj)
    raise ValueError(f"cannot interpret diagram center {obj!r}")


def _fourfold_from_spec(obj, side: str) -> HodgeDiamond:
    """The fourfold of diagram side ``side``: a preset name or an explicit
    diamond of dimension 4, given as a nested list."""
    if isinstance(obj, str):
        fourfold = preset(obj)
    elif isinstance(obj, (list, tuple)):
        fourfold = _table(obj)
    else:
        raise ValueError(f"cannot interpret fourfold {obj!r}")
    if fourfold.dim != 4:
        raise DimensionMismatch(f"diagram side {side!r} needs a fourfold, "
                                f"got a diamond of dimension {fourfold.dim}")
    return fourfold


def diagram_from_dict(data: dict) -> DiagramSpec:
    """Schema: {"left": {"fourfold": ..., "center": ...},
                "right": {"fourfold": ..., "center": ...},
                "flop_bridge": bool}; a missing side or field is a ``ValueError``,
    and so is a ``flop_bridge`` that is present but not a JSON boolean."""
    if not isinstance(data, dict):
        raise ValueError(f"a diagram is a JSON object, got {type(data).__name__}")
    left, right = data.get("left"), data.get("right")
    for name, side in (("left", left), ("right", right)):
        if not isinstance(side, dict) or not {"fourfold", "center"} <= side.keys():
            raise ValueError(f"diagram side {name!r} needs a 'fourfold' and a 'center'")
    # bool() would read the strings "false" and "no" as set
    bridge = data.get("flop_bridge", True)
    if not isinstance(bridge, bool):
        raise ValueError(f"diagram field 'flop_bridge' must be true or false, got {bridge!r}")
    return DiagramSpec(
        left_fourfold=_fourfold_from_spec(left["fourfold"], "left"),
        left_center=_center_from_spec(left["center"]),
        right_fourfold=_fourfold_from_spec(right["fourfold"], "right"),
        right_center=_center_from_spec(right["center"]),
        flop_bridge=bridge,
    )
