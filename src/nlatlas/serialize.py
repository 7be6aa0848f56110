"""JSON-friendly encoding of the record types, with exact round-trips.

A record goes on the wire as ``{"kind": ...}`` followed by its fields in
declaration order, under their own names except ``DivisorClass.plane_degree``,
which is written ``"d"``.  Tuples become arrays, a ``Side`` becomes its value
and nested records are encoded the same way; ``decode`` reverses each step,
rebuilding the enum from the field's type, and raises ``TypeError`` for a
value whose wire type does not match the field's.  All numbers stay Python
integers end to end.
"""

from __future__ import annotations

import enum
import operator
import sys
import typing
from typing import Any

# the codec reads its classes through the package and needs none of these:
# the benchmark's tracer (bench/spans.py) wraps functions of every module it
# traces, and finds them loaded through this line; ROADMAP item 5 lets the
# tracer load them itself and deletes it
from . import dataset, hodge, picard, report  # noqa: F401

# each kind and the public name of its record class, which the package
# imports from its home module on first access: JSON output that holds no
# atlas record never loads atlas
KINDS = {
    "divisor": "DivisorClass",
    "plane_model": "PlaneModel",
    "surface": "SurfaceInvariants",
    "ci_type": "CompleteIntersectionType",
    "rank2_lattice": "RankTwoLattice",
    "hodge_diamond": "HodgeDiamond",
    "parameter_count": "ParameterCount",
    "search_bounds": "SearchBounds",
    "atlas_entry": "AtlasEntry",
    "gap_report": "GapReport",
}
_KIND_OF = {name: kind for kind, name in KINDS.items()}

WIRE_NAMES = {("divisor", "plane_degree"): "d"}
SCALARS = (int, str, bool)


def _field(hint: Any) -> tuple[Any, Any]:
    """(to wire, from wire) for a field of type ``hint``.  To wire is None for
    a scalar, which goes on the wire as it is; from wire raises ``TypeError``
    for a wire value of another type."""
    if hint in SCALARS:
        def read(value):
            if type(value) is not hint:
                raise TypeError(value)
            return value
        return None, read
    if isinstance(hint, enum.EnumMeta):
        def read(value):
            try:
                return hint(value)
            except ValueError:
                raise TypeError(value) from None
        return operator.attrgetter("value"), read
    if typing.get_origin(hint) is tuple:
        # every tuple field holds one element type: tuple[int, ...] or a
        # fixed-length tuple[int, int]
        args = typing.get_args(hint)
        write_item, read_item = _field(args[0])
        size = None if args[-1] is Ellipsis else len(args)

        def read(value):
            if type(value) is not list or size not in (None, len(value)):
                raise TypeError(value)
            return tuple(read_item(v) for v in value)
        if write_item is None:
            return list, read
        return (lambda value: [write_item(v) for v in value]), read

    def read(value):
        record = decode(value)
        if type(record) is not hint:
            raise TypeError(value)
        return record
    # encode is looked up at each call, so a wrapper bound over it later
    # (the tracer's) sees the nested records too
    return (lambda value: encode(value)), read


_ENCODERS: dict[type, tuple[str, tuple]] = {}
_DECODERS: dict[str, tuple[type, tuple]] = {}


def _coder(kind: str) -> tuple[type, tuple]:
    """The class of ``kind`` and its layout, (attribute, wire name, to wire,
    from wire) per field, added to both tables; ``KeyError`` for no kind."""
    cls = getattr(sys.modules[__package__], KINDS[kind])
    layout = tuple((name, WIRE_NAMES.get((kind, name), name), *_field(hint))
                   for name, hint in typing.get_type_hints(cls).items())
    _ENCODERS[cls] = (kind, layout)
    _DECODERS[kind] = (cls, layout)
    return cls, layout


def encode(obj: Any) -> Any:
    try:
        kind, layout = _ENCODERS[type(obj)]
    except KeyError:
        # a class named like a record class is not one unless it is the
        # package's
        kind = _KIND_OF.get(type(obj).__name__)
        cls, layout = _coder(kind) if kind else (None, ())
        if cls is not type(obj):
            raise TypeError(f"no encoder for {type(obj).__name__}") from None
    out = {"kind": kind}
    for name, wire, to_wire, _ in layout:
        value = getattr(obj, name)
        out[wire] = value if to_wire is None else to_wire(value)
    return out


def decode(data: Any) -> Any:
    try:
        kind = data["kind"]
        cls, layout = _DECODERS.get(kind) or _coder(kind)
        fields = {name: from_wire(data[wire]) for name, wire, _, from_wire in layout}
    except (KeyError, TypeError):
        raise TypeError(f"cannot decode {data!r}") from None
    return cls(**fields)
