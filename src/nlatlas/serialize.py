"""JSON-friendly encoding of the record types, with exact round-trips.

A record goes on the wire as ``{"kind": ...}`` followed by its fields in
declaration order, under their own names except ``DivisorClass.plane_degree``,
which is written ``"d"``.  Tuples become arrays, a ``Side`` becomes its value
and nested records are encoded the same way; ``decode`` reverses each step,
rebuilding the enum from the field's type.  All numbers stay Python integers
end to end.
"""

from __future__ import annotations

import dataclasses
import enum
import typing
from typing import Any

from .atlas import AtlasEntry, GapReport, SearchBounds
from .chow import CompleteIntersectionType
from .counts import ParameterCount
from .hodge import HodgeDiamond
from .lattice import RankTwoLattice
from .picard import DivisorClass
from .surfaces import PlaneModel, SurfaceInvariants

KINDS = {
    "divisor": DivisorClass,
    "plane_model": PlaneModel,
    "surface": SurfaceInvariants,
    "ci_type": CompleteIntersectionType,
    "rank2_lattice": RankTwoLattice,
    "hodge_diamond": HodgeDiamond,
    "parameter_count": ParameterCount,
    "search_bounds": SearchBounds,
    "atlas_entry": AtlasEntry,
    "gap_report": GapReport,
}

WIRE_NAMES = {(DivisorClass, "plane_degree"): "d"}


def _to_wire(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_to_wire(v) for v in value]
    if isinstance(value, enum.Enum):
        return value.value
    if type(value) in _ENCODERS:
        return encode(value)
    return value


def _from_wire(value: Any) -> Any:
    if isinstance(value, list):
        return tuple(_from_wire(v) for v in value)
    if isinstance(value, dict):
        return decode(value)
    return value


def _converters(hint: Any) -> tuple[Any, Any]:
    """(to wire, from wire) for a field of type ``hint``; None keeps the value,
    which spares scalar fields, most of every record, a call per field."""
    if hint in (int, str, bool):
        return None, None
    if isinstance(hint, enum.EnumMeta):
        return _to_wire, hint
    return _to_wire, _from_wire


def _layout(cls: type) -> tuple[tuple[str, str, Any, Any], ...]:
    """(attribute, wire name, to wire, from wire) for each field."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, WIRE_NAMES.get((cls, f.name), f.name), *_converters(hints[f.name]))
                 for f in dataclasses.fields(cls))


_ENCODERS = {cls: (kind, _layout(cls)) for kind, cls in KINDS.items()}
_DECODERS = {kind: (cls, layout) for cls, (kind, layout) in _ENCODERS.items()}


def encode(obj: Any) -> Any:
    try:
        kind, layout = _ENCODERS[type(obj)]
    except KeyError:
        raise TypeError(f"no encoder for {type(obj).__name__}") from None
    out = {"kind": kind}
    for name, wire, to_wire, _ in layout:
        value = getattr(obj, name)
        out[wire] = value if to_wire is None else to_wire(value)
    return out


def decode(data: Any) -> Any:
    try:
        cls, layout = _DECODERS[data["kind"]]
    except (KeyError, TypeError):
        raise TypeError(f"cannot decode {data!r}") from None
    return cls(**{name: data[wire] if from_wire is None else from_wire(data[wire])
                  for name, wire, _, from_wire in layout})
