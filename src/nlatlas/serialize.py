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
import typing
from typing import Any

# dataset and report are not coded here: the benchmark's tracer
# (bench/spans.py) wraps functions of every module it traces, and finds them
# loaded through this module; ROADMAP item 5 lets the tracer load them itself
from . import dataset, report  # noqa: F401
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
}
# the kinds of the records of nlatlas.atlas, by class name: the codec imports
# atlas for the first atlas record it meets, so JSON output that holds none
# never loads atlas
ATLAS_KINDS = {"SearchBounds": "search_bounds", "AtlasEntry": "atlas_entry",
               "GapReport": "gap_report"}

WIRE_NAMES = {(DivisorClass, "plane_degree"): "d"}
SCALARS = (int, str, bool)


def _to_wire(value: Any) -> Any:
    # a record is a tuple too, so it is looked up first
    if type(value) in _ENCODERS:
        return encode(value)
    if isinstance(value, tuple):
        return [_to_wire(v) for v in value]
    if isinstance(value, enum.Enum):
        return value.value
    return value


def _reader(hint: Any) -> Any:
    """Turn the wire value of a field of type ``hint`` back into the field,
    raising ``TypeError`` for a value of another type."""
    if hint in SCALARS:
        def read(value):
            if type(value) is not hint:
                raise TypeError(value)
            return value
    elif isinstance(hint, enum.EnumMeta):
        def read(value):
            try:
                return hint(value)
            except ValueError:
                raise TypeError(value) from None
    elif typing.get_origin(hint) is tuple:
        # every tuple field holds one element type: tuple[int, ...] or a
        # fixed-length tuple[int, int]
        args = typing.get_args(hint)
        item = _reader(args[0])
        size = None if args[-1] is Ellipsis else len(args)

        def read(value):
            if type(value) is not list or size not in (None, len(value)):
                raise TypeError(value)
            return tuple(item(v) for v in value)
    else:
        def read(value):
            record = decode(value)
            if type(record) is not hint:
                raise TypeError(value)
            return record
    return read


def _layout(cls: type) -> tuple[tuple[str, str, Any, Any], ...]:
    """(attribute, wire name, to wire, from wire) for each field; None as the
    encoder keeps the value, which spares scalar fields, most of every
    record, a call per field."""
    return tuple((name, WIRE_NAMES.get((cls, name), name),
                  None if hint in SCALARS else _to_wire, _reader(hint))
                 for name, hint in typing.get_type_hints(cls).items())


_ENCODERS = {cls: (kind, _layout(cls)) for kind, cls in KINDS.items()}
_DECODERS = {kind: (cls, layout) for cls, (kind, layout) in _ENCODERS.items()}


def _atlas_kinds_added() -> bool:
    """Add the atlas kinds to the codec tables; False when they are there
    already, so that a miss after that is final."""
    if "atlas_entry" in _DECODERS:
        return False
    from . import atlas
    for name, kind in ATLAS_KINDS.items():
        cls = getattr(atlas, name)
        layout = _layout(cls)
        _ENCODERS[cls] = (kind, layout)
        _DECODERS[kind] = (cls, layout)
    return True


def encode(obj: Any) -> Any:
    try:
        kind, layout = _ENCODERS[type(obj)]
    except KeyError:
        # a record of atlas comes from a loaded atlas, so this imports nothing
        if type(obj).__module__ == f"{__package__}.atlas" and _atlas_kinds_added():
            return encode(obj)
        raise TypeError(f"no encoder for {type(obj).__name__}") from None
    out = {"kind": kind}
    for name, wire, to_wire, _ in layout:
        value = getattr(obj, name)
        out[wire] = value if to_wire is None else to_wire(value)
    return out


def decode(data: Any) -> Any:
    try:
        cls, layout = _DECODERS[data["kind"]]
        fields = {name: from_wire(data[wire]) for name, wire, _, from_wire in layout}
    except (KeyError, TypeError):
        # ``in`` on dict values compares and never hashes an unhashable kind
        if (isinstance(data, dict) and data.get("kind") in ATLAS_KINDS.values()
                and _atlas_kinds_added()):
            return decode(data)
        raise TypeError(f"cannot decode {data!r}") from None
    return cls(**fields)
