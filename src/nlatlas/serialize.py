"""JSON-friendly encoding of the record types, with exact round-trips.

A record goes on the wire as ``{"kind": ...}`` followed by its fields in
declaration order, under their own names.  Tuples become arrays, a ``Side``
becomes its value and nested records are encoded the same way; ``decode``
reverses each step, rebuilding the enum from the field's type, and raises
``TypeError`` for a value whose wire type does not match the field's, a
missing field or a key that is no field.  All numbers stay Python integers
end to end.
"""

from __future__ import annotations

import enum
import operator
import sys
import typing
from typing import Any

from .errors import reader

# the codec reads its classes through the package and needs none of these:
# the benchmark's tracer (bench/spans.py) wraps functions of every module it
# traces, and finds them loaded through this line; ROADMAP item 5 lets the
# tracer load them itself and deletes it
from . import dataset, hodge, picard, report  # noqa: F401

# each kind and the public name of its record class, which the package
# imports from its home module on first access: JSON output that holds no
# atlas record never loads atlas
KINDS = {
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


def _field(hint: Any) -> tuple[Any, Any]:
    """(to wire, from wire) for a field of type ``hint``.  To wire is None for
    a scalar, which goes on the wire as it is; from wire takes the wire value
    and its name, and refuses a value of another type naming the field."""
    if isinstance(hint, enum.EnumMeta):
        return operator.attrgetter("value"), reader(hint)
    if hasattr(hint, "_fields"):
        def read(value, what):
            try:
                record = decode(value)
            except (TypeError, ValueError) as exc:  # the cause names the field inside
                raise TypeError(f"{what} must be a {hint.__name__}, got {value!r}") from exc
            if type(record) is not hint:
                raise TypeError(f"{what} must be a {hint.__name__}, got {value!r}")
            return record
        # encode is looked up at each call, so a wrapper bound over it later
        # (the tracer's) sees the nested records too
        return (lambda value: encode(value)), read
    read = reader(hint)
    if typing.get_origin(hint) is not tuple:
        return None, read
    # an array of arrays (HodgeDiamond.entries) writes its rows as arrays too
    write_item = _field(typing.get_args(hint)[0])[0]
    if write_item is None:
        return list, read
    return (lambda value: [write_item(v) for v in value]), read


_ENCODERS: dict[type, tuple[str, tuple]] = {}
_DECODERS: dict[str, tuple[type, tuple]] = {}


def _coder(kind: str) -> tuple[type, tuple]:
    """The class of ``kind`` and its layout, (name, to wire, from wire) per
    field, added to both tables; ``KeyError`` for no kind."""
    cls = getattr(sys.modules[__package__], KINDS[kind])
    layout = tuple((name, *_field(hint)) for name, hint in typing.get_type_hints(cls).items())
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
    for name, to_wire, _ in layout:
        value = getattr(obj, name)
        out[name] = value if to_wire is None else to_wire(value)
    return out


def decode(data: Any) -> Any:
    try:
        kind = data["kind"]
        cls, layout = _DECODERS.get(kind) or _coder(kind)
        if len(data) != len(layout) + 1:
            raise ValueError(f"{kind}: {len(data) - 1} keys for {len(layout)} fields")
        fields = {name: from_wire(data[name], name) for name, _, from_wire in layout}
    except (KeyError, TypeError, ValueError) as exc:
        # the cause names the field that was refused
        raise TypeError(f"cannot decode {data!r}") from exc
    return cls(**fields)
