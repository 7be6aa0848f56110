"""The bundled table dataset: transcription of the printed rows, with the
externally computed h0(N_S/X) values that cannot be recomputed here."""

from __future__ import annotations

import json
import operator
import os
from typing import NamedTuple, get_args, get_type_hints

from .errors import DatasetMissing

DATASET_ENV = "NLATLAS_DATASET"


class TableRow(NamedTuple):
    id: str
    table: int
    surface: str
    matrix: tuple[int, int, int]
    discriminant: int
    codim: int
    h0_IS2: int
    h0_N: int
    h0_NSX: int
    flags: tuple[str, ...] = ()
    surface_desc: str = ""
    congruence_degree: int | None = None
    congruence_secancy: int | None = None
    fourfold: str = ""
    fourfold_index: int | None = None
    u_desc: str = ""
    assoc: tuple[int, int, int] | None = None
    assoc_discriminant: int | None = None


class GapRow(NamedTuple):
    table: int
    discriminant: int


class Dataset(NamedTuple):
    version: int
    unirational_rows: tuple[TableRow, ...]
    gap_rows: tuple[GapRow, ...]
    rational_rows: tuple[TableRow, ...]
    source: str = "bundled"

    @property
    def rows(self) -> tuple[TableRow, ...]:
        return self.unirational_rows + self.rational_rows

    def row(self, key: str) -> TableRow:
        """Look up a row by id, or by surface spec (first match)."""
        for r in self.rows:
            if r.id == key:
                return r
        for r in self.rows:
            if r.surface == key:
                return r
        raise DatasetMissing(f"no table row with id or surface {key!r}")

    def table_rows(self, which: int) -> tuple[TableRow, ...]:
        return tuple(r for r in self.rows if r.table == which)


def _int(value, what: str) -> int:
    """An exact integer: ``operator.index`` refuses floats and strings, which
    ``int()`` would truncate or parse, and JSON booleans are refused too."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{what} must be an integer, got {value!r}")


def _text(value, what: str) -> str:
    if isinstance(value, str):  # a number or null would fail in ``split`` later
        return value
    raise TypeError(f"{what} must be a string, got {value!r}")


def _texts(value, what: str) -> tuple[str, ...]:
    if isinstance(value, list) and all(isinstance(v, str) for v in value):
        return tuple(value)  # checked first: tuple() splits a string into letters
    raise TypeError(f"{what} must be a list of strings, got {value!r}")


def _triple(value, what: str) -> tuple[int, int, int]:
    if isinstance(value, list) and len(value) == 3:  # else unpacking fails unnamed
        return tuple(_int(v, what) for v in value)
    raise TypeError(f"{what} must be a list of three integers, got {value!r}")


def _assoc(value, what: str) -> tuple[int, int, int]:
    if isinstance(value, dict):  # indexing a list would fail without naming the row
        rest = dict(value)
        triple = tuple(_int(rest.pop(k, None), f"{what} {k}") for k in ("deg", "g", "K2"))
        if rest:
            raise ValueError(f"{what}: unknown field {next(iter(rest))!r}")
        return triple
    raise TypeError(f"{what} must be an object, got {value!r}")


# the reader of each declared field type of TableRow; ``int | None`` is an int
_READERS = {int: _int, int | None: _int, str: _text, tuple[str, ...]: _texts,
            tuple[int, int, int]: _triple, tuple[int, int, int] | None: _assoc}

# (name, reader, whether it may be null) of each field: a row may give null
# where the type admits None, and leave out a field that has a default
_FIELDS = tuple((name, _READERS[hint], type(None) in get_args(hint))
                for name, hint in get_type_hints(TableRow).items())


def _row_from_dict(d: dict) -> TableRow:
    rid, values, defaults = d.get("id"), [], TableRow._field_defaults
    rest = dict(d)  # the keys no field has read yet
    for name, reader, nullable in _FIELDS:
        if name not in d and name not in defaults:
            raise ValueError(f"row {rid}: missing field {name!r}")
        value = rest.pop(name, defaults.get(name))
        read = name in d and not (value is None and nullable)
        values.append(reader(value, f"row {rid}: {name}") if read else value)
    if rest:
        # a misspelled optional field would drop its check without a word
        raise ValueError(f"row {rid}: unknown field {next(iter(rest))!r}")
    row = TableRow._make(values)
    m11, m12, m22 = row.matrix
    if m11 * m22 - m12 * m12 != row.discriminant:
        raise ValueError(f"row {rid}: matrix and discriminant disagree")
    if min(row.h0_IS2, row.h0_N, row.h0_NSX) < 0:
        raise ValueError(f"row {rid}: negative count")
    return row


def _objects(data: dict, key: str) -> list[dict]:
    """The list ``data[key]``, whose items must be JSON objects; a string row
    would fail at its first field without naming where it stands."""
    items = data[key]
    if not isinstance(items, list):
        raise TypeError(f"{key} must be a list, got {items!r}")
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise TypeError(f"{key}[{i}] must be an object, got {item!r}")
    return items


def _dataset_from_dict(data: dict, source: str) -> Dataset:
    if not isinstance(data, dict):
        raise DatasetMissing(f"malformed dataset {source}: the dataset must be a JSON "
                             f"object, got {type(data).__name__}")
    try:
        return Dataset(
            version=_int(data["version"], "version"),
            unirational_rows=tuple(map(_row_from_dict, _objects(data, "unirational_rows"))),
            gap_rows=tuple(GapRow(_int(g["table"], "gap row table"),
                                  _int(g["discriminant"], "gap row discriminant"))
                           for g in _objects(data, "gap_rows")),
            rational_rows=tuple(map(_row_from_dict, _objects(data, "rational_rows"))),
            source=source,
        )
    except KeyError as exc:
        raise DatasetMissing(f"malformed dataset {source}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DatasetMissing(f"malformed dataset {source}: {exc}") from exc


def load_dataset(path: str | os.PathLike | None = None) -> Dataset:
    """Load the dataset from ``path``, the environment override, or the
    bundled copy, in that order."""
    chosen = path or os.environ.get(DATASET_ENV)
    if chosen:
        chosen = os.fspath(chosen)
        if not os.path.isfile(chosen):
            raise DatasetMissing(f"dataset file not found: {chosen}")
        try:
            with open(chosen, encoding="utf-8") as f:
                data = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise DatasetMissing(f"cannot read dataset {chosen}: {exc}") from exc
        return _dataset_from_dict(data, source=chosen)
    try:
        # beside this module: importlib.resources and pathlib cost more than it
        with open(os.path.join(os.path.dirname(__file__), "data", "table_rows.json"),
                  encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise DatasetMissing(f"bundled dataset missing: {exc}") from exc
    return _dataset_from_dict(json.loads(text), source="bundled")
