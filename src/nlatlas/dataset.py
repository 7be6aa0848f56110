"""The bundled table dataset: transcription of the printed rows, with the
externally computed h0(N_S/X) values that cannot be recomputed here."""

from __future__ import annotations

import json
import os
from typing import NamedTuple

from .errors import DatasetMissing, read_fields

DATASET_ENV = "NLATLAS_DATASET"
# beside this module: importlib.resources and pathlib cost more than os.path
_BUNDLED = os.path.join(os.path.dirname(__file__), "data", "table_rows.json")


class Assoc(NamedTuple):
    """The associated surface of a rational row: degree, sectional genus, K^2."""
    deg: int
    g: int
    K2: int


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
    assoc: Assoc | None = None
    assoc_discriminant: int | None = None


class GapRow(NamedTuple):
    table: int
    discriminant: int


class _DatasetFile(NamedTuple):
    """A dataset file; each table row is read apart, to name it by its id."""
    version: int
    unirational_rows: tuple[dict, ...]
    gap_rows: tuple[GapRow, ...]
    rational_rows: tuple[dict, ...]
    description: str = ""


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


def _row_from_dict(d: dict) -> TableRow:
    rid = d.get("id")
    row = read_fields(d, TableRow, f"row {rid}")
    m11, m12, m22 = row.matrix
    if m11 * m22 - m12 * m12 != row.discriminant:
        raise ValueError(f"row {rid}: matrix and discriminant disagree")
    if min(row.h0_IS2, row.h0_N, row.h0_NSX) < 0:
        raise ValueError(f"row {rid}: negative count")
    if row.congruence_degree is not None and row.congruence_degree < 1:
        raise ValueError(f"row {rid}: congruence degree must be >= 1")
    return row


def _dataset_from_dict(data: dict, source: str) -> Dataset:
    if not isinstance(data, dict):
        raise DatasetMissing(f"malformed dataset {source}: the dataset must be a JSON "
                             f"object, got {type(data).__name__}")
    try:
        top = read_fields(data, _DatasetFile, "")
        return Dataset(
            version=top.version,
            unirational_rows=tuple(map(_row_from_dict, top.unirational_rows)),
            gap_rows=top.gap_rows,
            rational_rows=tuple(map(_row_from_dict, top.rational_rows)),
            source=source,
        )
    except ValueError as exc:
        raise DatasetMissing(f"malformed dataset {source}: {exc}") from exc


def load_dataset(path: str | os.PathLike | None = None) -> Dataset:
    """Load the dataset from ``path``, the environment override, or the
    bundled copy, in that order.  An empty ``path`` is refused, while an
    empty environment override counts as unset."""
    if path is not None and not os.fspath(path):
        raise DatasetMissing("dataset path is empty")
    chosen = path or os.environ.get(DATASET_ENV)
    source = os.fspath(chosen) if chosen else "bundled"
    if chosen and not os.path.isfile(source):
        raise DatasetMissing(f"dataset file not found: {source}")
    try:
        with open(source if chosen else _BUNDLED, encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise DatasetMissing(f"cannot read dataset {source}: {exc}") from exc
    return _dataset_from_dict(data, source)
