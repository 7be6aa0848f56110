"""The bundled table dataset: transcription of the printed rows, with the
externally computed h0(N_S/X) values that cannot be recomputed here."""

from __future__ import annotations

import json
import operator
import os
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .errors import DatasetMissing

DATASET_ENV = "NLATLAS_DATASET"


@dataclass(frozen=True)
class TableRow:
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


@dataclass(frozen=True)
class GapRow:
    table: int
    discriminant: int


@dataclass(frozen=True)
class Dataset:
    version: int
    unirational_rows: tuple[TableRow, ...]
    gap_rows: tuple[GapRow, ...]
    rational_rows: tuple[TableRow, ...]
    source: str = field(default="bundled")

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


def _row_from_dict(d: dict) -> TableRow:
    rid = d.get("id")

    def num(key: str) -> int:
        return _int(d[key], f"row {rid}: {key}")

    def optional(key: str) -> int | None:
        return None if d.get(key) is None else num(key)

    def text(key: str) -> str:
        # exact text: a number or null here would fail in ``split`` later
        if isinstance(d[key], str):
            return d[key]
        raise TypeError(f"row {rid}: {key} must be a string, got {d[key]!r}")

    def optional_text(key: str) -> str:
        return text(key) if key in d else ""

    # a JSON string is iterable too, and tuple() would split it into letters
    flags = d.get("flags", [])
    if not (isinstance(flags, list) and all(isinstance(f, str) for f in flags)):
        raise TypeError(f"row {rid}: flags must be a list of strings, got {flags!r}")

    assoc = d.get("assoc")
    matrix = tuple(_int(x, f"row {rid}: matrix") for x in d["matrix"])
    m11, m12, m22 = matrix
    disc = num("discriminant")
    if m11 * m22 - m12 * m12 != disc:
        raise ValueError(f"row {rid}: matrix and discriminant disagree")
    h0_is2, h0_n, h0_nsx = num("h0_IS2"), num("h0_N"), num("h0_NSX")
    if min(h0_is2, h0_n, h0_nsx) < 0:
        raise ValueError(f"row {rid}: negative count")
    return TableRow(
        id=text("id"),
        table=num("table"),
        surface=text("surface"),
        matrix=matrix,
        discriminant=disc,
        codim=num("codim"),
        h0_IS2=h0_is2,
        h0_N=h0_n,
        h0_NSX=h0_nsx,
        flags=tuple(flags),
        surface_desc=optional_text("surface_desc"),
        congruence_degree=optional("congruence_degree"),
        congruence_secancy=optional("congruence_secancy"),
        fourfold=optional_text("fourfold"),
        fourfold_index=optional("fourfold_index"),
        u_desc=optional_text("u_desc"),
        assoc=(tuple(_int(assoc[k], f"row {rid}: assoc {k}") for k in ("deg", "g", "K2"))
               if assoc else None),
        assoc_discriminant=optional("assoc_discriminant"),
    )


def _dataset_from_dict(data: dict, source: str) -> Dataset:
    try:
        return Dataset(
            version=_int(data["version"], "version"),
            unirational_rows=tuple(_row_from_dict(r) for r in data["unirational_rows"]),
            gap_rows=tuple(GapRow(_int(g["table"], "gap row table"),
                                  _int(g["discriminant"], "gap row discriminant"))
                           for g in data["gap_rows"]),
            rational_rows=tuple(_row_from_dict(r) for r in data["rational_rows"]),
            source=source,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetMissing(f"malformed dataset {source}: {exc}") from exc


def load_dataset(path: str | os.PathLike | None = None) -> Dataset:
    """Load the dataset from ``path``, the environment override, or the
    bundled copy, in that order."""
    chosen = path or os.environ.get(DATASET_ENV)
    if chosen:
        p = Path(chosen)
        if not p.is_file():
            raise DatasetMissing(f"dataset file not found: {p}")
        try:
            data = json.loads(p.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise DatasetMissing(f"cannot read dataset {p}: {exc}") from exc
        return _dataset_from_dict(data, source=str(p))
    try:
        text = resources.files("nlatlas").joinpath("data/table_rows.json").read_text()
    except (FileNotFoundError, OSError) as exc:
        raise DatasetMissing(f"bundled dataset missing: {exc}") from exc
    return _dataset_from_dict(json.loads(text), source="bundled")
