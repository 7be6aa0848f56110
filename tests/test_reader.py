"""The one reader of JSON input (``errors.reader`` and ``errors.read_fields``):
a value of the wrong type is refused with its field named, for every field of
a dataset row and every field of a codec record, enums and nested records
included; every bundled row reads back equal to itself; and no other module
words a refusal of its own."""

import enum
import json
import re
import typing
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import nlatlas as nl
from nlatlas.dataset import Assoc, TableRow
from nlatlas.errors import read_fields
from nlatlas.serialize import KINDS, decode

SRC = Path(nl.__file__).parent
BUNDLED = json.loads((SRC / "data" / "table_rows.json").read_text())
ROWS = BUNDLED["unirational_rows"] + BUNDLED["rational_rows"]
RECORDS = Path(__file__).parent / "golden" / "records"


def wrong(hint) -> st.SearchStrategy:
    """JSON values that a field declared of type ``hint`` must refuse."""
    args = typing.get_args(hint)
    if type(None) in args:  # null is a value of X | None
        return wrong(args[0])
    if hint is int:
        return st.floats(allow_nan=False) | st.booleans() | st.text(max_size=3)
    if hint is str:
        return st.integers() | st.none() | st.lists(st.text(max_size=3), max_size=2)
    if hint is bool:
        return st.integers() | st.none() | st.text(max_size=3)
    if isinstance(hint, enum.EnumMeta):  # a string that is no member's value
        values = {member.value for member in hint}
        return st.text(max_size=3).filter(lambda v: v not in values) | st.integers() | st.none()
    if typing.get_origin(hint) is tuple:
        # a string for a list, or a list holding a wrong element
        values = st.text(max_size=3) | st.lists(wrong(args[0]), min_size=1, max_size=3)
        if args[-1] is Ellipsis:
            return values
        return values | st.lists(st.integers(), max_size=5).filter(
            lambda value: len(value) != len(args))
    return st.text(max_size=3) | st.integers() | st.lists(st.integers(), max_size=3)


@given(st.data())
def test_a_row_field_of_the_wrong_type_is_refused_by_name(data):
    row = dict(data.draw(st.sampled_from(ROWS)))
    name, hint = data.draw(st.sampled_from(list(typing.get_type_hints(TableRow).items())))
    row[name] = data.draw(wrong(hint))
    where = f"row {row['id']}"
    with pytest.raises(ValueError) as exc:
        read_fields(row, TableRow, where)
    assert str(exc.value).startswith(f"{where}: {name} must be ")


def _codec_fields() -> list[tuple[dict, str, typing.Any]]:
    """(a golden wire record, the name of one of its fields, the field's
    type) for every field of every golden record."""
    fields = []
    for path in sorted(RECORDS.glob("*.json")):
        record = json.loads(path.read_text())
        cls = getattr(nl, KINDS[record["kind"]])
        fields += [(record, name, hint) for name, hint in typing.get_type_hints(cls).items()]
    return fields


CODEC_FIELDS = _codec_fields()


def test_the_golden_records_hold_every_kind():
    assert {record["kind"] for record, _, _ in CODEC_FIELDS} == set(KINDS)


@given(st.data())
def test_a_record_field_of_the_wrong_type_is_refused_by_name(data):
    record, name, hint = data.draw(st.sampled_from(CODEC_FIELDS))
    values = wrong(hint)
    if hasattr(hint, "_fields"):  # or a coded record of another kind
        values |= st.just({"kind": "ci_type", "degrees": [2, 2, 2]})
    bad = dict(record)
    bad[name] = data.draw(values)
    with pytest.raises(TypeError) as exc:
        decode(bad)
    assert str(exc.value) == f"cannot decode {bad!r}"
    # the cause names the field, or the element of an array of arrays
    assert re.match(rf"{re.escape(name)}(\[\d+\])? must be ", str(exc.value.__cause__))


def test_every_bundled_row_reads_back_equal_to_itself(dataset):
    for row in dataset.rows:
        text = json.dumps({name: value._asdict() if isinstance(value, Assoc) else value
                           for name, value in row._asdict().items()})
        assert read_fields(json.loads(text), TableRow, f"row {row.id}") == row


# the wording of a refused JSON value; a module that words one itself holds a
# second reader
REFUSAL = re.compile(r"must be (an integer|a string|a list|true or false)|unknown field")


def test_only_errors_words_a_json_refusal():
    worded = {path.name for path in SRC.glob("*.py") if REFUSAL.search(path.read_text())}
    assert worded == {"errors.py"}
