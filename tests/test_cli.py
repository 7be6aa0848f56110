import atexit
import csv
import functools
import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nlatlas import cli
from nlatlas.cli import main
from nlatlas.dataset import load_dataset
from nlatlas.errors import DatasetMissing
from nlatlas.report import describe, reproduce_tables, table_csv, table_markdown
from nlatlas.serialize import decode, encode
import nlatlas as nl
from test_golden import COMMANDS as GOLDEN_COMMANDS, ERRORS as GOLDEN_ERRORS, FORMATS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_describe_headline(capsys):
    code, out, _ = run(capsys, "describe", "--surface", "5;7,0,1")
    assert code == 0
    assert "discriminant 47" in out


def test_describe_abstract_mode(capsys):
    code, out, _ = run(capsys, "describe", "--surface", "abs:deg=13,g=8,K2=-1,chiO=2")
    assert code == 0
    assert "discriminant 55" in out


def test_describe_malformed_spec_exits_3(capsys):
    code, _, err = run(capsys, "describe", "--surface", "5;7,")
    assert code == 3 and "error" in err
    # well-formed but unembeddable without a projection: same exit code
    code, _, err = run(capsys, "describe", "--surface", "5;7,0")
    assert code == 3


@pytest.mark.parametrize("command", ["invariants", "describe"])
def test_abstract_record_spanning_less_than_p3_exits_3(capsys, command):
    code, out, err = run(capsys, command, "--surface", "abs:deg=9,g=9,K2=1,chiO=1")
    assert code == 3 and out == ""
    assert "h0(H) = 2" in err


@pytest.mark.parametrize("spec,position", [("5;7,-1,1", 4), ("0;1", 0)])
def test_describe_out_of_range_spec_reports_position(capsys, spec, position):
    code, _, err = run(capsys, "describe", "--surface", spec)
    assert code == 3
    assert f"(at position {position} in {spec!r})" in err


def test_selfint_command(capsys):
    code, out, _ = run(capsys, "selfint", "--ci", "3",
                       "--abs", "deg=13,g=12,K2=2,chiO=4")
    assert code == 0
    assert "(S)^2_X = 61" in out and "(6, 3)" in out


def test_selfint_flags_node_rule(capsys):
    code, out, _ = run(capsys, "--format", "json", "selfint",
                       "--ci", "2,2,2", "--surface", "5;6,2 nodes=1")
    assert code == 0
    payload = json.loads(out)
    assert payload["self_intersection"] == 26 and payload["node_rule_used"]


def test_lattice_command_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "lattice",
                       "--ci", "2,2,2", "--surface", "5;7,0,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["discriminant"] == 47
    assert payload["mod16"] == {"residue": 15, "admissible": True}


@pytest.mark.parametrize("ci,disc,residue", [("3", 6, 6), ("2,2", -1, 15)])
def test_mod16_verdict_only_on_222(capsys, ci, disc, residue):
    argv = ["--ci", ci, "--surface", "5;7,0,1"]
    code, out, _ = run(capsys, "lattice", *argv)
    assert code == 0
    assert out.splitlines()[1] == f"discriminant {disc} (residue {residue} mod 16)"
    code, out, _ = run(capsys, "--format", "json", "lattice", *argv)
    assert code == 0
    assert json.loads(out)["mod16"] == {"residue": residue, "admissible": None}
    code, out, _ = run(capsys, "describe", *argv)
    assert code == 0
    second, third = out.splitlines()[1:3]
    assert second.startswith(f"of discriminant {disc} = det ")
    assert "admissible" not in second
    assert third == f"(residue {residue} mod 16)"


@pytest.mark.parametrize("ci", ["3", "2,2"])
def test_describe_counts_parameters_only_for_222(capsys, ci):
    # the counts are taken in the Hilbert scheme of three quadrics in P^7;
    # row t1-10's h0(N_S/X) and its codimension bound belong to (2,2,2)
    code, out, _ = run(capsys, "describe", "--ci", ci, "--surface", "5;7,0,1")
    assert code == 0
    assert out.endswith("\n\nparameter count: computed for type (2,2,2) only\n")
    assert "h0(N_S/P7)" not in out and "t1-10" not in out
    _, out, _ = run(capsys, "describe", "--ci", "2,2,2", "--surface", "5;7,0,1")
    assert "h0(N_S/X) = 2 from dataset row t1-10" in out


def test_invariants_command(capsys):
    code, out, _ = run(capsys, "invariants", "--surface", "3;5,0,0")
    assert code == 0
    assert "degree 4" in out and "K^2 = 4" in out


def test_count_by_table_row(capsys):
    code, out, _ = run(capsys, "count", "--table-row", "t1-01")
    assert code == 0
    assert "codimension bound = 1" in out


def test_count_requires_h0nsx(capsys):
    code, _, err = run(capsys, "count", "--surface", "3;5,0,0")
    assert code == 3


def test_tables_all_match(capsys):
    code, out, _ = run(capsys, "tables")
    assert code == 0
    assert "all rows match" in out


def test_tables_detect_corruption(tmp_path, capsys):
    from importlib import resources
    data = json.loads(
        resources.files("nlatlas").joinpath("data/table_rows.json").read_text()
    )
    data["unirational_rows"][0]["h0_N"] = 99
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run(capsys, "--dataset", str(bad), "tables", "--which", "1")
    assert code == 2
    assert "mismatching" in out
    assert "t1-01" in out and "h0_N" in out


def test_tables_json_is_one_array(tmp_path, capsys):
    code, out, _ = run(capsys, "--format", "json", "tables")
    assert code == 0
    assert json.loads(out) == [{"table": t, "ok": True, "mismatches": []} for t in (1, 2, 3, 4)]
    data = _bundled_rows()
    data["unirational_rows"][0]["h0_N"] = 99
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run(capsys, "--format", "json", "--dataset", str(bad), "tables", "--which", "1")
    assert code == 2
    [table] = json.loads(out)
    assert table["table"] == 1 and not table["ok"]
    assert table["mismatches"][0]["row"] == "t1-01" and "h0_N" in table["mismatches"][0]["diffs"]


def test_reproduce_tables_empty_dataset(tmp_path):
    empty = {"version": 1, "unirational_rows": [], "gap_rows": [],
             "rational_rows": []}
    p = tmp_path / "empty.json"
    p.write_text(json.dumps(empty))
    with pytest.raises(DatasetMissing):
        reproduce_tables(1, load_dataset(p))


def test_dataset_rejects_inconsistent_matrix(tmp_path):
    from importlib import resources
    data = json.loads(
        resources.files("nlatlas").joinpath("data/table_rows.json").read_text()
    )
    data["unirational_rows"][0]["discriminant"] = 17  # det of [[8,4],[4,4]] is 16
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(DatasetMissing):
        load_dataset(bad)


def _bundled_rows() -> dict:
    from importlib import resources
    return json.loads(resources.files("nlatlas").joinpath("data/table_rows.json").read_text())


@pytest.mark.parametrize("row_id,key,value", [
    ("t1-01", "h0_NSX", 3.9),
    ("t1-01", "h0_NSX", 3.0),
    ("t1-01", "h0_NSX", "3"),
    ("t1-01", "codim", True),
    ("t1-01", "table", 1.0),
    ("t1-01", "discriminant", 16.0),
    ("t1-01", "matrix", [8.0, 4, 4]),
    ("t1-01", "matrix", [8, 4, False]),
    ("t3-1", "congruence_degree", 1.0),
    ("t3-1", "congruence_secancy", True),
    ("t3-1", "fourfold_index", 5.0),
    ("t3-1", "assoc", {"deg": 9, "g": 9.0, "K2": 2}),
    ("t3-1", "assoc", {"deg": "9", "g": 9, "K2": 2}),
    ("t3-1", "assoc_discriminant", 31.5),
    ("t3-1", "assoc", [9, 9, 2]),
    ("t3-1", "assoc", {"deg": 9, "K2": 2}),
    ("t1-01", "matrix", [8, 4]),
    ("t1-01", "matrix", 8),
    # a falsy assoc is no object either, not "no associated surface"
    ("t3-1", "assoc", 0),
    ("t3-1", "assoc", False),
    ("t3-1", "assoc", ""),
    ("t3-1", "assoc", []),
    ("t3-1", "assoc", {}),
])
def test_dataset_takes_only_exact_integers(tmp_path, capsys, row_id, key, value):
    data = _bundled_rows()
    row = next(r for r in data["unirational_rows"] + data["rational_rows"]
               if r["id"] == row_id)
    row[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(DatasetMissing, match=f"malformed dataset .*row {row_id}: {key}"):
        load_dataset(bad)
    for argv in (["tables", "--which", "1"], ["count", "--table-row", row_id]):
        code, out, err = run(capsys, "--dataset", str(bad), *argv)
        assert (code, out) == (3, "")
        assert err.startswith("error: malformed dataset")


@pytest.mark.parametrize("edit", [
    lambda data: data.update(version=1.0),
    lambda data: data["gap_rows"][0].update(discriminant=23.0),
    lambda data: data["gap_rows"][0].update(table=True),
])
def test_dataset_header_and_gap_rows_take_only_exact_integers(tmp_path, edit):
    data = _bundled_rows()
    edit(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(DatasetMissing, match="malformed dataset"):
        load_dataset(bad)


@pytest.mark.parametrize("row_id,key,value,message", [
    pytest.param("t1-01", "surface", 5, "row t1-01: surface must be a string, got 5",
                 id="surface-number"),
    pytest.param("t1-01", "surface", None, "row t1-01: surface must be a string, got None",
                 id="surface-null"),
    pytest.param("t1-01", "id", 7, "row 7: id must be a string, got 7", id="id-number"),
    pytest.param("t3-1", "surface_desc", 3, "row t3-1: surface_desc must be a string, got 3",
                 id="surface_desc-number"),
    pytest.param("t3-1", "fourfold", None, "row t3-1: fourfold must be a string, got None",
                 id="fourfold-null"),
    pytest.param("t3-1", "u_desc", ["x"], "row t3-1: u_desc must be a string, got ['x']",
                 id="u_desc-list"),
    pytest.param("t1-01", "flags", "odd-degree",
                 "row t1-01: flags must be a list of strings, got 'odd-degree'",
                 id="flags-string"),
    pytest.param("t1-01", "flags", [1], "row t1-01: flags must be a list of strings, got [1]",
                 id="flags-number-item"),
])
def test_dataset_takes_only_text_in_text_fields(tmp_path, capsys, row_id, key, value, message):
    data = _bundled_rows()
    row = next(r for r in data["unirational_rows"] + data["rational_rows"]
               if r["id"] == row_id)
    row[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(DatasetMissing) as exc:
        load_dataset(bad)
    assert str(exc.value) == f"malformed dataset {bad}: {message}"
    for argv in (["tables"], ["describe", "--surface", "5;7,0,1"],
                 ["count", "--table-row", "t1-02"]):
        code, out, err = run(capsys, "--dataset", str(bad), *argv)
        assert (code, out) == (3, ""), argv
        assert err.startswith("error: malformed dataset") and len(err.splitlines()) == 1


@pytest.mark.parametrize("key,index,value", [
    ("unirational_rows", 0, "t1-01"),
    ("rational_rows", 6, None),
    ("gap_rows", 1, [2, 95]),
])
def test_dataset_refuses_rows_that_are_not_objects(tmp_path, capsys, key, index, value):
    data = _bundled_rows()
    data[key][index] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    message = f"malformed dataset {bad}: {key}[{index}] must be an object, got {value!r}"
    with pytest.raises(DatasetMissing) as exc:
        load_dataset(bad)
    assert str(exc.value) == message
    for argv in (["tables"], ["describe", "--surface", "5;7,0,1"]):
        assert run(capsys, "--dataset", str(bad), *argv) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize("edit,message", [
    pytest.param(lambda data: data["unirational_rows"][0].pop("codim"),
                 "row t1-01: missing field 'codim'", id="row-codim"),
    pytest.param(lambda data: data["rational_rows"][0].pop("matrix"),
                 "row t3-1: missing field 'matrix'", id="row-matrix"),
    pytest.param(lambda data: data.pop("version"), "missing field 'version'",
                 id="version"),
    pytest.param(lambda data: data["gap_rows"][0].pop("discriminant"),
                 "gap_rows[0]: missing field 'discriminant'", id="gap-row-discriminant"),
])
def test_dataset_names_a_missing_field(tmp_path, capsys, edit, message):
    data = _bundled_rows()
    edit(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    message = f"malformed dataset {bad}: {message}"
    with pytest.raises(DatasetMissing) as exc:
        load_dataset(bad)
    assert str(exc.value) == message
    assert run(capsys, "--dataset", str(bad), "tables") == (3, "", f"error: {message}\n")


@pytest.mark.parametrize("row_id,key,value,message", [
    pytest.param("t1-01", "h0_N", -1, "malformed dataset {bad}: row t1-01: negative count",
                 id="negative-count"),
    pytest.param("t3-1", "congruence_degree", 0,
                 "malformed dataset {bad}: row t3-1: congruence degree must be >= 1",
                 id="congruence-degree-zero"),
])
def test_dataset_row_of_impossible_numbers_exits_3(tmp_path, capsys, row_id, key, value, message):
    data = _bundled_rows()
    row = next(r for r in data["unirational_rows"] + data["rational_rows"]
               if r["id"] == row_id)
    row[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    error = f"error: {message.format(bad=bad)}\n"
    # refused at load, so by every command that reads the dataset
    assert run(capsys, "--dataset", str(bad), "tables") == (3, "", error)
    assert run(capsys, "--dataset", str(bad), "describe", "--surface", "3;5") == (3, "", error)


def _misspell_congruence_degree(data):
    row = next(r for r in data["rational_rows"] if r["id"] == "t3-1")
    row["congruence_degre"] = row.pop("congruence_degree")
    row["congruence_secancy"] = 999


@pytest.mark.parametrize("edit,message", [
    # the secancy check runs only with a congruence degree, so the misspelled
    # field gave "all rows match"
    pytest.param(_misspell_congruence_degree, "row t3-1: unknown field 'congruence_degre'",
                 id="row-misspelled"),
    pytest.param(lambda data: data["unirational_rows"][0].update(note="x"),
                 "row t1-01: unknown field 'note'", id="row-extra"),
    pytest.param(lambda data: data["rational_rows"][0]["assoc"].update(genus=9),
                 "row t3-1: assoc: unknown field 'genus'", id="assoc-extra"),
    pytest.param(lambda data: data["gap_rows"][0].update(tabel=3),
                 "gap_rows[0]: unknown field 'tabel'", id="gap-row-extra"),
    pytest.param(lambda data: data.update(descripton=data.pop("description")),
                 "unknown field 'descripton'", id="top-level-misspelled"),
])
def test_dataset_refuses_an_unknown_field(tmp_path, capsys, edit, message):
    data = _bundled_rows()
    edit(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    message = f"malformed dataset {bad}: {message}"
    with pytest.raises(DatasetMissing) as exc:
        load_dataset(bad)
    assert str(exc.value) == message
    assert run(capsys, "--dataset", str(bad), "tables", "--which", "3") == (
        3, "", f"error: {message}\n")


@pytest.mark.parametrize("top,kind", [([1, 2], "list"), ("rows", "str"), (None, "NoneType")])
def test_dataset_must_be_an_object(tmp_path, capsys, top, kind):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(top))
    message = f"malformed dataset {bad}: the dataset must be a JSON object, got {kind}"
    with pytest.raises(DatasetMissing) as exc:
        load_dataset(bad)
    assert str(exc.value) == message
    for argv in (["tables"], ["describe", "--surface", "5;7,0,1"]):
        assert run(capsys, "--dataset", str(bad), *argv) == (3, "", f"error: {message}\n")


def test_missing_dataset_exits_3(capsys):
    code, _, err = run(capsys, "--dataset", "/nonexistent/rows.json", "tables")
    assert code == 3


def test_unreadable_bundled_dataset_is_refused_as_a_named_one(monkeypatch, capsys):
    # one reader for both: a broken install gets the named file's message
    import nlatlas.dataset
    monkeypatch.setattr(nlatlas.dataset, "_BUNDLED", "/nonexistent/rows.json")
    code, out, err = run(capsys, "tables")
    assert (code, out) == (3, "")
    assert err.startswith("error: cannot read dataset bundled: [Errno 2] ")


def test_describe_with_unloadable_named_dataset_exits_3(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    for path in ("/nonexistent/rows.json", str(bad)):
        code, out, err = run(capsys, "--dataset", path, "describe", "--surface", "5;7,0,1")
        assert (code, out) == (3, ""), path
        assert err.startswith("error: ") and len(err.splitlines()) == 1, path
        monkeypatch.setenv("NLATLAS_DATASET", path)
        code, out, err = run(capsys, "describe", "--surface", "5;7,0,1")
        assert (code, out) == (3, ""), path
        monkeypatch.delenv("NLATLAS_DATASET")
    # nothing named: the bundled dataset, whose row t1-10 is this surface
    code, out, _ = run(capsys, "describe", "--surface", "5;7,0,1")
    assert code == 0 and "t1-10" in out


def test_describe_loads_the_dataset_only_for_222(capsys, monkeypatch):
    # the other types print no parameter count, so a missing dataset file
    # does not stop them; (2,2,2) still reads it
    argv = ("describe", "--surface", "5;7,0,1")
    for ci in ("3", "2,2"):
        bundled = run(capsys, *argv, "--ci", ci)
        assert run(capsys, "--dataset", "/nonexistent.json", *argv, "--ci", ci) == bundled
        assert bundled[0] == 0 and bundled[1]
    code, out, err = run(capsys, "--dataset", "/nonexistent.json", *argv, "--ci", "2,2,2")
    assert (code, out) == (3, "") and "dataset file not found" in err
    # count reads the dataset only for --table-row, by flag or by environment
    golden = (Path(__file__).parent / "golden" / "cli" / "count-h0nsx.text").read_text()
    assert golden.startswith("exit 0\n")
    monkeypatch.setenv("NLATLAS_DATASET", "/nonexistent.json")
    for flag in (("--dataset", "/nonexistent.json"), ()):
        code, out, err = run(capsys, *flag, *GOLDEN_COMMANDS["count-h0nsx"])
        assert (code, out, err) == (0, golden.removeprefix("exit 0\n"), "")
        code, out, err = run(capsys, *flag, "count", "--table-row", "t1-01")
        assert (code, out) == (3, "") and "dataset file not found" in err


@pytest.mark.parametrize("which,position", [
    ("1,x", 2), ("x", 0), ("1,,2", 2), ("1, 2,+3", 5), ("\uff11", 0), ("1,2\u0663", 2),
    ("1,5", 2),
])
def test_tables_which_reports_position(capsys, which, position):
    code, out, err = run(capsys, "tables", "--which", which)
    assert (code, out) == (3, "")
    assert f"(at position {position} in {which!r})" in err


@pytest.mark.parametrize("argv,flags", [
    pytest.param(["lattice", "--surface", "5;7,0,1", "--abs", "deg=13,g=12,K2=2,chiO=4"],
                 "--surface and --abs", id="lattice"),
    pytest.param(["count", "--table-row", "t1-01", "--surface", "5;7,0,1"],
                 "--table-row and --surface", id="count"),
])
def test_surface_named_twice_exits_3(capsys, argv, flags):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == f"error: give only one of {flags}\n"


@pytest.mark.parametrize("argv,flags", [
    pytest.param(["count", "--table-row", "t1-01", "--h0nsx", "5"],
                 "--table-row and --h0nsx", id="count"),
    pytest.param(["count", "--table-row", "t1-01", "--h0nsx", "0"],
                 "--table-row and --h0nsx", id="count-zero"),
    pytest.param(["search", "--det", "47", "--gaps"], "--det and --gaps", id="search"),
])
def test_conflicting_flags_exit_3(capsys, argv, flags):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == f"error: give only one of {flags}\n"


def test_surface_named_by_no_option_exits_3(capsys):
    assert run(capsys, "lattice") == (3, "", "error: need --surface or --abs\n")


def test_tables_which_allows_spaces(capsys):
    code, out, _ = run(capsys, "tables", "--which", " 2 , 3")
    assert code == 0
    assert out.startswith("table 2: 13 rows") and "table 3: 4 rows" in out


def test_ledger_command(tmp_path, capsys):
    diagram = tmp_path / "diagram.json"
    diagram.write_text(json.dumps({
        "left": {"fourfold": "X222", "center": "5;7,0,1"},
        "right": {"fourfold": "ci22", "center": "unknown"},
        "flop_bridge": True,
    }))
    code, out, _ = run(capsys, "ledger", "--diagram", str(diagram))
    assert code == 0
    assert "K^2 = 1" in out and "non-minimal" in out and "K^2 = 2" in out


# rows t3-4 and t4-3 solve to K^2 < 0 with p_g = 3 over P4
@pytest.mark.parametrize("center,K2,blow_downs", [("5;10,1", -9, 11), ("7;1,9", -8, 10)],
                         ids=["t3-4", "t4-3"])
def test_ledger_flags_negative_K2(tmp_path, capsys, center, K2, blow_downs):
    diagram = tmp_path / "diagram.json"
    diagram.write_text(json.dumps({"left": {"fourfold": "X222", "center": center},
                                   "right": {"fourfold": "P4", "center": "unknown"}}))
    code, out, _ = run(capsys, "ledger", "--diagram", str(diagram))
    assert code == 0 and "p_g = 3, q = 0" in out and f"K^2 = {K2}\n" in out
    assert (f"non-minimal: {blow_downs} blow-down(s) reach the minimal model "
            "with K^2 = 2") in out


def test_ledger_without_a_minimal_model_count(tmp_path, capsys, monkeypatch):
    import nlatlas.hodge
    classify = nlatlas.hodge.classify
    monkeypatch.setattr(nlatlas.hodge, "classify", lambda pg, q, K2: classify(1, 0, -2))
    diagram = tmp_path / "diagram.json"
    diagram.write_text(json.dumps({"left": {"fourfold": "X222", "center": "5;7,0,1"},
                                   "right": {"fourfold": "ci22", "center": "unknown"}}))
    code, out, _ = run(capsys, "ledger", "--diagram", str(diagram))
    assert code == 0
    assert out.endswith("non-minimal: K^2 < 0 with p_g >= 1; the minimal model is "
                        "not determined\n")


@pytest.mark.parametrize("data", [
    {},
    [],
    {"left": {"fourfold": "X222"}, "right": {"fourfold": "ci22", "center": "unknown"}},
    {"left": {"fourfold": "X222", "center": [1, 2]},
     "right": {"fourfold": "ci22", "center": "unknown"}},
    {"left": {"fourfold": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "center": "plane"},
     "right": {"fourfold": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "center": "unknown"}},
    *({"left": {"fourfold": "X222", "center": "5;7,0,1"},
       "right": {"fourfold": "ci22", "center": "unknown"},
       "flop_bridge": bridge} for bridge in ("false", "no", 0, None)),
    # a misspelled key was ignored: the first solved with the bridge on
    {"left": {"fourfold": "X222", "center": "5;7,0,1"},
     "right": {"fourfold": "ci22", "center": "unknown"}, "flop_brige": False},
    {"left": {"fourfold": "X222", "center": "5;7,0,1", "centre": "plane"},
     "right": {"fourfold": "ci22", "center": "unknown"}},
], ids=["empty-object", "list", "left-without-center", "flat-table", "surface-fourfolds",
        "bridge-string-false", "bridge-string-no", "bridge-zero", "bridge-null",
        "bridge-misspelled", "side-centre"])
def test_ledger_malformed_diagram_exits_3(tmp_path, capsys, data):
    diagram = tmp_path / "diagram.json"
    diagram.write_text(json.dumps(data))
    code, out, err = run(capsys, "ledger", "--diagram", str(diagram))
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    if "flop_bridge" in data:
        assert "'flop_bridge'" in err
    if data and isinstance(data["left"]["fourfold"], list):
        assert "diagram: left: fourfold: need dimension 4" in err
    for key in ("flop_brige", "centre"):
        if f'"{key}"' in diagram.read_text():
            assert f"unknown field '{key}'" in err


@pytest.mark.parametrize("side,part,table,message", [
    ("left", "center", [[1, 0], [0]], "need a 2x2 table for dimension 1"),
    ("left", "center", [], "dimension must be 0, 1, 2 or 4, got -1"),
    ("left", "center", [[1, 0, 1], [0, 20, 0], [2, 0, 1]], "conjugation symmetry fails at (0,2)"),
    ("right", "fourfold", [[1, 0, 0], [0, 1, 0], [0, 0, 2]], "Serre symmetry fails at (0,0)"),
    # every other refused value names its place too
    ("right", "fourfold", "nope",
     "no preset 'nope'; available: ['K3', 'P4', 'X222', 'ci22', 'cubic4', 'plane']"),
    ("left", "fourfold", 3, "cannot interpret 3"),
    ("right", "center", 2.5, "cannot interpret 2.5"),
    ("left", "center", "5;x", "expected an integer, got 'x' (at position 2 in '5;x')"),
    ("right", "center", "1;5", "H^2 = -4 < 1: not an embedding class"),
    ("left", "center", "3;5 ext-proj", "external projection needs a linearly normal "
                                      "surface spanning P^8, got h0(H) = 5, "
                                      "linearly_normal = True (at position 4 in '3;5 ext-proj')"),
    ("left", "center", "3;1 nodes=1 ext-proj", "external projection requires a smooth image "
                                              "(at position 12 in '3;1 nodes=1 ext-proj')"),
    ("left", "center", "abs:deg=5,g=0,K2=20,chiO=1", "Hodge numbers must be >= 0"),
    ("left", "fourfold", [[1]], "need dimension 4, got a diamond of dimension 0"),
], ids=["ragged", "empty", "asymmetric", "fourfold-serre", "unknown-preset",
        "number-fourfold", "number-center", "center-parse", "center-h2", "center-projection",
        "center-nodal-projection", "center-diamond", "fourfold-dimension"])
def test_ledger_table_that_is_no_diamond_names_its_place(tmp_path, capsys, side, part, table,
                                                        message):
    data = {"left": {"fourfold": "X222", "center": "5;7,0,1"},
            "right": {"fourfold": "ci22", "center": "unknown"}}
    data[side][part] = table
    diagram = tmp_path / "diagram.json"
    diagram.write_text(json.dumps(data))
    assert run(capsys, "ledger", "--diagram", str(diagram)) == (
        3, "", f"error: diagram: {side}: {part}: {message}\n")


@pytest.mark.parametrize("fourfold,center,right,message", [
    # each part a diamond, yet no surface solves the diagram
    ([[1, 1, 0, 0, 0], [1, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 1], [0, 0, 0, 1, 1]],
     "5;7,0,1", "ci22", "fourfold diamonds disagree at boundary entry (0,1)"),
    ([[1, 0, 0, 0, 0], [0, 2, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 2, 0], [0, 0, 0, 0, 1]],
     "plane", "P4", "solved table is not a surface diamond: h^{0,0} must be 1"),
], ids=["boundary", "not-a-surface"])
def test_ledger_unsolvable_diagram_exits_3(tmp_path, capsys, fourfold, center, right, message):
    diagram = tmp_path / "diagram.json"
    diagram.write_text(json.dumps({"left": {"fourfold": fourfold, "center": center},
                                   "right": {"fourfold": right, "center": "unknown"}}))
    assert run(capsys, "ledger", "--diagram", str(diagram)) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize("center,message", [
    ("5;7,0,1", "without the flop bridge the two flopped surfaces do not cancel; "
                "supply their diamonds by solving the blow-ups directly"),
    # the sides are read first, as when solve_diagram refused the bridge
    ("5;x", "diagram: left: center: expected an integer, got 'x' (at position 2 in '5;x')"),
], ids=["refused", "bad-center-first"])
def test_ledger_without_the_flop_bridge_exits_3(tmp_path, capsys, center, message):
    diagram = tmp_path / "diagram.json"
    diagram.write_text(json.dumps({"left": {"fourfold": "X222", "center": center},
                                   "right": {"fourfold": "ci22", "center": "unknown"},
                                   "flop_bridge": False}))
    assert run(capsys, "ledger", "--diagram", str(diagram)) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize("content", [b"{nope", b'{"left": "\xff"}'], ids=["json", "utf-8"])
def test_ledger_unreadable_diagram_names_the_file(tmp_path, capsys, content):
    diagram = tmp_path / "diagram.json"
    diagram.write_bytes(content)
    code, out, err = run(capsys, "ledger", "--diagram", str(diagram))
    assert (code, out) == (3, "")
    assert err.startswith(f"error: cannot read diagram {diagram}: ") and err.count("\n") == 1


@pytest.mark.parametrize("content", [b"{nope", b'{"description": "\xff"}'], ids=["json", "utf-8"])
def test_unreadable_dataset_names_the_file(tmp_path, monkeypatch, capsys, content):
    dataset = tmp_path / "rows.json"
    dataset.write_bytes(content)
    code, out, err = run(capsys, "--dataset", str(dataset), "tables")
    assert (code, out) == (3, "")
    assert err.startswith(f"error: cannot read dataset {dataset}: ") and err.count("\n") == 1
    monkeypatch.setenv("NLATLAS_DATASET", str(dataset))
    assert run(capsys, "describe", "--surface", "5;7,0,1") == (code, out, err)


def test_empty_dataset_path_is_refused_and_empty_env_is_unset(monkeypatch, capsys):
    # an empty --dataset used to read the bundled tables
    monkeypatch.delenv("NLATLAS_DATASET", raising=False)
    for command in (["tables"], ["describe", "--surface", "5;7,0,1"]):
        assert run(capsys, "--dataset", "", *command) == (
            3, "", "error: dataset path is empty\n"), command
    monkeypatch.setenv("NLATLAS_DATASET", "")
    assert load_dataset().source == "bundled"
    code, out, _ = run(capsys, "tables")
    assert code == 0 and out


def test_usage_errors_exit_3_and_help_exits_0(capsys):
    # exit 2 means a table mismatch, so argparse's own usage exit is not used
    for argv in (["search", "--max-a", "x"], ["search", "--workers", "2"],
                 ["bogus"], ["describe"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err.startswith("usage: nlatlas") and "error:" in err, argv
    code, out, _ = run(capsys, "--help")
    assert code == 0 and out.startswith("usage: nlatlas")


def test_an_option_of_several_commands_has_one_default():
    # describe --ci "" read as (2,2,2) while lattice --ci "" was refused
    defaults = {}
    for _, _, options in cli.COMMANDS.values():
        for flag, kw in options.items():
            defaults.setdefault(flag, set()).add(kw.get("default"))
    assert {flag: values for flag, values in defaults.items() if len(values) > 1} == {}


@pytest.mark.parametrize("command", ["lattice", "selfint", "describe"])
def test_empty_ci_is_refused_with_its_position(capsys, command):
    assert run(capsys, command, "--ci", "", "--surface", "5;7,0,1") == (
        3, "", "error: expected an integer, got '' (at position 0 in '')\n")


@pytest.mark.parametrize("command", ["lattice", "selfint", "count"])
def test_every_abs_option_has_its_help(capsys, command):
    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    line = next(line for line in out.splitlines() if line.startswith("  --abs ABS"))
    assert line.split(None, 2)[2] == "abstract invariants 'deg=..,g=..,K2=..,chiO=..'"


# the sixteen commands of one cli-session pass, in the shapes of
# bench/inputs.py::cli_script
SESSION = [
    ["describe", "--surface", "5;6,2 nodes=1"],
    ["describe", "--surface", "abs:deg=14,g=8,K2=0,chiO=2 int-proj"],
    ["describe", "--surface", "4;5,1,0"],
    ["tables"],
    ["--format", "md", "tables"],
    ["search", "--det", "47"],
    ["search", "--gaps"],
    ["ledger", "--diagram", "out/diagram.json"],
    *(["--format", fmt, *argv] for fmt in ("text", "json") for argv in (
        ["invariants", "--surface", "5;10,1"],
        ["lattice", "--surface", "7;4,8,0"],
        ["selfint", "--ci", "2,2", "--surface", "2;0,0,0"],
        ["count", "--table-row", "t1-14"])),
]
WELL_FORMED = [["--format", fmt, *argv]
               for argv in (*GOLDEN_COMMANDS.values(), *GOLDEN_ERRORS.values())
               for fmt in FORMATS] + SESSION + [
    ["search", "--max-a", "4", "--max-a", "5"],        # the last one counts
    ["describe", "--surface", ""],
    ["describe", "--surface", "tables"],
    ["--dataset", "tables", "tables"],
    ["search", "--up-to", " 1_0"],                      # whatever int() reads
]
# argparse reads some of these and refuses the rest; the fast path may leave
# any of them to it, but must not read one differently
EDGE = [
    ["search", "--max-p", "10"],
    ["--form", "json", "tables"],
    ["--format=json", "tables"],
    ["count", "--h0nsx", "-1", "--surface", "5;7,0,1"],
    ["-h"], ["--help"], *([name, "-h"] for name in cli.COMMANDS),
    ["--", "tables"], ["tables", "--"],
    ["tables", "--format", "json"],
    ["search", "--gaps", "x"],
    ["describe", "--surface", "--ci", "3"],
    ["lattice", "--surface", "-h"],
    ["search", "--det"],
    ["describe"], ["ledger"], ["describe", "--ci", "3"], ["--format", "json"], [],
    ["--format", "xml", "tables"], ["--format", "tables"],
    ["search", "--max-a", "x"], ["search", "--max-a", "2.5"],
    ["bogus"], ["tables", "tables"], ["--surface", "5;7,0,1", "invariants"],
]


def argparse_reading(argv: list[str]) -> dict | None:
    """argparse's namespace of ``argv`` as a dict, or None where it exits."""
    try:
        return vars(cli.build_parser().parse_args(argv))
    except SystemExit:
        return None


def test_fast_parse_reads_argv_as_argparse_does():
    for argv in WELL_FORMED + EDGE:
        fast = cli._parse_fast(argv)
        assert fast is None or vars(fast) == argparse_reading(argv), argv
        assert fast is not None or argv not in WELL_FORMED, argv


def test_search_det_filter(capsys):
    code, out, _ = run(capsys, "search", "--max-a", "3", "--det", "16")
    assert code == 0
    assert "S(3;5,0,0)" in out


def test_search_gaps_text(capsys):
    code, out, _ = run(capsys, "search", "--gaps", "--up-to", "110")
    assert code == 0
    assert "23, 95, 108" in out and "a <= 8" in out


def test_every_search_bound_is_a_search_option(capsys):
    # a SearchBounds field no option sets is a setting only the library has
    values = dict(zip(nl.SearchBounds._fields, (3, 5, 2, 4, 6), strict=True))
    argv = [arg for name, value in values.items()
            for arg in (f"--{name.lower().replace('_', '-')}", str(value))]
    assert set(argv[::2]) <= set(cli.COMMANDS["search"][2])
    code, out, _ = run(capsys, "--format", "json", "search", "--gaps", *argv)
    assert code == 0
    assert decode(json.loads(out)["bounds"]) == nl.SearchBounds(**values)


def test_search_csv(capsys):
    code, out, _ = run(capsys, "--format", "csv", "search", "--max-a", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("surface,")
    assert lines[1].startswith('"1;0,0,0",8,1,4,31')


@pytest.mark.parametrize("argv,header", [
    pytest.param(["search", "--max-a", "6", "--max-points", "10"], "surface,m11",
                 id="search-small"),
    pytest.param(["search", "--det", "47"], "surface,m11", id="search-det"),
    pytest.param(["tables"], "id,surface", id="tables"),
    pytest.param(["tables", "--which", "3,1"], "id,surface", id="tables-3-1"),
])
def test_csv_rows_have_as_many_fields_as_the_header(capsys, argv, header):
    code, out, _ = run(capsys, "--format", "csv", *argv)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:2] == header.split(",") and len(rows) > 2
    assert rows.count(rows[0]) == 1
    assert all(len(row) == len(rows[0]) for row in rows)
    # each spec is one whole field
    column = rows[0].index("surface")
    for row in rows[1:]:
        nl.parse_surface_spec(row[column])


def test_search_markdown(capsys):
    code, out, _ = run(capsys, "--format", "md", "search", "--max-a", "1")
    assert code == 0
    assert "| S(1;0,0,0) |" in out and "(31)" in out


def test_search_into_closed_pipe_exits_cleanly():
    # ``nlatlas search ... | head -1``: the reader closes the pipe after one
    # line, and the rest of the ~100 kB listing cannot fit in the pipe buffer
    src = str(Path(nl.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    argv = [sys.executable, "-m", "nlatlas.cli", "search", "--max-a", "10",
            "--max-points", "16", "--max-mult", "4"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert first.startswith(b"bounds: a <= 10")
    assert (code, err) == (0, b"")


@pytest.fixture
def registered(monkeypatch):
    """What ``main`` hands to ``atexit.register``, registering nothing for
    real, with the once-per-process guard started afresh."""
    calls = []
    monkeypatch.setattr(atexit, "register", calls.append)
    monkeypatch.setattr(cli, "_freeze_heap_at_exit",
                        functools.cache(cli._freeze_heap_at_exit.__wrapped__))
    return calls


def test_main_with_argv_registers_no_exit_hook(registered, capsys):
    # an in-process caller keeps its cyclic garbage collected at exit
    code, out, _ = run(capsys, "invariants", "--surface", "5;7,0,1")
    assert code == 0 and "degree 9," in out
    assert registered == []


def test_process_entry_freezes_the_heap_at_exit_once(registered, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["nlatlas", "invariants", "--surface", "5;7,0,1"])
    assert main() == 0
    assert main() == 0
    assert registered == [gc.freeze]
    assert capsys.readouterr().out.count("degree 9,") == 2


def test_importing_the_cli_registers_no_exit_hook(fresh_env):
    script = ("import atexit, gc\ncalls = []\natexit.register = calls.append\n"
              "import nlatlas, nlatlas.cli\nnlatlas.load_dataset()\n"
              "print(gc.freeze in calls)")
    proc = subprocess.run([sys.executable, "-c", script], env=fresh_env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"


def test_dataset_env_override(tmp_path, monkeypatch, capsys):
    from importlib import resources
    text = resources.files("nlatlas").joinpath("data/table_rows.json").read_text()
    copy = tmp_path / "rows.json"
    copy.write_text(text)
    monkeypatch.setenv("NLATLAS_DATASET", str(copy))
    assert load_dataset().source == str(copy)
    monkeypatch.setenv("NLATLAS_DATASET", str(tmp_path / "missing.json"))
    code, _, err = run(capsys, "tables")
    assert code == 3


def test_json_round_trip_all_record_types():
    s = nl.parse_surface_spec("5;6,2 nodes=1")
    bounds = nl.SearchBounds(max_a=2, max_points=3)
    atlas = nl.enumerate_atlas(bounds)
    values = [
        nl.PlaneModel(5, (7, 0, 1)),
        s,
        nl.CI222,
        nl.fourfold_lattice(nl.CI222, s),
        nl.surface_matrix(13, 12, 2),
        nl.preset("X222"),
        nl.codimension_bound(s, 0),
        nl.SearchBounds(),
        atlas[0],
        nl.gap_report(atlas, 110, bounds),
    ]
    for value in values:
        blob = json.dumps(encode(value))
        assert decode(json.loads(blob)) == value


def test_markdown_emitter_column_order():
    dataset = load_dataset()
    rep = reproduce_tables(1, dataset)
    md = table_markdown(rep)
    header = md.splitlines()[0]
    cols = [c.strip() for c in header.strip("|").split("|")]
    assert cols[0].startswith("surface")
    assert cols[1].startswith("matrix")
    assert cols[2].startswith("codim")
    assert "h0" in cols[3]
    assert "| S(3;5,0,0) |" in md


def test_csv_emitter():
    dataset = load_dataset()
    rep = reproduce_tables(3, dataset)
    csv = table_csv(rep)
    assert csv.splitlines()[0].startswith("id,surface,m11")
    assert any(line.endswith(",1") for line in csv.splitlines()[1:])


def test_describe_without_dataset_row_shows_window():
    text = describe("6;0,7,0", nl.CI222, None)
    assert "window" in text
    assert "discriminant 64" in text


@pytest.mark.parametrize("spec,standard", [
    ("5;2,4", "S(4;5,1)"),
    ("6;4,1,3", "S(1;)"),       # three quadratic transformations to the plane
    (" 2;3 ", "S(1;)"),
    ("5;2,4 int-proj", "S(4;5,1)"),
    ("3;5,0,0,0", None),        # standard: the reduction only drops its zeros
    ("5;7,0,1", None),
    ("abs:deg=13,g=8,K2=-1,chiO=2", None),
])
def test_describe_names_the_standard_model(spec, standard):
    named = [line for line in describe(spec, nl.CI222, None).splitlines()
             if "standard" in line]
    assert named == ([f"  Cremona-standard model {standard}, the same surface"]
                     if standard else [])


@pytest.mark.parametrize("spec,row_id", [
    ("3;5,0,0", "t1-01"),
    (" 3;5,0,0", "t1-01"),
    ("03;5,0,0", "t1-01"),
    ("3;05,0,0 ", "t1-01"),
    ("abs:deg=14,g=8,K2=0,chiO=2  int-proj", "t3-3"),
    # the same numbers under another label stay unmatched
    ("3;5,0,0,0", None),
    ("abs:g=8,deg=14,K2=0,chiO=2 int-proj", None),
])
def test_describe_finds_the_row_of_any_spelling(spec, row_id):
    text = describe(spec, nl.CI222, load_dataset())
    if row_id is None:
        assert "no dataset value" in text
    else:
        assert f"from dataset row {row_id})" in text


def test_describe_skips_dataset_rows_that_do_not_parse(tmp_path):
    data = _bundled_rows()
    data["unirational_rows"][0]["surface"] = "1;1"     # H^2 = 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    text = describe(" 5;7,0,1", nl.CI222, load_dataset(bad))
    assert "from dataset row t1-10)" in text


def test_describe_takes_the_first_row_of_a_record(tmp_path):
    # t1-01 and t1-02 spell one record; t1-02's spec is the plain spelling
    data = _bundled_rows()
    data["unirational_rows"][0]["surface"] = "03;5,0,0"
    data["unirational_rows"][1]["surface"] = "3;5,0,0"
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(data))
    dataset = load_dataset(path)
    assert "from dataset row t1-01)" in describe("3;05,0,0", nl.CI222, dataset)
    # a row's exact text is looked up by ``Dataset.row``
    assert "from dataset row t1-02)" in describe("3;5,0,0", nl.CI222, dataset)
    # the bundled t1-04 and t3-1 are both S(1;)
    assert "from dataset row t1-04)" in describe(" 1;", nl.CI222, load_dataset())


def test_describe_finds_the_row_of_a_respaced_spec():
    # a row spec with extra spaces is no row's text, so the rows are scanned
    dataset = load_dataset()
    for r in dataset.rows:
        base, *modifiers = r.surface.split()
        spaced = "  " + "   ".join([base, *modifiers]) + " "
        assert describe(spaced, nl.CI222, dataset) == describe(r.surface, nl.CI222, dataset)


def test_dataset_row_lookup():
    dataset = load_dataset()
    assert dataset.row("t3-3").h0_NSX == 6
    assert dataset.row("5;7,0,1").id == "t1-10"
    with pytest.raises(DatasetMissing):
        dataset.row("t9-99")
