"""Golden outputs: the exit code, stdout and stderr of CLI commands in every
format, the exit code and message of failing commands, and the JSON wire
form of one value of each record kind.

Every refactor of the codec or the renderers must leave these files byte
for byte unchanged.  After an intended output change, regenerate them with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import pytest

import nlatlas as nl
from nlatlas.cli import main
from nlatlas.serialize import encode

GOLDEN = Path(__file__).resolve().parent / "golden"
FORMATS = ("text", "json", "csv", "md")

# the diagram shown in the README
DIAGRAM = {
    "left": {"fourfold": "X222", "center": "5;7,0,1"},
    "right": {"fourfold": "ci22", "center": "unknown"},
    "flop_bridge": True,
}

# the paper's secant flop: the plane in X222 against P4, which solves U to the
# Castelnuovo surface with K^2 = 2 and chi(O) = 4
CASTELNUOVO = {
    "left": {"fourfold": "X222", "center": "plane"},
    "right": {"fourfold": "P4", "center": "unknown"},
}

# name -> argv after the global flags; {diagram}, {bad_dataset} and the other
# names in braces are files written by ``_write_inputs``
COMMANDS = {
    "describe-plane": ["describe", "--surface", "5;7,0,1"],
    "describe-nodal": ["describe", "--surface", "5;6,2 nodes=1"],
    "describe-window": ["describe", "--surface", "abs:deg=13,g=8,K2=-1,chiO=2"],
    # other spellings of row t1-01's spec: the same record finds the row ...
    "describe-row-spaced": ["describe", "--surface", " 3;5,0,0"],
    "describe-row-leading-zero": ["describe", "--surface", "03;5,0,0"],
    # ... while a trailing zero count gives another label and the window
    "describe-row-trailing-zero": ["describe", "--surface", "3;5,0,0,0"],
    # not standard: the report names S(4;5,1), the atlas entry of its surface
    "describe-nonstandard": ["describe", "--surface", "5;2,4"],
    "invariants": ["invariants", "--surface", "5;7,0,1"],
    "lattice-surface": ["lattice", "--surface", "5;7,0,1"],
    "lattice-abs": ["lattice", "--abs", "deg=13,g=12,K2=2,chiO=4"],
    "selfint": ["selfint", "--surface", "5;6,2 nodes=1"],
    "count-table-row": ["count", "--table-row", "t1-01"],
    "count-h0nsx": ["count", "--surface", "5;7,0,1", "--h0nsx", "2"],
    "ledger": ["ledger", "--diagram", "{diagram}"],
    "ledger-castelnuovo": ["ledger", "--diagram", "{castelnuovo}"],
    "search-det": ["search", "--det", "47"],
    "search-small": ["search", "--max-a", "6", "--max-points", "10"],
    "search-gaps": ["search", "--gaps"],
    "tables": ["tables"],
    "tables-diffs": ["--dataset", "{bad_dataset}", "tables"],
}

# failing commands: exit 3 and a message naming the bad token's position or
# the bad file, the same for every format, so they run in one
ERRORS = {
    "describe-zero-nodes": ["describe", "--surface", "5;6,2 nodes=0"],
    "describe-zero-degree": ["describe", "--surface", "0;1"],
    "describe-abs-zero-degree": ["describe", "--surface", "abs:deg=0,g=0,K2=0,chiO=1"],
    "describe-negative-count": ["describe", "--surface", "5;7,-1,1"],
    "describe-no-net": ["describe", "--surface", "abs:deg=20,g=14,K2=0,chiO=1"],
    "selfint-ci-plus": ["selfint", "--ci", "+2,2,2", "--surface", "5;7,0,1"],
    "selfint-ci-fullwidth": ["selfint", "--ci", "2,2,\uff12", "--surface", "5;7,0,1"],
    "selfint-ci-space": ["selfint", "--ci", " 2,x", "--surface", "5;7,0,1"],
    "selfint-ci-underscore": ["selfint", "--ci", "2,1_0", "--surface", "5;7,0,1"],
    "selfint-ci-empty": ["selfint", "--ci", "2,,2", "--surface", "5;7,0,1"],
    "selfint-ci-one": ["selfint", "--ci", "1,2", "--surface", "5;7,0,1"],
    "describe-ci-empty": ["describe", "--ci", "", "--surface", "5;7,0,1"],
    "tables-dataset-not-utf8": ["--dataset", "{latin1_dataset}", "tables"],
    "tables-dataset-empty": ["--dataset", "", "tables"],
    "ledger-not-a-diamond": ["ledger", "--diagram", "{bad_diagram}"],
    "ledger-unknown-preset": ["ledger", "--diagram", "{unknown_preset}"],
    "ledger-number-fourfold": ["ledger", "--diagram", "{number_fourfold}"],
    "ledger-bad-center-spec": ["ledger", "--diagram", "{bad_center_spec}"],
    "ledger-fourfold-dimension": ["ledger", "--diagram", "{fourfold_dimension}"],
    "ledger-center-dimension": ["ledger", "--diagram", "{center_dimension}"],
}

CASES = ([(name, fmt) for name in COMMANDS for fmt in FORMATS]
         + [(name, "text") for name in ERRORS])


# the README diagram with one part replaced, each refused with its place
BAD_DIAGRAMS = {
    "bad_diagram": ("left", "center", [[1, 0], [0]]),
    "unknown_preset": ("right", "fourfold", "nope"),
    "number_fourfold": ("left", "fourfold", 3),
    "bad_center_spec": ("left", "center", "5;x"),
    "fourfold_dimension": ("left", "fourfold", [[1]]),
    "center_dimension": ("left", "center", "X222"),
}


def _write_inputs(root: Path) -> dict[str, str]:
    """The two diagram files, the diagrams of ``BAD_DIAGRAMS``, a dataset copy
    whose row t1-01 has another matrix of the same determinant, another h0_N
    and another codim, and a dataset file in Latin-1."""
    written = {}
    for key, value in (("diagram", DIAGRAM), ("castelnuovo", CASTELNUOVO)):
        path = root / f"{key}.json"
        path.write_text(json.dumps(value))
        written[key] = str(path)
    for key, (side, part, value) in BAD_DIAGRAMS.items():
        path = root / f"{key}.json"
        path.write_text(json.dumps({**DIAGRAM, side: {**DIAGRAM[side], part: value}}))
        written[key] = str(path)
    data = json.loads(
        resources.files("nlatlas").joinpath("data/table_rows.json").read_text())
    row = data["unirational_rows"][0]
    assert row["id"] == "t1-01" and row["matrix"] == [8, 4, 4]
    row.update(matrix=[8, 0, 2], h0_N=row["h0_N"] + 1, codim=row["codim"] + 1)
    bad = root / "bad_rows.json"
    bad.write_text(json.dumps(data))
    latin1 = root / "latin1_rows.json"
    latin1.write_bytes('{"description": "\u00e9d. 1"}'.encode("latin-1"))
    return {**written, "bad_dataset": str(bad), "latin1_dataset": str(latin1)}


def _argv(name: str, fmt: str, paths: dict[str, str]) -> list[str]:
    argv = COMMANDS[name] if name in COMMANDS else ERRORS[name]
    return ["--format", fmt] + [a.format(**paths) for a in argv]


def _record(code: int, out: str, err: str, paths: dict[str, str]) -> str:
    text = f"exit {code}\n{out}" + (f"stderr:\n{err}" if err else "")
    # the input files lie in a temporary directory: name each by its key
    for key, path in paths.items():
        text = text.replace(path, "{" + key + "}")
    return text


def _record_values() -> dict[str, object]:
    s = nl.parse_surface_spec("5;6,2 nodes=1")
    atlas = nl.enumerate_atlas(nl.SearchBounds(max_a=3, max_points=5))
    return {
        "plane_model": nl.PlaneModel(5, (7, 0, 1)),
        "surface": s,
        "ci_type": nl.CI222,
        "rank2_lattice-fourfold": nl.fourfold_lattice(nl.CI222, s),
        "rank2_lattice-surface": nl.surface_matrix(13, 12, 2),
        "hodge_diamond": nl.preset("X222"),
        "parameter_count": nl.codimension_bound(s, 0),
        "search_bounds": nl.SearchBounds(max_a=3, max_points=5),
        "atlas_entry": atlas[-1],
        "gap_report": nl.gap_report(atlas, 110, nl.SearchBounds(max_a=3, max_points=5)),
    }


RECORDS = _record_values()


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    return _write_inputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name,fmt", CASES)
def test_cli_golden(name, fmt, paths, capsys):
    code = main(_argv(name, fmt, paths))
    captured = capsys.readouterr()
    want = (GOLDEN / "cli" / f"{name}.{fmt}").read_text()
    assert _record(code, captured.out, captured.err, paths) == want


# the text and JSON forms of every command of the benchmark's cli-session,
# launched as a process entry, ``sys.exit(main())``, in an interpreter that
# has loaded nothing else of nlatlas: each imports its modules on demand and
# freezes the heap at exit, and must still print what ``main(argv)`` prints
SESSION = ("describe-plane", "tables", "search-det", "search-gaps", "ledger",
           "invariants", "lattice-surface", "selfint", "count-table-row")


@pytest.mark.parametrize("name,fmt", [(name, fmt) for name in SESSION
                                      for fmt in ("text", "json")])
def test_cli_golden_in_fresh_interpreter(name, fmt, paths, fresh_env):
    launch = "import sys; from nlatlas.cli import main; sys.exit(main())"
    proc = subprocess.run([sys.executable, "-c", launch, *_argv(name, fmt, paths)],
                          env=fresh_env, capture_output=True, text=True)
    want = (GOLDEN / "cli" / f"{name}.{fmt}").read_text()
    assert _record(proc.returncode, proc.stdout, proc.stderr, paths) == want


@pytest.mark.parametrize("name", list(RECORDS))
def test_record_golden(name):
    text = json.dumps(encode(RECORDS[name]), indent=2) + "\n"
    assert text == (GOLDEN / "records" / f"{name}.json").read_text()


def _regenerate() -> None:
    (GOLDEN / "cli").mkdir(parents=True, exist_ok=True)
    (GOLDEN / "records").mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        paths = _write_inputs(Path(tmp))
        for name, fmt in CASES:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(_argv(name, fmt, paths))
            (GOLDEN / "cli" / f"{name}.{fmt}").write_text(
                _record(code, out.getvalue(), err.getvalue(), paths))
    for name, value in RECORDS.items():
        (GOLDEN / "records" / f"{name}.json").write_text(
            json.dumps(encode(value), indent=2) + "\n")


if __name__ == "__main__":
    _regenerate()
