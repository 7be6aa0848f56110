"""The import contract: ``import nlatlas`` loads no submodule, ``import
nlatlas.cli`` loads only ``errors``, each command loads exactly the modules it
runs, atlas (and ``dataclasses``) only where it enumerates or codes an atlas
record, a well-formed command loads no ``argparse`` (only help and usage
errors do), an atlas of any worker count loads no process machinery, the
dataset is read without ``importlib.resources``, and every public name of
the package is the object of its home module."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import nlatlas as nl

HEAVY = {"nlatlas.atlas", "nlatlas.hodge", "nlatlas.serialize"}


def loaded_after(statement: str, env: dict, *options: str) -> set[str]:
    """The modules a fresh interpreter, started with ``options``, holds after
    ``statement``."""
    script = statement + "\nimport sys\nprint(*sys.modules)"
    proc = subprocess.run([sys.executable, *options, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    return set(proc.stdout.split())


def test_import_package_loads_no_submodule(fresh_env):
    assert not {m for m in loaded_after("import nlatlas", fresh_env)
                if m.startswith("nlatlas.")}


def test_loading_the_dataset_loads_no_resource_machinery(fresh_env):
    # under -S: a site .pth file may preload these, which would hide what
    # the reader imports itself
    loaded = loaded_after("import nlatlas\nnlatlas.load_dataset()", fresh_env, "-S")
    assert "nlatlas.dataset" in loaded
    assert not loaded & {"importlib.resources", "pathlib", "zipfile"}


def nlatlas_modules(loaded: set[str]) -> set[str]:
    return {m for m in loaded if m == "nlatlas" or m.startswith("nlatlas.")}


def test_import_cli_leaves_atlas_hodge_and_codec_unloaded(fresh_env):
    # and every other library module: the commands import what they run
    loaded = loaded_after("import nlatlas.cli", fresh_env)
    assert nlatlas_modules(loaded) == {"nlatlas", "nlatlas.errors", "nlatlas.cli"}
    assert "argparse" not in loaded


def test_benchmark_imports_load_every_traced_module(fresh_env):
    # bench/spans.py looks each traced module up in sys.modules after the
    # import line of bench/workloads.py; the codec is what loads these four
    statement = ("from nlatlas import atlas, chow, cli, counts, errors, lattice, "
                 "serialize, surfaces")
    assert {"nlatlas.dataset", "nlatlas.report", "nlatlas.hodge",
            "nlatlas.picard"} <= loaded_after(statement, fresh_env)


def running(argv: list[str], tmp_path) -> str:
    """A statement that runs the CLI on ``argv`` quietly; "{diagram}" in
    ``argv`` names a solvable diagram file."""
    diagram = tmp_path / "diagram.json"
    diagram.write_text(json.dumps({
        "left": {"fourfold": "X222", "center": "5;7,0,1"},
        "right": {"fourfold": "ci22", "center": "unknown"},
    }))
    argv = [a.format(diagram=diagram) for a in argv]
    return ("import contextlib, io\nfrom nlatlas.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0")


@pytest.mark.parametrize("argv,loads", [
    (["invariants", "--surface", "5;7,0,1"], set()),
    (["count", "--table-row", "t1-01"], set()),
    (["ledger", "--diagram", "{diagram}"], {"nlatlas.hodge"}),
    (["search", "--gaps"], {"nlatlas.atlas"}),
], ids=["invariants", "count", "ledger", "search-gaps"])
def test_text_output_never_loads_the_codec(fresh_env, tmp_path, argv, loads):
    assert loaded_after(running(argv, tmp_path), fresh_env) & HEAVY == loads


# argparse imports gettext, and gettext locale: about 3 ms of a cold command,
# and building the parser as much again; only help and usage errors need it
PARSER_MODULES = {"argparse", "gettext", "locale"}


def _modules(names: str) -> set[str]:
    return {"nlatlas", *(f"nlatlas.{name}" for name in f"cli errors {names}".split())}


# what the JSON form adds: the codec, which loads every record module but the
# atlas's, and dataset and report for the benchmark's tracer
CODEC = "serialize chow counts dataset hodge lattice picard report surfaces"
# (command, argv, modules of its text form, modules of its JSON form), for
# every command of the benchmark's cli-session
COMMANDS = [
    ("describe", ["describe", "--surface", "5;7,0,1"],
     "chow counts dataset lattice report surfaces",
     "chow counts dataset lattice report surfaces"),
    ("tables", ["tables"], "chow counts dataset lattice report surfaces",
     "chow counts dataset lattice report surfaces"),
    ("search", ["search", "--gaps"], "atlas chow counts lattice surfaces",
     "atlas " + CODEC),
    ("ledger", ["ledger", "--diagram", "{diagram}"], "hodge surfaces", CODEC),
    ("invariants", ["invariants", "--surface", "5;7,0,1"], "surfaces", CODEC),
    ("lattice", ["lattice", "--surface", "5;7,0,1"], "chow lattice surfaces", CODEC),
    ("selfint", ["selfint", "--ci", "3", "--surface", "5;7,0,1"], "chow surfaces",
     "chow surfaces"),
    ("count", ["count", "--table-row", "t1-01"], "counts dataset surfaces", CODEC),
]


@pytest.mark.parametrize("argv,names", [
    pytest.param(["--format", fmt, *argv], names, id=f"{fmt}-{command}")
    for command, argv, *forms in COMMANDS for fmt, names in zip(("text", "json"), forms)])
def test_each_command_loads_exactly_its_modules(fresh_env, tmp_path, argv, names):
    loaded = loaded_after(running(argv, tmp_path), fresh_env)
    assert nlatlas_modules(loaded) == _modules(names)
    assert not loaded & PARSER_MODULES
    # only atlas's AtlasEntry still needs dataclasses; JSON of a record
    # that is not an atlas record loads neither
    assert ("dataclasses" in loaded) == ("nlatlas.atlas" in loaded)


def process_entry(argv: list[str], env: dict) -> subprocess.CompletedProcess:
    """Run ``sys.exit(main())`` with ``argv`` on ``sys.argv``; the modules it
    loaded follow its own stderr, after a line ``modules:``."""
    script = ("import sys\nfrom nlatlas.cli import main\ntry:\n    sys.exit(main())\n"
              "finally:\n    print('modules:', *sys.modules, file=sys.stderr)")
    return subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True)


def test_process_entry_reads_sys_argv_without_argparse(fresh_env):
    proc = process_entry(["invariants", "--surface", "5;7,0,1"], fresh_env)
    err, modules = proc.stderr.split("modules:")
    assert (proc.returncode, err) == (0, "") and "degree 9," in proc.stdout
    assert not set(modules.split()) & PARSER_MODULES


@pytest.mark.parametrize("argv,code,stream", [
    (["--help"], 0, "stdout"), (["search", "--max-a", "x"], 3, "stderr")])
def test_help_and_usage_errors_come_from_argparse(fresh_env, argv, code, stream):
    proc = process_entry(argv, fresh_env)
    assert proc.returncode == code
    assert getattr(proc, stream).startswith("usage: nlatlas")
    assert "argparse" in proc.stderr.split("modules:")[1].split()


# ``dataclasses`` imports ``inspect``, ``ast``, ``dis`` and ``tokenize``, about
# 8 ms of every cold command; only the atlas's AtlasEntry still needs it
DATACLASS_MODULES = {"dataclasses", "inspect"}


@pytest.mark.parametrize("argv", [
    None,
    ["describe", "--surface", "5;7,0,1"],
    ["tables"],
    ["invariants", "--surface", "5;7,0,1"],
    ["ledger", "--diagram", "{diagram}"],
], ids=["import", "describe", "tables", "invariants", "ledger"])
def test_cli_commands_load_no_dataclasses(fresh_env, tmp_path, argv):
    statement = "import nlatlas.cli" if argv is None else running(argv, tmp_path)
    assert not loaded_after(statement, fresh_env) & DATACLASS_MODULES


def test_only_the_atlas_names_dataclass():
    named = {path.name for path in Path(nl.__file__).parent.glob("*.py")
             if "dataclass" in path.read_text()}
    assert named == {"atlas.py"}


PROCESS_MODULES = {"multiprocessing", "concurrent.futures"}


@pytest.mark.parametrize("statement", [
    "import nlatlas\nnlatlas.enumerate_atlas()",
    "import nlatlas\nnlatlas.enumerate_atlas(workers=2)",
    "import contextlib, io\nfrom nlatlas.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    assert main(['search', '--gaps']) == 0",
], ids=["enumerate_atlas", "workers-2", "search-gaps"])
def test_serial_atlas_loads_no_process_machinery(fresh_env, statement):
    assert not loaded_after(statement, fresh_env) & PROCESS_MODULES


def test_no_module_imports_concurrent_futures():
    # nor multiprocessing: every worker count runs the one serial pass
    for path in Path(nl.__file__).parent.glob("*.py"):
        text = path.read_text()
        assert "concurrent.futures" not in text, path.name
        assert "multiprocessing" not in text, path.name


def test_public_names_are_their_home_objects():
    for name in nl.__all__:
        if name == "__version__":
            continue
        home = f"nlatlas.{nl._HOME[name]}"
        value = getattr(nl, name)
        assert value is getattr(importlib.import_module(home), name), name
        assert getattr(value, "__module__", home) == home, name


def test_dir_covers_all_and_unknown_names_raise():
    assert set(nl.__all__) <= set(dir(nl))
    with pytest.raises(AttributeError, match="no_such_name"):
        nl.no_such_name
    with pytest.raises(ImportError):
        from nlatlas import no_such_name  # noqa: F401
