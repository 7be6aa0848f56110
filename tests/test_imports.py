"""The import contract: ``import nlatlas`` loads no submodule, the CLI loads
atlas, hodge and the codec only in the commands that use them, and every
public name of the package is the object of its home module."""

import importlib
import json
import subprocess
import sys

import pytest

import nlatlas as nl

HEAVY = {"nlatlas.atlas", "nlatlas.hodge", "nlatlas.serialize"}


def loaded_after(statement: str, env: dict) -> set[str]:
    """The nlatlas submodules a fresh interpreter holds after ``statement``."""
    script = (statement + "\nimport sys\n"
              "print(*(m for m in sys.modules if m.startswith('nlatlas.')))")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    return set(proc.stdout.split())


def test_import_package_loads_no_submodule(fresh_env):
    assert loaded_after("import nlatlas", fresh_env) == set()


def test_import_cli_leaves_atlas_hodge_and_codec_unloaded(fresh_env):
    assert not loaded_after("import nlatlas.cli", fresh_env) & HEAVY


@pytest.mark.parametrize("argv,loads", [
    (["invariants", "--surface", "5;7,0,1"], set()),
    (["count", "--table-row", "t1-01"], set()),
    (["ledger", "--diagram", "{diagram}"], {"nlatlas.hodge"}),
    (["search", "--gaps"], {"nlatlas.atlas"}),
], ids=["invariants", "count", "ledger", "search-gaps"])
def test_text_output_never_loads_the_codec(fresh_env, tmp_path, argv, loads):
    diagram = tmp_path / "diagram.json"
    diagram.write_text(json.dumps({
        "left": {"fourfold": "X222", "center": "5;7,0,1"},
        "right": {"fourfold": "ci22", "center": "unknown"},
    }))
    argv = [a.format(diagram=diagram) for a in argv]
    statement = ("import contextlib, io\nfrom nlatlas.cli import main\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 f"    assert main({argv!r}) == 0")
    assert loaded_after(statement, fresh_env) & HEAVY == loads


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
