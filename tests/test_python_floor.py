"""The package stays within what pyproject.toml declares: its syntax within
the oldest Python admitted, and its imports within the standard library."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = (ROOT / "pyproject.toml").read_text()
MODULES = sorted((ROOT / "src" / "nlatlas").glob("*.py"))


def test_every_module_parses_at_the_python_floor():
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', PYPROJECT)
    assert floor, "pyproject.toml declares no requires-python floor"
    assert MODULES
    for path in MODULES:
        ast.parse(path.read_text(encoding="utf-8"), str(path),
                  feature_version=(int(floor[1]), int(floor[2])))


def test_no_runtime_dependency():
    assert re.search(r"^dependencies = \[\]$", PYPROJECT, re.M), \
        "pyproject.toml must declare dependencies = []"
    assert MODULES
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:  # the package's own modules are imported relatively
                continue
            for name in names:
                assert name.partition(".")[0] in sys.stdlib_module_names, (path.name, name)
