"""The package's syntax stays within the oldest Python that pyproject.toml
admits."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_module_parses_at_the_python_floor():
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"',
                      (ROOT / "pyproject.toml").read_text())
    assert floor, "pyproject.toml declares no requires-python floor"
    paths = sorted((ROOT / "src" / "nlatlas").glob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path),
                  feature_version=(int(floor[1]), int(floor[2])))
