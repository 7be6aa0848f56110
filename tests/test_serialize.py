import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from nlatlas.serialize import KINDS, decode, encode

ROOT = Path(__file__).resolve().parent.parent
RECORDS = ROOT / "tests" / "golden" / "records"
ENTRY = json.loads((RECORDS / "atlas_entry.json").read_text())
BOUNDS = json.loads((RECORDS / "search_bounds.json").read_text())


def test_readme_lists_the_kinds_in_the_codec_order():
    section = (ROOT / "README.md").read_text().split("### JSON records", 1)[1]
    listed = section[section.index("(") + 1:section.index(")")]
    assert re.findall(r"`(\w+)`", listed) == list(KINDS)


class SurfaceInvariants(tuple):
    """Named like a record class of the package, and not that class."""


def test_encode_rejects_unknown_types():
    with pytest.raises(TypeError, match="^no encoder for object$"):
        encode(object())
    # the codec finds a class by its name and then checks it is the package's
    with pytest.raises(TypeError, match="^no encoder for SurfaceInvariants$"):
        encode(SurfaceInvariants())


@pytest.mark.parametrize("data", [{"kind": "nope"}, [1], {}, "kind", {"kind": [1]},
                                  {"kind": "divisor"}, {"kind": "surface", "degree": 1},
                                  # the retired divisor kind, as it was written
                                  {"kind": "divisor", "d": 5, "mults": [1, 1, 3]},
                                  {"kind": "rank2_lattice", "m11": 8, "m12": 4, "m22": 4,
                                   "side": "bogus"},
                                  {"kind": "parameter_count", "h0_IS2": 1, "h0_N": 1,
                                   "h0_NSX": 1, "grass_dim": 1, "codim_bound": 1,
                                   "flags": ["a", 1]},
                                  {**ENTRY, "codim_bound_range": [0, 0, 0]},
                                  # a key that is no field was ignored
                                  {**ENTRY["surface"], "sect_genu": 3},
                                  # written when the grid's genus cut had a switch
                                  {**BOUNDS, "require_positive_genus_bound": True},
                                  # a surface as it was written, with chi_top and h0_H
                                  {"kind": "surface", "degree": 11, "sect_genus": 4, "K2": 1,
                                   "chi_O": 1, "chi_top": 11, "h0_H": 9, "nodes": 1,
                                   "linearly_normal": False,
                                   "provenance_label": "1-nodal projection of S(5;6,2)"}])
def test_decode_rejects_unknown_kinds(data):
    with pytest.raises(TypeError) as exc:
        decode(data)
    assert str(exc.value) == f"cannot decode {data!r}"


# The codec imports atlas for the first atlas record it meets.  Each statement
# runs in a fresh interpreter that has loaded the codec and not atlas.
CODEC_FIRST = """
import json, sys
from pathlib import Path
from nlatlas.serialize import decode, encode
assert "nlatlas.atlas" not in sys.modules
golden = Path(sys.argv[1])

def text(record):
    return json.dumps(encode(record), indent=2) + "\\n"

def message(code, value):
    try:
        code(value)
    except TypeError as exc:
        return str(exc)
"""


@pytest.mark.parametrize("statement", [
    """
want = (golden / "atlas_entry.json").read_text()
entry = decode(json.loads(want))
assert type(entry).__name__ == "AtlasEntry" and text(entry) == want
""", """
import nlatlas
bounds = nlatlas.SearchBounds(max_a=3, max_points=5)
assert text(bounds) == (golden / "search_bounds.json").read_text()
""", """
import nlatlas
bounds = nlatlas.SearchBounds(max_a=3, max_points=5)
# the report's bounds are an atlas record nested in the first one coded
report = nlatlas.gap_report(nlatlas.enumerate_atlas(bounds), 110, bounds)
assert text(report) == (golden / "gap_report.json").read_text()
""", """
assert message(encode, object()) == "no encoder for object"
for data in ({"kind": [1]}, {"kind": "nope"}, [1]):
    assert message(decode, data) == f"cannot decode {data!r}"
assert "nlatlas.atlas" not in sys.modules
"""], ids=["decode-atlas-entry", "encode-search-bounds", "encode-gap-report", "misses"])
def test_codec_loads_atlas_on_demand(fresh_env, statement):
    proc = subprocess.run([sys.executable, "-c", CODEC_FIRST + statement, str(RECORDS)],
                          env=fresh_env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
