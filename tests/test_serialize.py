import json
from pathlib import Path

import pytest

from nlatlas.serialize import decode, encode

ENTRY = json.loads((Path(__file__).resolve().parent / "golden" / "records"
                    / "atlas_entry.json").read_text())


def test_encode_rejects_unknown_types():
    with pytest.raises(TypeError, match="^no encoder for object$"):
        encode(object())


@pytest.mark.parametrize("data", [{"kind": "nope"}, [1], {}, "kind", {"kind": [1]},
                                  {"kind": "divisor"}, {"kind": "surface", "degree": 1},
                                  {"kind": "divisor", "d": "x", "mults": [1]},
                                  {"kind": "rank2_lattice", "m11": 8, "m12": 4, "m22": 4,
                                   "side": "bogus"},
                                  {"kind": "parameter_count", "h0_IS2": 1, "h0_N": 1,
                                   "h0_NSX": 1, "grass_dim": 1, "codim_bound": 1,
                                   "flags": ["a", 1]},
                                  {**ENTRY, "codim_bound_range": [0, 0, 0]}])
def test_decode_rejects_unknown_kinds(data):
    with pytest.raises(TypeError, match="^cannot decode "):
        decode(data)
