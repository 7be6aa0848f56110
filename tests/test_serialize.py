import pytest

from nlatlas.serialize import decode, encode


def test_encode_rejects_unknown_types():
    with pytest.raises(TypeError, match="^no encoder for object$"):
        encode(object())


@pytest.mark.parametrize("data", [{"kind": "nope"}, [1], {}, "kind", {"kind": [1]},
                                  {"kind": "divisor"}, {"kind": "surface", "degree": 1}])
def test_decode_rejects_unknown_kinds(data):
    with pytest.raises(TypeError, match="^cannot decode "):
        decode(data)
