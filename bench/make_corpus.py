"""Regenerate ``corpus.tsv``: the plane models the spec stream draws from.

A model is listed when its plane spec passes the whole spec-stream request
(``workloads.spec_request``); its line records the image's (deg, g, K2, chiO)
and which of the four forms pass: p plane, i plane + int-proj, a abs record,
j abs record + int-proj.  The grid is a <= 14 with up to 18 points of
multiplicity at most 4.

    python3 bench/make_corpus.py > bench/corpus.tsv
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from nlatlas.errors import NLAtlasError  # noqa: E402

from workloads import spec_request  # noqa: E402


def passes(spec: str) -> bool:
    try:
        spec_request(spec)
    except (NLAtlasError, ValueError):
        return False
    return True


def main() -> None:
    print("# spec\tdeg,g,K2,chiO\tforms  (generated by make_corpus.py)")
    for a in range(1, 15):
        for counts in itertools.product(range(19), range(9), range(6), range(4)):
            if sum(counts) > 18:
                continue
            counts = list(counts)
            while counts and counts[-1] == 0:
                counts.pop()
            spec = f"{a};{','.join(str(n) for n in counts)}"
            if not passes(spec):
                continue
            s = spec_request(spec)[0]
            numbers = (s.degree, s.sect_genus, s.K2, s.chi_O)
            abs_spec = "abs:deg={},g={},K2={},chiO={}".format(*numbers)
            forms = "p"
            forms += "i" if passes(spec + " int-proj") else ""
            forms += "a" if passes(abs_spec) else ""
            forms += "j" if passes(abs_spec + " int-proj") else ""
            print(f"{spec}\t{','.join(str(x) for x in numbers)}\t{forms}")


if __name__ == "__main__":
    main()
