"""Seeded input generators.  Everything a workload sends to the program is
made here from the workload seed; the program sees only the generated
inputs.

The spec stream draws plane models from ``corpus.tsv`` (plane models whose
whole per-request pipeline succeeds, with the spellings each one accepts)
and from the dataset rows, read straight from the dataset file rather than
through the program.  About half of the requests repeat an earlier spec,
and a fixed share are malformed or non-embedding specs that the program must
reject with a known exception.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "corpus.tsv"

REPEAT_SHARE = 0.5      # chance that a request repeats a recent one
REJECT_SHARE = 0.05     # chance that a fresh request must be rejected
HISTORY = 4096          # how far back a repeat may reach
# Weights of the forms of a fresh spec.  Plane specs, which pay for the
# contraction search, make up about four fifths, so that the median request
# lies inside their cost distribution and not on the edge between them and
# the cheap abs: records.
FORM_WEIGHTS = {"p": 6, "i": 2, "a": 1.5, "j": 0.5}

ABS_KEYS = ("deg", "g", "K2", "chiO")


@dataclass(frozen=True)
class CorpusModel:
    spec: str                       # canonical "a;n1,...,nk"
    numbers: tuple[int, int, int, int]   # deg, g, K2, chiO of the image
    forms: str                      # accepted forms: p plane, i plane int-proj,
                                    # a abs record, j abs record int-proj


@dataclass(frozen=True)
class Request:
    spec: str
    expect: str | None      # None, or the exception class the program must raise


def load_corpus(path: Path = CORPUS) -> list[CorpusModel]:
    out = []
    for line in path.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        spec, numbers, forms = line.split("\t")
        out.append(CorpusModel(spec, tuple(int(x) for x in numbers.split(",")), forms))
    return out


def load_rows(root: Path) -> list[dict]:
    data = json.loads((root / "src/nlatlas/data/table_rows.json").read_text())
    return data["unirational_rows"] + data["rational_rows"]


def _space(rng: random.Random) -> str:
    return rng.choice(("", "", " ", "  "))


def _plane_spelling(rng: random.Random, spec: str) -> str:
    a, _, tail = spec.partition(";")
    counts = tail.split(",") if tail else []
    counts += ["0"] * rng.randrange(3)
    if rng.random() < 0.2:
        a = "0" + a
    return f"{a};{','.join(counts)}"


def _abs_spelling(rng: random.Random, numbers) -> str:
    fields = [f"{k}={v}" for k, v in zip(ABS_KEYS, numbers)]
    rng.shuffle(fields)
    return "abs:" + ",".join(fields)


def _with_modifier(rng: random.Random, base: str, modifier: str) -> str:
    return base + rng.choice((" ", "  ")) + modifier


class SpecStream:
    """Endless seeded stream of ``Request``s."""

    def __init__(self, seed: int, corpus: list[CorpusModel], rows: list[dict]):
        self.rng = random.Random(seed)
        self.corpus = corpus
        self.row_specs = [r["surface"] for r in rows]
        self.history: list[Request] = []
        self._next = 0

    def __iter__(self):
        return self

    def __next__(self) -> Request:
        rng = self.rng
        if self.history and rng.random() < REPEAT_SHARE:
            req = rng.choice(self.history)
        elif rng.random() < REJECT_SHARE:
            req = self._reject()
        else:
            req = Request(self._valid(), None)
        if len(self.history) < HISTORY:
            self.history.append(req)
        else:
            self.history[self._next] = req
            self._next = (self._next + 1) % HISTORY
        return req

    def _valid(self) -> str:
        rng = self.rng
        if rng.random() < 0.05:
            return _space(rng) + rng.choice(self.row_specs) + _space(rng)
        model = rng.choice(self.corpus)
        form = rng.choices(model.forms, [FORM_WEIGHTS[f] for f in model.forms])[0]
        if form in "pi":
            base = _plane_spelling(rng, model.spec)
        else:
            base = _abs_spelling(rng, model.numbers)
        if form in "ij":
            base = _with_modifier(rng, base, "int-proj")
        return _space(rng) + base + _space(rng)

    def _reject(self) -> Request:
        rng = self.rng
        kind = rng.randrange(7)
        if kind == 0:
            text = self._valid()
            pos = rng.randrange(len(text) + 1)
            return Request(text[:pos] + "q" + text[pos:], "ParseError")
        if kind == 1:
            fields = _abs_spelling(rng, rng.choice(self.corpus).numbers)[4:].split(",")
            fields.pop(rng.randrange(len(fields)))
            return Request("abs:" + ",".join(fields), "ParseError")
        if kind == 2:
            return Request(_space(rng) + " ", "ParseError")
        if kind == 3:
            # degree >= 4 with no base points spans at least P^14
            return Request(f"{rng.randrange(4, 13)};", "SpanTooSmall")
        if kind == 4:
            # H^2 < 1
            a = rng.choice((1, 2))
            return Request(f"{a};{rng.randrange(a * a, a * a + 4)}", "ValueError")
        if kind == 5:
            # two points of multiplicity m > a/2: the line through them has H.C < 0
            spec = rng.choice(("5;0,0,2", "6;0,0,0,2", "7;0,0,0,2"))
            return Request(_plane_spelling(rng, spec), "NotNef")
        # external projection needs a surface spanning P^8; corpus models span less
        base = _plane_spelling(rng, rng.choice(self.corpus).spec)
        return Request(_with_modifier(rng, base, "ext-proj"), "NotProjectable")


DIAGRAM = {
    "left": {"fourfold": "X222", "center": "5;7,0,1"},
    "right": {"fourfold": "ci22", "center": "unknown"},
    "flop_bridge": True,
}


def cli_script(seed: int, rows: list[dict], diagram_path: str) -> list[tuple[str, list[str]]]:
    """One session: (label, argv) pairs in a seeded order."""
    rng = random.Random(seed)
    plane = [r for r in rows if " " not in r["surface"] and not r["surface"].startswith("abs:")]
    abs_proj = next(r for r in rows if r["surface"].startswith("abs:") and "int-proj" in r["surface"])
    nodal = next(r for r in rows if "nodes=1" in r["surface"])

    def pick() -> str:
        return rng.choice(plane)["surface"]

    script = [
        ("describe", ["describe", "--surface", pick()]),
        ("describe", ["describe", "--surface", abs_proj["surface"]]),
        ("describe", ["describe", "--surface", nodal["surface"]]),
        ("tables", ["tables"]),
        ("tables", ["--format", "md", "tables"]),
        ("search-det", ["search", "--det", "47"]),
        ("search-gaps", ["search", "--gaps"]),
        ("ledger", ["ledger", "--diagram", diagram_path]),
    ]
    for fmt in ("text", "json"):
        script += [
            ("invariants", ["--format", fmt, "invariants", "--surface", pick()]),
            ("lattice", ["--format", fmt, "lattice", "--surface", pick()]),
            ("selfint", ["--format", fmt, "selfint", "--ci", rng.choice(("2,2,2", "3", "2,2")),
                         "--surface", pick()]),
            ("count", ["--format", fmt, "count", "--table-row", rng.choice(rows)["id"]]),
        ]
    rng.shuffle(script)
    return script


def grid_order(seed: int, names: list[str]) -> list[str]:
    order = list(names)
    random.Random(seed).shuffle(order)
    return order
