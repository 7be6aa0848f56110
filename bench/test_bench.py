"""Tests of the benchmark's own code:  python3 -m pytest bench"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import workloads  # noqa: E402
from nlatlas import surfaces  # noqa: E402
from run import parse_importtime  # noqa: E402
from spans import Spans, Tracer, self_times, summarize  # noqa: E402


def test_tail_percentile_needs_ten_samples_beyond():
    assert workloads.tail_percentile(99) is None
    assert workloads.tail_percentile(100) == 90.0
    assert workloads.tail_percentile(999) == 90.0
    assert workloads.tail_percentile(1000) == 99.0
    assert workloads.tail_percentile(9999) == 99.0
    assert workloads.tail_percentile(10000) == 99.9


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert workloads.percentile(values, 50) == 50
    assert workloads.percentile(values, 90) == 90
    assert workloads.percentile(values, 99.9) == 100
    assert workloads.percentile([7], 99) == 7


def _spans(rows):
    s = Spans()
    for parent, start, end in rows:
        s.parent.append(parent)
        s.name.append(0)
        s.start.append(start)
        s.end.append(end)
        s.request.append(0)
        s.failed.append(0)
    return s


def test_self_time_subtracts_child_coverage():
    # 0 [0,100] has children 1 [10,40] and 2 [30,60], which overlap like two
    # pool workers; 3 [15,20] is a child of 1; 4 [90,120] overruns its parent
    spans = _spans([(-1, 0, 100), (0, 10, 40), (0, 30, 60), (1, 15, 20), (0, 90, 120)])
    assert self_times(spans) == [100 - 50 - 10, 30 - 5, 30, 5, 30]


def test_summary_counts_calls_rejections_and_self_seconds():
    spans = _spans([(-1, 0, 3_000_000_000), (0, 0, 1_000_000_000)])
    spans.name[1] = 1
    spans.failed[1] = 1
    table = summarize(spans, ["outer", "inner"])
    assert table["outer"] == {"calls": 1, "rejected": 0, "self_s": 2.0}
    assert table["inner"] == {"calls": 1, "rejected": 1, "self_s": 1.0}


def test_tracer_wraps_the_call_path_and_restores_it():
    original = surfaces.invariants
    tracer = Tracer(workloads.TARGETS)
    with tracer.installed():
        assert surfaces.invariants is not original
        surfaces.parse_surface_spec("5;7,0,1")
    assert surfaces.invariants is original
    spans, chunks, nbytes = tracer.reset()
    table = summarize(spans, tracer.names)
    assert table["surfaces.parse_surface_spec"]["calls"] == 1
    assert table["surfaces.invariants"]["calls"] == 1
    assert table["surfaces.normalize_contractions"]["calls"] == 1
    # invariants was called from parse_surface_spec, so it is its child
    parse = tracer.names.index("surfaces.parse_surface_spec")
    inv = tracer.names.index("surfaces.invariants")
    child = list(spans.name).index(inv)
    assert spans.parent[child] == list(spans.name).index(parse)
    assert (chunks, nbytes) == (0, 0)


def _take(stream, n):
    return [next(stream) for _ in range(n)]


def test_spec_stream_is_determined_by_its_seed():
    corpus, rows = inputs.load_corpus(), inputs.load_rows(ROOT)
    a = _take(inputs.SpecStream(7, corpus, rows), 3000)
    b = _take(inputs.SpecStream(7, corpus, rows), 3000)
    c = _take(inputs.SpecStream(8, corpus, rows), 3000)
    assert a == b
    assert a != c


def test_spec_stream_mix():
    stream = inputs.SpecStream(3, inputs.load_corpus(), inputs.load_rows(ROOT))
    reqs = _take(stream, 20000)
    seen, repeats = set(), 0
    for r in reqs:
        repeats += r.spec in seen
        seen.add(r.spec)
    assert 0.45 < repeats / len(reqs) < 0.65
    rejects = sum(r.expect is not None for r in reqs) / len(reqs)
    assert 0.03 < rejects < 0.07


def test_spec_stream_labels_match_the_program():
    stream = inputs.SpecStream(11, inputs.load_corpus(), inputs.load_rows(ROOT))
    out = workloads.Outcome()
    for req in _take(stream, 3000):
        try:
            result, exc = workloads.spec_request(req.spec), None
        except Exception as e:
            result, exc = None, e
        out.op(workloads.check_spec(req, result, exc))
    assert out.failed == 0, out.problems


def test_cli_script_and_grid_order_are_determined_by_the_seed():
    rows = inputs.load_rows(ROOT)
    assert inputs.cli_script(5, rows, "d.json") == inputs.cli_script(5, rows, "d.json")
    assert inputs.cli_script(5, rows, "d.json") != inputs.cli_script(6, rows, "d.json")
    names = ["default", "a12p16", "a10p16m4"]
    assert inputs.grid_order(5, names) == inputs.grid_order(5, names)
    assert sorted(inputs.grid_order(5, names)) == sorted(names)


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |   _io
import time:       300 |        400 | encodings
import time:        50 |         50 |     certifi
import time:       200 |        250 |   site_helper
import time:       900 |       1150 | site
import time:        40 |         40 |     org
import time:       500 |        540 |   json
import time:       700 |       1240 |     nlatlas.errors
import time:      1000 |       2780 |   nlatlas
import time:       600 |        600 |   argparse
import time:       300 |       3680 | nlatlas.cli
"""


def test_importtime_keeps_nlatlas_and_the_stdlib_it_imports():
    got = parse_importtime(IMPORTTIME)
    assert got == {"json": (500, 540), "nlatlas.errors": (700, 1240),
                   "nlatlas": (1000, 2780), "argparse": (600, 600),
                   "nlatlas.cli": (300, 3680)}
