"""The four benchmark workloads, their output checks and their traced runs.

Every workload is one caller in a closed loop: a request is sent only after
the previous one returned.  Program functions are always called through
their module attribute (``surfaces.parse_surface_spec``), so the traced run
sees the same calls.

    atlas-sweep  one serial pass = enumerate_atlas on the three fixed grids
                 (order from the seed) plus gap_report on the default grid
    atlas-pool   enumerate_atlas on the a12p16 grid with workers=2
    spec-stream  seeded spec strings through the per-request path of
                 describe/lattice/count, in process
    cli-session  a seeded script of CLI subprocesses, one after the other
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from array import array
from contextlib import redirect_stderr, redirect_stdout
from math import comb
from pathlib import Path
from time import perf_counter, perf_counter_ns

from nlatlas import atlas, chow, cli, counts, errors, lattice, serialize, surfaces

import inputs
from spans import Tracer, summarize, write_tsv

ROOT = Path(__file__).resolve().parent.parent

GRIDS = {
    "default": atlas.SearchBounds(),
    "a12p16": atlas.SearchBounds(max_a=12, max_points=16),
    "a10p16m4": atlas.SearchBounds(max_a=10, max_points=16, max_mult=4),
}
GAP_UP_TO = 110
DEFAULT_GAPS = (23, 95, 108)
ADMISSIBLE = (0, 7, 12, 15)

CI_TYPES = (chow.CI222, chow.CompleteIntersectionType((3,)),
            chow.CompleteIntersectionType((2, 2)))

EXPECTED = {
    "ParseError": errors.ParseError,
    "SpanTooSmall": errors.SpanTooSmall,
    "NotNef": errors.NotNef,
    "NotProjectable": errors.NotProjectable,
    "ValueError": ValueError,
}

SPEC_WARMUP = 2000          # requests before timing starts
SPEC_CAPACITY = 1_000_000   # latency slots, allocated up front so that RSS
                            # does not grow with the number of requests
SPEC_PREFIX = 20_000        # requests over which the repeat share is measured
SPEC_BATCH = 1000           # requests per unit of the traced run

# Traced functions.  The first eleven lie on the path of every workload, so
# their self time is a per-layer metric; the others report calls and
# rejections, and their self time goes to the span file and the text lines.
ALL_PATH = [
    "surfaces.invariants", "surfaces.expand", "surfaces.normalize_contractions",
    "picard.adjunction_genus", "picard.riemann_roch_chi",
    "chow.self_intersection",
    "lattice.fourfold_lattice", "lattice.discriminant",
    "counts.h0_quadrics", "counts.codimension_bound", "counts.chi_NSX_lower",
]
TARGETS = ALL_PATH + [
    "surfaces.parse_surface_spec", "lattice.mod16_class", "serialize.encode",
    "dataset.load_dataset", "report.reproduce_tables", "report.describe",
    "hodge.solve_diagram", "atlas.enumerate_atlas", "atlas._evaluate_chunk",
    "atlas.gap_report", "cli.main",
]

CLI_LAUNCH = "import sys; from nlatlas.cli import main; sys.exit(main())"


class Outcome:
    """Operations attempted and failed, metrics and report lines of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.lines: list[str] = []
        self.metrics: dict[str, dict] = {}
        self.factors: dict[str, list[float]] = {"loop": [], "start": []}

    def calibrate(self, kind: str = "loop") -> float:
        """Sample the host speed before a timed unit, with the calibration
        loop before work in this process, with a bare interpreter start
        before a subprocess; return reference seconds per wall second."""
        if kind == "loop":
            factor = CAL_REF_NS / fastest_ns(_calibration_loop, 3)
        else:
            factor = START_REF_NS / fastest_ns(_bare_start, 2)
        self.factors[kind].append(factor)
        return factor

    def speed(self, kind: str) -> float:
        """Median reference seconds per wall second over this run."""
        return statistics.median(self.factors[kind])

    def op(self, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def say(self, text: str) -> None:
        self.lines.append(text)


# --- statistics -------------------------------------------------------------

TAIL_LADDER = (99.9, 99.0, 90.0)


def tail_percentile(n: int) -> float | None:
    """The highest percentile of the ladder with at least ten samples beyond it."""
    for p in TAIL_LADDER:
        # n * (100 - p) / 100 >= 10, in integers so that 99.9 is exact
        if n * (1000 - round(10 * p)) >= 10_000:
            return p
    return None


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of already sorted values."""
    rank = -(-p * len(sorted_values) // 100)
    return sorted_values[max(int(rank), 1) - 1]


def timing_line(label: str, samples, scale: float, unit: str) -> str:
    values = sorted(samples)
    text = f"{label}: p50 {statistics.median(values) * scale:.6g} {unit}"
    p = tail_percentile(len(values))
    if p is not None:
        text += f", p{p:g} {percentile(values, p) * scale:.6g} {unit}"
    return text + f" (n={len(values)})"


# --- host speed -------------------------------------------------------------
#
# The machine is shared: the same pass over a grid takes from 1x to 1.8x its
# fastest time depending on what else runs, in phases lasting seconds to
# minutes.  The host speed is therefore sampled before each timed unit, and
# end-to-end times are reported in reference seconds.  Work in this process
# is calibrated with a loop of integer arithmetic, which shares nothing with
# the program and allocates nothing the garbage collector tracks; the
# reference core runs it in CAL_REF_NS, and each unit's wall time is scaled
# by the sample taken just before it.  Subprocess times jitter by
# milliseconds, more than a sample can follow, so they are calibrated with a
# bare interpreter start (``python -S -c pass``), which imports nothing of
# the program and takes START_REF_NS on the reference core, and the run's
# median statistic is scaled by the run's median sample.  The wall times
# are printed on the report lines.

CAL_LOOPS = 12_000
CAL_REF_NS = 1_000_000
START_REF_NS = 10_000_000


def fastest_ns(fn, runs: int) -> int:
    times = []
    for _ in range(runs):
        t0 = perf_counter_ns()
        fn()
        times.append(perf_counter_ns() - t0)
    return min(times)


def _calibration_loop() -> None:
    x = 0
    for i in range(CAL_LOOPS):
        x = (x * 31 + i) % 1000003


def _bare_start() -> None:
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)


def timed(fn, *args, **kwargs):
    """Call ``fn``; return its result and its wall time in seconds."""
    t0 = perf_counter()
    result = fn(*args, **kwargs)
    return result, perf_counter() - t0


# --- output checks ----------------------------------------------------------

def chern_m22(ci, s) -> int:
    """(S)^2_X rebuilt from the Chern-class engine, away from the closed form."""
    ch2, chk = chow.chern_engine_coefficients(ci)
    hk = 2 * s.sect_genus - 2 - s.degree
    return ch2 * s.degree + chk * hk + s.K2 - s.chi_top + 2 * s.nodes


def check_atlas(entries) -> str | None:
    keys = [(e.discriminant, e.model.a, e.model.point_counts) for e in entries]
    if keys != sorted(keys):
        return "entries not sorted by (discriminant, a, point counts)"
    for e in entries:
        lat, s = e.lattice, e.surface
        if e.discriminant != lat.m11 * lat.m22 - lat.m12 * lat.m12:
            return f"{e.model}: discriminant is not det of its lattice"
        residue = e.discriminant % 16
        if residue != (-s.degree * s.degree) % 16 or residue not in ADMISSIBLE:
            return f"{e.model}: discriminant {e.discriminant} breaks the mod-16 rule"
        if lat.m22 != chern_m22(chow.CI222, s):
            return f"{e.model}: m22 {lat.m22} differs from the Chern engine"
    return None


def digest(entries) -> str:
    text = "\n".join(repr(dataclasses.astuple(e)) for e in entries)
    return hashlib.sha256(text.encode()).hexdigest()


def spec_request(spec: str):
    """One request: parse, three lattices, the codimension window, JSON."""
    s = surfaces.parse_surface_spec(spec)
    out = {"surface": serialize.encode(s)}
    lats = []
    for ci in CI_TYPES:
        lat = lattice.fourfold_lattice(ci, s)
        disc = lattice.discriminant(lat)
        mod = lattice.mod16_class(disc)
        lats.append(lat)
        out[str(ci)] = {"lattice": serialize.encode(lat), "discriminant": disc,
                        "mod16": [mod.residue, mod.admissible]}
    lo = counts.codimension_bound(s, 0)
    hi = counts.codimension_bound(s, max(counts.chi_NSX_lower(s), 0))
    out["codim"] = [serialize.encode(lo), serialize.encode(hi)]
    return s, lats, (lo, hi), json.dumps(out)


def check_spec(req: inputs.Request, result, exc) -> str | None:
    if req.expect is not None:
        if exc is None:
            return f"{req.spec!r}: accepted, expected {req.expect}"
        if not isinstance(exc, EXPECTED[req.expect]):
            return f"{req.spec!r}: raised {type(exc).__name__}, expected {req.expect}"
        if isinstance(exc, errors.ParseError) and not 0 <= exc.position <= len(req.spec):
            return f"{req.spec!r}: ParseError position {exc.position} outside the input"
        return None
    if exc is not None:
        return f"{req.spec!r}: raised {type(exc).__name__}: {exc}"
    s, lats, windows, text = result
    data = json.loads(text)
    if serialize.decode(data["surface"]) != s:
        return f"{req.spec!r}: surface does not round-trip"
    for ci, lat in zip(CI_TYPES, lats):
        if serialize.decode(data[str(ci)]["lattice"]) != lat:
            return f"{req.spec!r}: {ci} lattice does not round-trip"
        if lat.m22 != chern_m22(ci, s):
            return f"{req.spec!r}: {ci} closed form differs from the Chern engine"
    if data[str(chow.CI222)]["discriminant"] % 16 != (-s.degree * s.degree) % 16:
        return f"{req.spec!r}: (2,2,2) discriminant breaks the mod-16 rule"
    for window, enc in zip(windows, data["codim"]):
        if serialize.decode(enc) != window:
            return f"{req.spec!r}: parameter count does not round-trip"
    return None


def check_cli(label: str, argv: list[str], code: int, out: str) -> str | None:
    if code != 0:
        return f"{' '.join(argv)}: exit {code}"
    if "json" in argv:
        try:
            json.loads(out)
        except json.JSONDecodeError as exc:
            return f"{' '.join(argv)}: output is not JSON ({exc})"
    if label == "search-gaps" and ", ".join(map(str, DEFAULT_GAPS)) not in out:
        return f"{' '.join(argv)}: gap list is not {DEFAULT_GAPS}"
    return None


# --- set-up -----------------------------------------------------------------

SETUP_RUNS = 15
SETUP_CODE = "import nlatlas; nlatlas.load_dataset()"


def measure_setup(out: Outcome) -> float:
    """Median wall time of a fresh interpreter importing nlatlas and loading
    the bundled dataset."""
    walls = []
    for _ in range(SETUP_RUNS):
        out.calibrate("start")
        _, wall = timed(subprocess.run, [sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                        env=child_env(), stdout=subprocess.DEVNULL, check=True)
        walls.append(wall)
    out.say(f"setup: p50 {statistics.median(walls):.6g} s wall (n={SETUP_RUNS})")
    return statistics.median(walls)


# --- atlas-sweep ------------------------------------------------------------

def grid_size(bounds) -> int:
    return bounds.max_a * comb(bounds.max_points + bounds.max_mult, bounds.max_mult)


class AtlasSweep:
    def __init__(self, seed: int, out: Outcome):
        self.order = inputs.grid_order(seed, list(GRIDS))
        self.out = out
        self.candidates = sum(grid_size(GRIDS[g]) for g in self.order)
        self.digests: dict[str, str] = {}
        self.entries: dict[str, int] = {}
        self.tracer: Tracer | None = None

    def unit(self) -> tuple[dict[str, float], float]:
        """One pass; returns the wall time of each call and the pass time in
        reference seconds, and checks the outputs outside the timed calls."""
        walls, results, ref = {}, {}, 0.0
        for n, name in enumerate(self.order):
            if self.tracer:
                self.tracer.request = n
            factor = self.out.calibrate()
            results[name], walls[name] = timed(atlas.enumerate_atlas, GRIDS[name])
            ref += walls[name] * factor
            if name == "default":
                rep, walls["gap_report"] = timed(
                    atlas.gap_report, results[name], up_to=GAP_UP_TO, bounds=GRIDS[name])
                ref += walls["gap_report"] * factor
        for name in self.order:
            got = digest(results[name])
            first = self.digests.setdefault(name, got)
            self.entries[name] = len(results[name])
            self.out.op(check_atlas(results[name]) if got == first
                        else f"{name}: output changed between passes")
        self.out.op(None if rep.gaps == DEFAULT_GAPS
                    else f"default gap list {rep.gaps}, expected {DEFAULT_GAPS}")
        return walls, ref


def run_atlas_sweep(seed: int, seconds: float, out: Outcome) -> None:
    sweep = AtlasSweep(seed, out)
    atlas.enumerate_atlas(GRIDS["default"])     # warm-up
    passes = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(passes) < 2:
        passes.append(sweep.unit())
    walls = [sum(w.values()) for w, _ in passes]
    ref = statistics.median(r for _, r in passes)
    out.metric("throughput_per_s", sweep.candidates / ref, "1/s")
    out.metric("request_p50_ms", ref * 1e3, "ms")
    out.metric("peak_rss_kb", peak_rss_kb(children=False), "KiB")
    out.say(f"grid order {','.join(sweep.order)}; {sweep.candidates} candidates "
            f"per pass; {len(passes)} passes")
    out.say(timing_line("pass (wall)", walls, 1.0, "s"))
    for name in sweep.order:
        med = statistics.median(w[name] for w, _ in passes)
        size = grid_size(GRIDS[name])
        out.say(f"atlas.grid.{name}.s {med:.6g} s wall: {size} candidates, "
                f"{sweep.entries[name]} entries, {size / med:.6g} candidates/s, "
                f"sha256 {sweep.digests[name]}")
    out.say(f"atlas.gap_report.s {statistics.median(w['gap_report'] for w, _ in passes):.6g} s wall")


# --- atlas-pool -------------------------------------------------------------

POOL_GRID = "a12p16"
POOL_WORKERS = 2


class AtlasPool:
    def __init__(self, out: Outcome):
        self.out = out
        self.reference = digest(atlas.enumerate_atlas(GRIDS[POOL_GRID]))
        self.digest = ""
        out.say(f"serial {POOL_GRID} sha256 {self.reference}")

    def call(self):
        return atlas.enumerate_atlas(GRIDS[POOL_GRID], workers=POOL_WORKERS)

    def check(self, entries) -> None:
        self.digest = digest(entries)
        self.out.op(check_atlas(entries) if self.digest == self.reference
                    else f"pool digest {self.digest} differs from the serial digest")

    def unit(self) -> None:
        self.check(self.call())


def run_atlas_pool(seed: int, seconds: float, out: Outcome) -> None:
    pool = AtlasPool(out)
    pool.unit()                                 # warm-up
    walls, refs = [], []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(walls) < 2:
        factor = out.calibrate()
        entries, wall = timed(pool.call)
        walls.append(wall)
        refs.append(wall * factor)
        pool.check(entries)
    ref = statistics.median(refs)
    out.metric("throughput_per_s", grid_size(GRIDS[POOL_GRID]) / ref, "1/s")
    out.metric("request_p50_ms", ref * 1e3, "ms")
    out.metric("peak_rss_kb", peak_rss_kb(children=True), "KiB")
    out.say(f"pool {POOL_GRID} workers={POOL_WORKERS} sha256 {pool.digest} "
            f"({'equals' if pool.digest == pool.reference else 'DIFFERS FROM'} serial)")
    out.say(timing_line("enumerate_atlas (wall)", walls, 1.0, "s"))


# --- spec-stream ------------------------------------------------------------

class SpecRun:
    def __init__(self, seed: int, out: Outcome):
        self.stream = inputs.SpecStream(seed, inputs.load_corpus(), inputs.load_rows(ROOT))
        self.out = out
        self.seen: set[str] = set()
        self.sent = 0
        self.repeats = 0
        self.rejects = 0
        self.tracer: Tracer | None = None

    def request(self) -> int:
        """Send the next spec; return its latency in ns."""
        req = next(self.stream)
        if self.tracer:
            self.tracer.request = self.sent
        t0 = perf_counter_ns()
        try:
            result, exc = spec_request(req.spec), None
        except Exception as e:          # every failure is counted, none stops the run
            result, exc = None, e
        dt = perf_counter_ns() - t0
        self.out.op(check_spec(req, result, exc))
        if self.sent < SPEC_PREFIX:
            self.repeats += req.spec in self.seen
            self.seen.add(req.spec)
        self.sent += 1
        self.rejects += req.expect is not None
        return dt

    def unit(self) -> None:
        for _ in range(SPEC_BATCH):
            self.request()

    def warm_up(self) -> None:
        for _ in range(SPEC_WARMUP):
            self.request()

    def report_mix(self) -> None:
        prefix = min(self.sent, SPEC_PREFIX)
        self.out.say(f"repeat share {self.repeats / prefix:.4f} (first {prefix} requests); "
                     f"expected-reject share {self.rejects / self.sent:.4f} "
                     f"({self.rejects} of {self.sent})")


def run_spec_stream(seed: int, seconds: float, out: Outcome) -> None:
    run = SpecRun(seed, out)
    run.warm_up()
    lat = array("d", [0.0]) * SPEC_CAPACITY     # reference ns
    n, wall_ns = 0, 0
    deadline = perf_counter() + seconds
    while n < SPEC_CAPACITY:
        if n % 256 == 0:
            if perf_counter() >= deadline:
                break
            factor = out.calibrate()
        dt = run.request()
        wall_ns += dt
        lat[n] = dt * factor
        n += 1
    samples = lat[:n]
    out.metric("throughput_per_s", n / (sum(samples) / 1e9), "1/s")
    out.metric("request_p50_ms", statistics.median(samples) / 1e6, "ms")
    out.metric("peak_rss_kb", peak_rss_kb(children=False), "KiB")
    out.say(timing_line("spec (reference)", samples, 1e-3, "us"))
    out.say(f"{n / (wall_ns / 1e9):.6g} specs per wall second")
    run.report_mix()


# --- cli-session ------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("NLATLAS_DATASET", None)
    return env


def run_child(args: list[str], env: dict) -> tuple[float, int, str, int]:
    """Run ``python args`` from the checkout root; return wall time, exit
    code, stdout and the child's peak RSS in KiB."""
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        # the CLI writes at most an error line to stderr, so reading stdout
        # first cannot block on a full stderr pipe
        out = proc.stdout.read()
        proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return perf_counter() - t0, proc.returncode, out.decode(), usage.ru_maxrss


class CliSession:
    def __init__(self, seed: int, out: Outcome):
        diagram = ROOT / "bench" / "out" / "diagram.json"
        diagram.write_text(json.dumps(inputs.DIAGRAM))
        self.script = inputs.cli_script(seed, inputs.load_rows(ROOT), str(diagram))
        self.out = out
        self.tracer: Tracer | None = None

    def unit(self) -> None:
        """One pass through ``nlatlas.cli.main`` in this process."""
        for n, (label, argv) in enumerate(self.script):
            if self.tracer:
                self.tracer.request = n
            buf = io.StringIO()
            with redirect_stdout(buf), redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            self.out.op(check_cli(label, argv, code, buf.getvalue()))


def run_cli_session(seed: int, seconds: float, out: Outcome) -> None:
    session = CliSession(seed, out)
    env = child_env()
    run_child(["-c", CLI_LAUNCH, "describe", "--surface", "1;"], env)   # warm-up
    walls: dict[str, list[float]] = {}
    passes, every = [], []
    peak = 0
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(passes) < 2:
        total = 0.0
        for label, argv in session.script:
            out.calibrate("start")
            wall, code, text, rss = run_child(["-c", CLI_LAUNCH, *argv], env)
            out.op(check_cli(label, argv, code, text))
            walls.setdefault(label, []).append(wall)
            every.append(wall)
            total += wall
            peak = max(peak, rss)
        passes.append(total)
    out.metric("throughput_per_s", len(every) / (sum(every) * out.speed("start")), "1/s")
    out.metric("request_p50_ms", statistics.median(every) * 1e3 * out.speed("start"), "ms")
    out.metric("peak_rss_kb", peak, "KiB")
    out.say(f"{len(session.script)} commands per pass, {len(passes)} passes; "
            "peak RSS is the largest CLI process")
    out.say(timing_line("command (wall)", every, 1e3, "ms"))
    for label in ("describe", "tables", "search-gaps"):
        out.say(timing_line(f"cli {label} (wall)", walls[label], 1e3, "ms"))
    out.say(timing_line("cli session (wall)", passes, 1.0, "s"))


# --- traced run -------------------------------------------------------------

def traced_run(workload: str, seed: int, seconds: float, out: Outcome) -> None:
    """Alternate untraced and traced units until ``seconds`` have passed.

    A unit is one sweep pass, one pool call, a batch of SPEC_BATCH specs or
    one in-process pass of the CLI script.  Per-layer times are medians over
    the traced units; counts come from the first traced unit, so they repeat
    exactly for a seed; the tracing overhead is the median traced unit minus
    the median untraced one.
    """
    if workload == "atlas-sweep":
        holder = AtlasSweep(seed, out)
    elif workload == "atlas-pool":
        holder = AtlasPool(out)
    elif workload == "spec-stream":
        holder = SpecRun(seed, out)
        holder.warm_up()
    else:
        holder = CliSession(seed, out)
    holder.unit()                                   # warm-up

    tally = {"candidates": 0, "entries": 0}

    def count_atlas(args, kwargs, entries):
        bounds = args[0] if args else kwargs.get("bounds")
        tally["candidates"] += grid_size(bounds or atlas.SearchBounds())
        tally["entries"] += len(entries)

    tracer = Tracer(TARGETS, observers={"atlas.enumerate_atlas": count_atlas})
    plain, traced, tables, first = [], [], [], None
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or not traced:
        t0 = perf_counter()
        holder.unit()
        plain.append(perf_counter() - t0)
        holder.tracer = tracer
        with tracer.installed():
            t0 = perf_counter()
            holder.unit()
            traced.append(perf_counter() - t0)
        holder.tracer = None
        spans, chunks, nbytes = tracer.reset()
        tables.append(summarize(spans, tracer.names))
        if first is None:
            first = (tables[0], len(spans), chunks, nbytes, dict(tally))
            path = ROOT / "bench" / "out" / f"spans-{workload}-{seed}.tsv"
            write_tsv(spans, tracer.names, str(path))
            out.say(f"spans of the first traced unit written to {path.relative_to(ROOT)}")
        del spans

    calls, n_spans, chunks, nbytes, atlas_tally = first
    self_s = {name: statistics.median(t[name]["self_s"] for t in tables) for name in TARGETS}
    for name in TARGETS:
        out.metric(f"{name}.calls", calls[name]["calls"], "count")
        out.metric(f"{name}.rejected", calls[name]["rejected"], "count")
    for name in ALL_PATH:
        out.metric(f"{name}.self_s", self_s[name], "s")
    norm = calls["surfaces.normalize_contractions"]
    out.metric("surfaces.normalize_contractions.pass_ratio",
               1 - norm["rejected"] / norm["calls"] if norm["calls"] else 0.0, "ratio")
    out.metric("atlas.accept_ratio",
               atlas_tally["entries"] / atlas_tally["candidates"]
               if atlas_tally["candidates"] else 0.0, "ratio")
    out.metric("atlas.pool.chunks", chunks, "count")
    out.metric("atlas.pool.result_bytes", nbytes, "B")
    out.metric("trace.spans", n_spans, "count")
    overhead = statistics.median(traced) - statistics.median(plain)
    out.metric("trace.overhead_s", overhead, "s")
    out.metric("trace.overhead_ratio", overhead / statistics.median(plain), "ratio")

    out.say(f"{len(traced)} traced and {len(plain)} untraced units; unit p50 "
            f"{statistics.median(plain):.6g} s untraced, {statistics.median(traced):.6g} s traced")
    out.say(f"atlas: {atlas_tally['entries']} entries of {atlas_tally['candidates']} "
            f"candidates; pool: {chunks} chunks, {nbytes} result bytes "
            "(computed from pickle.dumps of the returned entries)")
    total = sum(self_s.values())
    for name in TARGETS:
        share = self_s[name] / total if total else 0.0
        out.say(f"{name:34s} calls {calls[name]['calls']:8d}  rejected "
                f"{calls[name]['rejected']:7d}  self {self_s[name]:.6f} s ({share:6.1%})")


def peak_rss_kb(children: bool) -> int:
    """Peak RSS in KiB of this process, or of it and its waited-for children."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        rss = max(rss, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return rss
