"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files: ``Tracer.installed``
replaces each traced function in every ``nlatlas`` module namespace that
binds it (``nlatlas.atlas.invariants``, ``nlatlas.lattice.self_intersection``,
...), so the spans sit on the program's real call path without any change
to the program.  A span is (id, parent id, name, start, end, request,
failed); ids are indices into column arrays, which keeps a few hundred
thousand spans per traced unit at about 40 bytes each.

Process-pool work is traced too.  Pool workers are forked from the traced
process, so they inherit the wrappers and the span stack at fork time.  The
wrapper around ``nlatlas.atlas._evaluate_chunk`` records the worker's spans
in a block of its own and returns the chunk's entries in a list subclass
whose pickle hands the block to the parent's active tracer as the result is
unpickled.  The program still receives a plain list.  Worker and parent
timestamps share one clock (``perf_counter_ns`` is CLOCK_MONOTONIC, which is
system-wide on Linux).
"""

from __future__ import annotations

import functools
import os
import pickle
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

# ids of spans recorded inside a pool worker start here until the parent
# re-numbers them on merge
WORKER_BASE = 1 << 40

CHUNK_TARGET = "atlas._evaluate_chunk"

_ACTIVE: "Tracer | None" = None


class Spans:
    """Column store of spans; span ``i`` has id ``base + i``."""

    def __init__(self, base: int = 0):
        self.base = base
        self.parent = array("q")
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.request = array("q")
        self.failed = array("b")

    def __len__(self) -> int:
        return len(self.start)

    def columns(self):
        return (self.parent, self.name, self.start, self.end, self.request, self.failed)

    def extend_block(self, block: tuple, base: int) -> None:
        """Append a worker block whose local ids start at ``base``."""
        offset = len(self)
        parent, name, start, end, request, failed = block
        self.parent.extend(p - base + offset if p >= base else p for p in parent)
        self.name.extend(name)
        self.start.extend(start)
        self.end.extend(end)
        self.request.extend(request)
        self.failed.extend(failed)


class Tracer:
    def __init__(self, targets: list[str], observers: dict | None = None):
        """``observers`` maps a target to ``fn(args, kwargs, result)``, called
        after each call of the target that returns."""
        self.names = list(targets)
        self.observers = observers or {}
        self.spans = Spans()
        self.stack: list[int] = []
        self.request = -1
        self.pending: list[tuple] = []   # (block, result_bytes) from pool workers
        self._owner = os.getpid()

    def _wrap(self, idx: int, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            i = len(spans.start)
            stack = self.stack
            spans.parent.append(stack[-1] if stack else -1)
            spans.name.append(idx)
            spans.request.append(self.request)
            spans.failed.append(0)
            spans.end.append(0)
            stack.append(spans.base + i)
            spans.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.failed[i] = 1
                raise
            finally:
                spans.end[i] = perf_counter_ns()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result
        return traced

    def _wrap_chunk(self, idx: int, fn):
        traced = self._wrap(idx, fn)

        @functools.wraps(fn)
        def traced_chunk(bounds, chunk):
            if os.getpid() == self._owner:
                return traced(bounds, chunk)
            # inside a forked pool worker: record into a fresh block
            self.spans = Spans(base=WORKER_BASE)
            entries = traced(bounds, chunk)
            block = self.spans.columns()
            self.spans = Spans()
            return _ChunkResult(entries, block, len(pickle.dumps(entries)))
        return traced_chunk

    @contextmanager
    def installed(self):
        """Wrap every target in every nlatlas namespace that binds it."""
        global _ACTIVE
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "nlatlas" or name.startswith("nlatlas."))]
        replaced = []
        for idx, target in enumerate(self.names):
            mod_name, fn_name = target.rsplit(".", 1)
            original = getattr(sys.modules["nlatlas." + mod_name], fn_name)
            if target == CHUNK_TARGET:
                wrapper = self._wrap_chunk(idx, original)
            else:
                wrapper = self._wrap(idx, original, self.observers.get(target))
            for m in modules:
                if m.__dict__.get(fn_name) is original:
                    setattr(m, fn_name, wrapper)
                    replaced.append((m, fn_name, original))
        _ACTIVE = self
        try:
            yield self
        finally:
            _ACTIVE = None
            for m, fn_name, original in replaced:
                setattr(m, fn_name, original)

    def reset(self) -> tuple[Spans, int, int]:
        """Hand over the recorded spans, with the number of pool chunks and
        their computed result bytes, and start an empty store.  Blocks
        shipped back from pool workers are merged here."""
        chunks = nbytes = 0
        while self.pending:
            block, size = self.pending.pop(0)
            self.spans.extend_block(block, WORKER_BASE)
            chunks += 1
            nbytes += size
        done, self.spans = self.spans, Spans()
        self.stack.clear()
        return done, chunks, nbytes


def _absorb_chunk(entries: list, block: tuple, nbytes: int) -> list:
    # runs in the parent while the pool result is unpickled
    if _ACTIVE is not None:
        _ACTIVE.pending.append((block, nbytes))
    return entries


class _ChunkResult(list):
    def __init__(self, entries, block, nbytes):
        super().__init__(entries)
        self.block = block
        self.nbytes = nbytes

    def __reduce__(self):
        return (_absorb_chunk, (list(self), self.block, self.nbytes))


def self_times(spans: Spans) -> list[int]:
    """Self time of every span: its duration minus the part of its interval
    that its children cover.  Children may overlap (pool workers run side by
    side), so coverage is the length of the union of their intervals, clipped
    to the parent's."""
    n = len(spans)
    children: dict[int, list[int]] = {}
    for i in range(n):
        p = spans.parent[i]
        if p >= 0:
            children.setdefault(p - spans.base, []).append(i)
    out = []
    start, end = spans.start, spans.end
    for i in range(n):
        s, e = start[i], end[i]
        covered = 0
        kids = children.get(i)
        if kids:
            cur_lo = cur_hi = None
            for lo, hi in sorted((max(start[c], s), min(end[c], e)) for c in kids):
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                elif hi > cur_hi:
                    cur_hi = hi
            if cur_hi is not None:
                covered += cur_hi - cur_lo
        out.append(e - s - covered)
    return out


def summarize(spans: Spans, names: list[str]) -> dict[str, dict]:
    """Per traced function: calls, rejected (raised) and self time in s."""
    selfs = self_times(spans)
    out = {name: {"calls": 0, "rejected": 0, "self_s": 0.0} for name in names}
    for i in range(len(spans)):
        row = out[names[spans.name[i]]]
        row["calls"] += 1
        row["rejected"] += spans.failed[i]
        row["self_s"] += selfs[i] / 1e9
    return out


def write_tsv(spans: Spans, names: list[str], path: str) -> None:
    with open(path, "w") as fh:
        fh.write("id\tparent\tname\tstart_ns\tend_ns\trequest\tfailed\n")
        for i in range(len(spans)):
            fh.write(f"{i}\t{spans.parent[i]}\t{names[spans.name[i]]}\t"
                     f"{spans.start[i]}\t{spans.end[i]}\t{spans.request[i]}\t"
                     f"{spans.failed[i]}\n")
