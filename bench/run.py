"""Benchmark for nlatlas, driven from outside through its public functions
and its CLI.  Run it from anywhere inside a checkout:

    python3 bench/run.py --workload atlas-sweep --seed 1 --seconds 20 --trace 0

It measures one workload for ``--seconds``, checks every output, and prints
report lines followed by one JSON line with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones, measured with tracing off; ``--trace 1`` makes a
separate traced run and reports the per-layer ones.  The program is
imported from ``src/`` of the checkout; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("atlas-sweep", "atlas-pool", "spec-stream", "cli-session")
IMPORT_RUNS = 5
NLATLAS_MODULES = ("nlatlas", "nlatlas.errors", "nlatlas.picard", "nlatlas.surfaces",
                   "nlatlas.chow", "nlatlas.lattice", "nlatlas.counts", "nlatlas.atlas",
                   "nlatlas.dataset", "nlatlas.hodge", "nlatlas.report",
                   "nlatlas.serialize", "nlatlas.cli")


def parse_importtime(text: str) -> dict[str, tuple[int, int]]:
    """(self us, cumulative us) of every module imported by the statement
    ``import nlatlas.cli``, from ``python -X importtime`` output.  Only the
    nlatlas modules and the standard-library modules they pull in are kept;
    modules the interpreter loaded at start-up are not part of the subtree."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        level = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((level, name.strip(), int(self_us), int(cum_us)))
    # children are printed before their parent, one level deeper
    top = [i for i, r in enumerate(rows) if r[0] == 0]
    end = next(i for i in top if rows[i][1] == "nlatlas.cli")
    begin = max((i for i in top if i < end), default=-1) + 1
    out = {}
    for _, name, self_us, cum_us in rows[begin:end + 1]:
        if name.startswith("nlatlas") or name.split(".")[0] in sys.stdlib_module_names:
            out[name] = (self_us, cum_us)
    return out


def import_breakdown(env: dict, out) -> None:
    runs = []
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import nlatlas.cli"],
                              cwd=ROOT, env=env, capture_output=True, text=True, check=True)
        runs.append(parse_importtime(proc.stderr))

    med = statistics.median
    for name in NLATLAS_MODULES:
        out.metric(f"import.{name}.self_us", med(r.get(name, (0, 0))[0] for r in runs), "us")
    out.metric("import.nlatlas.cumulative_us", med(r["nlatlas"][1] for r in runs), "us")
    out.metric("import.concurrent.futures.process.cumulative_us",
               med(r.get("concurrent.futures.process", (0, 0))[1] for r in runs), "us")
    out.metric("import.stdlib.self_us",
               med(sum(v[0] for k, v in r.items() if not k.startswith("nlatlas"))
                   for r in runs), "us")
    out.say(f"import breakdown of 'import nlatlas.cli' over {IMPORT_RUNS} runs: "
            f"{len(runs[0])} modules counted")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nlatlas" / "__init__.py").is_file():
        print(f"error: no nlatlas sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import nlatlas
    if Path(nlatlas.__file__).resolve().parent != SRC / "nlatlas":
        print(f"error: imported nlatlas from {nlatlas.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    (ROOT / "bench" / "out").mkdir(exist_ok=True)
    out = workloads.Outcome()
    if args.trace:
        workloads.traced_run(args.workload, args.seed, args.seconds, out)
        import_breakdown(workloads.child_env(), out)
    else:
        setup = workloads.measure_setup(out)
        run = {
            "atlas-sweep": workloads.run_atlas_sweep,
            "atlas-pool": workloads.run_atlas_pool,
            "spec-stream": workloads.run_spec_stream,
            "cli-session": workloads.run_cli_session,
        }[args.workload]
        run(args.seed, args.seconds, out)
        out.metric("setup_s", setup * out.speed("start"), "s")
        for kind, factors in out.factors.items():
            if factors:
                out.say(f"speed factor ({kind}) {out.speed(kind):.6g} reference s per "
                        f"wall s, median of {len(factors)} samples")

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for line in out.lines:
        print(line)
    print(f"failed_op_ratio {out.failed / out.attempted:.6g} "
          f"({out.failed} failed of {out.attempted} attempted)")
    for problem in out.problems:
        print(f"FAILED {problem}")
    for name, m in out.metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": out.failed == 0, "attempted": out.attempted,
                      "failed": out.failed, "metrics": out.metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
