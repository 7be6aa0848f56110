"""Command-line surface.

Exit codes: 0 on success, 2 when a table reproduction found a mismatch,
3 on usage errors, parse errors, bad input or I/O trouble.  All numeric
output is exact integer arithmetic.  A well-formed command line is read
from the command table without argparse; help and usage errors come from
the argparse parser built from the same table.
"""

from __future__ import annotations

import functools
import os
import sys
import types

# each command imports the library modules it runs, and json only where it
# prints JSON: without bytecode every imported module is compiled on every
# call, so a module a command skips is start-up time saved
from .errors import DatasetMissing, NLAtlasError, ParseError

EXIT_OK = 0
EXIT_MISMATCH = 2
EXIT_BAD_INPUT = 3


def _given(flags: dict) -> list[str]:
    """The flags (flag -> value) whose value is true; more than one is an error."""
    given = [flag for flag, value in flags.items() if value]
    if len(given) > 1:
        raise NLAtlasError(f"give only one of {' and '.join(given)}")
    return given


def _surface_from_args(args, row_spec: str | None = None) -> object:
    """Parse the one surface named by --table-row, --surface or --abs."""
    from .surfaces import parse_surface_spec
    named = {"--table-row": row_spec, "--surface": args.surface,
             "--abs": "abs:" + args.abs if getattr(args, "abs", None) else None}
    given = _given(named)
    if not given:
        raise NLAtlasError("need --surface or --abs")
    return parse_surface_spec(named[given[0]])


def _encode(record) -> dict:
    from .serialize import encode
    return encode(record)


def _emit(args, payload, text: str):
    """Print ``text``, or for ``--format json`` the JSON of ``payload()``;
    the payload is built only then, so text output never loads the codec."""
    if args.format == "json":
        import json
        print(json.dumps(payload(), indent=2))
    else:
        print(text)


def _cmd_invariants(args) -> int:
    s = _surface_from_args(args)
    text = (
        f"{s.provenance_label or args.surface}: degree {s.degree}, "
        f"sectional genus {s.sect_genus}, K^2 = {s.K2}, chi(O) = {s.chi_O}, "
        f"chi_top = {s.chi_top}, h0(O(H)) = {s.h0_H}, span PP^{s.span_dim}"
        + (f", {s.nodes} node(s)" if s.nodes else "")
    )
    _emit(args, lambda: _encode(s), text)
    return EXIT_OK


def _cmd_lattice(args) -> int:
    from .chow import parse_ci
    from .lattice import discriminant, fourfold_lattice, mod16_class
    s = _surface_from_args(args)
    ci = parse_ci(args.ci)
    lat = fourfold_lattice(ci, s)
    disc = discriminant(lat)
    mod = mod16_class(disc, ci)
    text = f"matrix {lat}\ndiscriminant {disc} ({mod})"
    _emit(args, lambda: {"lattice": _encode(lat), "discriminant": disc,
                         "mod16": mod._asdict()}, text)
    return EXIT_OK


def _cmd_selfint(args) -> int:
    from .chow import NODE_CORRECTION, closed_form_coefficients, parse_ci, self_intersection
    s = _surface_from_args(args)
    ci = parse_ci(args.ci)
    value = self_intersection(ci, s)
    ch2, chk = closed_form_coefficients(ci)
    text = f"(S)^2_X = {value}   coefficients (cH2, cHK) = ({ch2}, {chk})"
    if s.nodes:
        text += f"   [includes fitted +{NODE_CORRECTION} per node for {s.nodes} node(s)]"
    _emit(args, lambda: {"self_intersection": value, "cH2": ch2, "cHK": chk,
                         "node_rule_used": bool(s.nodes)}, text)
    return EXIT_OK


def _cmd_count(args) -> int:
    from .counts import codimension_bound
    _given({"--table-row": args.table_row, "--h0nsx": args.h0nsx is not None})
    row = None
    if args.table_row:
        # only a table row reads the dataset, so a missing file stops no other count
        from .dataset import load_dataset
        row = load_dataset(args.dataset).row(args.table_row)
    s = _surface_from_args(args, row.surface if row else None)
    h0_nsx = row.h0_NSX if row else args.h0nsx
    if h0_nsx is None:
        raise NLAtlasError("need --h0nsx N or --table-row ID")
    count = codimension_bound(s, h0_nsx)
    text = (f"h0(I_S(2)) = {count.h0_IS2}, h0(N_S/P7) = {count.h0_N}, "
            f"Grassmannian dim = {count.grass_dim}, h0(N_S/X) = {count.h0_NSX}\n"
            f"codimension bound = {count.codim_bound}   "
            f"[flags: {', '.join(count.flags)}]")
    _emit(args, lambda: _encode(count), text)
    return EXIT_OK


def _cmd_ledger(args) -> int:
    import json
    from .hodge import classify, diagram_from_dict, solve_diagram
    try:
        with open(args.diagram, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise NLAtlasError(f"cannot read diagram {args.diagram}: {exc}") from exc
    solved = solve_diagram(diagram_from_dict(data))
    inv = solved.invariants
    cls = classify(inv.pg, inv.q, inv.K2)
    text = (solved.unknown.pretty() + "\n"
            f"p_g = {inv.pg}, q = {inv.q}, b2 = {inv.b2}, chi(O) = {inv.chi_O}, "
            f"chi_top = {inv.chi_top}, K^2 = {inv.K2}\n")
    if cls.castelnuovo_type_I:
        text += "minimal Castelnuovo surface of type I (K^2 = 3 p_g - 7)\n"
    if cls.minimal_model_K2 is not None:
        text += (f"non-minimal: {cls.blow_downs} blow-down(s) reach the minimal "
                 f"model with K^2 = {cls.minimal_model_K2}\n")
    elif cls.non_minimal:
        text += "non-minimal: K^2 < 0 with p_g >= 1; the minimal model is not determined\n"
    _emit(args, lambda: {"unknown_diamond": _encode(solved.unknown),
                         "invariants": inv._asdict(),
                         "classification": cls._asdict()}, text.rstrip())
    return EXIT_OK


def _cmd_search(args) -> int:
    from .atlas import SearchBounds, enumerate_atlas, gap_report
    _given({"--det": args.det is not None, "--gaps": args.gaps})
    # the bounds given, max_a by --max-a and so on: SearchBounds holds the defaults
    bounds = SearchBounds(**{name: value for name in SearchBounds._fields
                             if (value := getattr(args, name.lower())) is not None})
    entries = enumerate_atlas(bounds)
    if args.gaps:
        rep = gap_report(entries, up_to=args.up_to, bounds=bounds)
        _emit(args, lambda: _encode(rep), rep.describe())
        return EXIT_OK
    if args.det is not None:
        entries = [e for e in entries if e.discriminant == args.det]
    if args.format == "json":
        import json
        print(json.dumps([_encode(e) for e in entries], indent=2))
    elif args.format == "csv":
        # a spec holds commas: the csv module quotes it as RFC 4180 has it
        import csv
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(("surface", "m11", "m12", "m22", "discriminant", "codim_lo",
                         "codim_hi", "h0_IS2", "h0_N"))
        for e in entries:
            lat = e.lattice
            writer.writerow((e.model.spec_string(), lat.m11, lat.m12, lat.m22,
                             e.discriminant, *e.codim_bound_range, e.h0_IS2, e.h0_N))
    elif args.format == "md":
        print(f"bounds: {bounds.describe()}\n")
        print("| surface | matrix (det) | codim range | h0(I(2)), h0(N_P7) |")
        print("|---|---|---|---|")
        for e in entries:
            print(f"| {e.model} | {e.lattice} "
                  f"({e.discriminant}) | {list(e.codim_bound_range)} | "
                  f"{e.h0_IS2}, {e.h0_N} |")
    else:
        print(f"bounds: {bounds.describe()}")
        print(f"{len(entries)} entr" + ("y" if len(entries) == 1 else "ies"))
        for e in entries:
            print(f"  {e.model}: matrix {e.lattice}, det {e.discriminant}, "
                  f"codim in {list(e.codim_bound_range)}, "
                  f"h0(I(2)) = {e.h0_IS2}, h0(N) = {e.h0_N}")
    return EXIT_OK


def _cmd_tables(args) -> int:
    from .dataset import load_dataset
    from .report import reproduce_tables, table_csv, table_markdown
    from .surfaces import _parse_int_list
    dataset = load_dataset(args.dataset)
    reports = []
    for w, at in _parse_int_list(args.which):
        try:
            reports.append(reproduce_tables(w, dataset))
        except DatasetMissing as exc:
            raise ParseError(str(exc), args.which, at) from None
    if args.format == "json":
        import json
        print(json.dumps([{
            "table": rep.which, "ok": rep.ok,
            "mismatches": [{"row": c.row.id, "diffs": {
                k: {"got": got, "want": want} for k, (got, want) in c.diffs.items()}}
                for c in rep.mismatches],
        } for rep in reports], indent=2))
    elif args.format == "csv":
        print(table_csv(*reports))
    else:
        for rep in reports:
            if args.format == "md":
                print(f"### Table {rep.which}\n")
                print(table_markdown(rep))
                print()
            else:
                status = "all rows match" if rep.ok else \
                    f"{len(rep.mismatches)} mismatching row(s)"
                print(f"table {rep.which}: {len(rep.checks)} rows, {status}")
                for c in rep.mismatches:
                    print(f"  {c.row.id} ({c.row.surface}): {c.diffs}")
    return EXIT_OK if all(rep.ok for rep in reports) else EXIT_MISMATCH


def _cmd_describe(args) -> int:
    from .chow import CI222, parse_ci
    from .dataset import load_dataset
    from .report import describe
    ci = parse_ci(args.ci)
    # only the (2,2,2) parameter count reads the dataset
    print(describe(args.surface, ci, load_dataset(args.dataset) if ci == CI222 else None))
    return EXIT_OK


_ABS = {"help": "abstract invariants 'deg=..,g=..,K2=..,chiO=..'"}

# the CLI's one grammar: flag -> add_argument keywords for the options before
# the command, and command -> (handler, help, its options); build_parser and
# _parse_fast both read it
GLOBAL_OPTIONS = {
    "--format": {"choices": ("text", "json", "csv", "md"), "default": "text"},
    "--dataset": {"default": None, "help": "path to a table dataset (default: "
                  "bundled; NLATLAS_DATASET overrides)"},
}
COMMANDS = {
    "invariants": (_cmd_invariants, "invariant record of a surface spec",
                   {"--surface": {"required": True}}),
    "lattice": (_cmd_lattice, "rank-2 lattice and discriminant",
                {"--ci": {"default": "2,2,2"}, "--surface": {}, "--abs": _ABS}),
    "selfint": (_cmd_selfint, "self-intersection of the surface class",
                {"--ci": {"default": "2,2,2"}, "--surface": {}, "--abs": _ABS}),
    "count": (_cmd_count, "parameter count / codimension bound", {
        "--surface": {}, "--abs": _ABS, "--h0nsx": {"type": int, "default": None},
        "--table-row": {"default": None,
                        "help": "pull surface and h0(N_S/X) from a dataset row"}}),
    "ledger": (_cmd_ledger, "solve a two-sided blow-up diagram",
               {"--diagram": {"required": True, "help": "JSON diagram file"}}),
    "search": (_cmd_search, "enumerate the discriminant atlas", {
        "--max-a": {"type": int, "default": None},
        "--max-points": {"type": int, "default": None},
        "--max-mult": {"type": int, "default": None},
        "--min-h0-is2": {"type": int, "default": None},
        "--max-codim": {"type": int, "default": None},
        "--det": {"type": int, "default": None, "help": "filter to one bucket"},
        "--gaps": {"action": "store_true", "default": False, "help": "emit the gap report"},
        "--up-to": {"type": int, "default": 110}}),
    "tables": (_cmd_tables, "recompute the bundled tables and diff",
               {"--which": {"default": "1,2,3,4", "help": "comma list from 1,2,3,4"}}),
    "describe": (_cmd_describe, "one-screen report for a surface spec",
                 {"--surface": {"required": True}, "--ci": {"default": "2,2,2"}}),
}


def build_parser():
    """The argparse parser of the grammar, for help and usage errors."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="nlatlas",
        description="Exact calculator for surface lattices, self-intersections "
                    "and Noether-Lefschetz discriminants of complete "
                    "intersections of three quadrics in P7.",
    )
    for flag, kw in GLOBAL_OPTIONS.items():
        parser.add_argument(flag, **kw)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, summary, options) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flag, kw in options.items():
            p.add_argument(flag, **kw)
        p.set_defaults(func=func)
    return parser


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _parse_fast(argv: list[str]):
    """The namespace argparse builds from ``argv`` when it holds only known
    ``--option value`` pairs and store-true flags around one command name.

    Anything else gives None, and ``main`` leaves it to argparse, its help
    and its usage messages: ``-h``, an unknown token, an abbreviation,
    ``--x=v``, a value starting with ``-``, a bad int or choice, a missing
    required option or a missing command.
    """
    args = {_dest(flag): kw.get("default") for flag, kw in GLOBAL_OPTIONS.items()}
    options, tokens = GLOBAL_OPTIONS, iter(argv)
    for token in tokens:
        if options is GLOBAL_OPTIONS and token in COMMANDS:
            func, _, options = COMMANDS[token]
            args.update({_dest(flag): kw.get("default") for flag, kw in options.items()},
                        command=token, func=func)
            continue
        kw = options.get(token)
        if kw is None:
            return None
        if "action" in kw:
            args[_dest(token)] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        if "type" in kw:
            try:
                value = kw["type"](value)
            except ValueError:
                return None
        if value not in kw.get("choices", (value,)):
            return None
        args[_dest(token)] = value
    if options is GLOBAL_OPTIONS or any(
            kw.get("required") and args[_dest(flag)] is None for flag, kw in options.items()):
        return None
    return types.SimpleNamespace(**args)


@functools.cache
def _freeze_heap_at_exit() -> None:
    """Have the process freeze its heap when it exits.

    The interpreter's teardown runs full garbage collections, which traverse
    every object the command built and free the cyclic ones one by one.
    Frozen objects sit in the permanent generation, which those collections
    skip, and the OS reclaims the memory.  The CLI holds nothing that needs
    a finalizer at exit, and the interpreter still flushes the std streams.
    """
    import atexit
    import gc
    atexit.register(gc.freeze)


def main(argv=None) -> int:
    # only a process entry (``nlatlas``, ``python -m nlatlas.cli``) passes no
    # argv; an in-process caller keeps its garbage collected at exit
    if argv is None:
        _freeze_heap_at_exit()
        argv = sys.argv[1:]
    args = _parse_fast(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            # argparse has printed its help or usage message; exit 2 means a
            # table mismatch here, so a usage error is bad input
            return EXIT_BAD_INPUT if exc.code else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early (``nlatlas search | head``): not an
        # error; point stdout at devnull so the interpreter's last flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (NLAtlasError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
