"""Command-line surface.

Exit codes: 0 on success, 2 when a table reproduction found a mismatch,
3 on usage errors, parse errors, bad input or I/O trouble.  All numeric
output is exact integer arithmetic.
"""

from __future__ import annotations

import argparse
import os
import sys

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
    mod = mod16_class(disc)
    text = (f"matrix {lat}\ndiscriminant {disc} "
            f"(residue {mod.residue} mod 16, "
            + ("admissible" if mod.admissible else "inadmissible") + ")")
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
    from .dataset import load_dataset
    _given({"--table-row": args.table_row, "--h0nsx": args.h0nsx is not None})
    dataset = load_dataset(args.dataset)
    row = dataset.row(args.table_row) if args.table_row else None
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
    from .hodge import classify_solved, diagram_from_dict, solve_diagram
    with open(args.diagram) as fh:
        data = json.load(fh)
    solved = solve_diagram(diagram_from_dict(data))
    cls = classify_solved(solved)
    inv = solved.invariants
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
    bounds = SearchBounds(
        max_a=args.max_a, max_points=args.max_points, max_mult=args.max_mult,
        min_h0_IS2=args.min_h0_is2, max_codim=args.max_codim,
    )
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
        print("surface,m11,m12,m22,discriminant,codim_lo,codim_hi,h0_IS2,h0_N")
        for e in entries:
            lat = e.lattice
            print(f"{e.model.spec_string()},{lat.m11},{lat.m12},{lat.m22},"
                  f"{e.discriminant},{e.codim_bound_range[0]},"
                  f"{e.codim_bound_range[1]},{e.h0_IS2},{e.h0_N}")
    elif args.format == "md":
        print(f"bounds: {bounds.describe()}\n")
        print("| surface | matrix (det) | codim range | h0(I(2)), h0(N_P7) |")
        print("|---|---|---|---|")
        for e in entries:
            print(f"| S({e.model.spec_string()}) | {e.lattice} "
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
    for rep in reports:
        if args.format == "json":
            import json
            print(json.dumps({
                "table": rep.which, "ok": rep.ok,
                "mismatches": [{"row": c.row.id, "diffs": {
                    k: {"got": got, "want": want} for k, (got, want) in c.diffs.items()}}
                    for c in rep.mismatches],
            }, indent=2))
        elif args.format == "md":
            print(f"### Table {rep.which}\n")
            print(table_markdown(rep))
            print()
        elif args.format == "csv":
            print(table_csv(rep))
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
    dataset = load_dataset(args.dataset)
    ci = parse_ci(args.ci) if args.ci else CI222
    print(describe(args.surface, ci, dataset))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlatlas",
        description="Exact calculator for surface lattices, self-intersections "
                    "and Noether-Lefschetz discriminants of complete "
                    "intersections of three quadrics in P7.",
    )
    parser.add_argument("--format", choices=("text", "json", "csv", "md"),
                        default="text")
    parser.add_argument("--dataset", default=None,
                        help="path to a table dataset (default: bundled; "
                             "NLATLAS_DATASET overrides)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="invariant record of a surface spec")
    p.add_argument("--surface", required=True)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("lattice", help="rank-2 lattice and discriminant")
    p.add_argument("--ci", default="2,2,2")
    p.add_argument("--surface")
    p.add_argument("--abs", help="abstract invariants 'deg=..,g=..,K2=..,chiO=..'")
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("selfint", help="self-intersection of the surface class")
    p.add_argument("--ci", default="2,2,2")
    p.add_argument("--surface")
    p.add_argument("--abs", help="abstract invariants 'deg=..,g=..,K2=..,chiO=..'")
    p.set_defaults(func=_cmd_selfint)

    p = sub.add_parser("count", help="parameter count / codimension bound")
    p.add_argument("--surface")
    p.add_argument("--abs")
    p.add_argument("--h0nsx", type=int, default=None)
    p.add_argument("--table-row", default=None,
                   help="pull surface and h0(N_S/X) from a dataset row")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("ledger", help="solve a two-sided blow-up diagram")
    p.add_argument("--diagram", required=True, help="JSON diagram file")
    p.set_defaults(func=_cmd_ledger)

    p = sub.add_parser("search", help="enumerate the discriminant atlas")
    p.add_argument("--max-a", type=int, default=8)
    p.add_argument("--max-points", type=int, default=13)
    p.add_argument("--max-mult", type=int, default=3)
    p.add_argument("--min-h0-is2", type=int, default=7)
    p.add_argument("--max-codim", type=int, default=7)
    p.add_argument("--det", type=int, default=None, help="filter to one bucket")
    p.add_argument("--gaps", action="store_true", help="emit the gap report")
    p.add_argument("--up-to", type=int, default=110)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("tables", help="recompute the bundled tables and diff")
    p.add_argument("--which", default="1,2,3,4", help="comma list from 1,2,3,4")
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("describe", help="one-screen report for a surface spec")
    p.add_argument("--surface", required=True)
    p.add_argument("--ci", default=None)
    p.set_defaults(func=_cmd_describe)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its usage message; exit 2 means a table
        # mismatch here, so a usage error is bad input (--help still exits 0)
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
