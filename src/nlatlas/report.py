"""Table reproduction against the bundled dataset, and the one-screen
describe report."""

from __future__ import annotations

from typing import NamedTuple

from .chow import (CI222, NODE_CORRECTION, CompleteIntersectionType,
                   congruence_secancy)
from .counts import (codimension_bound, codimension_window, count_flags,
                     grassmannian_dim)
from .dataset import Dataset, TableRow
from .errors import DatasetMissing, NLAtlasError
from .lattice import (discriminant, fourfold_lattice, mod16_class,
                      surface_matrix)
from .surfaces import SurfaceInvariants, parse_surface_spec, standard_model


class RowCheck(NamedTuple):
    row: TableRow
    diffs: dict

    @property
    def ok(self) -> bool:
        return not self.diffs


class TableReport(NamedTuple):
    which: int
    checks: tuple[RowCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def mismatches(self) -> tuple[RowCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)


def check_row(row: TableRow) -> RowCheck:
    """Recompute everything recomputable in a table row and diff it."""
    diffs: dict = {}

    def expect(name, got, want):
        if got != want:
            diffs[name] = (got, want)

    s = parse_surface_spec(row.surface)
    lat = fourfold_lattice(CI222, s)
    disc = discriminant(lat)
    expect("matrix", (lat.m11, lat.m12, lat.m22), row.matrix)
    expect("discriminant", disc, row.discriminant)
    count = codimension_bound(s, row.h0_NSX)
    expect("h0_IS2", count.h0_IS2, row.h0_IS2)
    expect("h0_N", count.h0_N, row.h0_N)
    expect("codim", count.codim_bound, row.codim)
    expect("mod16-admissible", mod16_class(disc).admissible, True)
    if row.congruence_degree is not None:
        expect("congruence_secancy",
               congruence_secancy(row.congruence_degree), row.congruence_secancy)
    if row.assoc is not None:
        deg, g, k2 = row.assoc
        assoc_disc = discriminant(surface_matrix(deg, g, k2))
        expect("assoc_discriminant", assoc_disc, row.assoc_discriminant)
        expect("dual-discriminant", assoc_disc, row.discriminant)
    return RowCheck(row=row, diffs=diffs)


def reproduce_tables(which: int, dataset: Dataset) -> TableReport:
    """Recompute one table and diff every row."""
    rows = dataset.table_rows(which)
    if not rows:
        raise DatasetMissing(f"dataset has no rows for table {which}")
    return TableReport(which=which, checks=tuple(check_row(row) for row in rows))


def _parses_to(spec: str, s: SurfaceInvariants) -> bool:
    # a row spec that does not parse (H^2 < 1 raises ValueError) matches nothing
    try:
        return parse_surface_spec(spec) == s
    except (NLAtlasError, ValueError):
        return False


def describe(surface_spec: str, ci: CompleteIntersectionType = CI222,
             dataset: Dataset | None = None) -> str:
    """One-screen report: invariants, lattice, discriminant with its mod-16
    class, and the parameter counts with their assumption flags."""
    s = parse_surface_spec(surface_spec)
    lat = fourfold_lattice(ci, s)
    disc = discriminant(lat)
    mod = mod16_class(disc, ci)
    standard = standard_model(surface_spec)
    lines = [
        f"Complete intersection of type {ci} in PP^{ci.ambient_dim}",
        f"of discriminant {disc} = det {lat}"
        + ("  [NOT an admissible residue]" if mod.admissible is False else ""),
        f"({mod})",
        "",
        f"surface: {s.provenance_label or surface_spec}",
        *([f"  Cremona-standard model {standard}, the same surface"] if standard else []),
        f"  degree {s.degree}, sectional genus {s.sect_genus}, "
        f"K^2 = {s.K2}, chi(O) = {s.chi_O}, chi_top = {s.chi_top}",
        f"  h0(O(H)) = {s.h0_H}, span PP^{s.span_dim}"
        + ("" if s.linearly_normal else " (not linearly normal)")
        + (f", {s.nodes} node(s)" if s.nodes else ""),
    ]
    if s.nodes:
        # m22 is the self-intersection, fitted node rule included
        fitted = NODE_CORRECTION * s.nodes
        lines.append(
            f"  self-intersection used the fitted +{NODE_CORRECTION} per node rule: "
            f"{lat.m22} = {lat.m22 - fitted} + {NODE_CORRECTION}*{s.nodes}"
        )
    row = None
    if dataset is not None:
        try:
            row = dataset.row(surface_spec)
        except DatasetMissing:
            # another spelling of a row's spec: the same record, label included
            row = next((r for r in dataset.rows if _parses_to(r.surface, s)), None)
    lines.append("")
    if row is not None:
        count = codimension_bound(s, row.h0_NSX)
        lines += [
            f"parameter count (h0(N_S/X) = {row.h0_NSX} from dataset row {row.id}):",
            f"  h0(I_S(2)) = {count.h0_IS2}, h0(N_S/P7) = {count.h0_N}, "
            f"Grassmannian dim = {count.grass_dim}",
            f"  codimension bound = {count.codim_bound}   [flags: {', '.join(count.flags)}]",
        ]
    else:
        h0_is2, h0_n, nsx, lo, hi = codimension_window(s)
        lines += [
            "parameter count (no dataset value for h0(N_S/X); showing the window",
            f" from h0(N_S/X) = 0 to the clamped Euler estimate {nsx}):",
            f"  h0(I_S(2)) = {h0_is2}, h0(N_S/P7) = {h0_n}, "
            f"Grassmannian dim = {grassmannian_dim(h0_is2)}",
            f"  codimension bound in [{lo}, {hi}]"
            f"   [flags: {', '.join(count_flags(s))}]",
        ]
    return "\n".join(lines)


def table_markdown(report: TableReport) -> str:
    """Markdown rendering in the printed tables' column order:
    surface, matrix, codim, counts."""
    head = ("| surface | matrix (det) | codim | h0(I(2)), h0(N_P7), h0(N_X) |\n"
            "|---|---|---|---|")
    body = []
    for check in report.checks:
        row = check.row
        mark = "" if check.ok else "  **MISMATCH**"
        m11, m12, m22 = row.matrix
        body.append(
            f"| S({row.surface}) | [[{m11},{m12}],[{m12},{m22}]] "
            f"({row.discriminant}) | {row.codim} | "
            f"{row.h0_IS2}, {row.h0_N}, {row.h0_NSX}{mark} |"
        )
    return "\n".join([head] + body)


def table_csv(report: TableReport) -> str:
    lines = ["id,surface,m11,m12,m22,discriminant,codim,h0_IS2,h0_N,h0_NSX,ok"]
    for check in report.checks:
        row = check.row
        m11, m12, m22 = row.matrix
        lines.append(
            f"{row.id},{row.surface},{m11},{m12},{m22},{row.discriminant},"
            f"{row.codim},{row.h0_IS2},{row.h0_N},{row.h0_NSX},{int(check.ok)}"
        )
    return "\n".join(lines)
