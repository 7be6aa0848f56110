"""Table reproduction against the bundled dataset, and the one-screen
describe report."""

from __future__ import annotations

from dataclasses import dataclass

from .chow import CI222, CompleteIntersectionType, congruence_secancy
from .counts import codimension_bound, codimension_window
from .dataset import Dataset, TableRow
from .errors import DatasetMissing, RowMismatch
from .lattice import (discriminant, fourfold_lattice, mod16_class,
                      surface_matrix)
from .surfaces import parse_surface_spec


@dataclass(frozen=True)
class RowCheck:
    row_id: str
    surface: str
    ok: bool
    diffs: dict


@dataclass(frozen=True)
class TableReport:
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
    return RowCheck(row_id=row.id, surface=row.surface, ok=not diffs, diffs=diffs)


def reproduce_tables(which: int, dataset: Dataset, strict: bool = False) -> TableReport:
    """Recompute one table and diff it; with ``strict`` the first mismatching
    row raises instead of being collected."""
    rows = dataset.table_rows(which)
    if not rows:
        raise DatasetMissing(f"dataset has no rows for table {which}")
    checks = []
    for row in rows:
        result = check_row(row)
        if strict and not result.ok:
            raise RowMismatch(row.id, result.diffs)
        checks.append(result)
    return TableReport(which=which, checks=tuple(checks))


def describe(surface_spec: str, ci: CompleteIntersectionType = CI222,
             dataset: Dataset | None = None) -> str:
    """One-screen report: invariants, lattice, discriminant with its mod-16
    class, and the parameter counts with their assumption flags."""
    s = parse_surface_spec(surface_spec)
    lat = fourfold_lattice(ci, s)
    disc = discriminant(lat)
    mod = mod16_class(disc)
    lines = [
        f"Complete intersection of type {ci} in PP^{ci.ambient_dim}",
        f"of discriminant {disc} = det {lat}"
        + ("" if mod.admissible else "  [NOT an admissible residue]"),
        f"(residue {mod.residue} mod 16, "
        + ("admissible" if mod.admissible else "inadmissible") + ")",
        "",
        f"surface: {s.provenance_label or surface_spec}",
        f"  degree {s.degree}, sectional genus {s.sect_genus}, "
        f"K^2 = {s.K2}, chi(O) = {s.chi_O}, chi_top = {s.chi_top}",
        f"  h0(O(H)) = {s.h0_H}, span PP^{s.span_dim}"
        + ("" if s.linearly_normal else " (not linearly normal)")
        + (f", {s.nodes} node(s)" if s.nodes else ""),
    ]
    if s.nodes:
        # m22 is the self-intersection, fitted node rule included
        lines.append(
            f"  self-intersection used the fitted +2 per node rule: "
            f"{lat.m22} = {lat.m22 - 2 * s.nodes} + 2*{s.nodes}"
        )
    row = None
    if dataset is not None:
        try:
            row = dataset.row(surface_spec)
        except DatasetMissing:
            row = None
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
        lo, hi = codimension_window(s)
        lines += [
            "parameter count (no dataset value for h0(N_S/X); showing the window",
            f" from h0(N_S/X) = 0 to the clamped Euler estimate {hi.h0_NSX}):",
            f"  h0(I_S(2)) = {lo.h0_IS2}, h0(N_S/P7) = {lo.h0_N}, "
            f"Grassmannian dim = {lo.grass_dim}",
            f"  codimension bound in [{lo.codim_bound}, {hi.codim_bound}]"
            f"   [flags: {', '.join(lo.flags)}]",
        ]
    return "\n".join(lines)


def table_markdown(report: TableReport, dataset: Dataset) -> str:
    """Markdown rendering in the printed tables' column order:
    surface, matrix, codim, counts."""
    head = ("| surface | matrix (det) | codim | h0(I(2)), h0(N_P7), h0(N_X) |\n"
            "|---|---|---|---|")
    body = []
    for check in report.checks:
        row = dataset.row(check.row_id)
        mark = "" if check.ok else "  **MISMATCH**"
        m11, m12, m22 = row.matrix
        body.append(
            f"| S({row.surface}) | [[{m11},{m12}],[{m12},{m22}]] "
            f"({row.discriminant}) | {row.codim} | "
            f"{row.h0_IS2}, {row.h0_N}, {row.h0_NSX}{mark} |"
        )
    return "\n".join([head] + body)


def table_csv(report: TableReport, dataset: Dataset) -> str:
    lines = ["id,surface,m11,m12,m22,discriminant,codim,h0_IS2,h0_N,h0_NSX,ok"]
    for check in report.checks:
        row = dataset.row(check.row_id)
        m11, m12, m22 = row.matrix
        lines.append(
            f"{row.id},{row.surface},{m11},{m12},{m22},{row.discriminant},"
            f"{row.codim},{row.h0_IS2},{row.h0_N},{row.h0_NSX},{int(check.ok)}"
        )
    return "\n".join(lines)
