"""Exact-arithmetic toolkit for the lattice theory of complete intersections
of three quadrics in P7: surface invariants from plane models, cycle
self-intersections, rank-2 discriminants with the mod-16 congruence, Hilbert
scheme parameter counts, Hodge-diamond diagram solving and a deterministic
discriminant-atlas search."""

from .atlas import AtlasEntry, GapReport, SearchBounds, enumerate_atlas, gap_report
from .chow import (CI222, CompleteIntersectionType, chern_engine_coefficients,
                   closed_form_coefficients, formula_222, self_intersection)
from .counts import (ParameterCount, chi_NSX_lower, codimension_bound,
                     h0_normal_bundle, h0_quadrics)
from .dataset import Dataset, TableRow, load_dataset
from .hodge import (DiagramSpec, HodgeDiamond, blowup, classify,
                    diagram_from_dict, preset, solve_diagram, surface_diamond)
from .lattice import (RankTwoLattice, Side, discriminant, fourfold_lattice,
                      mod16_class, surface_matrix, surface_picard_matrix)
from .picard import (DivisorClass, adjunction_genus, canonical, pair,
                     riemann_roch_chi)
from .report import describe, reproduce_tables
from .surfaces import (PlaneModel, SurfaceInvariants, abstract_surface, expand,
                       external_projection, internal_projection, invariants,
                       nodal_projection, normalize_contractions,
                       parse_surface_spec)

__version__ = "0.1.0"

__all__ = [
    "AtlasEntry", "GapReport", "SearchBounds", "enumerate_atlas", "gap_report",
    "CI222", "CompleteIntersectionType", "chern_engine_coefficients",
    "closed_form_coefficients", "formula_222", "self_intersection",
    "ParameterCount", "chi_NSX_lower", "codimension_bound",
    "h0_normal_bundle", "h0_quadrics",
    "Dataset", "TableRow", "load_dataset",
    "DiagramSpec", "HodgeDiamond", "blowup", "classify", "diagram_from_dict",
    "preset", "solve_diagram", "surface_diamond",
    "RankTwoLattice", "Side", "discriminant", "fourfold_lattice",
    "mod16_class", "surface_matrix", "surface_picard_matrix",
    "DivisorClass", "adjunction_genus", "canonical", "pair",
    "riemann_roch_chi",
    "describe", "reproduce_tables",
    "PlaneModel", "SurfaceInvariants", "abstract_surface", "expand",
    "external_projection", "internal_projection", "invariants",
    "nodal_projection", "normalize_contractions", "parse_surface_spec",
    "__version__",
]
