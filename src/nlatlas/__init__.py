"""Exact-arithmetic toolkit for the lattice theory of complete intersections
of three quadrics in P7: surface invariants from plane models, cycle
self-intersections, rank-2 discriminants with the mod-16 congruence, Hilbert
scheme parameter counts, Hodge-diamond diagram solving and a deterministic
discriminant-atlas search."""

import importlib

__version__ = "0.1.0"

# home module of every public name; ``import nlatlas`` loads none of them,
# and the first access of a name imports its module (PEP 562)
_EXPORTS = {
    "atlas": ("AtlasEntry", "GapReport", "SearchBounds", "enumerate_atlas", "gap_report"),
    "chow": ("CI222", "CompleteIntersectionType", "chern_engine_coefficients",
             "closed_form_coefficients", "formula_222", "self_intersection"),
    "counts": ("ParameterCount", "chi_NSX_lower", "codimension_bound",
               "h0_normal_bundle", "h0_quadrics"),
    "dataset": ("Dataset", "TableRow", "load_dataset"),
    "hodge": ("DiagramSpec", "HodgeDiamond", "blowup", "classify", "diagram_from_dict",
              "preset", "solve_diagram", "surface_diamond"),
    "lattice": ("RankTwoLattice", "Side", "discriminant", "fourfold_lattice",
                "mod16_class", "surface_matrix", "surface_picard_matrix"),
    "picard": ("DivisorClass", "adjunction_genus", "canonical", "pair",
               "riemann_roch_chi"),
    "report": ("describe", "reproduce_tables"),
    "surfaces": ("PlaneModel", "SurfaceInvariants", "abstract_surface", "expand",
                 "external_projection", "internal_projection", "invariants",
                 "nodal_projection", "normalize_contractions", "parse_surface_spec"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
